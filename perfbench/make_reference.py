"""Regenerate the stored output digests that the benchmark checks against.

    python3 perfbench/make_reference.py --workload NAME --seeds 0-63 12345

Run from the root of a sigclass checkout, at a commit whose outputs are
known to be right.  For each seed it writes the workload's inputs, runs
one command cycle and stores every command's output digest in
``perfbench/reference/<workload>.json``, merged with the seeds already
there.  A change that alters outputs on purpose regenerates the file and
says why.
"""

import argparse
import json
import shutil
import sys

import run


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds and ranges such as 0-63")
    args = parser.parse_args(argv)
    modules, _ = run.load_program()

    import harness
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    path = harness.HERE / "reference" / f"{wl.name}.json"
    stored = harness.load_reference(wl.name)
    harness.enter_workdir(wl, "-reference")
    for seed in parse_seeds(args.seeds):
        session = harness.Session(modules["cli"], wl)
        wl.write_inputs(seed)
        shutil.rmtree(harness.OUT, ignore_errors=True)
        digests = {}
        for name, argv in wl.commands():
            _, digests[name] = session.command(name, argv, harness.OUT)
        if session.problems:
            raise SystemExit(f"seed {seed}: {session.problems}")
        stored[str(seed)] = digests
        print(f"{wl.name} seed {seed}: stored", file=sys.stderr)

    path.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(stored[k], sort_keys=True)}" for k in sorted(stored, key=int)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"seeds": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
