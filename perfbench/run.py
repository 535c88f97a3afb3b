"""Pipeline benchmark for the sigclass CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sigclass checkout.  The benchmark writes the
workload's inputs from the seed, then drives ``sigclass.cli.main``
in-process through the workload's commands as a closed loop: one caller,
and each command waits for the one before it (``fit`` writes the
``model.json`` that the later commands read).  It repeats that cycle for
about S seconds, checks every command's output, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
The line before it holds the details: every sample, tail percentiles, the
machine, and which checks failed.

With ``--trace 0`` the metrics are the end-to-end ones; every time is a
median over the run's cycles, scaled to a reference machine speed by a
speed probe (see harness.py).  With ``--trace 1`` every other cycle runs
with span-recording wrappers installed (see tracing.py); the metrics are
then per-layer medians over the traced cycles, plus the tracing overhead
measured against the untraced cycles in between.

Working files go to ``.perfbench/`` in the checkout.
"""

import os

# One BLAS thread, fixed before numpy loads, so that the closed loop is one
# caller on one core whatever the machine's core count.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "classifier", "calibration", "data_io", "path_signature", "tensor_algebra",
           "embedding", "signal_analysis")


def load_program() -> tuple[dict, float]:
    """Import sigclass from this checkout's src/; return its modules by
    short name and the import time, numpy's included."""
    src = ROOT / "src"
    if not (src / "sigclass" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'sigclass'} not found; run from the root of a sigclass checkout")
    sys.path.insert(0, str(src))
    start = perf_counter()
    modules = {name: importlib.import_module(f"sigclass.{name}") for name in MODULES}
    import_s = perf_counter() - start
    if Path(modules["cli"].__file__).resolve().parent != src / "sigclass":
        raise SystemExit(f"error: imported sigclass from {modules['cli'].__file__}, not from {src}")
    return modules, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("seed must be >= 0")
    modules, import_s = load_program()

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    details, result = harness.execute(
        modules, import_s, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    details["machine"]["blas_pin"] = BLAS_PIN
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
