"""A CLI flag either names a file or is one that a benchmark workload
passes to that command; every other setting is a config key, read from the
config file alone.  The workloads' argument lists come from
perfbench/workloads.py, so a flag that no workload exercises fails here."""

import argparse
import pathlib
import runpy

from sigclass.cli import build_parser

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
FILE_FLAGS = {"--config", "--out", "--model"}


def test_every_flag_names_a_file_or_is_passed_by_a_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports synth
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
    passed = {(argv[0], arg) for wl in workloads.values() for _, argv in wl.commands()
              for arg in argv[1:] if arg.startswith("--")}
    subparsers = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers) == 1
    stray = []
    for command, parser in subparsers[0].choices.items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                assert action.option_strings == ["-h", "--help"]
            elif not action.option_strings:
                stray.append(f"{command} <{action.dest}>")
            else:
                stray += [f"{command} {flag}" for flag in action.option_strings
                          if flag not in FILE_FLAGS and (command, flag) not in passed]
    assert not stray, f"settings that belong in the config file: {stray}"
