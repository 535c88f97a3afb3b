"""The benchmark tracer patches functions at the module attributes their
callers look up; every one of them must exist on the sigclass module, so
a refactor that drops such an import fails here rather than in a traced
benchmark run."""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    for module, attr, *_ in targets:
        mod = importlib.import_module(f"sigclass.{module}")
        assert callable(getattr(mod, attr, None)), f"sigclass.{module}.{attr}"
