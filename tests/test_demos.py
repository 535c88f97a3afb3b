"""Every demo script runs to completion against the current API, and the
deterministic ones print exactly their committed output.

Each demo runs from a copy in a temporary directory, so the demos that
write CSV files (next to their own script) write them there.
"""

import pathlib
import runpy
import shutil

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden"
# Demo 04 prints the path it writes to and demo 05 a t-SNE KL divergence
# that moves with any change of float rounding, so they only have to run.
GOLDEN_DEMOS = ("01_signature_basics", "02_four_shapes_classification",
                "03_scale_factor_calibration")


def test_demos_found():
    assert DEMOS
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(GOLDEN_DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if demo.stem in GOLDEN_DEMOS:
        assert out == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
