"""The one rule for numbers (sigclass._checks): Python and numpy scalars are
accepted, bools never are, numpy scalars come back as Python numbers, and
every other module checks its numbers through it."""

import math
import pathlib
import re

import numpy as np
import pytest

from sigclass._checks import band, integer, real
from sigclass.classifier import ModelConfig, fit, save_model
from sigclass.data_io import AugmentSpec, gen_four_shapes
from sigclass.path_signature import StreamConvention

SRC = pathlib.Path(__file__).parent.parent / "src" / "sigclass"


@pytest.mark.parametrize("value, expected", [(3, 3), (np.int64(3), 3), (np.uint8(3), 3)])
def test_integer_accepts_python_and_numpy_integers(value, expected):
    got = integer("n", value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [True, np.True_, False, 2.5, np.float64(2.0), "2", None])
def test_integer_rejects_bools_reals_and_strings(value):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {value!r}")):
        integer("n", value)


def test_integer_bound_is_inclusive():
    assert integer("n", 1, 1) == 1 and integer("n", -5) == -5
    assert integer("n", 0, 0) == 0
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 0$"):
        integer("n", 0, 1)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got np.int64\(-1\)$"):
        integer("n", np.int64(-1), 0)


@pytest.mark.parametrize(
    "value, expected, kind",
    [(0.5, 0.5, float), (2, 2, int), (np.float32(0.5), 0.5, float), (np.float64(0.25), 0.25, float),
     (np.int64(2), 2, int)],
)
def test_real_accepts_python_and_numpy_reals(value, expected, kind):
    got = real("x", value)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize("value", [True, np.True_, "1", None, [1.0], 1j])
def test_real_rejects_bools_strings_and_others(value):
    with pytest.raises(ValueError, match=re.escape(f"x must be a real number, got {value!r}")):
        real("x", value)


def test_real_bounds_at_zero_and_inf():
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got 0$"):
        real("x", 0)
    assert real("x", 0, zero_ok=True) == 0
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got -1e-300$"):
        real("x", -1e-300, zero_ok=True)
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got inf$"):
        real("x", math.inf)
    assert real("x", math.inf, inf_ok=True) == math.inf
    with pytest.raises(ValueError, match=r"^x must be > 0, got -inf$"):
        real("x", -math.inf, inf_ok=True)
    for kwargs in ({}, {"zero_ok": True}, {"inf_ok": True}):
        with pytest.raises(ValueError, match="got nan"):
            real("x", math.nan, **kwargs)


def test_band_accepts_two_ordered_finite_reals():
    got = band("b", [np.float64(0.5), 1])
    assert got == (0.5, 1) and [type(v) for v in got] == [float, int]
    assert band("b", (2, 2)) == (2, 2)


@pytest.mark.parametrize(
    "value",
    [(True, 1), (0, np.True_), (1, 0), (0, math.inf), (math.nan, 1), (1,), (0, 1, 2), "ab", 1,
     None, ("0", 1)],
)
def test_band_rejects_anything_else(value):
    message = f"b must be two finite real numbers low <= high, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        band("b", value)


def test_numpy_scalars_save_the_same_model_file(tmp_path):
    images = gen_four_shapes(3, size=16, seed=0)
    rows = StreamConvention("rows", True)
    numpy_config = ModelConfig(
        order=np.int64(2), convention=rows, image_size=(np.int64(16), 16),
        augment=AugmentSpec(noise="speckle", copies=np.int64(2), noise_level=np.float32(0.1)))
    python_config = ModelConfig(
        order=2, convention=rows, image_size=(16, 16),
        augment=AugmentSpec(noise="speckle", copies=2, noise_level=float(np.float32(0.1))))
    assert numpy_config == python_config
    assert type(numpy_config.order) is int and type(numpy_config.augment.copies) is int
    paths = [tmp_path / "numpy.json", tmp_path / "python.json"]
    for config, path in zip((numpy_config, python_config), paths):
        save_model(fit(images, config), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_no_module_but_checks_hand_rolls_a_numeric_check():
    """Importing numbers, naming numpy's bool type or taking integers through
    operator.index is what a hand-rolled numeric check looks like; only
    _checks may do any of these."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_checks.py":
            continue
        text = path.read_text(encoding="utf-8")
        if re.search(r"^\s*(import numbers\b|from numbers import)", text, re.M):
            offenders.append(f"{path.name} imports numbers")
        if re.search(r"\b(np|numpy)\.bool_\b", text):
            offenders.append(f"{path.name} names np.bool_")
        if re.search(r"\boperator\.index\b|^\s*from operator import\b.*\bindex\b", text, re.M):
            offenders.append(f"{path.name} uses operator.index")
    assert not offenders, offenders
