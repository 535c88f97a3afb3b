"""The one rule for numbers (sigclass._checks): Python and numpy scalars are
accepted, bools never are, numpy scalars come back as Python numbers, and
every other module checks its numbers through it.  The one rule for JSON
objects: a run config or a model file with any one node replaced loads or
raises a ValueError, and no other module checks a JSON object itself."""

import contextlib
import copy
import math
import pathlib
import re
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigclass._checks import band, config_object, float_texts, integer, json_object, real
from sigclass.classifier import ModelConfig, calibrate, fit, model_from_dict, model_to_dict, save_model
from sigclass.cli import config_from_dict
from sigclass.data_io import AugmentSpec, LabeledImage, ShapeJitter, gen_four_shapes
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
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got 1(0{400})$"):
        real("x", 10**400)
    with pytest.raises(ValueError, match=r"^x must be within a float's range or inf, got 1(0{400})$"):
        real("x", 10**400, inf_ok=True)
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
    operator.index is what a hand-rolled numeric check looks like, and testing
    for a dict or listing a dataclass's fields what a hand-rolled JSON object
    check looks like; only _checks may do any of these."""
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
        if re.search(r"\bisinstance\([^()]*,\s*(\([^()]*)?\bdict\b", text):
            offenders.append(f"{path.name} tests for a dict")
        if re.search(r"\bdataclasses\.fields\b|^\s*from dataclasses import\b.*\bfields\b", text, re.M):
            offenders.append(f"{path.name} lists dataclass fields")
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# JSON objects: one node of a run config or a model file replaced
# ---------------------------------------------------------------------------

MNIST_FILES = {"train_images": "train-images", "train_labels": "train-labels",
               "test_images": "test-images", "test_labels": "test-labels"}


def _model_document() -> dict:
    """A calibrated two-class model file with augmentation, as JSON."""
    rng = np.random.default_rng(13)
    images = [LabeledImage(rng.random((6, 6, 1)), z, f"{z}:{i}") for i in range(4) for z in "ab"]
    config = ModelConfig(convention=StreamConvention("rows", True), image_size=(6, 6),
                         augment=AugmentSpec(noise="speckle", noise_level=0.05, copies=2))
    return model_to_dict(calibrate(fit(images[:4], config), images[4:]))


DOCUMENTS = {
    "desk": {
        "seed": 12345, "out_dir": "out",
        "dataset": {"kind": "four_shapes", "size": 16, "per_class": 8,
                    "jitter": {"center_frac": 0.03, "scale_range": [0.72, 0.82],
                               "rotation_deg": [7, 13]}},
        "stream": {"mode": "rows", "basepoint": True},
        "feature": {"kind": "signature", "order": 2},
        "metric": "rmse",
        "budgets": {"train": 10, "val": 100, "test": 200},
        "calibration": {"method": "closed_form", "epsilon": 1e-3},
        "protocol": "fixed", "ova_slack": 1.1,
        "embed": {"samples": 300, "perplexity": 30, "iterations": 500},
    },
    "mnist": {
        "dataset": {"kind": "mnist", **MNIST_FILES},
        "stream": {"mode": "rows", "basepoint": True},
        "feature": {"kind": "signature", "order": 3},
        "metric": "mae",
        "budgets": {"train": 10, "val": 20, "test": 20},
        "spectra": {"window": 21, "polyorder": 3},
    },
    "cifar": {
        "dataset": {"kind": "cifar10", "train_batches": ["b1.bin", "b2.bin"],
                    "test_batches": ["test.bin"]},
        "image_size": [16, 16], "channels": 3,
        "stream": {"mode": "pixels", "basepoint": True},
        "feature": {"kind": "log-signature", "order": 3},
        "calibration": {"method": "optimize", "iters": 500, "gamma": 0.1, "box": 50.0},
        "augment": {"noise": "speckle", "noise_level": 0.1, "copies": 4},
    },
    "model": _model_document(),
}
DELETE = object()  # in place of a value: remove the node instead


def _paths(node, path=()):
    """The path of node and of every node below it, as tuples of keys and indices."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


PATHS = {name: list(_paths(doc)) for name, doc in DOCUMENTS.items()}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def one_node_replaced(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    return name, draw(st.sampled_from(PATHS[name])), draw(json_values | st.just(DELETE))


@contextlib.contextmanager
def alarm(seconds: int):
    """A TimeoutError after `seconds`, so that a hang fails the test instead of
    stalling the suite; not a timing assertion."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None)
@given(case=one_node_replaced())
@example(case=("mnist", ("dataset",), {"kind": "mnist", "train_images": "a", "train_labels": "b",
                                         "test_image": "c", "test_labels": "d"}))
@example(case=("desk", ("dataset", "sise"), 16))
@example(case=("desk", ("dataset", "per_clas"), 3))
@example(case=("desk", ("budgets",), [1]))
@example(case=("desk", ("embed",), [1]))
@example(case=("desk", ("calibration",), [1]))
@example(case=("desk", ("dataset",), [1]))
@example(case=("desk", ("dataset", "jitter"), 5))
@example(case=("cifar", ("augment",), [1]))
@example(case=("desk", ("feature",), "sig"))
@example(case=("desk", (), [1]))
@example(case=("desk", ("stream", "base_point"), True))
@example(case=("cifar", ("augment", "copy"), 2))
@example(case=("mnist", ("dataset", "train_labels"), DELETE))
@example(case=("mnist", ("dataset", "test_labels"), DELETE))
@example(case=("desk", ("dataset",), {"kind": "image_dir"}))
@example(case=("desk", ("calibration", "method"), ["optimize"]))
@example(case=("desk", ("dataset", "per_class"), "3"))
@example(case=("desk", ("dataset", "per_class"), 2.5))
@example(case=("desk", ("dataset", "per_class"), True))
@example(case=("cifar", ("dataset", "train_batches"), 5))
@example(case=("model", ("config", "order"), 1_000_000))
def test_one_node_replaced_loads_or_raises_a_value_error(case):
    name, path, value = case
    doc = copy.deepcopy(DOCUMENTS[name])
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with alarm(10):
        try:
            (model_from_dict if name == "model" else config_from_dict)(doc)
        except ValueError:
            pass


def test_huge_order_in_a_model_file_is_a_named_error_not_a_hang():
    """feature_length is checked without summing d**k up to the order."""
    doc = model_to_dict(fit(gen_four_shapes(2, size=16, seed=0),
                            ModelConfig(convention=StreamConvention("rows", True))))
    assert (doc["stream_dim"], doc["feature_length"]) == (16, 272)
    doc["config"]["order"] = 1_000_000
    message = "model file feature_length 272 does not match more than 272 for stream_dim=16, order=1000000"
    with alarm(10), pytest.raises(ValueError, match=f"^{message}$"):
        model_from_dict(doc)


def test_json_object_names_where_and_key():
    assert json_object("w", {"a": 1}, ("a", "b"), ("a",)) == {"a": 1}
    assert json_object("w", {"z": 1}) == {"z": 1}
    for value, message in (([1], "w must be a JSON object, got list"),
                           (None, "w must be a JSON object, got NoneType"),
                           ({"a": 1, "c": 2}, "w has unknown field 'c'"),
                           ({"b": 1}, "w lacks field 'a'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            json_object("w", value, ("a", "b"), ("a",))


def test_config_object_builds_tuples_and_nested_objects():
    assert config_object(ShapeJitter, "w", {"scale_range": [0.5, 0.6]}) == ShapeJitter(
        scale_range=(0.5, 0.6))
    nested = {"convention": StreamConvention, "augment": AugmentSpec}
    doc = model_to_dict(fit(gen_four_shapes(1, size=16, seed=0), ModelConfig()))["config"]
    assert config_object(ModelConfig, "w", doc, True, nested) == ModelConfig()
    for key, value, message in (("convention", None, "w must be a JSON object, got NoneType"),
                                ("convention", {"mode": "rows"}, "w lacks field 'basepoint'"),
                                ("image_size", None, "image_size must be two integers >= 1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            config_object(ModelConfig, "w", dict(doc, **{key: value}), True, nested)
    del doc["metric"]
    with pytest.raises(ValueError, match="^w lacks field 'metric'$"):
        config_object(ModelConfig, "w", doc, True, nested)


# floats whose texts are easy to get wrong: both zeros, subnormals, the ends of
# the range, and infinities and nans of either sign
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, -math.nan]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.floats(), max_size=4), picks=st.lists(st.integers(0, 15), max_size=80))
@example(pool=[], picks=[0, 1, 0, 1, 1, 0])
def test_float_texts_are_each_values_repr(pool, picks):
    pool = AWKWARD_FLOATS + pool  # few distinct values, each drawn many times
    values = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    assert float_texts(values) == list(map(repr, values.tolist()))
