import inspect
import json
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigclass.classifier as classifier
import sigclass.cli as cli
from sigclass.calibration import METHODS, closed_form_lambda, optimize_lambda
from sigclass.cli import main
from sigclass.classifier import ModelConfig, load_model
from sigclass.data_io import (
    AugmentSpec, LabeledImage, ShapeJitter, ensure_channels, gen_four_shapes, load_cifar10,
    load_image_dir, load_mnist_idx, resize, write_pnm,
)
from sigclass.path_signature import StreamConvention

README = pathlib.Path(__file__).parent.parent / "README.md"


def write_config(tmp_path, **overrides):
    doc = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "dataset": {
            "kind": "four_shapes",
            "size": 16,
            "jitter": {
                "center_frac": 0.03,
                "scale_range": [0.72, 0.82],
                "rotation_deg": [7, 13],
            },
        },
        "stream": {"mode": "rows", "basepoint": True},
        "feature": {"kind": "signature", "order": 2},
        "metric": "rmse",
        "budgets": {"train": 4, "val": 6, "test": 6},
        "calibration": {"method": "closed_form", "epsilon": 1e-3},
        "protocol": "fixed",
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


# ---------------------------------------------------------------------------
# config: each section goes to the library object that owns its keys
# ---------------------------------------------------------------------------


def test_readme_config_builds_model_config():
    text = README.read_text()
    block = re.search(r"A complete config:\s*```json\n(.*?)```", text, re.S).group(1)
    config = cli.config_from_dict(json.loads(block))
    assert config.model == ModelConfig(
        kind="signature",
        order=2,
        metric="rmse",
        convention=StreamConvention("rows", True),
        image_size=(16, 16),
        channels=None,
        augment=None,
    )
    assert config.calibration == {"method": "closed_form", "epsilon": 1e-3}


def test_readme_calibration_keys_match_solver_parameters():
    text = " ".join(README.read_text().split())
    bullet = re.search(r"- `calibration` is [^:]*: ([^.]*)\.", text).group(1)
    named = {}
    for clause in bullet.split(";"):
        keys, _, solver = clause.partition(" for ")
        if solver:
            named[re.match(r"`(\w+)`", solver).group(1)] = set(re.findall(r"`(\w+)`", keys))
    solvers = {f.__name__: f for f in (closed_form_lambda, optimize_lambda)}
    assert set(named) == set(solvers)
    for name, solver in solvers.items():
        params = inspect.signature(solver).parameters.values()
        assert named[name] == {p.name for p in params if p.default is not p.empty}, name
        # the keys the config loader accepts for the method
        assert set(METHODS[name.removesuffix("_lambda")]) == named[name], name


def test_missing_section_keys_take_library_defaults():
    config = cli.config_from_dict({"augment": {"noise": "speckle", "noise_level": 0.1}})
    assert config.model == ModelConfig(augment=AugmentSpec(noise="speckle", noise_level=0.1))
    assert cli._jitter({"rotation_deg": [7, 13]}) == ShapeJitter(
        rotation=(np.deg2rad(7), np.deg2rad(13))
    )
    assert cli._jitter({"rotation_deg": None}) == ShapeJitter(rotation=None)
    assert cli._jitter(None) == ShapeJitter()


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("calibration", {"method": "optimize", "iter": 3}, "iter"),
        ("calibration", {"method": "optimize", "seed": 3}, "seed"),
        ("augment", {"copy": 2}, "copy"),
        ("dataset", {"kind": "four_shapes", "size": 16,
                     "jitter": {"rotaton_deg": [7, 13]}}, "rotaton_deg"),
        ("dataset", {"kind": "four_shapes", "size": 16,
                     "jitter": {"rotation": [0.1, 0.2]}}, "rotation"),
        ("feature", {"kind": "signature", "order": 2, "metric": "mae"}, "metric"),
        ("stream", {"mode": "rows", "base_point": True}, "base_point"),
        ("calibration", {"method": "none", "epsilon": 1e-3}, "epsilon"),
        ("dataset", {"kind": "four_shapes", "sise": 16}, "sise"),
        ("dataset", {"kind": "four_shapes", "per_clas": 3}, "per_clas"),
        ("dataset", {"kind": "mnist", "train_images": "a", "train_labels": "b",
                     "test_image": "c", "test_labels": "d"}, "test_image"),
        ("spectra", {"window": 21, "polyorde": 3}, "polyorde"),
    ],
)
def test_unknown_config_key_fails_naming_it(tmp_path, capsys, section, value, key):
    config = write_config(tmp_path, **{section: value})
    assert main(["fit", "--config", str(config)]) == 1
    error = read_stderr_error(capsys)
    assert f"'{key}'" in error["error"] and error["type"] == "ValueError", error


@pytest.mark.parametrize(
    "jitter, message",
    [({"scale_range": [0.9]}, "ShapeJitter scale_range must be two finite real numbers"),
     ({"scale_range": [-0.8, -0.6]}, "ShapeJitter scale_range must be > 0"),
     ({"center_frac": float("nan")}, "ShapeJitter center_frac must be finite and >= 0, got nan"),
     ({"rotation_deg": [7]}, "dataset.jitter 'rotation_deg' must be two finite real numbers"),
     ({"rotation_deg": 7}, "dataset.jitter 'rotation_deg' must be two finite real numbers"),
     ({"rotation_deg": [13, 7]}, "dataset.jitter 'rotation_deg' must be two finite real numbers"),
     ({"wobble": 1}, "config 'dataset.jitter' has unknown field 'wobble'")],
    ids=["one-scale", "negative-scale", "nan-center", "one-angle", "scalar-angle",
         "reversed-angles", "unknown-key"],
)
def test_bad_jitter_fails_naming_the_field(tmp_path, capsys, jitter, message):
    config = write_config(tmp_path, dataset={"kind": "four_shapes", "size": 16, "jitter": jitter})
    assert main(["fit", "--config", str(config)]) == 1
    error = read_stderr_error(capsys)
    assert error["type"] == "ValueError" and error["error"].startswith(message), error


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"protocl": "fixed"}, "protocl"),
        ({"ova_slak": 1.2}, "ova_slak"),
        ({"budgets": {"train": 4, "val": 6, "test": 6, "tset": 6}}, "tset"),
        ({"embed": {"samples": 40, "iteration": 20}}, "iteration"),
    ],
)
def test_unknown_top_level_budget_and_embed_keys_fail_naming_them(tmp_path, capsys, overrides, key):
    config = write_config(tmp_path, **overrides)
    assert main(["fit", "--config", str(config)]) == 1
    assert f"'{key}'" in read_stderr_error(capsys)["error"]


@pytest.mark.parametrize(
    "size, message",
    [([1, 16], "a stream needs at least 2 points, got 1"),
     ([0, 16], "image_size must be two integers >= 1, got (0, 16)"),
     (16, "image_size must be two integers >= 1, got 16"),
     ([True, 16], "image_size must be two integers >= 1, got (True, 16)")],
    ids=["one-row", "zero-rows", "scalar", "bool-rows"],
)
def test_degenerate_image_size_fails_with_a_named_error(tmp_path, capsys, size, message):
    config = write_config(tmp_path, image_size=size,
                          stream={"mode": "rows", "basepoint": False})
    assert main(["fit", "--config", str(config)]) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize(
    "overrides, message",
    [({"feature": {"order": 2.5}}, "order must be an integer >= 1, got 2.5"),
     ({"feature": {"order": "2"}}, "order must be an integer >= 1, got '2'"),
     ({"feature": {"order": True}}, "order must be an integer >= 1, got True"),
     ({"budgets": {"train": 2.5}}, "budget 'train' must be an integer >= 0, got 2.5"),
     ({"budgets": {"val": True}}, "budget 'val' must be an integer >= 0, got True"),
     ({"embed": {"samples": 2.5}}, "embed 'samples' must be an integer >= 1, got 2.5"),
     ({"embed": {"samples": -3}}, "embed 'samples' must be an integer >= 1, got -3"),
     ({"embed": {"samples": 0}}, "embed 'samples' must be an integer >= 1, got 0"),
     ({"embed": {"iterations": 2.5}}, "embed 'iterations' must be an integer >= 0, got 2.5"),
     ({"embed": {"iterations": -1}}, "embed 'iterations' must be an integer >= 0, got -1"),
     ({"embed": {"perplexity": "5"}}, "embed 'perplexity' must be a real number, got '5'"),
     ({"embed": {"perplexity": True}}, "embed 'perplexity' must be a real number, got True"),
     ({"embed": {"perplexity": 0}}, "embed 'perplexity' must be > 0, got 0"),
     ({"seed": 2.7}, "seed must be an integer >= 0, got 2.7"),
     ({"seed": True}, "seed must be an integer >= 0, got True"),
     ({"seed": -1}, "seed must be an integer >= 0, got -1"),
     ({"dataset": {"kind": "four_shapes", "size": 16.9}},
      "dataset 'size' must be an integer >= 8, got 16.9"),
     ({"dataset": {"kind": "four_shapes", "size": True}},
      "dataset 'size' must be an integer >= 8, got True"),
     ({"ova_slack": True}, "ova_slack must be a real number, got True"),
     ({"ova_slack": 0}, "ova_slack must be finite and > 0, got 0"),
     ({"ova_slack": -2.0}, "ova_slack must be finite and > 0, got -2.0"),
     ({"ova_slack": "abc"}, "ova_slack must be a real number, got 'abc'"),
     ({"calibration": {"method": "optimize", "box": -1.0, "iters": 5}},
      "box must be > 0, got -1.0"),
     ({"calibration": {"method": "optimize", "iters": "500"}},
      "iters must be an integer >= 1, got '500'"),
     ({"calibration": {"method": "optimize", "iters": 2.5}},
      "iters must be an integer >= 1, got 2.5"),
     ({"calibration": {"method": "optimize", "gamma": "0.1"}},
      "gamma must be a real number, got '0.1'"),
     ({"calibration": {"method": "optimize", "epsilon": "1e-3"}},
      "epsilon must be a real number, got '1e-3'"),
     ({"calibration": {"method": "optimize", "epsilon": float("nan")}},
      "epsilon must be finite and > 0, got nan")],
    ids=["float-order", "string-order", "bool-order", "float-budget", "bool-budget",
         "float-samples", "negative-samples", "zero-samples", "float-iterations",
         "negative-iterations", "string-perplexity", "bool-perplexity", "zero-perplexity",
         "float-seed", "bool-seed", "negative-seed", "float-size", "bool-size", "bool-slack",
         "zero-slack", "negative-slack", "string-slack",
         "negative-box", "string-iters", "float-iters", "string-gamma", "string-epsilon",
         "nan-epsilon"],
)
def test_non_integer_count_fails_with_a_named_error(tmp_path, capsys, overrides, message):
    config = write_config(tmp_path, **overrides)
    assert main(["fit", "--config", str(config)]) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize(
    "calibration, message",
    [({"method": "optimize", "box": -1.0}, "box must be > 0, got -1.0"),
     ({"method": "optimize", "iter": 3}, "calibration method 'optimize' has unknown field 'iter'"),
     ({"method": "optimize", "iters": 0}, "iters must be an integer >= 1, got 0"),
     ({"method": "closed_form", "gamma": 0.1},
      "calibration method 'closed_form' has unknown field 'gamma'"),
     ({"epsilon": 0.0}, "epsilon must be finite and > 0, got 0.0"),
     ({"method": "none", "epsilon": 1e-8}, "calibration method 'none' has unknown field 'epsilon'"),
     ({"method": "bogus"}, "unknown calibration method 'bogus'"),
     ({"method": "optimize", "box": 10**400},
      "box must be within a float's range or inf, got " + str(10**400))],
    ids=["negative-box", "unknown-key", "zero-iters", "closed-form-gamma", "zero-epsilon",
         "none-epsilon", "unknown-method", "huge-int-box"],
)
def test_calibration_settings_are_checked_before_data_is_loaded(
        tmp_path, capsys, monkeypatch, calibration, message):
    def load_pools(config):
        raise AssertionError("fit loaded data before checking its calibration settings")

    monkeypatch.setattr(cli, "load_pools", load_pools)
    config = write_config(tmp_path, calibration=calibration)
    assert main(["fit", "--config", str(config)]) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize(
    "overrides, flags, message",
    [({"stream": {"mode": "rows", "basepoint": "no"}}, [],
      "stream basepoint must be true or false, got 'no'"),
     ({"channels": 2}, [], "channels must be None, 1 or 3, got 2"),
     ({"augment": {"copies": 2.5}}, [], "AugmentSpec copies must be an integer >= 1, got 2.5"),
     ({}, ["--samples", "-3"], "--samples must be an integer >= 1, got -3"),
     ({}, ["--samples", "0"], "--samples must be an integer >= 1, got 0"),
     ({}, ["--iterations", "-1"], "--iterations must be an integer >= 0, got -1"),
     ({}, ["--perplexity", "-2"], "--perplexity must be > 0, got -2.0"),
     ({}, ["--perplexity", "nan"], "--perplexity must be > 0, got nan"),
     ({"budgets": [1]}, [], "config 'budgets' must be a JSON object, got list"),
     ({"embed": [1]}, [], "config 'embed' must be a JSON object, got list"),
     ({"calibration": [1]}, [], "config 'calibration' must be a JSON object, got list"),
     ({"dataset": [1]}, [], "config 'dataset' must be a JSON object, got list"),
     ({"dataset": {"jitter": 5}}, [], "config 'dataset.jitter' must be a JSON object, got int"),
     ({"augment": [1]}, [], "config 'augment' must be a JSON object, got list"),
     ({"feature": "sig"}, [], "config 'feature' must be a JSON object, got str"),
     ({"stream": {"mode": "rows", "base_point": True}}, [],
      "config 'stream' has unknown field 'base_point'"),
     ({"augment": {"copy": 2}}, [], "config 'augment' has unknown field 'copy'"),
     ({"dataset": {"kind": "mnist", "train_images": "a"}}, [],
      "config 'dataset' lacks field 'train_labels'"),
     ({"dataset": {"kind": "mnist", "train_images": "a", "train_labels": "b", "test_images": "c"}},
      [], "config 'dataset' lacks field 'test_labels'"),
     ({"dataset": {"kind": "image_dir"}, "image_size": [8, 8]}, [],
      "config 'dataset' lacks field 'root'"),
     ({"dataset": {"kind": ["mnist"]}}, [], "unknown dataset kind ['mnist']"),
     ({"calibration": {"method": ["optimize"]}}, [], "unknown calibration method ['optimize']"),
     ({"dataset": {"kind": "four_shapes", "per_class": "3"}}, [],
      "dataset 'per_class' must be an integer >= 1, got '3'"),
     ({"dataset": {"kind": "four_shapes", "per_class": 2.5}}, [],
      "dataset 'per_class' must be an integer >= 1, got 2.5"),
     ({"dataset": {"kind": "four_shapes", "per_class": True}}, [],
      "dataset 'per_class' must be an integer >= 1, got True"),
     ({"dataset": {"kind": "cifar10", "train_batches": 5}}, [],
      "dataset 'train_batches' must be a non-empty list of paths, got 5"),
     ({"dataset": {"kind": "cifar10", "train_batches": []}}, [],
      "dataset 'train_batches' must be a non-empty list of paths, got []"),
     ({"dataset": {"kind": "image_dir", "root": 5}, "image_size": [8, 8]}, [],
      "dataset 'root' must be a path, got 5"),
     ({"dataset": {"kind": "four_shapes", "jitter": {"center_frac": 10**400}}}, [],
      "ShapeJitter center_frac must be finite and >= 0, got " + str(10**400)),
     ({"dataset": {"kind": "four_shapes", "size": 4}}, [],
      "dataset 'size' must be an integer >= 8, got 4"),
     ({"dataset": {"kind": "four_shapes", "size": -3}}, [],
      "dataset 'size' must be an integer >= 8, got -3"),
     ({"out_dir": None}, [], "out_dir must be a path, got None"),
     ({"out_dir": {"a": 1}}, [], "out_dir must be a path, got {'a': 1}")],
    ids=["string-basepoint", "two-channels", "float-copies", "negative-samples-flag",
         "zero-samples-flag", "negative-iterations-flag", "negative-perplexity-flag",
         "nan-perplexity-flag", "list-budgets", "list-embed", "list-calibration", "list-dataset",
         "int-jitter", "list-augment", "string-feature", "unknown-stream-key",
         "unknown-augment-key", "mnist-without-train-labels", "mnist-test-images-alone",
         "image-dir-without-root", "list-dataset-kind", "list-calibration-method",
         "string-per-class", "float-per-class", "bool-per-class", "int-train-batches",
         "empty-train-batches", "int-root", "huge-center-frac", "small-size", "negative-size",
         "null-out-dir", "object-out-dir"],
)
def test_config_and_embed_flags_are_checked_before_data_is_loaded(
        tmp_path, capsys, monkeypatch, overrides, flags, message):
    def load_pools(config):
        raise AssertionError("embed loaded data before checking its settings")

    monkeypatch.setattr(cli, "load_pools", load_pools)
    config = write_config(tmp_path, **overrides)
    assert main(["embed", "--config", str(config), *flags]) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize("flags", [[], ["--seed", "3"]], ids=["plain", "seed-override"])
def test_config_file_must_hold_a_json_object(tmp_path, capsys, flags):
    path = tmp_path / "config.json"
    path.write_text("[1]")
    assert main(["fit", "--config", str(path), *flags]) == 1
    assert read_stderr_error(capsys) == {"error": "config must be a JSON object, got list",
                                         "type": "ValueError"}


def test_out_flag_replaces_a_config_out_dir_before_it_is_checked(tmp_path):
    path = write_config(tmp_path, out_dir=None)
    assert cli.load_config(path, {"out_dir": "elsewhere"}).out_dir == "elsewhere"
    with pytest.raises(ValueError, match="out_dir must be a path, got None"):
        cli.load_config(path)


def test_spectra_section_is_an_accepted_top_level_key():
    config = cli.config_from_dict({"spectra": {"window": 21, "polyorder": 3}})
    assert config.embed == cli.EMBED_DEFAULTS
    assert config.budgets == cli.BUDGET_DEFAULTS


def test_unknown_calibration_method_fails_at_load(tmp_path):
    config = write_config(tmp_path, calibration={"method": "bogus"})
    with pytest.raises(ValueError, match="unknown calibration method 'bogus'"):
        cli.load_config(config)


def test_prepare_images_shares_images_at_size():
    config = cli.config_from_dict({"dataset": {"kind": "image_dir", "root": "images"},
                                  "image_size": [8, 8]})
    rng = np.random.default_rng(0)
    at_size = LabeledImage(rng.random((8, 8, 1)), "a", "x")
    larger = LabeledImage(rng.random((12, 10, 3)), "b", "y")
    images = [larger, at_size]
    pools = {"train": (np.array(["b", "a"]), lambda records: [images[r] for r in records])}
    same, resized = cli.prepare_images({"train": np.array([1, 0])}, pools, config)
    assert same is at_size
    assert (resized.label, resized.source_id) == ("b", "y")
    assert np.array_equal(resized.pixels, resize(larger.pixels, 8, 8))


# ---------------------------------------------------------------------------
# gen-shapes
# ---------------------------------------------------------------------------


def test_gen_shapes_writes_files_and_manifest(tmp_path):
    out = tmp_path / "shapes"
    assert main(["gen-shapes", "--per-class", "10", "--size", "16",
                 "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 40
    ppms = sorted(out.glob("*/*.ppm"))
    assert len(ppms) == 40
    assert ppms[0].read_bytes().startswith(b"P6")


def test_gen_shapes_seed_reuse_identical_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["gen-shapes", "--per-class", "2", "--seed", "9",
                     "--out", str(out)]) == 0
    for p1 in sorted(out1.rglob("*")):
        if p1.is_file():
            p2 = out2 / p1.relative_to(out1)
            assert p1.read_bytes() == p2.read_bytes()


def test_gen_shapes_minimum_size(tmp_path, capsys):
    assert main(["gen-shapes", "--size", "4", "--out", str(tmp_path / "x")]) == 1
    err = read_stderr_error(capsys)
    assert "size" in err["error"]
    assert err["type"] == "ValueError"


@pytest.mark.parametrize("with_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize(
    "flag, message",
    [("--per-class", "per_class must be an integer >= 1, got 0"),
     ("--size", "image size must be an integer >= 8, got 0")],
    ids=["per-class", "size"],
)
def test_gen_shapes_zero_flag_is_not_a_default(tmp_path, capsys, with_config, flag, message):
    args = ["gen-shapes", flag, "0", "--out", str(tmp_path / "x")]
    if with_config:
        args += ["--config", str(write_config(tmp_path))]
    assert main(args) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


def test_gen_shapes_config_renders_the_fit_pool(tmp_path):
    # image_size without dataset.size: the PPMs are the 24 x 24 images fit renders
    dataset = {"kind": "four_shapes", "per_class": 2, "jitter": {"rotation_deg": [7, 13]}}
    config_path = write_config(tmp_path, dataset=dataset, image_size=[24, 24])
    out = tmp_path / "shapes"
    assert main(["gen-shapes", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["size"], manifest["per_class"], len(manifest["files"])) == (24, 2, 8)
    config = cli.load_config(config_path)
    pools = cli.load_pools(config)
    rendered = cli.prepare_images({"train": np.arange(len(pools["train"][0]))}, pools, config)
    assert pools["train"][0].tolist() == [entry["label"] for entry in manifest["files"]]
    for entry, im in zip(manifest["files"], rendered):
        assert entry["label"] == im.label
        expected = np.clip(np.rint(ensure_channels(im.pixels, 3) * 255.0), 0, 255)
        data = (out / entry["path"]).read_bytes()
        assert data.startswith(b"P6\n24 24\n255\n")
        assert np.array_equal(np.frombuffer(data[-24 * 24 * 3:], np.uint8), expected.ravel())


def test_gen_shapes_config_of_another_dataset_kind_is_refused(tmp_path, capsys):
    dataset = {"kind": "mnist", "train_images": "train-images", "train_labels": "train-labels"}
    out = tmp_path / "shapes"
    args = ["gen-shapes", "--config", str(write_config(tmp_path, dataset=dataset)), "--out", str(out)]
    assert main(args) == 1
    assert read_stderr_error(capsys) == {
        "error": "gen-shapes renders four_shapes, not dataset kind 'mnist'", "type": "ValueError"}
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_writes_calibrated_model(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["fit", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "feature length: 272" in out
    model = load_model(tmp_path / "out" / "model.json")
    assert len(model.classes) == 4
    assert model.factors.shape == (4, 272)
    assert not np.all(model.factors == 1.0, axis=1).any()


def test_fit_zero_validation_with_closed_form_fails(tmp_path, capsys):
    config = write_config(tmp_path, budgets={"train": 4, "val": 0, "test": 6})
    assert main(["fit", "--config", str(config)]) == 1
    assert "validation" in read_stderr_error(capsys)["error"]


def test_fit_calibration_none_gives_identity(tmp_path):
    config = write_config(tmp_path, calibration={"method": "none"},
                          budgets={"train": 4, "val": 0, "test": 6})
    assert main(["fit", "--config", str(config)]) == 0
    model = load_model(tmp_path / "out" / "model.json")
    assert np.array_equal(model.factors, np.ones((4, 272)))
    doc = json.loads((tmp_path / "out" / "model.json").read_text())
    assert all(entry["lambda_rmse"] == 1.0 for entry in doc["per_class"].values())


def test_fit_requires_config(capsys):
    assert main(["fit"]) == 1
    assert "requires --config" in read_stderr_error(capsys)["error"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_dual_protocol_reports(tmp_path):
    config = write_config(tmp_path)
    assert main(["fit", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), "--protocol", "oracle,fixed"]) == 0
    out = tmp_path / "out"
    for protocol in ("oracle", "fixed"):
        report = json.loads((out / f"report_{protocol}.json").read_text())
        assert report["protocol"] == protocol
        assert 0.0 <= report["accuracy"] <= 1.0
        assert np.array(report["confusion"]).sum() == 24
        csv = (out / f"confusion_{protocol}.csv").read_text()
        assert csv.startswith("true\\predicted,")


def test_eval_ova_protocol(tmp_path):
    config = write_config(tmp_path, protocol="ova")
    assert main(["fit", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report_ova.json").read_text())
    assert report["protocol"] == "ova"


def test_eval_ova_folds_only_test_images(tmp_path, monkeypatch):
    # the thresholds come from the scores that fit stored in the model
    config = write_config(tmp_path)  # budgets train 4, val 6, test 6
    assert main(["fit", "--config", str(config)]) == 0
    folded = []
    fold = classifier.signature_many

    def counted(points, order):
        folded.append(len(points))
        return fold(points, order)

    monkeypatch.setattr(classifier, "signature_many", counted)
    assert main(["eval", "--config", str(config), "--protocol", "fixed,ova"]) == 0
    assert folded == [4 * 6]


def test_eval_ova_with_a_model_without_scores_fails_naming_the_refit(tmp_path, capsys):
    config = write_config(tmp_path, calibration={"method": "none"},
                          budgets={"train": 4, "val": 0, "test": 6})
    assert main(["fit", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--protocol", "plain,ova"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [{
        "error": "the model holds no ova scores: refit it, calibrated on a nonzero validation"
                 " budget, to use protocol 'ova'",
        "type": "ValueError",
    }]
    assert not (tmp_path / "out" / "report_plain.json").exists()


def test_eval_rerun_byte_identical(tmp_path):
    config = write_config(tmp_path)
    assert main(["fit", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), "--protocol", "plain"]) == 0
    first = (tmp_path / "out" / "report_plain.json").read_bytes()
    assert main(["eval", "--config", str(config), "--protocol", "plain"]) == 0
    assert (tmp_path / "out" / "report_plain.json").read_bytes() == first


def test_eval_missing_model(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["eval", "--config", str(config)]) == 1
    assert read_stderr_error(capsys)["type"] == "FileNotFoundError"


def test_eval_unknown_protocol(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["fit", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), "--protocol", "best"]) == 1
    assert "unknown protocol" in read_stderr_error(capsys)["error"]


# ---------------------------------------------------------------------------
# spectra / embed
# ---------------------------------------------------------------------------


def test_spectra_command(tmp_path):
    config = write_config(tmp_path)
    assert main(["fit", "--config", str(config)]) == 0
    out = tmp_path / "spectra"
    assert main(["spectra", "--model", str(tmp_path / "out" / "model.json"),
                 "--window", "5", "--polyorder", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("spectrum_*.csv"))) == 4


def test_eval_and_spectra_outputs_do_not_depend_on_the_model_twin(tmp_path, capsys):
    config = write_config(tmp_path)
    model_path, twin = tmp_path / "out" / "model.json", tmp_path / "out" / "model.json.rows"

    def outputs():
        """Every report, CSV and line of stdout that eval and spectra write."""
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--protocol", "plain,fixed,ova,oracle"]) == 0
        assert main(["spectra", "--model", str(model_path), "--window", "5", "--polyorder", "2",
                     "--out", str(tmp_path / "spectra")]) == 0
        files = [*model_path.parent.glob("*_*.*"), *(tmp_path / "spectra").iterdir()]
        assert len(files) == 8 + 4
        return {path.name: path.read_bytes() for path in files}, capsys.readouterr().out

    assert main(["fit", "--config", str(config)]) == 0
    fitted = twin.read_bytes()
    assert main(["fit", "--config", str(config)]) == 0
    assert twin.read_bytes() == fitted
    expected = outputs()
    twin.write_bytes(fitted[:-5])
    assert outputs() == expected
    twin.unlink()
    assert outputs() == expected

    # stale: another fit's model file replaces this one, and the old twin stays
    (tmp_path / "other").mkdir()
    other = write_config(tmp_path / "other", seed=4, out_dir=str(tmp_path / "other" / "out"))
    assert main(["fit", "--config", str(other)]) == 0
    model_path.write_bytes((tmp_path / "other" / "out" / "model.json").read_bytes())
    expected = outputs()
    twin.write_bytes(fitted)
    assert outputs() == expected

    # stale: one digit of the file is edited
    text = model_path.read_text()
    doc = json.loads(text)
    row = [repr(v) for v in doc["per_class"][doc["classes"][0]]["representative"]]
    value = max(row, key=len)  # its first copy in the file is this row's item i
    i = row.index(value)
    edited = value[:-1] + ("1" if value[-1] != "1" else "2")
    model_path.write_text(text.replace(f" {value},\n", f" {edited},\n", 1))
    assert load_model(model_path).representatives[0, i] == float(edited) != float(value)
    expected = outputs()
    twin.unlink()
    assert outputs() == expected


def test_embed_command_rows_and_determinism(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    args = ["embed", "--config", str(config), "--samples", "40",
            "--perplexity", "5", "--iterations", "60"]
    assert main(args) == 0
    csv1 = (out / "embedding.csv").read_bytes()
    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "x,y,label"
    assert len(lines) == 41
    assert main(args) == 0
    assert (out / "embedding.csv").read_bytes() == csv1


def test_embed_flags_override_config_even_when_zero(tmp_path, capsys):
    config = write_config(tmp_path, embed={"samples": 20, "perplexity": 5, "iterations": 500})
    assert main(["embed", "--config", str(config), "--iterations", "0"]) == 0
    first, final = re.search(r"KL (\S+) -> (\S+);", capsys.readouterr().out).groups()
    assert first == final  # no iteration ran: the trace holds one KL
    assert main(["embed", "--config", str(config), "--perplexity", "0"]) == 1
    assert "perplexity must be > 0" in read_stderr_error(capsys)["error"]


def test_embed_of_one_sample_names_the_sample_count(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["embed", "--config", str(config), "--samples", "1"]) == 1
    assert read_stderr_error(capsys) == {"error": "need at least 5 samples, got 1",
                                         "type": "ValueError"}


def test_embed_perplexity_validation(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["embed", "--config", str(config), "--samples", "20",
                 "--perplexity", "10", "--iterations", "10"]) == 1
    assert "perplexity" in read_stderr_error(capsys)["error"]


# ---------------------------------------------------------------------------
# four-shapes: each command renders only the samples it uses
# ---------------------------------------------------------------------------


def test_commands_render_only_what_they_use(tmp_path, monkeypatch):
    rendered = []

    def counting(*args, **kwargs):
        images = gen_four_shapes(*args, **kwargs)
        rendered.append(len(images))
        return images

    monkeypatch.setattr(cli, "gen_four_shapes", counting)
    config = str(write_config(tmp_path))  # budgets train 4, val 6, test 6
    for argv, expected in (
        (["fit"], 4 * (4 + 6)),
        (["eval", "--protocol", "plain,fixed,oracle"], 4 * 6),
        (["eval", "--protocol", "fixed,ova"], 4 * 6),
        (["embed", "--samples", "40", "--perplexity", "5", "--iterations", "20"], 40),
    ):
        rendered.clear()
        assert main([argv[0], "--config", config, *argv[1:]]) == 0
        assert sum(rendered) == expected, argv


def reference_split(config, labels, test_labels=None):
    """The list-based split that the array split replaced, as (part, record)
    pairs: items grouped by label, groups in sorted label order, each group
    in record order and drawn by one seeded permutation."""
    def groups(part, part_labels):
        by_label = {}
        for record, label in enumerate(part_labels):
            by_label.setdefault(label, []).append((part, record))
        return [(label, by_label[label]) for label in sorted(by_label)]

    b = config.budgets
    need = b["train"] + b["val"]
    pool_need = need + (b["test"] if test_labels is None else 0)
    train, val, test = [], [], []
    for ci, (label, items) in enumerate(groups("train", labels)):
        if len(items) < pool_need:
            raise ValueError(f"class {label!r} has {len(items)} samples, needs {pool_need}")
        perm = cli._permutation(config, ci, len(items))
        train.extend(items[i] for i in perm[: b["train"]])
        val.extend(items[i] for i in perm[b["train"] : need])
        test.extend(items[i] for i in perm[need:pool_need])
    for ci, (label, items) in enumerate(groups("test", test_labels or [])):
        if len(items) < b["test"]:
            raise ValueError(f"test class {label!r} has {len(items)} samples, needs {b['test']}")
        test.extend(items[i] for i in cli._permutation(config, 1000 + ci, len(items))[: b["test"]])
    return train, val, test


def reference_embed_sample(config, labels, test_labels, samples):
    """The list-based embed sample, as (part, record) pairs."""
    items = [("train", r) for r in range(len(labels))]
    items += [("test", r) for r in range(len(test_labels or []))]
    if len(items) > samples:
        idx = cli._permutation(config, 2000, len(items))[:samples]
        items = [items[i] for i in sorted(idx)]
    return items


def picked(chosen):
    """A split's dict of part to record numbers as (part, record) pairs."""
    return [(part, int(r)) for part, records in chosen.items() for r in records]


def eager_parts(config):
    """Every record of every part, loaded up front."""
    ds = config.dataset
    kind = ds["kind"]
    if kind == "four_shapes":
        return {"train": gen_four_shapes(**cli._shape_params(config))}

    def load(part):
        if kind == "mnist":
            return load_mnist_idx(ds[f"{part}_images"], ds[f"{part}_labels"])
        if kind == "cifar10":
            return load_cifar10(ds[f"{part}_batches"])
        return load_image_dir(ds["root" if part == "train" else "test_root"])

    has_test = {"mnist": "test_images", "cifar10": "test_batches", "image_dir": "test_root"}[kind] in ds
    return {part: load(part) for part in ("train", "test")[: 1 + has_test]}


def assert_split_matches_eager(config, embed_samples=20):
    """Each split and the embed sample pick the records of the reference
    split, and the records-only path gives the labels, source ids and pixel
    bytes of an eager full load indexed by those records."""
    pools, eager = cli.load_pools(config), eager_parts(config)
    assert list(pools) == list(eager)
    labels = {part: [im.label for im in images] for part, images in eager.items()}
    for part, (part_labels, _) in pools.items():
        assert part_labels.tolist() == labels[part]
    chosen = (*cli.split_dataset(config, pools), cli.embed_sample(config, pools, embed_samples))
    reference = (*reference_split(config, labels["train"], labels.get("test")),
                 reference_embed_sample(config, labels["train"], labels.get("test"), embed_samples))
    image_size = config.model.image_size
    for records, expected in zip(chosen, reference):
        assert picked(records) and picked(records) == expected
        got = cli.prepare_images(records, pools, config)
        from_eager = [eager[part][r] for part, r in expected]
        assert [(im.label, im.source_id) for im in got] == [
            (im.label, im.source_id) for im in from_eager
        ]
        for a, b in zip(got, from_eager):
            px = b.pixels if b.pixels.shape[:2] == image_size else resize(b.pixels, *image_size)
            assert a.pixels.tobytes() == px.tobytes()
    return chosen


def test_label_only_split_matches_rendered_pool(tmp_path):
    for image_size in (None, [24, 24]):  # rendered at 16 x 16, then resized or not
        config = cli.load_config(write_config(tmp_path, image_size=image_size))
        assert list(cli.load_pools(config)) == ["train"]
        assert_split_matches_eager(config)


def test_zero_test_budget_takes_no_test_samples_from_either_pool(tmp_path):
    pools = {"train": (np.repeat(["a", "b"], 5), None), "test": (np.repeat(["a", "b"], 3), None)}
    for test, expected in ((0, 0), (2, 4)):
        budgets = {"train": 2, "val": 1, "test": test}
        config = cli.load_config(write_config(tmp_path, budgets=budgets))
        train, val, chosen = cli.split_dataset(config, pools)
        assert (len(train["train"]), len(val["train"]), len(chosen["test"])) == (4, 2, expected)
        assert list(chosen) == ["test"]
        # a four-shapes pool reads the budget the same way
        assert len(cli.split_dataset(config, cli.load_pools(config))[2]["train"]) == 4 * test
    config = cli.load_config(write_config(tmp_path, budgets={"train": 2, "val": 1, "test": 4}))
    with pytest.raises(ValueError, match="test class 'a' has 3 samples, needs 4"):
        cli.split_dataset(config, pools)


LABELS = st.lists(st.sampled_from(["0", "1", "9", "10", "a", "b", "é"]), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(labels=LABELS, test_labels=st.none() | LABELS,
       budgets=st.fixed_dictionaries({name: st.integers(0, 4) for name in ("train", "val", "test")}),
       seed=st.integers(0, 2**64), samples=st.integers(1, 50))
def test_array_split_picks_the_records_of_the_list_split(labels, test_labels, budgets, seed, samples):
    config = cli.config_from_dict({"seed": seed, "budgets": budgets})
    pools = {"train": (np.array(labels), None)}
    if test_labels is not None:
        pools["test"] = (np.array(test_labels), None)
    try:
        expected = reference_split(config, labels, test_labels)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            cli.split_dataset(config, pools)
    else:
        assert [picked(chosen) for chosen in cli.split_dataset(config, pools)] == list(expected)
    assert picked(cli.embed_sample(config, pools, samples)) == reference_embed_sample(
        config, labels, test_labels, samples)


# ---------------------------------------------------------------------------
# MNIST and CIFAR-10: labels first, then only the records a command keeps
# ---------------------------------------------------------------------------


def write_mnist(tmp_path, part, n, rng):
    """An IDX pair of n random 10 x 12 images, labels 0..3 in seeded order."""
    pixels = rng.integers(0, 256, (n, 10, 12), dtype=np.uint8)
    labels = rng.permutation(np.arange(n) % 4).astype(np.uint8)
    images, label_file = tmp_path / f"{part}-images", tmp_path / f"{part}-labels"
    images.write_bytes(struct.pack(">IIII", 0x803, n, 10, 12) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return {f"{part}_images": str(images), f"{part}_labels": str(label_file)}


def write_cifar(tmp_path, name, n, rng):
    records = rng.integers(0, 256, (n, 3073), dtype=np.uint8)
    records[:, 0] = rng.permutation(np.arange(n) % 4)
    (tmp_path / name).write_bytes(records.tobytes())
    return str(tmp_path / name)


def write_image_dir(root, per_class, rng, labels="abcd"):
    """Classes a..d of per_class images each, 8 x 8 grey and 10 x 12 RGB in turn."""
    for label in labels:
        (root / label).mkdir(parents=True)
        for i in range(per_class):
            write_pnm(root / label / f"{i:02d}.pnm", rng.random((8, 8, 1) if i % 2 else (10, 12, 3)))
    return str(root)


def file_dataset(tmp_path, kind, with_test):
    """Train files of 8 images per class (CIFAR: in two batches), and
    with_test, a test file of 4 per class."""
    rng = np.random.default_rng(5)
    if kind == "image_dir":
        ds = {"kind": "image_dir", "root": write_image_dir(tmp_path / "train", 8, rng)}
        if with_test:
            ds["test_root"] = write_image_dir(tmp_path / "test", 4, rng)
        return ds
    if kind == "mnist":
        ds = {"kind": "mnist", **write_mnist(tmp_path, "train", 32, rng)}
        if with_test:
            ds.update(write_mnist(tmp_path, "test", 16, rng))
    else:
        ds = {"kind": "cifar10", "train_batches": [write_cifar(tmp_path, "b1.bin", 20, rng),
                                                   write_cifar(tmp_path, "b2.bin", 12, rng)]}
        if with_test:
            ds["test_batches"] = [write_cifar(tmp_path, "test.bin", 16, rng)]
    return ds


def file_config(tmp_path, kind, with_test, image_size=(8, 8)):
    return write_config(tmp_path, dataset=file_dataset(tmp_path, kind, with_test),
                        image_size=list(image_size), budgets={"train": 2, "val": 3, "test": 2})


@pytest.mark.parametrize("kind, with_test, image_size", [
    ("mnist", False, (8, 8)), ("mnist", True, (8, 8)), ("mnist", True, (10, 12)),
    ("cifar10", False, (8, 8)), ("cifar10", True, (8, 8)), ("cifar10", True, (40, 36)),
    ("image_dir", False, (8, 8)), ("image_dir", True, (8, 8)), ("image_dir", True, (10, 12)),
])
def test_label_first_split_matches_eager_split(tmp_path, kind, with_test, image_size):
    config = cli.load_config(file_config(tmp_path, kind, with_test, image_size))
    assert list(cli.load_pools(config)) == ["train", "test"][: 1 + with_test]
    embedded = assert_split_matches_eager(config)[3]
    assert (len(embedded.get("test", ())) > 0) == with_test


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_test_data_without_images_is_named(tmp_path, capsys, command):
    ds = file_dataset(tmp_path, "image_dir", with_test=False)
    common = {"image_size": [8, 8], "channels": 3, "budgets": {"train": 2, "val": 3, "test": 2}}
    assert main(["fit", "--config", str(write_config(tmp_path, dataset=ds, **common))]) == 0
    (tmp_path / "empty").mkdir()
    config = write_config(tmp_path, dataset=dict(ds, test_root=str(tmp_path / "empty")), **common)
    assert main([command, "--config", str(config)]) == 1
    assert read_stderr_error(capsys) == {"error": "the test data holds no images",
                                         "type": "ValueError"}


def test_report_of_a_class_without_test_images_is_strict_json(tmp_path):
    rng = np.random.default_rng(5)
    ds = {"kind": "image_dir", "root": write_image_dir(tmp_path / "train", 8, rng),
          "test_root": write_image_dir(tmp_path / "test", 4, rng, labels="abc")}
    config = write_config(tmp_path, dataset=ds, image_size=[8, 8], channels=3,
                          budgets={"train": 2, "val": 3, "test": 2})
    assert main(["fit", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), "--protocol", "plain,fixed"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for protocol in ("plain", "fixed"):
        text = (tmp_path / "out" / f"report_{protocol}.json").read_text()
        per_class = json.loads(text, parse_constant=reject)["per_class_accuracy"]
        assert per_class["d"] is None
        assert all(0.0 <= per_class[z] <= 1.0 for z in "abc")


def test_mixed_channel_counts_are_named(tmp_path, capsys):
    ds = file_dataset(tmp_path, "image_dir", with_test=False)  # 8 x 8 grey and 10 x 12 RGB
    common = {"image_size": [8, 8], "budgets": {"train": 2, "val": 3, "test": 2}}
    assert main(["fit", "--config", str(write_config(tmp_path, dataset=ds, **common))]) == 1
    assert read_stderr_error(capsys) == {
        "error": 'images have 1 and 3 channels; set "channels" in the config'
                 " to convert them to one count",
        "type": "ValueError",
    }
    config = write_config(tmp_path, dataset=ds, channels=3, **common)
    assert main(["fit", "--config", str(config)]) == 0


@pytest.mark.parametrize("kind", ["mnist", "cifar10"])
def test_file_commands_convert_only_what_they_use(tmp_path, monkeypatch, kind):
    converted = []

    def counting(load):
        def wrapper(*args, **kwargs):
            images = load(*args, **kwargs)
            converted.append(len(images))
            return images
        return wrapper

    for name in ("load_mnist_idx", "load_cifar10"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    config = str(file_config(tmp_path, kind, with_test=True))  # train 2, val 3, test 2
    for argv, expected in (
        (["fit"], 4 * (2 + 3)),
        (["eval", "--protocol", "plain,fixed,oracle"], 4 * 2),
        (["eval", "--protocol", "fixed,ova"], 4 * 2),
        (["embed", "--samples", "20", "--perplexity", "5", "--iterations", "20"], 20),
    ):
        converted.clear()
        assert main([argv[0], "--config", config, *argv[1:]]) == 0
        assert sum(converted) == expected, argv


# ---------------------------------------------------------------------------
# file-route pipeline: gen-shapes PPMs reloaded via image_dir
# ---------------------------------------------------------------------------


def test_image_dir_pipeline_with_rgb_ppms(tmp_path):
    shapes = tmp_path / "shapes"
    assert main(["gen-shapes", "--per-class", "8", "--size", "16",
                 "--seed", "2", "--out", str(shapes)]) == 0
    config = write_config(
        tmp_path,
        dataset={"kind": "image_dir", "root": str(shapes)},
        image_size=[16, 16],
        budgets={"train": 3, "val": 3, "test": 2},
    )
    assert main(["fit", "--config", str(config)]) == 0
    model = load_model(tmp_path / "out" / "model.json")
    # P6 PPMs load as C=3, so rows streams have dim 48
    assert model.stream_dim == 48
    assert model.feature_length == 48 + 48 * 48
    assert main(["eval", "--config", str(config), "--protocol", "plain"]) == 0
    report = json.loads((tmp_path / "out" / "report_plain.json").read_text())
    assert report["total"] == 8
