import inspect
import json
import pathlib
import re

import numpy as np
import pytest

import sigclass.cli as cli
from sigclass.calibration import METHODS, closed_form_lambda, optimize_lambda
from sigclass.cli import main
from sigclass.classifier import ModelConfig, load_model
from sigclass.data_io import (
    AugmentSpec, LabeledImage, ShapeJitter, ensure_channels, gen_four_shapes, resize,
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
    ],
)
def test_unknown_config_key_fails_naming_it(tmp_path, capsys, section, value, key):
    config = write_config(tmp_path, **{section: value})
    assert main(["fit", "--config", str(config)]) == 1
    assert f"'{key}'" in read_stderr_error(capsys)["error"]


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
     ({"embed": {"samples": 2.5}}, "embed 'samples' must be an integer, got 2.5"),
     ({"embed": {"iterations": 2.5}}, "embed 'iterations' must be an integer >= 0, got 2.5"),
     ({"embed": {"iterations": -1}}, "embed 'iterations' must be an integer >= 0, got -1"),
     ({"embed": {"perplexity": "5"}}, "embed 'perplexity' must be a real number > 0, got '5'"),
     ({"embed": {"perplexity": True}}, "embed 'perplexity' must be a real number > 0, got True"),
     ({"embed": {"perplexity": 0}}, "embed 'perplexity' must be a real number > 0, got 0"),
     ({"seed": 2.7}, "seed must be an integer >= 0, got 2.7"),
     ({"seed": True}, "seed must be an integer >= 0, got True"),
     ({"seed": -1}, "seed must be an integer >= 0, got -1"),
     ({"dataset": {"kind": "four_shapes", "size": 16.9}},
      "dataset 'size' must be an integer, got 16.9"),
     ({"dataset": {"kind": "four_shapes", "size": True}},
      "dataset 'size' must be an integer, got True"),
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
         "float-samples", "float-iterations", "negative-iterations", "string-perplexity",
         "bool-perplexity", "zero-perplexity", "float-seed", "bool-seed", "negative-seed",
         "float-size", "bool-size", "bool-slack", "zero-slack", "negative-slack", "string-slack",
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
     ({"method": "optimize", "iter": 3}, "calibration method 'optimize' takes no key 'iter'"),
     ({"method": "optimize", "iters": 0}, "iters must be an integer >= 1, got 0"),
     ({"method": "closed_form", "gamma": 0.1},
      "calibration method 'closed_form' takes no key 'gamma'"),
     ({"epsilon": 0.0}, "epsilon must be finite and > 0, got 0.0"),
     ({"method": "none", "epsilon": 1e-8}, "calibration method 'none' takes no key 'epsilon'"),
     ({"method": "bogus"}, "unknown calibration method 'bogus'")],
    ids=["negative-box", "unknown-key", "zero-iters", "closed-form-gamma", "zero-epsilon",
         "none-epsilon", "unknown-method"],
)
def test_calibration_settings_are_checked_before_data_is_loaded(
        tmp_path, capsys, monkeypatch, calibration, message):
    def load_pools(config):
        raise AssertionError("fit loaded data before checking its calibration settings")

    monkeypatch.setattr(cli, "load_pools", load_pools)
    config = write_config(tmp_path, calibration=calibration)
    assert main(["fit", "--config", str(config)]) == 1
    assert read_stderr_error(capsys) == {"error": message, "type": "ValueError"}


def test_spectra_section_is_an_accepted_top_level_key():
    config = cli.config_from_dict({"spectra": {"window": 21, "polyorder": 3}})
    assert config.embed == cli.EMBED_DEFAULTS
    assert config.budgets == cli.BUDGET_DEFAULTS


def test_unknown_calibration_method_fails_at_load(tmp_path):
    config = write_config(tmp_path, calibration={"method": "bogus"})
    with pytest.raises(ValueError, match="unknown calibration method 'bogus'"):
        cli.load_config(config)


def test_prepare_images_shares_images_at_size():
    config = cli.config_from_dict({"dataset": {"kind": "image_dir"}, "image_size": [8, 8]})
    rng = np.random.default_rng(0)
    at_size = LabeledImage(rng.random((8, 8, 1)), "a", "x")
    larger = LabeledImage(rng.random((12, 10, 3)), "b", "y")
    same, resized = cli.prepare_images([at_size, larger], config)
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
    [("--per-class", "per_class must be >= 1"), ("--size", "image size must be >= 8, got 0")],
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
    rendered = cli.prepare_images(cli.load_pools(config)[0], config)
    for entry, im in zip(manifest["files"], rendered):
        assert entry["label"] == im.label
        expected = np.clip(np.rint(ensure_channels(im.pixels, 3) * 255.0), 0, 255)
        data = (out / entry["path"]).read_bytes()
        assert data.startswith(b"P6\n24 24\n255\n")
        assert np.array_equal(np.frombuffer(data[-24 * 24 * 3:], np.uint8), expected.ravel())


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
        (["eval", "--protocol", "fixed,ova"], 4 * (6 + 6)),
        (["embed", "--samples", "40", "--perplexity", "5", "--iterations", "20"], 40),
    ):
        rendered.clear()
        assert main([argv[0], "--config", config, *argv[1:]]) == 0
        assert sum(rendered) == expected, argv


def test_label_only_split_matches_rendered_pool(tmp_path):
    config = cli.load_config(write_config(tmp_path))
    refs, test_pool = cli.load_pools(config)
    assert test_pool is None
    eager = gen_four_shapes(**cli._shape_params(config))
    assert [r.label for r in refs] == [im.label for im in eager]
    for from_refs, from_pool in zip(cli.split_dataset(config, refs),
                                    cli.split_dataset(config, eager)):
        assert from_refs and len(from_refs) == len(from_pool)
        rendered = cli.prepare_images(from_refs, config)
        assert [im.source_id for im in rendered] == [im.source_id for im in from_pool]
        for a, b in zip(rendered, from_pool):
            assert a.label == b.label and a.pixels.tobytes() == b.pixels.tobytes()


def test_zero_test_budget_takes_no_test_samples_from_either_pool(tmp_path):
    rng = np.random.default_rng(0)

    def images(prefix, per_class):
        return [LabeledImage(rng.random((4, 4, 1)), z, f"{prefix}{z}:{i}")
                for z in "ab" for i in range(per_class)]

    pool, test_pool = images("", 5), images("t", 3)
    for test, expected in ((0, 0), (2, 4)):
        budgets = {"train": 2, "val": 1, "test": test}
        config = cli.load_config(write_config(tmp_path, budgets=budgets))
        train, val, chosen = cli.split_dataset(config, pool, test_pool)
        assert (len(train), len(val), len(chosen)) == (4, 2, expected)
        assert all(im.source_id.startswith("t") for im in chosen)
        # a four-shapes pool reads the budget the same way
        assert len(cli.split_dataset(config, cli.load_pools(config)[0])[2]) == 4 * test
    config = cli.load_config(write_config(tmp_path, budgets={"train": 2, "val": 1, "test": 4}))
    with pytest.raises(ValueError, match="test class 'a' has 3 samples, needs 4"):
        cli.split_dataset(config, pool, test_pool)


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
