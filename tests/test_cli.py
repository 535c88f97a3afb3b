import json

import numpy as np

import sigclass.cli as cli
from sigclass.cli import main
from sigclass.classifier import load_model
from sigclass.data_io import gen_four_shapes


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
    for z in model.classes:
        assert model.lambda_rmse[z].values.shape == (272,)


def test_fit_zero_validation_with_closed_form_fails(tmp_path, capsys):
    config = write_config(tmp_path, budgets={"train": 4, "val": 0, "test": 6})
    assert main(["fit", "--config", str(config)]) == 1
    assert "validation" in read_stderr_error(capsys)["error"]


def test_fit_calibration_none_gives_identity(tmp_path):
    config = write_config(tmp_path, calibration={"method": "none"},
                          budgets={"train": 4, "val": 0, "test": 6})
    assert main(["fit", "--config", str(config)]) == 0
    model = load_model(tmp_path / "out" / "model.json")
    for z in model.classes:
        assert model.lambda_rmse[z].values == 1.0


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
    assert model.representatives[model.classes[0]].dim == 48
    assert model.feature_length == 48 + 48 * 48
    assert main(["eval", "--config", str(config), "--protocol", "plain"]) == 0
    report = json.loads((tmp_path / "out" / "report_plain.json").read_text())
    assert report["total"] == 8
