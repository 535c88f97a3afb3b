"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
synthetic dataset writers, seeding, output checks and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import numpy as np
import pytest

import catalogue
import checks
import synth
import tracing
import workloads
from conftest import BENCH
from sigclass import cli, data_io

from run import MODULES, load_program


def span(name, start, end, parent, command=0, attrs=None):
    return tracing.Span(name, float(start), float(end), parent, command, attrs)


def test_self_times_on_a_hand_built_tree():
    spans = [
        span("cli.fit", 0, 10, -1),
        span("classifier.fit", 1, 6, 0),
        span("path_signature.signature_many", 2, 5, 1,
             attrs={"batch": 4, "n": 17, "d": 16, "order": 2, "features": 272}),
        span("tensor_algebra.mul_levels", 3, 4, 2),
        span("data_io.gen_four_shapes", 6, 8, 0, attrs={"items": 40}),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 2.0, 1.0, 2.0]
    values, absent = catalogue.layer_metrics(spans)
    assert values["cli.self_s"] == 3.0
    assert values["classifier.self_s"] == 2.0
    assert values["path_signature.fold_s"] == 3.0
    assert values["path_signature.streams"] == 4
    assert values["path_signature.us_per_stream_step"] == pytest.approx(1e6 * 3.0 / (4 * 16))
    assert values["tensor_algebra.mul_levels_calls"] == 1
    assert values["data_io.images"] == 40
    assert sum(values[f"{layer}.self_s"] for layer in catalogue.LAYERS) == 10.0
    assert "embedding.tsne_s" in absent and "embedding.self_s" in absent
    assert "path_signature.fold_s" not in absent


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.eval", 0, 10, -1), span("a.x", 1, 5, 0), span("b.y", 4, 7, 0), span("c.z", 9, 12, 0)]
    # children cover [1, 7] and [9, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 6 - 1)


@pytest.fixture(scope="module")
def modules():
    mods, _ = load_program()
    return mods


def _desk_config(path, seed=3):
    doc = workloads.WORKLOADS["desk-shapes"].warm_config(seed)
    doc["out_dir"] = str(path / "out")
    with open(path / "warm.json", "w") as fh:
        json.dump(doc, fh)
    return str(path / "warm.json")


def test_wrappers_are_removed_after_a_traced_run(modules, tmp_path):
    originals = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.TARGETS}
    assert set(modules) == set(MODULES)
    config = _desk_config(tmp_path)
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        assert all(getattr(modules[m], a) is not f for (m, a), f in originals.items())
        with tracer.command_span("fit"):
            assert cli.main(["fit", "--config", config]) == 0
    traced = len(tracer.spans)
    names = {s.name for s in tracer.spans}
    assert {"cli.fit", "classifier.fit", "path_signature.signature_many",
            "tensor_algebra.mul_levels", "data_io.gen_four_shapes"} <= names
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
    assert cli.main(["fit", "--config", config]) == 0
    assert len(tracer.spans) == traced


def test_synthetic_files_round_trip_through_the_loaders(tmp_path):
    cover, labels = synth.shapes(3, 28, seed=5, part=0)
    pixels = synth.to_bytes(cover)
    synth.write_idx_pair(tmp_path / "img", tmp_path / "lab", pixels, labels)
    loaded = data_io.load_mnist_idx(tmp_path / "img", tmp_path / "lab")
    assert [im.label for im in loaded] == [str(v) for v in labels]
    np.testing.assert_array_equal(np.stack([im.pixels[:, :, 0] for im in loaded]), pixels / 255.0)

    cover, labels = synth.shapes(3, 32, seed=5, part=1)
    rgb = synth.to_bytes(synth.colourise(cover))
    synth.write_cifar_batch(tmp_path / "batch.bin", rgb, labels)
    loaded = data_io.load_cifar10(tmp_path / "batch.bin")
    assert [im.label for im in loaded] == [str(v) for v in labels]
    np.testing.assert_array_equal(np.stack([im.pixels for im in loaded]), rgb / 255.0)
    # the colour ramps keep pixel streams off a line through the origin
    assert not np.allclose(rgb[..., 0], rgb[..., 1])


def _inputs(workload, seed, directory):
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        names = workload.write_inputs(seed)
    finally:
        os.chdir(cwd)
    return {name: (directory / name).read_bytes() for name in names}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed_fixes_the_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    first = _inputs(wl, 7, tmp_path / "a")
    assert _inputs(wl, 7, tmp_path / "b") == first
    other = _inputs(wl, 8, tmp_path / "c")
    assert set(other) == set(first)
    assert all(other[f] != first[f] for f in first)


def test_checks_accept_reassociation_and_reject_wrong_arithmetic():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(500)
    ref = checks.vector_digest(v)
    assert checks.compare(checks.vector_digest(v * (1 + 1e-15 * rng.standard_normal(500))), ref) == []
    wrong = v.copy()
    wrong[123] += 1e-4
    assert checks.compare(checks.vector_digest(wrong), ref)
    report = {"accuracy": 0.5, "mean_margin": 0.25}
    assert checks.compare(dict(report), report) == []
    assert checks.compare(dict(report, accuracy=0.505), report)


def test_benchmark_json_matches_the_catalogue():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalogue.PER_LAYER
    ]
    for m in catalogue.PER_LAYER:
        assert m.layer in catalogue.LAYERS or m.name == "trace.overhead_pct", m.name
        assert all(e2e in {x.name for x in catalogue.END_TO_END} and wl in workloads.WORKLOADS
                   for e2e, wl in m.moves), m.name
