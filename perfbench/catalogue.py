"""Every metric the benchmark reports: unit, direction, layer, and the
end-to-end metric and workloads each per-layer metric should move.

``BENCHMARK.json`` repeats the names, units, directions and bounds; the
benchmark's tests keep the two in step.  The ``moves`` entries let a later
change name its claim as (per-layer metric -> end-to-end metric, workload).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import Span, self_times

DESK, MNIST, CIFAR = "desk-shapes", "mnist-rows-o3", "cifar-pixels-logsig"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    bound: float | None = None  # end-to-end metrics only
    sources: tuple[str, ...] = ()  # span-name prefixes; none recorded = absent
    moves: tuple[tuple[str, str], ...] = ()  # (end-to-end metric, workload)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0] if "." in self.name else "cli"


# Times are medians over the run, scaled to the reference machine speed
# (harness.SpeedProbe); the details line keeps the raw medians.
END_TO_END = [
    Metric("fit_s", "s", "lower", "median time of `fit`", 0.25),
    Metric("eval_s", "s", "lower", "median time of `eval` over the workload's protocols", 0.25),
    Metric(
        "cycle_s", "s", "lower",
        "median time of the whole command sequence: fit, eval, then embed"
        " (desk-shapes) or spectra (mnist-rows-o3)",
        0.25,
    ),
    Metric(
        "setup_s", "s", "lower",
        "imports once, plus the median of three set-ups: input generation and a"
        " small warm-up run of every command",
        0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "peak resident memory of the benchmark process, its 8 MB speed probe included",
        0.1,
    ),
]

FOLDS = ("path_signature.signature_many", "path_signature.log_signature_many")
LOADERS = ("data_io.gen_four_shapes", "data_io.load_mnist_idx", "data_io.load_cifar10")
LAYERS = ("cli", "data_io", "path_signature", "tensor_algebra", "classifier", "calibration",
          "embedding", "signal_analysis")


def _m(name, unit, doc, sources, *moves, better="lower"):
    return Metric(name, unit, better, doc, None, tuple(sources), tuple(moves))


PER_LAYER = [
    _m("data_io.gen_four_shapes_s", "s", "shape rendering", ["data_io.gen_four_shapes"],
       ("fit_s", DESK), ("cycle_s", DESK)),
    _m("data_io.load_mnist_idx_s", "s", "IDX parsing", ["data_io.load_mnist_idx"],
       ("fit_s", MNIST), ("eval_s", MNIST)),
    _m("data_io.load_cifar10_s", "s", "CIFAR batch parsing", ["data_io.load_cifar10"],
       ("fit_s", CIFAR), ("eval_s", CIFAR)),
    _m("data_io.resize_s", "s", "bilinear resize of every split image", ["data_io.resize"],
       ("fit_s", CIFAR), ("eval_s", CIFAR)),
    _m("data_io.augment_s", "s", "augmented-copy generation", ["data_io.augment"], ("eval_s", CIFAR)),
    _m("data_io.augment_copies", "count", "augmented copies made", ["data_io.augment"], ("eval_s", CIFAR)),
    _m("data_io.images", "count", "images rendered or parsed", LOADERS, ("cycle_s", DESK)),
    _m("path_signature.fold_s", "s", "signature_many + log_signature_many, inclusive", FOLDS,
       ("fit_s", MNIST), ("eval_s", MNIST), ("eval_s", CIFAR)),
    _m("path_signature.fold_calls", "count", "fold calls", FOLDS, ("eval_s", DESK), ("eval_s", CIFAR)),
    _m("path_signature.streams", "count", "streams folded", FOLDS, ("fit_s", MNIST), ("eval_s", MNIST)),
    _m("path_signature.streams_per_call", "count", "streams per fold call; batching raises it", FOLDS,
       ("eval_s", DESK), ("eval_s", CIFAR), better="higher"),
    _m("path_signature.us_per_stream_step", "us", "fold_s / sum of streams x (n - 1)", FOLDS,
       ("eval_s", MNIST), ("eval_s", CIFAR)),
    _m("path_signature.feature_mb", "MB", "feature matrix bytes produced, computed from shapes", FOLDS),
    _m("tensor_algebra.mul_levels_calls", "count", "mul_levels calls made directly by the fold",
       ["tensor_algebra.mul_levels"], ("eval_s", MNIST), ("eval_s", CIFAR)),
    _m("tensor_algebra.mul_levels_s", "s", "time in mul_levels calls made directly by the fold",
       ["tensor_algebra.mul_levels"], ("eval_s", MNIST), ("eval_s", CIFAR)),
    _m("tensor_algebra.log_levels_s", "s", "tensor logarithm, inclusive", ["tensor_algebra.log_levels"],
       ("eval_s", CIFAR)),
    _m("classifier.evaluate_self_s", "s",
       "evaluate minus child spans: scoring, protocol dispatch, per-image stream stacking",
       ["classifier.evaluate"], ("eval_s", DESK)),
    _m("classifier.calibration_set_s", "s",
       "calibration_set minus child spans: stream stacking and per-row SigFeatures",
       ["classifier.calibration_set"], ("fit_s", MNIST)),
    _m("classifier.ova_thresholds_s", "s", "ova_thresholds, inclusive", ["classifier.ova_thresholds"],
       ("eval_s", DESK), ("eval_s", CIFAR)),
    _m("classifier.save_model_s", "s", "model.json writing", ["classifier.save_model"], ("fit_s", MNIST)),
    _m("classifier.load_model_s", "s", "model.json reading", ["classifier.load_model"],
       ("eval_s", MNIST), ("cycle_s", MNIST)),
    _m("classifier.model_json_mb", "MB", "size of the written model.json", ["classifier.save_model"],
       ("fit_s", MNIST)),
    _m("calibration.closed_form_s", "s", "closed_form_lambda, inclusive",
       ["calibration.closed_form_lambda"], ("fit_s", DESK), ("fit_s", MNIST)),
    _m("calibration.optimize_s", "s", "optimize_lambda, inclusive", ["calibration.optimize_lambda"],
       ("fit_s", CIFAR)),
    _m("calibration.optimize_ms_per_class_iter", "ms", "optimize_s / (classes x iterations)",
       ["calibration.optimize_lambda"], ("fit_s", CIFAR)),
    _m("embedding.pca_s", "s", "PCA reduction", ["embedding.pca_reduce"], ("cycle_s", DESK)),
    _m("embedding.tsne_s", "s", "exact t-SNE", ["embedding.tsne_exact"], ("cycle_s", DESK)),
    _m("embedding.tsne_ms_per_iter", "ms", "tsne_s / iterations", ["embedding.tsne_exact"],
       ("cycle_s", DESK)),
    _m("signal_analysis.export_spectrum_s", "s", "spectrum smoothing and CSV export",
       ["signal_analysis.export_spectrum"], ("cycle_s", MNIST)),
    *[
        _m(f"{layer}.self_s", "s", f"summed self time of the {layer} spans", [f"{layer}."])
        for layer in LAYERS
    ],
    _m("trace.overhead_pct", "%", "traced minus untraced cycle time, as a share of untraced", []),
]


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced cycle, and the metrics whose
    layer the cycle never entered (reported as 0 and marked absent)."""
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    layers: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        selfs[s.name] = selfs.get(s.name, 0.0) + t
        layers[s.layer] = layers.get(s.layer, 0.0) + t

    def attr_sum(names, key):
        return sum(s.attrs[key] for s in spans if s.name in names and s.attrs)

    folds = [s for s in spans if s.name in FOLDS]
    fold_s = sum(s.duration for s in folds)
    streams = sum(s.attrs["batch"] for s in folds)
    steps = sum(s.attrs["batch"] * (s.attrs["n"] - 1) for s in folds)
    fold_index = {i for i, s in enumerate(spans) if s.name in FOLDS}
    fold_mul = [s for s in spans if s.name == "tensor_algebra.mul_levels" and s.parent in fold_index]
    optimize = [s for s in spans if s.name == "calibration.optimize_lambda"]
    class_iters = sum(s.attrs["classes"] * s.attrs["iters"] for s in optimize)
    tsne_iters = attr_sum({"embedding.tsne_exact"}, "iterations")

    values = {
        "data_io.gen_four_shapes_s": total.get("data_io.gen_four_shapes", 0.0),
        "data_io.load_mnist_idx_s": total.get("data_io.load_mnist_idx", 0.0),
        "data_io.load_cifar10_s": total.get("data_io.load_cifar10", 0.0),
        "data_io.resize_s": total.get("data_io.resize", 0.0),
        "data_io.augment_s": total.get("data_io.augment", 0.0),
        "data_io.augment_copies": attr_sum({"data_io.augment"}, "items"),
        "data_io.images": attr_sum(LOADERS, "items"),
        "path_signature.fold_s": fold_s,
        "path_signature.fold_calls": len(folds),
        "path_signature.streams": streams,
        "path_signature.streams_per_call": streams / len(folds) if folds else 0.0,
        "path_signature.us_per_stream_step": 1e6 * fold_s / steps if steps else 0.0,
        "path_signature.feature_mb": sum(s.attrs["batch"] * s.attrs["features"] * 8 for s in folds) / 1e6,
        "tensor_algebra.mul_levels_calls": len(fold_mul),
        "tensor_algebra.mul_levels_s": sum(s.duration for s in fold_mul),
        "tensor_algebra.log_levels_s": total.get("tensor_algebra.log_levels", 0.0),
        "classifier.evaluate_self_s": selfs.get("classifier.evaluate", 0.0),
        "classifier.calibration_set_s": selfs.get("classifier.calibration_set", 0.0),
        "classifier.ova_thresholds_s": total.get("classifier.ova_thresholds", 0.0),
        "classifier.save_model_s": total.get("classifier.save_model", 0.0),
        "classifier.load_model_s": total.get("classifier.load_model", 0.0),
        "classifier.model_json_mb": attr_sum({"classifier.save_model"}, "bytes") / 1e6,
        "calibration.closed_form_s": total.get("calibration.closed_form_lambda", 0.0),
        "calibration.optimize_s": sum(s.duration for s in optimize),
        "calibration.optimize_ms_per_class_iter":
            1e3 * sum(s.duration for s in optimize) / class_iters if class_iters else 0.0,
        "embedding.pca_s": total.get("embedding.pca_reduce", 0.0),
        "embedding.tsne_s": total.get("embedding.tsne_exact", 0.0),
        "embedding.tsne_ms_per_iter":
            1e3 * total.get("embedding.tsne_exact", 0.0) / tsne_iters if tsne_iters else 0.0,
        "signal_analysis.export_spectrum_s": total.get("signal_analysis.export_spectrum", 0.0),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)

    present = {s.name for s in spans}
    absent = [
        m.name for m in PER_LAYER
        if m.sources and not any(n.startswith(src) for n in present for src in m.sources)
    ]
    return values, sorted(absent)


def median_metrics(cycles: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
