"""Command-line orchestration: gen-shapes, fit, eval, spectra, embed.

Every command is a pure function of (config file, input files, seed):
re-running with identical inputs produces byte-identical artifacts.  All
randomness flows from the single config seed through named sub-streams.
Errors are reported as one machine-readable JSON line on stderr with a
nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import _real, solver_settings
from .classifier import (
    ModelConfig,
    PROTOCOLS,
    calibrate,
    confusion_csv,
    evaluate,
    features_for_images,
    fit,
    load_model,
    ova_thresholds,
    report_to_dict,
    save_model,
)
from .data_io import (
    AugmentSpec,
    SHAPE_LABELS,
    LabeledImage,
    ShapeJitter,
    ensure_channels,
    gen_four_shapes,
    group_by_label,
    load_cifar10,
    load_image_dir,
    load_mnist_idx,
    resize,
    write_pnm,
)
from .embedding import embedding_csv, pca_reduce, tsne_exact
from .path_signature import StreamConvention
from .signal_analysis import export_spectrum

SCHEMA_VERSION = 1

# Named sub-streams of the master seed; every consumer of randomness gets
# its own tag so no two stages share a stream.
STREAM_TAGS = {"split": 1, "shapes": 2, "augment": 3, "tsne": 4}


def substream_seed(master: int, name: str) -> int:
    seq = np.random.SeedSequence([int(master), STREAM_TAGS[name]])
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULT_SIZES = {"mnist": (28, 28), "cifar10": (32, 32)}

# Every top-level key a config may carry.  "spectra" holds the window and
# polyorder of the spectra command, for drivers that keep them in the same
# file; the CLI takes those from flags.
CONFIG_KEYS = frozenset({
    "seed", "out_dir", "dataset", "stream", "feature", "metric", "channels",
    "image_size", "augment", "budgets", "calibration", "protocol", "ova_slack",
    "embed", "spectra",
})
BUDGET_DEFAULTS = {"train": 10, "val": 100, "test": 200}
EMBED_DEFAULTS = {"samples": 300, "perplexity": 30.0, "iterations": 500}


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    dataset: dict
    model: ModelConfig
    budgets: dict
    calibration: dict  # "method" plus keyword arguments of its solver
    protocol: str
    ova_slack: float
    embed: dict


def _tuples(section: dict) -> dict:
    """A JSON object as dataclass keyword arguments: lists become tuples."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")


def config_from_dict(doc: dict) -> RunConfig:
    """Sections are passed to the library objects that own their keys, so
    a key left out takes that object's default and an unknown key raises."""
    _check_keys(doc, CONFIG_KEYS, "config")
    dataset = dict(doc.get("dataset") or {"kind": "four_shapes"})
    kind = dataset.get("kind")
    if kind not in ("four_shapes", "mnist", "cifar10", "image_dir"):
        raise ValueError(f"unknown dataset kind {kind!r}")
    if kind == "four_shapes" and "size" in dataset and not _is_int(dataset["size"]):
        raise ValueError(f"dataset 'size' must be an integer, got {dataset['size']!r}")
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")

    feature = doc.get("feature") or {}
    _check_keys(feature, ("kind", "order"), "feature")
    model = dict(feature, **{k: doc[k] for k in ("metric", "channels") if k in doc})
    if doc.get("image_size") is not None:
        model.update(_tuples({"image_size": doc["image_size"]}))
    elif kind == "four_shapes" and "size" in dataset:
        model["image_size"] = (dataset["size"],) * 2
    elif kind in _DEFAULT_SIZES:
        model["image_size"] = _DEFAULT_SIZES[kind]
    elif kind == "image_dir":
        raise ValueError("image_size is required for dataset kind 'image_dir'")
    if doc.get("augment") is not None:
        model["augment"] = AugmentSpec(**_tuples(doc["augment"]))

    budgets = dict(BUDGET_DEFAULTS, **(doc.get("budgets") or {}))
    _check_keys(budgets, BUDGET_DEFAULTS, "budgets")
    for name, value in budgets.items():
        if not _is_int(value) or value < 0:
            raise ValueError(f"budget {name!r} must be an integer >= 0, got {value!r}")

    calibration = dict(doc.get("calibration") or {})
    calibration.setdefault("method", "closed_form")
    solver_settings(calibration["method"], {k: v for k, v in calibration.items() if k != "method"})

    protocol = doc.get("protocol", "fixed")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")

    embed = dict(EMBED_DEFAULTS, **(doc.get("embed") or {}))
    _check_keys(embed, EMBED_DEFAULTS, "embed")
    if not _is_int(embed["samples"]):
        raise ValueError(f"embed 'samples' must be an integer, got {embed['samples']!r}")
    if not _is_int(embed["iterations"]) or embed["iterations"] < 0:
        raise ValueError(f"embed 'iterations' must be an integer >= 0, got {embed['iterations']!r}")
    perplexity = embed["perplexity"]
    if (isinstance(perplexity, bool) or not isinstance(perplexity, (int, float))
            or not 0 < perplexity < math.inf):
        raise ValueError(f"embed 'perplexity' must be a real number > 0, got {perplexity!r}")

    return RunConfig(
        seed=seed,
        out_dir=str(doc.get("out_dir", "out")),
        dataset=dataset,
        model=ModelConfig(convention=StreamConvention(**(doc.get("stream") or {})), **model),
        budgets=budgets,
        calibration=calibration,
        protocol=protocol,
        ova_slack=_real("ova_slack", doc.get("ova_slack", 1.1)),
        embed=embed,
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Dataset loading and splitting
# ---------------------------------------------------------------------------


def _jitter(section) -> ShapeJitter:
    """dataset.jitter as a ShapeJitter; the rotation band is given in degrees."""
    section = dict(section or {})
    if "rotation" in section:
        raise ValueError("unknown dataset.jitter key 'rotation'; give the band as 'rotation_deg'")
    if "rotation_deg" in section:
        rot = section.pop("rotation_deg")
        section["rotation"] = None if rot is None else tuple(np.deg2rad(v) for v in rot)
    return ShapeJitter(**_tuples(section))


class _ShapeRef(NamedTuple):
    """A four-shapes sample before it is rendered: its label and its
    (class index, sample index) key into gen_four_shapes."""

    label: str
    key: tuple[int, int]


def _shape_params(config: RunConfig) -> dict:
    ds = config.dataset
    per_class = ds.get("per_class")
    if per_class is None:
        b = config.budgets
        per_class = b["train"] + b["val"] + b["test"]
    return {
        "per_class": per_class,
        "size": ds.get("size", config.model.image_size[0]),
        "jitter": _jitter(ds.get("jitter")),
        "seed": substream_seed(config.seed, "shapes"),
    }


def load_pools(config: RunConfig) -> tuple[list, list[LabeledImage] | None]:
    """(train/validation pool, separate test pool or None).

    A four-shapes pool is a list of unrendered `_ShapeRef`s in the order
    gen_four_shapes renders the whole set; `prepare_images` renders only
    the ones a command keeps.
    """
    ds = config.dataset
    kind = ds["kind"]
    if kind == "four_shapes":
        per_class = _shape_params(config)["per_class"]
        pool = [
            _ShapeRef(label, (ci, i))
            for ci, label in enumerate(SHAPE_LABELS)
            for i in range(per_class)
        ]
        return pool, None
    if kind == "mnist":
        train = load_mnist_idx(ds["train_images"], ds["train_labels"])
        test = None
        if ds.get("test_images"):
            test = load_mnist_idx(ds["test_images"], ds["test_labels"])
        return train, test
    if kind == "cifar10":
        train = load_cifar10(ds["train_batches"])
        test = load_cifar10(ds["test_batches"]) if ds.get("test_batches") else None
        return train, test
    if kind == "image_dir":
        train = load_image_dir(ds["root"])
        test = load_image_dir(ds["test_root"]) if ds.get("test_root") else None
        return train, test
    raise ValueError(f"unknown dataset kind {kind!r}")


def _permutation(config: RunConfig, key: int, n: int) -> np.ndarray:
    """The seeded permutation of n items for split stream `key`."""
    seq = np.random.SeedSequence([config.seed, STREAM_TAGS["split"], key])
    return np.random.default_rng(seq).permutation(n)


def split_dataset(config: RunConfig, pool, test_pool=None):
    """Seeded per-class split into (train, val, test) lists.

    train and val come from `pool`; test comes from `test_pool` when given,
    otherwise from the unused remainder of `pool`.  Every budget counts
    samples per class, so a test budget of 0 takes no test samples.
    """
    b = config.budgets
    need = b["train"] + b["val"]
    pool_need = need + (b["test"] if test_pool is None else 0)
    train, val, test = [], [], []
    for ci, (label, items) in enumerate(group_by_label(pool).items()):
        if len(items) < pool_need:
            raise ValueError(f"class {label!r} has {len(items)} samples, needs {pool_need}")
        perm = _permutation(config, ci, len(items))
        train.extend(items[i] for i in perm[: b["train"]])
        val.extend(items[i] for i in perm[b["train"] : need])
        test.extend(items[i] for i in perm[need:pool_need])
    for ci, (label, items) in enumerate(group_by_label(test_pool or []).items()):
        if len(items) < b["test"]:
            raise ValueError(f"test class {label!r} has {len(items)} samples, needs {b['test']}")
        test.extend(items[i] for i in _permutation(config, 1000 + ci, len(items))[: b["test"]])
    return train, val, test


def prepare_images(images, config: RunConfig) -> list[LabeledImage]:
    """Render the four-shapes refs among a split's items, in one
    gen_four_shapes call, then resize each image not already at the
    configured size (channels are handled by the model's feature
    extraction).  Images at size are returned as they are."""
    if config.dataset["kind"] == "four_shapes":
        images = gen_four_shapes(**_shape_params(config), samples=[r.key for r in images])
    h, w = config.model.image_size
    return [
        im if im.pixels.shape[:2] == (h, w)
        else LabeledImage(resize(im.pixels, h, w), im.label, im.source_id)
        for im in images
    ]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_shapes(args) -> int:
    """Write four-shapes PPMs: with a config, the pool that fit, eval and embed render."""
    if args.config:
        config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
        params, seed, out_dir = _shape_params(config), config.seed, config.out_dir
    else:
        seed = args.seed if args.seed is not None else 0
        params = {"per_class": 10, "size": 16, "jitter": ShapeJitter(),
                  "seed": substream_seed(seed, "shapes")}
        out_dir = args.out or "out"
    for key in ("per_class", "size"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)

    images = gen_four_shapes(**params)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "size": params["size"],
        "per_class": params["per_class"],
        "files": [],
    }
    counters: dict[str, int] = {}
    for im in images:
        idx = counters.get(im.label, 0)
        counters[im.label] = idx + 1
        class_dir = os.path.join(out_dir, im.label)
        os.makedirs(class_dir, exist_ok=True)
        rel = os.path.join(im.label, f"shape_{idx:04d}.ppm")
        write_pnm(os.path.join(out_dir, rel), ensure_channels(im.pixels, 3))
        manifest["files"].append({"path": rel, "label": im.label})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(images)} images to {out_dir}")
    return 0


def cmd_fit(args) -> int:
    config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    pool, test_pool = load_pools(config)
    train, val, _ = split_dataset(config, pool, test_pool)
    train = prepare_images(train, config)
    val = prepare_images(val, config)

    solver = dict(config.calibration)
    method = solver.pop("method")
    if method != "none" and not val:
        raise ValueError(
            f"calibration method {method!r} requires a nonzero validation budget"
        )
    model = calibrate(fit(train, config.model), val, method, **solver)

    os.makedirs(config.out_dir, exist_ok=True)
    model_path = os.path.join(config.out_dir, "model.json")
    save_model(model, model_path)

    print(f"feature length: {model.feature_length}")
    for z, lam in zip(model.classes, model.factors):
        print(
            f"class {z}: train={model.train_counts[z]}"
            f" lambda min={lam.min():.6g} mean={lam.mean():.6g} max={lam.max():.6g}"
        )
    print(f"model written to {model_path}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    model = load_model(args.model or os.path.join(config.out_dir, "model.json"))
    protocols = (args.protocol or config.protocol).split(",")
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")

    pool, test_pool = load_pools(config)
    _, val, test = split_dataset(config, pool, test_pool)
    test = prepare_images(test, config)
    if not test:
        raise ValueError("test budget is zero; nothing to evaluate")

    thresholds = None
    if "ova" in protocols:
        if not val:
            raise ValueError("protocol 'ova' requires a nonzero validation budget")
        thresholds = ova_thresholds(model, prepare_images(val, config), slack=config.ova_slack)

    os.makedirs(config.out_dir, exist_ok=True)
    eval_seed = substream_seed(config.seed, "augment")
    reports = evaluate(model, test, protocols, thresholds=thresholds, seed=eval_seed)
    for protocol, report in zip(protocols, reports):
        report_path = os.path.join(config.out_dir, f"report_{protocol}.json")
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
        csv_path = os.path.join(config.out_dir, f"confusion_{protocol}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(confusion_csv(report))
        print(f"{protocol}: accuracy={report.accuracy:.4f} -> {report_path}")
    return 0


def cmd_spectra(args) -> int:
    out_dir = args.out or "out"
    model = load_model(args.model)
    series = export_spectrum(model, args.window, args.polyorder, out_dir=out_dir)
    for s in series:
        print(f"class {s.label}: window={s.window} polyorder={s.polyorder}")
    print(f"wrote {len(series)} spectrum files to {out_dir}")
    return 0


def cmd_embed(args) -> int:
    config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    samples, perplexity, iterations = (
        config.embed[key] if getattr(args, key) is None else getattr(args, key)
        for key in ("samples", "perplexity", "iterations")
    )

    pool, test_pool = load_pools(config)
    images = list(pool) + list(test_pool or [])
    if len(images) > samples:
        idx = _permutation(config, 2000, len(images))[:samples]
        images = [images[i] for i in sorted(idx)]
    images = prepare_images(images, config)

    feats = features_for_images(images, config.model)
    k = min(50, feats.shape[0] - 1, feats.shape[1])
    reduced = pca_reduce(feats, k)
    result = tsne_exact(
        reduced,
        perplexity=perplexity,
        iterations=iterations,
        seed=substream_seed(config.seed, "tsne"),
        labels=[im.label for im in images],
    )
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "embedding.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(embedding_csv(result))
    print(
        f"embedded {len(images)} samples; KL {result.kl_trace[0]:.4f} ->"
        f" {result.kl_trace[-1]:.4f}; wrote {csv_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigclass",
        description="Signature-feature few-shot classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("gen-shapes", help="render the procedural four-shapes dataset")
    common(p)
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=cmd_gen_shapes)

    p = sub.add_parser("fit", help="fit and calibrate a model")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a model under one or more protocols")
    common(p)
    p.add_argument("--model", default=None, help="model JSON (default: <out>/model.json)")
    p.add_argument(
        "--protocol",
        default=None,
        help="plain|fixed|ova|oracle, comma-separated for multiple reports",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spectra", help="export smoothed per-class spectra as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--polyorder", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("embed", help="PCA + exact t-SNE 2-D embedding CSV")
    common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--perplexity", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None and args.command in ("fit", "eval", "embed"):
        _fail(ValueError(f"command {args.command!r} requires --config"))
        return 1
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)
        return 1


def _fail(exc: Exception):
    print(
        json.dumps({"error": str(exc), "type": type(exc).__name__}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
