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
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import band, config_object, integer, json_object, real
from .calibration import solver_settings
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
    load_cifar10,
    load_image_dir,
    load_mnist_idx,
    read_cifar10_labels,
    read_mnist_labels,
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


def _embed_setting(key: str, value, name: str):
    """One embed setting checked under `name`: samples an integer >= 1, iterations >= 0,
    and perplexity a real > 0, whose upper bound, a third of the samples, tsne_exact checks."""
    if key == "perplexity":
        return real(name, value, inf_ok=True)
    return integer(name, value, 1 if key == "samples" else 0)


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    dataset: dict  # the dataset section, four-shapes jitter as a ShapeJitter
    model: ModelConfig
    budgets: dict
    calibration: dict  # "method" plus keyword arguments of its solver
    protocol: str
    ova_slack: float
    embed: dict


# The keys a dataset section must and may hold, by kind.  Every key but kind
# and the four-shapes settings names files: a path, or a non-empty list of
# paths for *_batches.  MNIST test images and labels come as a pair.
DATASETS = {
    "four_shapes": ((), ("size", "per_class", "jitter")),
    "mnist": (("train_images", "train_labels"), ("test_images", "test_labels")),
    "cifar10": (("train_batches",), ("test_batches",)),
    "image_dir": (("root",), ("test_root",)),
}


def _dataset(section) -> dict:
    """The dataset section checked against its kind's keys and values."""
    ds = {"kind": "four_shapes", **json_object("config 'dataset'", section)}
    kind = ds["kind"]
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    required, optional = DATASETS[kind]
    if kind == "mnist" and not ds.keys().isdisjoint(optional):
        required += optional
    json_object("config 'dataset'", ds, ("kind", *required, *optional), required)
    if kind == "four_shapes":
        for key, low in (("size", 8), ("per_class", 1)):
            if key in ds:
                integer(f"dataset {key!r}", ds[key], low)
        return dict(ds, jitter=_jitter(ds.get("jitter")))
    for key in [key for key in ds if key != "kind"]:
        _paths(f"dataset {key!r}", ds[key], key.endswith("_batches"))
    return ds


def _paths(name: str, value, many: bool = False):
    """value as a path, a string, or when many, a non-empty list of paths."""
    paths = value if many else [value]
    if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
        raise ValueError(f"{name} must be {'a non-empty list of paths' if many else 'a path'},"
                         f" got {value!r}")
    return value


def config_from_dict(doc: dict) -> RunConfig:
    """Every section is a JSON object checked against the keys of the
    library object that owns it, so a key left out takes that object's
    default and an unknown key raises."""
    json_object("config", doc, CONFIG_KEYS)
    dataset = _dataset(doc.get("dataset", {}))
    kind = dataset["kind"]
    seed = integer("seed", doc.get("seed", 0), 0)

    model = dict(json_object("config 'feature'", doc.get("feature", {}), ("kind", "order")))
    model.update({k: doc[k] for k in ("metric", "channels") if k in doc})
    if doc.get("image_size") is not None:
        model["image_size"] = doc["image_size"]
    elif kind == "four_shapes" and "size" in dataset:
        model["image_size"] = (dataset["size"],) * 2
    elif kind in _DEFAULT_SIZES:
        model["image_size"] = _DEFAULT_SIZES[kind]
    elif kind == "image_dir":
        raise ValueError("image_size is required for dataset kind 'image_dir'")
    model["convention"] = config_object(StreamConvention, "config 'stream'", doc.get("stream", {}))
    if doc.get("augment") is not None:
        model["augment"] = config_object(AugmentSpec, "config 'augment'", doc["augment"])

    budgets = json_object("config 'budgets'", doc.get("budgets", {}), BUDGET_DEFAULTS)
    budgets = {name: integer(f"budget {name!r}", value, 0)
               for name, value in dict(BUDGET_DEFAULTS, **budgets).items()}

    calibration = {"method": "closed_form",
                   **json_object("config 'calibration'", doc.get("calibration", {}))}
    solver_settings(calibration["method"], {k: v for k, v in calibration.items() if k != "method"})

    protocol = doc.get("protocol", "fixed")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")

    embed = json_object("config 'embed'", doc.get("embed", {}), EMBED_DEFAULTS)
    embed = {key: _embed_setting(key, value, f"embed {key!r}")
             for key, value in dict(EMBED_DEFAULTS, **embed).items()}
    json_object("config 'spectra'", doc.get("spectra", {}), ("window", "polyorder"))

    return RunConfig(
        seed=seed,
        out_dir=_paths("out_dir", doc.get("out_dir", "out")),
        dataset=dataset,
        model=config_object(ModelConfig, "config", model),
        budgets=budgets,
        calibration=calibration,
        protocol=protocol,
        ova_slack=real("ova_slack", doc.get("ova_slack", 1.1)),
        embed=embed,
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """The config file at path, with each override that is not None in place."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json_object("config", json.load(fh))
    return config_from_dict(dict(doc, **_not_none(overrides or {})))


def _not_none(overrides: dict) -> dict:
    return {key: value for key, value in overrides.items() if value is not None}


# ---------------------------------------------------------------------------
# Dataset loading and splitting
# ---------------------------------------------------------------------------


def _jitter(section) -> ShapeJitter:
    """dataset.jitter as a ShapeJitter; the rotation band is given in degrees."""
    section = dict(json_object("config 'dataset.jitter'", {} if section is None else section,
                               ("center_frac", "scale_range", "rotation_deg")))
    if "rotation_deg" in section:
        rot = section.pop("rotation_deg")
        section["rotation"] = None if rot is None else tuple(
            np.deg2rad(np.array(band("dataset.jitter 'rotation_deg'", rot), float)))
    return config_object(ShapeJitter, "config 'dataset.jitter'", section)


def _shape_params(config: RunConfig) -> dict:
    ds = config.dataset
    return {
        "per_class": ds.get("per_class", sum(config.budgets.values())),
        "size": ds.get("size", config.model.image_size[0]),
        "jitter": ds.get("jitter", ShapeJitter()),
        "seed": substream_seed(config.seed, "shapes"),
    }


def load_pools(config: RunConfig) -> dict:
    """The records a command splits, by part: "train", and "test" when the
    config names test data.  A part is (labels, load): the label of every
    record as a string array in record order, and load(records), the
    images of those record numbers in that order.

    Four-shapes records are numbered as gen_four_shapes numbers the full
    render.  A file dataset's required keys name its train part's files
    and its optional keys the test part's; MNIST and CIFAR-10 labels are
    read without a pixel.  Only the records a command keeps are rendered
    or read, but an image_dir part loads every file up front, because a
    file that fails to parse is skipped and that decides the records.
    """
    ds = config.dataset
    if ds["kind"] == "four_shapes":
        params = _shape_params(config)
        labels = np.repeat(SHAPE_LABELS, params["per_class"])
        return {"train": (labels, lambda records: gen_four_shapes(**params, records=records))}
    pools = {}
    for part, keys in zip(("train", "test"), DATASETS[ds["kind"]]):
        files = [ds[key] for key in keys if key in ds]
        if files:
            pools[part] = _file_part(ds["kind"], files)
    return pools


def _file_part(kind: str, files: list) -> tuple:
    """(labels, load) of a file dataset's part, from the values of its file keys."""
    if kind == "image_dir":
        images = load_image_dir(*files)
        labels = np.array([im.label for im in images], str)
        return labels, lambda records: [images[r] for r in records]
    read, load = ((read_mnist_labels, load_mnist_idx) if kind == "mnist"
                  else (read_cifar10_labels, load_cifar10))
    return read(*files).astype(str), lambda records: load(*files, records=records)


def _permutation(config: RunConfig, key: int, n: int) -> np.ndarray:
    """The seeded permutation of n items for split stream `key`."""
    seq = np.random.SeedSequence([config.seed, STREAM_TAGS["split"], key])
    return np.random.default_rng(seq).permutation(n)


def _class_orders(config: RunConfig, pools: dict, part: str, need: int) -> list:
    """Each class's record numbers of a part in seeded order, classes in
    sorted label order; class ci draws split stream ci of the train part,
    1000 + ci of the test part.  Every class must hold `need` records."""
    labels = pools[part][0]
    if need and not labels.size:
        raise ValueError(f"the {part} data holds no images")
    orders = []
    for ci, label in enumerate(sorted(set(labels.tolist()))):
        members = np.flatnonzero(labels == label)
        if len(members) < need:
            what = "test class" if part == "test" else "class"
            raise ValueError(f"{what} {label!r} has {len(members)} samples, needs {need}")
        key = ci + (1000 if part == "test" else 0)
        orders.append(members[_permutation(config, key, len(members))])
    return orders


def _take(orders: list, start: int, stop: int) -> np.ndarray:
    """Positions start:stop of every class's order, class after class."""
    return np.concatenate([np.empty(0, np.intp)] + [order[start:stop] for order in orders])


def split_dataset(config: RunConfig, pools: dict) -> tuple[dict, dict, dict]:
    """Seeded per-class split into (train, val, test), each a dict of part
    to record numbers.

    train and val come from the train part; test comes from the test part
    when there is one, otherwise from the unused remainder of the train
    part.  Every budget counts samples per class, so a test budget of 0
    takes no test samples.
    """
    b = config.budgets
    need = b["train"] + b["val"]
    if "test" in pools:
        orders = _class_orders(config, pools, "train", need)
        test = {"test": _take(_class_orders(config, pools, "test", b["test"]), 0, b["test"])}
    else:
        orders = _class_orders(config, pools, "train", need + b["test"])
        test = {"train": _take(orders, need, need + b["test"])}
    return {"train": _take(orders, 0, b["train"])}, {"train": _take(orders, b["train"], need)}, test


def embed_sample(config: RunConfig, pools: dict, samples: int) -> dict:
    """The records embed maps, by part: a seeded choice of `samples` of all
    parts' records numbered together, train part first, each part's in
    record order; all of them when there are no more."""
    counts = [len(labels) for labels, _ in pools.values()]
    chosen = np.arange(sum(counts))
    if len(chosen) > samples:
        chosen = np.sort(_permutation(config, 2000, len(chosen))[:samples])
    starts = np.cumsum([0] + counts)
    return {part: chosen[(start <= chosen) & (chosen < stop)] - start
            for part, start, stop in zip(pools, starts, starts[1:])}


def prepare_images(chosen: dict, pools: dict, config: RunConfig) -> list[LabeledImage]:
    """The images of chosen records (a dict of part to record numbers),
    part by part, at the configured size (channels are handled by the
    model's feature extraction).

    Images already at size are returned as they are; the others are
    resized one stack per source shape.
    """
    images = [im for part, records in chosen.items() if len(records)
              for im in pools[part][1](records)]
    h, w = config.model.image_size
    by_shape: dict[tuple, list[int]] = {}
    for j, im in enumerate(images):
        if im.pixels.shape[:2] != (h, w):
            by_shape.setdefault(im.pixels.shape, []).append(j)
    for at in by_shape.values():
        stack = resize(np.stack([images[j].pixels for j in at]), h, w)
        resized = LabeledImage.stack(
            stack, [images[j].label for j in at], [images[j].source_id for j in at]
        )
        for j, im in zip(at, resized):
            images[j] = im
    return images


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_shapes(args) -> int:
    """Write four-shapes PPMs: with a config, the pool that fit, eval and embed render."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    if args.config:
        config = load_config(args.config, overrides)
        kind = config.dataset["kind"]
        if kind != "four_shapes":
            raise ValueError(f"gen-shapes renders four_shapes, not dataset kind {kind!r}")
    else:
        dataset = {"kind": "four_shapes", "per_class": 10}
        config = config_from_dict({"dataset": dataset, **_not_none(overrides)})
    params = dict(_shape_params(config), **_not_none({"per_class": args.per_class, "size": args.size}))
    out_dir = config.out_dir

    images = gen_four_shapes(**params)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "size": params["size"],
        "per_class": params["per_class"],
        "files": [],
    }
    for r, im in enumerate(images):  # record r is sample r % per_class of its class
        class_dir = os.path.join(out_dir, im.label)
        os.makedirs(class_dir, exist_ok=True)
        rel = os.path.join(im.label, f"shape_{r % params['per_class']:04d}.ppm")
        write_pnm(os.path.join(out_dir, rel), ensure_channels(im.pixels, 3))
        manifest["files"].append({"path": rel, "label": im.label})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(images)} images to {out_dir}")
    return 0


def cmd_fit(args) -> int:
    config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
    pools = load_pools(config)
    train, val, _ = split_dataset(config, pools)
    train = prepare_images(train, pools, config)
    val = prepare_images(val, pools, config)

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
    thresholds = ova_thresholds(model, slack=config.ova_slack) if "ova" in protocols else None

    pools = load_pools(config)
    test = prepare_images(split_dataset(config, pools)[2], pools, config)
    if not test:
        raise ValueError("test budget is zero; nothing to evaluate")

    os.makedirs(config.out_dir, exist_ok=True)
    eval_seed = substream_seed(config.seed, "augment")
    reports = evaluate(model, test, protocols, thresholds=thresholds, seed=eval_seed)
    for protocol, report in zip(protocols, reports):
        report_path = os.path.join(config.out_dir, f"report_{protocol}.json")
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report_to_dict(report), fh, indent=2, allow_nan=False)
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
        config.embed[key] if getattr(args, key) is None
        else _embed_setting(key, getattr(args, key), f"--{key}")
        for key in ("samples", "perplexity", "iterations")
    )

    pools = load_pools(config)
    images = prepare_images(embed_sample(config, pools, samples), pools, config)

    feats = features_for_images(images, config.model)
    k = max(1, min(50, feats.shape[0] - 1, feats.shape[1]))  # >= 1: tsne_exact checks n
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
