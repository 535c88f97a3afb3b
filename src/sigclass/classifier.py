"""Nearest-representative classification of images by signature features.

A fitted model holds two (Z, F) matrices, row z for class z: the
element-wise mean feature vectors (representatives) and the scale
factors.  Four evaluation protocols are provided:

  plain   argmin over classes of score(x, rep_z), no scale factors.
  fixed   argmin of score(lambda_z * x, rep_z): each class applies its own
          factor inside its own comparison.  No test-label knowledge.
  ova     per-class accept thresholds tuned on validation, one-vs-all.
  oracle  the TRUE class's factor is applied before scoring all classes.
          This leaks the test label and exists only to audit the
          oracle-scale-factor evaluation; it is segregated from predict().
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .calibration import (
    CalibrationSet,
    _real,
    closed_form_lambda,
    optimize_lambda,
    solver_settings,
)
from .data_io import AugmentSpec, LabeledImage, augment, ensure_channels, group_by_label
from .path_signature import (
    LOG_SIGNATURE,
    SIGNATURE,
    StreamConvention,
    _check_order,
    log_signature_many,
    signature_many,
)
from .scoring import score_rows
from .tensor_algebra import feature_length

__all__ = [
    "ModelConfig",
    "ClassModel",
    "EvalReport",
    "fit",
    "calibrate",
    "features_for_images",
    "predict",
    "predict_oracle",
    "predict_ova",
    "ova_thresholds",
    "evaluate",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "report_to_dict",
    "confusion_csv",
]

SCHEMA_VERSION = 1
PROTOCOLS = ("plain", "fixed", "ova", "oracle")

# Stream-point and feature bytes per evaluation block: flat memory, few folds.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelConfig:
    kind: str = SIGNATURE
    order: int = 2
    metric: str = "rmse"
    convention: StreamConvention = StreamConvention()
    image_size: tuple[int, int] = (16, 16)
    channels: int | None = None
    augment: AugmentSpec | None = None

    def __post_init__(self):
        if self.kind not in (SIGNATURE, LOG_SIGNATURE):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.metric not in ("rmse", "mae"):
            raise ValueError(f"unknown metric {self.metric!r}")
        _check_order(self.order)
        if not (isinstance(self.image_size, tuple) and len(self.image_size) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                        for v in self.image_size)):
            raise ValueError(f"image_size must be two integers >= 1, got {self.image_size!r}")


@dataclass(frozen=True)
class ClassModel:
    """Row z of representatives and of factors belongs to classes[z].  Both
    are held as read-only float64 views of the given arrays, which callers
    should not change afterwards; factors default to all ones."""

    config: ModelConfig
    classes: tuple[str, ...]
    stream_dim: int
    representatives: np.ndarray  # (Z, F)
    train_counts: dict[str, int]
    factors: np.ndarray | None = None  # (Z, F)

    def __post_init__(self):
        if not self.classes:
            raise ValueError("model has no classes")
        shape = (len(self.classes), feature_length(self.stream_dim, self.config.order))
        factors = np.ones(shape) if self.factors is None else self.factors
        for name, table in (("representatives", self.representatives), ("factors", factors)):
            table = np.asarray(table, dtype=np.float64).view()
            if table.shape != shape:
                raise ValueError(
                    f"{name} must have shape {shape} for {len(self.classes)} classes,"
                    f" stream_dim={self.stream_dim}, order={self.config.order}; got {table.shape}"
                )
            if not np.all(np.isfinite(table)):
                raise ValueError(f"{name} contain non-finite entries")
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        if sorted(self.train_counts) != sorted(self.classes):
            raise ValueError(f"train_counts {sorted(self.train_counts)} must name each class once")

    @property
    def feature_length(self) -> int:
        return self.representatives.shape[1]


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    classes: tuple[str, ...]
    accuracy: float
    per_class_accuracy: dict[str, float]
    confusion: np.ndarray  # rows = true class, cols = predicted class
    mean_margin: float
    total: int


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def _prepared_pixels(model_config: ModelConfig, pixels: np.ndarray) -> np.ndarray:
    px = ensure_channels(pixels, model_config.channels)
    h, w = model_config.image_size
    if px.shape[0] != h or px.shape[1] != w:
        raise ValueError(
            f"image shape {px.shape[:2]} does not match model size {(h, w)};"
            " resize upstream"
        )
    return px


def _features_and_dim(images, config: ModelConfig) -> tuple[np.ndarray, int]:
    pixel_list = [im.pixels if isinstance(im, LabeledImage) else im for im in images]
    pts = config.convention.points(np.stack([_prepared_pixels(config, px) for px in pixel_list]))
    many = signature_many if config.kind == SIGNATURE else log_signature_many
    return many(pts, config.order), pts.shape[2]


def features_for_images(images, config: ModelConfig) -> np.ndarray:
    """Feature matrix (batch, feature_length) for a list of images.

    Accepts LabeledImage objects or raw pixel arrays, all already at the
    model's image size.
    """
    return _features_and_dim(images, config)[0]


def _test_features(model: ClassModel, pixel_list, seeds) -> np.ndarray:
    """(n, F) test features: row i is the mean over the augmented copies drawn
    from augment seed seeds[i], or over the image alone without augmentation."""
    spec = model.config.augment
    if spec is not None:
        pixel_list = [c for px, s in zip(pixel_list, seeds) for c in augment(px, spec, seed=s)]
    feats = features_for_images(pixel_list, model.config)
    return feats.reshape(len(seeds), -1, feats.shape[1]).mean(axis=1)


# ---------------------------------------------------------------------------
# Fitting and calibration
# ---------------------------------------------------------------------------


def _class_features(images, config: ModelConfig, classes=None):
    """(classes, one (n_z, F) feature block per class, stream dim) from one fold
    over the images ordered class by class.  classes defaults to the labels
    present, in sorted order; a requested class with no image is an error."""
    groups = group_by_label(images)
    if classes is None:
        if not groups:
            raise ValueError("training set is empty")
        classes = tuple(groups)
    missing = [z for z in classes if z not in groups]
    if missing:
        raise ValueError(f"validation set lacks classes: {missing}")
    feats, dim = _features_and_dim([im for z in classes for im in groups[z]], config)
    blocks = np.split(feats, np.cumsum([len(groups[z]) for z in classes])[:-1])
    return classes, blocks, dim


def fit(train, config: ModelConfig) -> ClassModel:
    """Fit per-class element-wise mean representatives from labeled images.

    Scale factors start at the identity; apply calibrate() afterwards.
    Classes are ordered lexicographically.
    """
    classes, blocks, dim = _class_features(train, config)
    return ClassModel(
        config=config, classes=classes, stream_dim=dim,
        representatives=np.stack([x.mean(axis=0) for x in blocks]),
        train_counts={z: len(x) for z, x in zip(classes, blocks)},
    )


def calibration_set(model: ClassModel, val_images) -> CalibrationSet:
    """Bundle the model's representatives with validation features."""
    _, blocks, _ = _class_features(val_images, model.config, model.classes)
    return CalibrationSet(model.representatives, dict(zip(model.classes, blocks)))


def calibrate(model: ClassModel, val_images, method: str = "closed_form", **kwargs) -> ClassModel:
    """Return a copy of the model with calibrated per-class scale factors.

    method "closed_form" averages element-wise ratios (metric-independent);
    method "optimize" runs the projected subgradient solver on the MAE
    separation objective.  Either result is the factor table used under
    both metrics.  method "none" resets the factors to the identity.  An
    unknown method, or a keyword the method's solver does not take or a
    value it rejects, is a ValueError before any feature is computed.
    """
    kwargs = solver_settings(method, kwargs)
    if method == "none":
        return replace(model, factors=None)
    solver = closed_form_lambda if method == "closed_form" else optimize_lambda
    factors = solver(calibration_set(model, val_images), **kwargs)
    return replace(model, factors=factors)


# ---------------------------------------------------------------------------
# Scoring and protocols
# ---------------------------------------------------------------------------


def _classify(model: ClassModel, x: np.ndarray, protocol: str, true_idx=None, thresholds=None):
    """(predicted class indices (n,), score matrix (n, Z)) of feature rows x."""
    reps, lams = model.representatives, model.factors
    if protocol == "oracle":
        x = lams[true_idx] * x
    per_class = protocol in ("fixed", "ova")
    # one class at a time: temporaries stay (n, F), never (n, Z, F)
    cols = [score_rows(rep, lams[zi] * x if per_class else x, model.config.metric)
            for zi, rep in enumerate(reps)]
    scores = np.stack(cols, axis=1)
    if protocol != "ova":
        return np.argmin(scores, axis=1), scores
    missing = [z for z in model.classes if z not in thresholds]
    if missing:
        raise ValueError(f"thresholds lack classes: {missing}")
    tau = np.array([max(thresholds[z], 1e-12) for z in model.classes])
    normalized = scores / tau
    # a class over its threshold is out, unless every class is
    rejected = (scores > tau) & (scores <= tau).any(axis=1, keepdims=True)
    return np.argmin(np.where(rejected, np.inf, normalized), axis=1), normalized


def _predict_one(model, image, protocol, augment_seed, true_idx=None, thresholds=None):
    pixels = image.pixels if isinstance(image, LabeledImage) else image
    x = _test_features(model, [pixels], [augment_seed])
    predicted, scores = _classify(model, x, protocol, true_idx, thresholds)
    return model.classes[int(predicted[0])], {z: float(v) for z, v in zip(model.classes, scores[0])}


def predict(model: ClassModel, image, protocol: str = "plain", augment_seed=None):
    """Label and per-class scores for one image; ties go to the lowest class index."""
    if protocol not in ("plain", "fixed"):
        raise ValueError(f"predict supports 'plain' and 'fixed', got {protocol!r}")
    return _predict_one(model, image, protocol, augment_seed)


def predict_oracle(model: ClassModel, image, true_label: str, augment_seed=None):
    """Audit-only protocol: scores all classes with the TRUE class's factors.

    Requires the test label, so it cannot be deployed; returns
    (is_correct, predicted_label, scores) for measurement purposes.
    """
    if true_label not in model.classes:
        raise ValueError(f"unknown label {true_label!r}")
    true_idx = [model.classes.index(true_label)]
    predicted, scores = _predict_one(model, image, "oracle", augment_seed, true_idx)
    return predicted == true_label, predicted, scores


def ova_thresholds(model: ClassModel, val_images, slack: float = 1.1) -> dict[str, float]:
    """Per-class accept threshold: slack times the worst own-class validation
    score.  slack must be a finite real > 0."""
    slack = _real("slack", slack)
    _, blocks, _ = _class_features(val_images, model.config, model.classes)
    return {
        z: float(slack * score_rows(x * lam, rep, model.config.metric).max())
        for z, x, lam, rep in zip(model.classes, blocks, model.factors, model.representatives)
    }


def predict_ova(model: ClassModel, image, thresholds: dict[str, float], augment_seed=None):
    """One-vs-all: accept classes scoring under their threshold, pick the
    best normalized score; fall back to normalized argmin if none accept."""
    return _predict_one(model, image, "ova", augment_seed, thresholds=thresholds)


def evaluate(
    model: ClassModel, test, protocol, thresholds=None, seed: int = 0
) -> EvalReport | tuple[EvalReport, ...]:
    """Aggregate per-sample predictions over a labeled test set.

    protocol is one name, giving one EvalReport, or a sequence of names,
    giving a tuple of reports in the same order from one feature pass.
    Augmentation randomness (when the model enables it) is drawn from a
    per-sample stream keyed by (seed, sample index), so the report is
    deterministic and independent of evaluation order.  The test set is
    walked in blocks of about BLOCK_BYTES; every report is bit-identical
    to one built from per-image predict*() calls.
    """
    protocols = (protocol,) if isinstance(protocol, str) else tuple(protocol)
    for name in protocols:
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r}")
    test = list(test)
    if not test:
        raise ValueError("test set is empty")
    if "ova" in protocols and thresholds is None:
        raise ValueError("protocol 'ova' requires thresholds")
    unknown = sorted({im.label for im in test} - set(model.classes))
    if unknown:
        raise ValueError(f"test set contains unknown classes: {unknown}")

    true_idx = np.array([model.classes.index(im.label) for im in test])
    cfg = model.config
    copies = cfg.augment.copies if cfg.augment is not None else 1
    n_points = cfg.convention.stream_shape(*cfg.image_size, 1)[0]
    row_bytes = 8 * copies * (model.feature_length + n_points * model.stream_dim)
    block = max(1, BLOCK_BYTES // row_bytes)
    parts = {name: [] for name in protocols}
    for start in range(0, len(test), block):
        stop = min(start + block, len(test))
        seeds = [[seed, i] for i in range(start, stop)]
        x = _test_features(model, [im.pixels for im in test[start:stop]], seeds)
        for name in parts:
            parts[name].append(_classify(model, x, name, true_idx[start:stop], thresholds))
    reports = tuple(_report(name, model.classes, true_idx, parts[name]) for name in protocols)
    return reports[0] if isinstance(protocol, str) else reports


def _report(protocol: str, classes, true_idx, parts) -> EvalReport:
    predicted, scores = (np.concatenate(column) for column in zip(*parts))
    z = len(classes)
    confusion = np.zeros((z, z), dtype=np.int64)
    np.add.at(confusion, (true_idx, predicted), 1)
    ordered = np.sort(scores, axis=1)
    margins = ordered[:, 1] - ordered[:, 0] if z > 1 else np.zeros(len(scores))
    total = confusion.sum()
    per_class = {}
    for zi, label in enumerate(classes):
        row = confusion[zi].sum()
        per_class[label] = float(confusion[zi, zi] / row) if row else float("nan")
    return EvalReport(
        protocol=protocol,
        classes=classes,
        accuracy=float(np.trace(confusion) / total),
        per_class_accuracy=per_class,
        confusion=confusion,
        mean_margin=float(np.mean(margins)),
        total=int(total),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _factor_to_json(row: np.ndarray, to_json):
    """A row of exact ones is written as the number 1.0, any other as a list."""
    return 1.0 if np.all(row == 1.0) else to_json(row)


def model_to_dict(model: ClassModel, to_json=np.ndarray.tolist) -> dict:
    """The model file's JSON object; to_json gives the value written for a
    representative row and for a factor row that is not all ones."""
    per_class = {}
    for z, rep, lam in zip(model.classes, model.representatives, model.factors):
        lam_json = _factor_to_json(lam, to_json)
        per_class[z] = {
            "representative": to_json(rep),
            "train_count": model.train_counts[z],
            "lambda_rmse": lam_json,
            "lambda_mae": lam_json,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(model.config),
        "classes": list(model.classes),
        "stream_dim": model.stream_dim,
        "feature_length": model.feature_length,
        "per_class": per_class,
    }


# Config fields that hold a nested config object (or None)
_NESTED = {"convention": StreamConvention, "augment": AugmentSpec}


def _config_from_dict(doc: dict, cls):
    """cls from a model file's JSON object holding every one of its fields;
    lists become tuples and nested config objects are built the same way."""
    _json_object(doc, "'config'")
    missing = [f.name for f in fields(cls) if f.name not in doc]
    if missing:
        raise ValueError(f"model file 'config' lacks field {missing[0]!r}")
    values = {}
    for f in fields(cls):
        v = doc[f.name]
        if f.name in _NESTED and v is not None:
            v = _config_from_dict(v, _NESTED[f.name])
        values[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**values)


def _json_object(value, where: str) -> dict:
    """value, or a ValueError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"model file {where} must be a JSON object, got {type(value).__name__}")
    return value


def _count(value, where: str) -> int:
    """value, or a ValueError unless it is an integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"model file {where} must be an integer >= 1, got {value!r}")
    return value


def model_from_dict(doc: dict) -> ClassModel:
    _json_object(doc, "top level")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    for key in ("config", "stream_dim", "feature_length"):
        if key not in doc:
            raise ValueError(f"model file lacks field {key!r}")
    config = _config_from_dict(doc["config"], ModelConfig)
    classes = tuple(doc.get("classes") or ())
    if not classes:
        raise ValueError("model file lists no classes")
    per_class = _json_object(doc.get("per_class", {}), "field 'per_class'")
    missing = [z for z in classes if z not in per_class]
    if missing:
        raise ValueError(f"model file 'per_class' lacks classes: {missing}")
    stream_dim = _count(doc["stream_dim"], "field 'stream_dim'")
    shape = (len(classes), feature_length(stream_dim, config.order))
    if doc["feature_length"] != shape[1]:
        raise ValueError(
            f"model file feature_length {doc['feature_length']!r} does not match"
            f" {shape[1]} for stream_dim={stream_dim}, order={config.order}"
        )
    reps, factors, counts = np.empty(shape), np.empty(shape), {}
    for zi, z in enumerate(classes):
        entry = _json_object(per_class[z], f"class {z!r}")
        try:
            _fill_row(reps, zi, z, "representative", entry["representative"])
            _fill_row(factors, zi, z, "lambda_rmse", entry["lambda_rmse"])
            counts[z] = _count(entry["train_count"], f"class {z!r} field 'train_count'")
            if entry["lambda_mae"] != entry["lambda_rmse"]:
                raise ValueError(f"model file class {z!r} has lambda_rmse != lambda_mae")
        except KeyError as exc:
            raise ValueError(f"model file class {z!r} lacks field {exc.args[0]!r}") from None
    return ClassModel(
        config=config,
        classes=classes,
        stream_dim=stream_dim,
        representatives=reps,
        train_counts=counts,
        factors=factors,
    )


def _fill_row(table: np.ndarray, zi: int, label: str, key: str, value) -> None:
    """table[zi] = a model file's list of numbers; a factor row may also be
    one number, which fills the row."""
    row = np.asarray(value)
    if row.dtype.kind not in "iuf":
        raise ValueError(f"model file class {label!r} field {key!r} holds non-numbers")
    if row.shape != table.shape[1:] and (key == "representative" or row.ndim != 0):
        raise ValueError(
            f"model file class {label!r} field {key!r} has shape {row.shape},"
            f" expected ({table.shape[1]},)"
        )
    table[zi] = row


# save_model dumps the model with this value in place of each row list, then
# writes the rows' text where the dump shows ': "\u0000"'.  Only a per-class
# row field can be followed by that text: a label is a list item or a key
# followed by ': {', and no JSON string holds an unescaped quote.
_ROW_MARK = "\x00"
_MARKED = ': "\\u0000"'


def _row_text(row: np.ndarray) -> str:
    """json.dump's indent=2 text of a per-class row list (finite floats)."""
    return "[\n        " + ",\n        ".join(map(repr, row.tolist())) + "\n      ]"


def _row_texts(model: ClassModel):
    """The text of each marked row of the dump, in document order."""
    for rep, lam in zip(model.representatives, model.factors):
        yield _row_text(rep)
        lam_text = _factor_to_json(lam, _row_text)
        if isinstance(lam_text, str):  # not the number 1.0
            yield from (lam_text, lam_text)  # lambda_rmse, lambda_mae


def save_model(model: ClassModel, path):
    """The bytes of json.dump(model_to_dict(model), indent=2) and a newline,
    written one row at a time into the dumped skeleton of the rest."""
    skeleton = json.dumps(model_to_dict(model, lambda row: _ROW_MARK), indent=2)
    parts = skeleton.split(_MARKED)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(parts[0])
        for row, part in zip(_row_texts(model), parts[1:], strict=True):
            fh.write(": ")
            fh.write(row)
            fh.write(part)
        fh.write("\n")


def load_model(path) -> ClassModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def report_to_dict(report: EvalReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": report.protocol,
        "classes": list(report.classes),
        "accuracy": report.accuracy,
        "per_class_accuracy": report.per_class_accuracy,
        "confusion": report.confusion.tolist(),
        "mean_margin": report.mean_margin,
        "total": report.total,
    }


def confusion_csv(report: EvalReport) -> str:
    """Confusion matrix as CSV text: rows = true class, columns = predicted."""
    lines = ["true\\predicted," + ",".join(report.classes)]
    for zi, label in enumerate(report.classes):
        lines.append(label + "," + ",".join(str(int(v)) for v in report.confusion[zi]))
    return "\n".join(lines) + "\n"
