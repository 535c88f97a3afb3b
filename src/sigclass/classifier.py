"""Nearest-representative classification of images by signature features.

A fitted model holds two (Z, F) matrices, row z for class z: the
element-wise mean feature vectors (representatives) and the scale
factors.  Four evaluation protocols are provided:

  plain   argmin over classes of score(x, rep_z), no scale factors.
  fixed   argmin of score(lambda_z * x, rep_z): each class applies its own
          factor inside its own comparison.  No test-label knowledge.
  ova     one-vs-all: class z accepts a score up to slack times its worst
          own-class validation score, which calibrate() stores in the model.
  oracle  the TRUE class's factor is applied before scoring all classes.
          This leaks the test label and exists only to audit the
          oracle-scale-factor evaluation; it is segregated from predict().
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._checks import config_object, float_texts, integer, json_object, real
from .calibration import CalibrationSet, closed_form_lambda, optimize_lambda, solver_settings
from .data_io import AugmentSpec, LabeledImage, augment, ensure_channels
from .path_signature import (
    LOG_SIGNATURE,
    SIGNATURE,
    StreamConvention,
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
        object.__setattr__(self, "order", integer("order", self.order, 1))
        try:  # unpacking anything but a pair raises ValueError too
            height, width = self.image_size if isinstance(self.image_size, tuple) else ()
            size = (integer("image_size", height, 1), integer("image_size", width, 1))
        except ValueError:
            raise ValueError(
                f"image_size must be two integers >= 1, got {self.image_size!r}") from None
        object.__setattr__(self, "image_size", size)
        channels = None if self.channels is None else integer("channels", self.channels)
        if channels not in (None, 1, 3):
            raise ValueError(f"channels must be None, 1 or 3, got {self.channels!r}")
        object.__setattr__(self, "channels", channels)


@dataclass(frozen=True)
class ClassModel:
    """Row z of representatives and of factors, and ova_scores[z], belong to
    classes[z].  All are held as read-only float64 views of the given arrays,
    which callers should not change afterwards; factors default to all ones."""

    config: ModelConfig
    classes: tuple[str, ...]
    stream_dim: int
    representatives: np.ndarray  # (Z, F)
    train_counts: dict[str, int]
    factors: np.ndarray | None = None  # (Z, F)
    ova_scores: np.ndarray | None = None  # (Z,) max own-class validation score, or unknown

    def __post_init__(self):
        if not self.classes:
            raise ValueError("model has no classes")
        shape = (len(self.classes), feature_length(self.stream_dim, self.config.order))
        factors = np.ones(shape) if self.factors is None else self.factors
        tables = {"representatives": (self.representatives, shape), "factors": (factors, shape)}
        if self.ova_scores is not None:
            tables["ova_scores"] = (self.ova_scores, shape[:1])
        for name, (table, want) in tables.items():
            table = np.asarray(table, dtype=np.float64).view()
            if table.shape != want:
                raise ValueError(
                    f"{name} must have shape {want} for {len(self.classes)} classes,"
                    f" stream_dim={self.stream_dim}, order={self.config.order}; got {table.shape}"
                )
            if not np.all(np.isfinite(table)):
                raise ValueError(f"{name} contain non-finite entries")
            if name == "ova_scores" and np.any(table < 0):
                raise ValueError(f"ova_scores must be >= 0, got {table.tolist()}")
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
    per_class_accuracy: dict[str, float | None]  # None: no test image of the class
    confusion: np.ndarray  # rows = true class, cols = predicted class
    mean_margin: float
    total: int


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def _points(images, config: ModelConfig) -> np.ndarray:
    """(n, points, d) streams of one stack of LabeledImage objects or raw pixel
    arrays, each through ensure_channels; the size and channel-count checks
    run once over the distinct shapes.  The stack is freed before the fold."""
    pixels = [ensure_channels(im.pixels if isinstance(im, LabeledImage) else im, config.channels)
              for im in images]
    if not pixels:
        raise ValueError("no images to extract features from")
    shapes = dict.fromkeys(px.shape for px in pixels)  # input order: the first bad shape is named
    size = config.image_size
    for shape in shapes:
        if shape[:2] != size:
            raise ValueError(f"image shape {shape[:2]} does not match model size {size}; resize upstream")
    counts = sorted({shape[2] for shape in shapes})
    if len(counts) > 1:
        raise ValueError(f"images have {counts[0]} and {counts[-1]} channels; set \"channels\""
                         " in the config to convert them to one count")
    return config.convention.points(np.stack(pixels))


def _features(points: np.ndarray, config: ModelConfig) -> np.ndarray:
    many = signature_many if config.kind == SIGNATURE else log_signature_many
    return many(points, config.order)


def features_for_images(images, config: ModelConfig) -> np.ndarray:
    """Feature matrix (batch, feature_length) of a list of images, folded as one stack.

    Accepts LabeledImage objects or raw pixel arrays, all already at the
    model's image size.  An empty list is a ValueError.
    """
    return _features(_points(images, config), config)


def _test_features(model: ClassModel, pixel_list, seeds) -> np.ndarray:
    """(n, F) test features: row i is the mean over the augmented copies drawn
    from augment seed seeds[i], or over the image alone without augmentation.
    Copies are drawn from the pixels as given, before ensure_channels.  Images
    whose channel count differs from the model's are a ValueError before the fold."""
    cfg = model.config
    if (spec := cfg.augment) is not None:
        pixel_list = [c for px, s in zip(pixel_list, seeds) for c in augment(px, spec, seed=s)]
    points = _points(pixel_list, cfg)
    if points.shape[2] != model.stream_dim:
        per_channel = cfg.convention.stream_shape(*cfg.image_size, 1)[1]
        raise ValueError(
            f"test images have {points.shape[2] // per_channel} channels but the model was fit on"
            f" {model.stream_dim // per_channel}; set \"channels\" in the config to convert them")
    feats = _features(points, cfg)
    return feats.reshape(len(seeds), -1, feats.shape[1]).mean(axis=1)


# ---------------------------------------------------------------------------
# Fitting and calibration
# ---------------------------------------------------------------------------


def _codes(labels, classes, what: str) -> np.ndarray:
    """Index into classes of each label; a label outside classes is an error."""
    index = {z: zi for zi, z in enumerate(classes)}
    if unknown := sorted({z for z in labels if z not in index}):
        raise ValueError(f"{what} contains unknown classes: {unknown}")
    return np.array([index[z] for z in labels], dtype=np.intp)


def _class_features(images, config: ModelConfig, classes=None):
    """(classes, one (n_z, F) feature block per class, stream dim) from one fold
    over the images in class runs, input order within a run.  classes defaults
    to the labels present, sorted; classes given must be exactly those labels."""
    images = list(images)
    labels = [im.label for im in images]
    if classes is None:
        if not images:
            raise ValueError("training set is empty")
        classes = tuple(sorted(set(labels)))
    codes = _codes(labels, classes, "validation set")
    counts = np.bincount(codes, minlength=len(classes))
    if missing := [z for z, n in zip(classes, counts) if not n]:
        raise ValueError(f"validation set lacks classes: {missing}")
    points = _points([images[i] for i in np.argsort(codes, kind="stable")], config)
    return classes, np.split(_features(points, config), np.cumsum(counts)[:-1]), points.shape[2]


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
    value it rejects, is a ValueError before any feature is computed.  The
    validation images must be of the model's classes, each class at least once
    ("none" takes none, and then stores no ova_scores).  ova_scores[z] is class
    z's worst own-class score under its factors, scored BLOCK_BYTES of rows at a time.
    """
    kwargs = solver_settings(method, kwargs)
    val_images = list(val_images)
    if method == "none" and not val_images:
        return replace(model, factors=None, ova_scores=None)
    cal = calibration_set(model, val_images)
    solver = closed_form_lambda if method == "closed_form" else optimize_lambda
    model = replace(model, factors=None if method == "none" else solver(cal, **kwargs))
    rows = max(1, BLOCK_BYTES // (8 * model.feature_length))
    scratch = np.empty((min(rows, max(map(len, cal.validation.values()))), model.feature_length))

    def worst(x, lam, rep):  # block by block, scaled and scored in the one scratch buffer
        blocks = (np.multiply(x[i:i + rows], lam, out=scratch[:len(x) - i])
                  for i in range(0, len(x), rows))
        return np.max([score_rows(block, rep, model.config.metric, block).max() for block in blocks])

    return replace(model, ova_scores=[
        worst(x, lam, rep)
        for x, lam, rep in zip(cal.validation.values(), model.factors, model.representatives)])


# ---------------------------------------------------------------------------
# Scoring and protocols
# ---------------------------------------------------------------------------


def _scores(model: ClassModel, x: np.ndarray, protocol: str, true_idx=None) -> np.ndarray:
    """(n, Z) score matrix of feature rows x; fixed and ova score the same one."""
    reps, lams = model.representatives, model.factors
    if protocol == "oracle":
        x = lams[true_idx] * x
    per_class = protocol in ("fixed", "ova")
    # one class at a time, in one (n, F) scratch buffer, never (n, Z, F)
    scratch = np.empty(x.shape)
    cols = [score_rows(rep, np.multiply(lams[zi], x, out=scratch) if per_class else x,
                       model.config.metric, scratch)
            for zi, rep in enumerate(reps)]
    return np.stack(cols, axis=1)


def _decide(model: ClassModel, scores: np.ndarray, protocol: str, thresholds=None):
    """(predicted class indices (n,), reported score matrix (n, Z)) of a score matrix."""
    if protocol != "ova":
        return np.argmin(scores, axis=1), scores
    missing = [z for z in model.classes if z not in thresholds]
    if missing:
        raise ValueError(f"thresholds lack classes: {missing}")
    tau = np.array([max(real(f"threshold of class {z!r}", thresholds[z], zero_ok=True), 1e-12)
                    for z in model.classes])
    normalized = scores / tau
    # a class over its threshold is out, unless every class is
    rejected = (scores > tau) & (scores <= tau).any(axis=1, keepdims=True)
    return np.argmin(np.where(rejected, np.inf, normalized), axis=1), normalized


def _predict_one(model, image, protocol, augment_seed, true_idx=None, thresholds=None):
    pixels = image.pixels if isinstance(image, LabeledImage) else image
    x = _test_features(model, [pixels], [augment_seed])
    predicted, scores = _decide(model, _scores(model, x, protocol, true_idx), protocol, thresholds)
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


def ova_thresholds(model: ClassModel, slack: float = 1.1) -> dict[str, float]:
    """Per-class accept threshold: slack times the worst own-class validation
    score that calibrate() stored.  slack and each threshold must be finite."""
    slack = real("slack", slack)
    if model.ova_scores is None:
        raise ValueError("the model holds no ova scores: refit it, calibrated on a nonzero"
                         " validation budget, to use protocol 'ova'")
    return {z: real(f"class {z!r} ova threshold {slack!r} x {score!r}", slack * score, zero_ok=True)
            for z, score in zip(model.classes, model.ova_scores.tolist())}


def predict_ova(model: ClassModel, image, thresholds: dict[str, float], augment_seed=None):
    """One-vs-all: accept classes scoring under their threshold, pick the
    best normalized score; fall back to normalized argmin if none accept."""
    return _predict_one(model, image, "ova", augment_seed, thresholds=thresholds)


def evaluate(
    model: ClassModel, test, protocol, thresholds=None, seed: int = 0
) -> EvalReport | tuple[EvalReport, ...]:
    """Aggregate per-sample predictions over a labeled test set.

    protocol is one name, giving one EvalReport, or a sequence of names,
    giving a tuple of reports in the same order from one feature pass;
    fixed and ova decide on one score matrix.
    Augmentation randomness (when the model enables it) is drawn from a
    per-sample stream keyed by (seed, sample index), so the report is
    deterministic and independent of evaluation order.  The test set is
    stacked and walked in blocks of about BLOCK_BYTES; every report is
    bit-identical to one built from per-image predict*() calls.  A test
    image of a class the model lacks is a ValueError.
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
    true_idx = _codes([im.label for im in test], model.classes, "test set")
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
        matrices = {}  # ova decides on fixed's matrix
        for name in parts:
            kind = "fixed" if name == "ova" else name
            if kind not in matrices:
                matrices[kind] = _scores(model, x, kind, true_idx[start:stop])
            parts[name].append(_decide(model, matrices[kind], name, thresholds))
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
        per_class[label] = float(confusion[zi, zi] / row) if row else None
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
    representative row and for a factor row that is not all ones.  A class's
    "ova_score" is written when the model holds the scores."""
    per_class = {}
    scores = [None] * len(model.classes) if model.ova_scores is None else model.ova_scores.tolist()
    for z, rep, lam, score in zip(model.classes, model.representatives, model.factors, scores):
        lam_json = _factor_to_json(lam, to_json)
        per_class[z] = {"representative": to_json(rep), "train_count": model.train_counts[z],
                        **({} if score is None else {"ova_score": score}),
                        "lambda_rmse": lam_json, "lambda_mae": lam_json}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(model.config),
        "classes": list(model.classes),
        "stream_dim": model.stream_dim,
        "feature_length": model.feature_length,
        "per_class": per_class,
    }


# ModelConfig fields that hold a nested config object (augment may be null)
_NESTED = {"convention": StreamConvention, "augment": AugmentSpec}
_MODEL_FIELDS = ("config", "classes", "stream_dim", "feature_length", "per_class")
# every field but the last is required; "ova_score" is on every class or on none
_CLASS_FIELDS = ("representative", "train_count", "lambda_rmse", "lambda_mae", "ova_score")


def model_from_dict(doc: dict) -> ClassModel:
    if json_object("model file top level", doc).get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    json_object("model file top level", doc, ("schema_version", *_MODEL_FIELDS), _MODEL_FIELDS)
    config = config_object(ModelConfig, "model file 'config'", doc["config"], True, _NESTED)
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(z, str) for z in classes):
        raise ValueError(f"model file field 'classes' must be a JSON list of strings, got {classes!r}")
    if not classes:
        raise ValueError("model file lists no classes")
    if len(set(classes)) != len(classes):
        raise ValueError(f"model file field 'classes' repeats a class: {classes!r}")
    classes = tuple(classes)
    per_class = json_object("model file field 'per_class'", doc["per_class"], classes, classes)
    stream_dim = integer("model file field 'stream_dim'", doc["stream_dim"], 1)
    length = integer("model file field 'feature_length'", doc["feature_length"], 1)
    order = config.order
    # The sum d + d**2 + ... + d**order is order when d is 1; otherwise its last
    # term passes any length of fewer than order bits, and a huge order is not summed.
    expected = (order if stream_dim == 1 else feature_length(stream_dim, order)
                if order <= length.bit_length() else f"more than {length}")
    if length != expected:
        raise ValueError(f"model file feature_length {length!r} does not match {expected}"
                         f" for stream_dim={stream_dim}, order={order}")
    counts = (1, 3) if config.channels is None else (config.channels,)
    if stream_dim not in [config.convention.stream_shape(*config.image_size, c)[1] for c in counts]:
        raise ValueError(f"model file stream_dim {stream_dim} does not match {config.convention.mode}"
                         f" streams of {config.image_size} images with {' or '.join(map(str, counts))}"
                         " channels")
    shape = (len(classes), length)
    reps, factors, counts, scores = np.empty(shape), np.empty(shape), {}, {}
    for zi, z in enumerate(classes):
        entry = json_object(f"model file class {z!r}", per_class[z], _CLASS_FIELDS, _CLASS_FIELDS[:-1])
        _fill_row(reps, zi, z, "representative", entry["representative"])
        _fill_row(factors, zi, z, "lambda_rmse", entry["lambda_rmse"])
        counts[z] = integer(f"model file class {z!r} field 'train_count'", entry["train_count"], 1)
        rmse, mae = entry["lambda_rmse"], entry["lambda_mae"]
        if _holds_bool(mae):
            raise ValueError(f"model file class {z!r} field 'lambda_mae' holds non-numbers")
        if mae is not rmse and mae != rmse:  # a twin gives both fields one array
            raise ValueError(f"model file class {z!r} has lambda_rmse != lambda_mae")
        if "ova_score" in entry:
            scores[z] = real(f"model file class {z!r} field 'ova_score'", entry["ova_score"],
                             zero_ok=True)
    if 0 < len(scores) < len(classes):
        raise ValueError(f"model file classes {[z for z in classes if z not in scores]} lack field"
                         " 'ova_score', which other classes have")
    return ClassModel(config=config, classes=classes, stream_dim=stream_dim, representatives=reps,
                      train_counts=counts, factors=factors, ova_scores=list(scores.values()) or None)


def _holds_bool(value) -> bool:
    """Whether value is a list with a bool item, which numpy would read as 0 or 1."""
    return isinstance(value, list) and bool in set(map(type, value))


def _fill_row(table: np.ndarray, zi: int, label: str, key: str, value) -> None:
    """table[zi] = a model file's list of numbers, or a twin's row; a factor
    row may also be one number, which fills the row."""
    try:
        row = np.asarray(value)
    except ValueError:  # numpy refuses lists nested to unequal depths or lengths
        raise ValueError(f"model file class {label!r} field {key!r} is a ragged list") from None
    if row.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"model file class {label!r} field {key!r} holds non-numbers")
    if row.shape != table.shape[1:] and (key == "representative" or row.ndim != 0):
        raise ValueError(
            f"model file class {label!r} field {key!r} has shape {row.shape},"
            f" expected ({table.shape[1]},)"
        )
    table[zi] = row


# save_model dumps the model with "\u0000<i>" in place of the i-th row list it
# is given, then writes that row's text where the dump shows ': "\u0000<i>"'.
# Only a per-class row field can be followed by that text: a label is a list
# item or a key followed by ': {', and no JSON string holds an unescaped quote.
_ROW_MARK = "\x00"
_MARKED = ': "\\u0000'

# A model file's twin: the suffix of its name and the fields of its header.
_TWIN_SUFFIX = ".rows"
_TWIN_FIELDS = ("sha256", "shape", "skeleton")


def _row_text(row: np.ndarray) -> str:
    """json.dump's indent=2 text of a per-class row list (finite floats): each
    value's repr, formatted once per distinct bit pattern of the row."""
    return "[\n        " + ",\n        ".join(float_texts(row)) + "\n      ]"


def save_model(model: ClassModel, path):
    """Write the bytes of json.dump(model_to_dict(model), indent=2) and a
    newline to path, one row at a time into the dumped skeleton of the rest;
    a row's text is formatted as it is written, each distinct value once.

    Also write path's twin, path + ".rows", a cache that load_model reads
    instead of parsing the file.  Its first line is JSON with sorted keys:
    "sha256", the hex digest of the file's bytes; "shape", [K, F]; and
    "skeleton", model_to_dict with row i replaced by the row marker of i.
    The K rows follow as little-endian float64."""
    rows = []

    def mark(row):
        rows.append(row)
        return f"{_ROW_MARK}{len(rows) - 1}"

    skeleton = model_to_dict(model, mark)
    parts = json.dumps(skeleton, indent=2).split(_MARKED)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(parts[0])
        shown = text = None
        for part in parts[1:]:
            index, _, rest = part.partition('"')
            if index != shown:  # a factor row's marker comes twice in a row
                shown, text = index, _row_text(rows[int(index)])
            put(": ")
            put(text)
            put(rest)
        put("\n")
    head = {"sha256": digest.hexdigest(), "shape": [len(rows), model.feature_length],
            "skeleton": skeleton}
    with open(f"{path}{_TWIN_SUFFIX}", "wb") as fh:
        fh.write(json.dumps(head, sort_keys=True).encode("ascii") + b"\n")
        fh.writelines(np.ascontiguousarray(row, "<f8") for row in rows)


def _twin_document(path, data: bytes) -> dict | None:
    """The model document of path's twin when it was written with the model
    file bytes data, else None: the twin is missing, garbled, truncated or
    stale, or its skeleton's "per_class" is not an object of objects whose
    every string is a row marker of the payload.  Each row marker becomes a
    read-only float64 row."""
    try:
        with open(f"{path}{_TWIN_SUFFIX}", "rb") as fh:
            head = json_object("model twin header", json.loads(fh.readline()), _TWIN_FIELDS,
                               _TWIN_FIELDS)
            if head["sha256"] != hashlib.sha256(data).hexdigest():
                return None
            table = np.frombuffer(fh.read(), "<f8").reshape(head["shape"])
        rows = {f"{_ROW_MARK}{i}": row for i, row in enumerate(table)}
        doc = json_object("model twin skeleton", head["skeleton"], required=("per_class",))
        for entry in json_object("model twin field 'per_class'", doc["per_class"]).values():
            for key, value in json_object("model twin class", entry).items():
                if isinstance(value, str):
                    entry[key] = rows[value]
    # KeyError: a marker of no row; TypeError: a shape of non-integers
    except (OSError, KeyError, ValueError, TypeError):
        return None
    return doc


def load_model(path) -> ClassModel:
    """The model in the file at path, built from its twin when the twin was
    written with the file's exact bytes, else by parsing the file; either
    way every check of model_from_dict runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    doc = _twin_document(path, data)
    return model_from_dict(json.loads(data.decode("utf-8")) if doc is None else doc)


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
