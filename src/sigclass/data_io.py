"""Dataset ingestion (MNIST IDX, CIFAR-10 binary, PGM/PPM directories),
procedural four-shapes generation, bilinear resizing, and the
contrast/brightness/noise augmentation operators.

All loaders produce float64 pixels in [0, 1].  Randomized generation draws
from per-sample RNG streams split off the master seed, so parallel
generation order cannot change the result.
"""

from __future__ import annotations

import itertools
import os
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledImage",
    "group_by_label",
    "AugmentSpec",
    "ShapeJitter",
    "ParseError",
    "SHAPE_LABELS",
    "load_mnist_idx",
    "load_cifar10",
    "load_image_dir",
    "read_pnm",
    "write_pnm",
    "gen_four_shapes",
    "resize",
    "augment",
    "ensure_channels",
]

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073

SHAPE_LABELS = ("square", "star", "circle", "triangle")


class ParseError(ValueError):
    """A dataset file violates its binary format."""


@dataclass(frozen=True)
class LabeledImage:
    """H x W x C pixels in [0, 1] with a class label and provenance id."""

    pixels: np.ndarray
    label: str
    source_id: str = ""

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3) or px.size == 0:
            raise ValueError(f"pixels must be nonempty H x W x C, C in {{1, 3}}; got {px.shape}")
        if not np.all(np.isfinite(px)) or px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must be finite and within [0, 1]")
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape


def group_by_label(images) -> dict[str, list[LabeledImage]]:
    """Images grouped by label, groups in sorted label order, each group in
    input order."""
    groups: dict[str, list[LabeledImage]] = {}
    for im in images:
        groups.setdefault(im.label, []).append(im)
    return {label: groups[label] for label in sorted(groups)}


@dataclass(frozen=True)
class AugmentSpec:
    """Randomized copy generation: contrast/brightness jitter plus noise."""

    contrast: tuple[float, float] = (1.0, 1.0)
    brightness: tuple[float, float] = (0.0, 0.0)
    noise: str = "none"  # none | speckle | salt_pepper
    noise_level: float = 0.0  # sigma for speckle, pixel fraction for salt_pepper
    copies: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.noise not in ("none", "speckle", "salt_pepper"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not all(np.isfinite(self.contrast)) or not all(np.isfinite(self.brightness)):
            raise ValueError("contrast/brightness ranges must be finite")
        if self.noise == "salt_pepper" and not 0.0 <= self.noise_level <= 1.0:
            raise ValueError("salt & pepper fraction must be in [0, 1]")
        if self.noise == "speckle" and self.noise_level < 0.0:
            raise ValueError("speckle sigma must be >= 0")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


# ---------------------------------------------------------------------------
# MNIST IDX
# ---------------------------------------------------------------------------


def _read_exact(fh, count: int, what: str, path: str) -> bytes:
    """Read exactly count bytes.  From a regular file the read is capped at
    what the file still holds, so a header that declares more cannot
    request a read of that size."""
    st = os.fstat(fh.fileno())
    held = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else count
    buf = fh.read(max(min(count, held), 0))
    if len(buf) != count:
        raise ParseError(
            f"{path}: truncated {what}: expected {count} bytes, got {len(buf)}"
            f" (missing {count - len(buf)})"
        )
    return buf


def load_mnist_idx(images_path, labels_path) -> list[LabeledImage]:
    """Parse the big-endian MNIST IDX image/label file pair."""
    with open(images_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, "magic", str(images_path)))
        if magic != MNIST_IMAGE_MAGIC:
            raise ParseError(
                f"{images_path}: bad image magic 0x{magic:08x},"
                f" expected 0x{MNIST_IMAGE_MAGIC:08x}"
            )
        count, rows, cols = struct.unpack(
            ">III", _read_exact(fh, 12, "dimension header", str(images_path))
        )
        if rows < 1 or cols < 1:
            raise ParseError(f"{images_path}: bad image size {rows} x {cols}, need >= 1 x 1")
        raw = _read_exact(fh, count * rows * cols, "pixel payload", str(images_path))
        if rows * cols * 8 > np.iinfo(np.intp).max:  # as float64; reachable with count 0
            raise ParseError(f"{images_path}: bad image size {rows} x {cols}, too large")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, "magic", str(labels_path)))
        if magic != MNIST_LABEL_MAGIC:
            raise ParseError(
                f"{labels_path}: bad label magic 0x{magic:08x},"
                f" expected 0x{MNIST_LABEL_MAGIC:08x}"
            )
        (label_count,) = struct.unpack(
            ">I", _read_exact(fh, 4, "dimension header", str(labels_path))
        )
        labels = np.frombuffer(
            _read_exact(fh, label_count, "label payload", str(labels_path)), dtype=np.uint8
        )

    if count != label_count:
        raise ParseError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    scaled = pixels.astype(np.float64) / 255.0
    return [
        LabeledImage(scaled[i][:, :, None], str(int(labels[i])), f"mnist:{i}")
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches
# ---------------------------------------------------------------------------


def load_cifar10(batch_paths) -> list[LabeledImage]:
    """Parse CIFAR-10 binary batches (3073-byte records, channel-planar)."""
    if isinstance(batch_paths, (str, os.PathLike)):
        batch_paths = [batch_paths]
    images = []
    for path in batch_paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise ParseError(
                f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels = records[:, 0]
        bad = np.nonzero(labels > 9)[0]
        if bad.size:
            raise ParseError(
                f"{path}: record {int(bad[0])} has label {int(labels[bad[0]])},"
                " labels must be 0..9"
            )
        planes = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
        for i in range(records.shape[0]):
            images.append(
                LabeledImage(
                    planes[i].transpose(1, 2, 0),
                    str(int(labels[i])),
                    f"cifar10:{os.path.basename(str(path))}:{i}",
                )
            )
    return images


# ---------------------------------------------------------------------------
# Binary PGM (P5) / PPM (P6)
# ---------------------------------------------------------------------------


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file into float pixels in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported format magic {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        # Past 9 digits no field is plausible, and int() refuses thousands.
        if not tok.isdigit() or len(tok) > 9:
            raise ParseError(f"{path}: bad {name} field {tok[:20]!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad image size {width} x {height}, need >= 1 x 1")
    if not 0 < maxval < 256:
        raise ParseError(f"{path}: unsupported maxval {maxval} (need 1..255)")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise ParseError(
            f"{path}: truncated pixel data: expected {need} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / maxval
    return arr.reshape(height, width, channels)


def write_pnm(path, pixels: np.ndarray):
    """Write float pixels in [0, 1] as binary PGM (C=1) or PPM (C=3), maxval 255."""
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, c = px.shape
    if c not in (1, 3):
        raise ValueError(f"channel count must be 1 or 3, got {c}")
    magic = b"P5" if c == 1 else b"P6"
    quantized = np.clip(np.rint(px * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def load_image_dir(root) -> list[LabeledImage]:
    """Load class-per-subdirectory PGM/PPM images.

    Files that fail to parse are reported, one warning per file, and
    skipped; the rest of the load continues.  Ordering is deterministic
    (lexicographic by class, then filename).
    """
    root = str(root)
    if not os.path.isdir(root):
        raise ValueError(f"{root} is not a directory")
    images = []
    for label in sorted(os.listdir(root)):
        class_dir = os.path.join(root, label)
        if not os.path.isdir(class_dir):
            continue
        for name in sorted(os.listdir(class_dir)):
            path = os.path.join(class_dir, name)
            if not os.path.isfile(path):
                continue
            try:
                pixels = read_pnm(path)
                images.append(LabeledImage(pixels, label, os.path.join(label, name)))
            except (ParseError, ValueError) as exc:
                warnings.warn(f"skipped {path}: {exc}", stacklevel=2)
    return images


# ---------------------------------------------------------------------------
# Procedural four-shapes generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeJitter:
    """Randomization ranges for the shape renderer.

    rotation is a (low, high) angle band in radians applied to squares,
    stars and triangles (circles are rotation invariant); None disables
    rotation.  Narrow off-axis bands keep every class away from its
    mirror-symmetric orientations, where row-stream signatures vanish.
    """

    center_frac: float = 0.1  # center offset, fraction of image size
    scale_range: tuple[float, float] = (0.6, 0.9)  # shape diameter / image size
    rotation: tuple[float, float] | None = (0.0, 2.0 * np.pi)


# Samples per grid pass of the renderer.  A block shares one
# (block, 2*size, 2*size) coverage test, which this bounds in memory; on a
# 2-vCPU Xeon VM blocks larger than 32 rendered no faster.
RENDER_BLOCK = 32


def _point_in_polygon(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd test of the grid of columns px (1, W) and rows py (H, 1)
    against each (k, 2) polygon of a (b, k, 2) stack; (b, H, W) booleans."""
    inside = np.zeros((verts.shape[0], py.shape[0], px.shape[1]), dtype=bool)
    edge = verts[:, :, :, None, None]  # (b, k, 2, 1, 1): broadcasts over the grid
    x1, y1 = edge[:, -1, 0], edge[:, -1, 1]
    for j in range(verts.shape[1]):
        x2, y2 = edge[:, j, 0], edge[:, j, 1]
        # Where an edge crosses a row, and the x at which it does, depend on
        # the row alone.  A horizontal edge never crosses; its division by
        # zero is masked out.
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
        inside ^= crosses & (px < x_at)
        x1, y1 = x2, y2
    return inside


def _regular_polygon(cx, cy, radii, angles) -> np.ndarray:
    return np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)


def _render_block(label: str, size: int, jitter: ShapeJitter, rngs) -> np.ndarray:
    """(len(rngs), size, size) coverage of one shape class, one RNG per sample.

    Each sample's draws and geometry are computed on their own, exactly as
    for a single image; only the grid test runs over the whole block.
    """
    ss = 2  # 2x2 subsamples per pixel: 4x supersampled coverage
    coords = (np.arange(size * ss) + 0.5) / ss
    py, px = coords[:, None], coords[None, :]

    cf = jitter.center_frac
    shapes = []
    for rng in rngs:
        cx, cy = size / 2.0 + rng.uniform(-cf, cf, size=2) * size
        radius = rng.uniform(*jitter.scale_range) * size / 2.0
        if label == "circle":
            shapes.append((cx, cy, radius**2))
            continue
        theta = 0.0 if jitter.rotation is None else rng.uniform(*jitter.rotation)
        if label == "square":
            angles = theta + np.pi / 4.0 + np.arange(4) * (np.pi / 2.0)
            verts = _regular_polygon(cx, cy, radius, angles)
        elif label == "triangle":
            angles = theta + np.pi / 2.0 + np.arange(3) * (2.0 * np.pi / 3.0)
            verts = _regular_polygon(cx, cy, radius, angles)
        elif label == "star":
            angles = theta + np.pi / 2.0 + np.arange(10) * (np.pi / 5.0)
            radii = np.where(np.arange(10) % 2 == 0, radius, 0.5 * radius)
            verts = _regular_polygon(cx, cy, radii, angles)
        else:
            raise ValueError(f"unknown shape label {label!r}")
        shapes.append(verts)

    if label == "circle":
        cx, cy, r2 = np.array(shapes).T[:, :, None, None]
        inside = (px - cx) ** 2 + (py - cy) ** 2 <= r2
    else:
        inside = _point_in_polygon(px, py, np.array(shapes))
    return inside.reshape(len(rngs), size, ss, size, ss).mean(axis=(2, 4))


def gen_four_shapes(
    per_class: int,
    size: int = 16,
    jitter: ShapeJitter = ShapeJitter(),
    seed: int = 0,
    samples=None,
) -> list[LabeledImage]:
    """Render white-on-black square/star/circle/triangle images.

    Sample i of class SHAPE_LABELS[ci] draws from its own RNG stream keyed
    by (seed, ci, i), so its pixels do not depend on which other samples
    are rendered with it.  With samples=None every one of the per_class
    samples of each class is rendered, class by class in SHAPE_LABELS
    order.  Otherwise samples is a sequence of (ci, i) keys with
    0 <= i < per_class, and exactly those images are returned, in that
    order, each bit-identical to the same key in the full render.
    Consecutive keys of one class are rendered together, up to
    RENDER_BLOCK at a time.
    """
    if size < 8:
        raise ValueError(f"image size must be >= 8, got {size}")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if samples is None:
        samples = itertools.product(range(len(SHAPE_LABELS)), range(per_class))
    samples = list(samples)
    for ci, i in samples:
        if not (0 <= ci < len(SHAPE_LABELS) and 0 <= i < per_class):
            raise ValueError(f"sample key {(ci, i)} outside 4 classes x {per_class} per class")
    images = []
    for ci, run in itertools.groupby(samples, key=lambda key: key[0]):
        label = SHAPE_LABELS[ci]
        indices = [i for _, i in run]
        for start in range(0, len(indices), RENDER_BLOCK):
            block = indices[start : start + RENDER_BLOCK]
            rngs = [np.random.default_rng(np.random.SeedSequence([seed, ci, i])) for i in block]
            coverage = _render_block(label, size, jitter, rngs)
            images.extend(
                LabeledImage(cov[:, :, None], label, f"shapes:{label}:{i}")
                for cov, i in zip(coverage, block)
            )
    return images


# ---------------------------------------------------------------------------
# Resizing and augmentation
# ---------------------------------------------------------------------------


def resize(pixels: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear resize with half-pixel-center alignment, channels independent."""
    src = np.asarray(pixels, dtype=np.float64)
    if src.ndim == 2:
        src = src[:, :, None]
    h, w, _ = src.shape
    if (h, w) == (height, width):
        return src.copy()

    ys = np.clip((np.arange(height) + 0.5) * (h / height) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(width) + 0.5) * (w / width) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]

    top = (1.0 - wx) * src[y0][:, x0] + wx * src[y0][:, x1]
    bottom = (1.0 - wx) * src[y1][:, x0] + wx * src[y1][:, x1]
    out = (1.0 - wy) * top + wy * bottom
    return np.clip(out, 0.0, 1.0)


def ensure_channels(pixels: np.ndarray, channels: int | None) -> np.ndarray:
    """Replicate grayscale to 3 channels when the config expects RGB."""
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim == 2:
        px = px[:, :, None]
    if channels is None or px.shape[2] == channels:
        return px
    if px.shape[2] == 1 and channels == 3:
        return np.repeat(px, 3, axis=2)
    raise ValueError(f"cannot convert {px.shape[2]}-channel image to {channels} channels")


def augment(pixels: np.ndarray, spec: AugmentSpec, seed: int | None = None) -> list[np.ndarray]:
    """Seeded augmented copies: contrast/brightness jitter, then noise.

    contrast scales around mid-gray: c * (p - 0.5) + 0.5 + brightness,
    clamped to [0, 1].  Speckle multiplies by (1 + N(0, sigma)) per element;
    salt & pepper forces a fraction of pixels to 0 or 1 equiprobably.
    """
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim == 2:
        px = px[:, :, None]
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed if seed is None else seed])
    )
    out = []
    for _ in range(spec.copies):
        contrast = rng.uniform(*spec.contrast)
        brightness = rng.uniform(*spec.brightness)
        img = np.clip(contrast * (px - 0.5) + 0.5 + brightness, 0.0, 1.0)
        if spec.noise == "speckle":
            img = np.clip(img * (1.0 + rng.normal(0.0, spec.noise_level, img.shape)), 0.0, 1.0)
        elif spec.noise == "salt_pepper":
            hit = rng.random(img.shape[:2]) < spec.noise_level
            value = (rng.random(img.shape[:2]) < 0.5).astype(np.float64)
            img = np.where(hit[:, :, None], value[:, :, None], img)
        out.append(img)
    return out
