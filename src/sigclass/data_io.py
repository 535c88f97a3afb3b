"""Dataset ingestion (MNIST IDX, CIFAR-10 binary, PGM/PPM directories),
procedural four-shapes generation, bilinear resizing, and the
contrast/brightness/noise augmentation operators.

All loaders produce float64 pixels in [0, 1].  Each four-shapes sample
draws what its own default_rng(SeedSequence([seed, class, sample])) would,
computed in bulk for a whole call, so no other record can change its image.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import band, integer, real

__all__ = [
    "LabeledImage",
    "AugmentSpec",
    "ShapeJitter",
    "ParseError",
    "SHAPE_LABELS",
    "read_mnist_labels",
    "load_mnist_idx",
    "read_cifar10_labels",
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


def _hwc(pixels) -> np.ndarray:
    """pixels as a float64 array, an H x W input given a trailing channel axis."""
    px = np.asarray(pixels, dtype=np.float64)
    return px[:, :, None] if px.ndim == 2 else px


@dataclass(frozen=True)
class LabeledImage:
    """H x W x C pixels in [0, 1] with a class label and provenance id."""

    pixels: np.ndarray
    label: str
    source_id: str = ""

    def __post_init__(self):
        px = _hwc(self.pixels)
        if px.ndim != 3 or px.shape[2] not in (1, 3) or px.size == 0:
            raise ValueError(f"pixels must be nonempty H x W x C, C in {{1, 3}}; got {px.shape}")
        _check_pixel_values(px)
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape

    @classmethod
    def stack(cls, pixels, labels, source_ids) -> list[LabeledImage]:
        """One image per entry of an N x H x W x C stack, with the checks of
        the constructor made once over the whole stack.  Each image's pixels
        are a read-only view of one C-ordered float64 stack.  A stack that
        is one already and owns its memory is taken over and made read-only
        in place; any other is copied."""
        px = np.asarray(pixels, dtype=np.float64)
        if px.base is not None or not px.flags.c_contiguous:
            px = np.array(px, order="C")
        labels, source_ids = list(labels), list(source_ids)
        if px.ndim != 4 or px.shape[3] not in (1, 3) or 0 in px.shape[1:]:
            raise ValueError(f"pixels must be a stack N x H x W x C, C in {{1, 3}}; got {px.shape}")
        if not len(labels) == len(source_ids) == px.shape[0]:
            raise ValueError(
                f"{px.shape[0]} images need as many labels and source ids,"
                f" got {len(labels)} and {len(source_ids)}"
            )
        if px.size:
            _check_pixel_values(px)
        px.setflags(write=False)
        images = []
        for view, label, source_id in zip(px, labels, source_ids):
            im = object.__new__(cls)
            for name, value in (("pixels", view), ("label", label), ("source_id", source_id)):
                object.__setattr__(im, name, value)
            images.append(im)
        return images


def _check_pixel_values(px: np.ndarray) -> None:
    # min and max are NaN when any value is, so they catch NaN and inf too.
    if not (px.min() >= 0.0 and px.max() <= 1.0):
        raise ValueError("pixel values must be finite and within [0, 1]")


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
        for name, value in (
            ("contrast", band("AugmentSpec contrast", self.contrast)),
            ("brightness", band("AugmentSpec brightness", self.brightness)),
            ("noise_level", real("AugmentSpec noise_level", self.noise_level, zero_ok=True)),
            ("copies", integer("AugmentSpec copies", self.copies, 1)),
            ("seed", integer("AugmentSpec seed", self.seed, 0)),
        ):
            object.__setattr__(self, name, value)  # a numpy scalar as its Python number
        if self.noise == "salt_pepper" and not self.noise_level <= 1.0:
            raise ValueError("salt & pepper fraction must be in [0, 1]")


# ---------------------------------------------------------------------------
# MNIST IDX and CIFAR-10 binary batches
#
# Each format has a label reader and a loader.  Both run every header, size
# and label check on the whole file first; the loader then converts only the
# records it is asked for, read through a memory map.
# ---------------------------------------------------------------------------


def _truncated(path, what: str, count: int, got: int) -> ParseError:
    return ParseError(
        f"{path}: truncated {what}: expected {count} bytes, got {got} (missing {count - got})"
    )


def _read_exact(fh, count: int, what: str, path: str) -> bytes:
    """Read exactly count bytes.  From a regular file the read is capped at
    what the file still holds, so a header that declares more cannot
    request a read of that size."""
    st = os.fstat(fh.fileno())
    held = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else count
    buf = fh.read(max(min(count, held), 0))
    if len(buf) != count:
        raise _truncated(path, what, count, len(buf))
    return buf


def _record_index(records, count: int) -> np.ndarray:
    """records as an index array into count records; all of them for None."""
    if records is None:
        return np.arange(count)
    index = [integer("record", r) for r in records]
    outside = [r for r in index if not 0 <= r < count]  # as Python ints: a huge one cannot overflow
    if outside:
        raise ValueError(f"record {outside[0]} outside {count} records")
    return np.array(index, dtype=np.intp)


def _mnist_layout(images_path, labels_path) -> tuple[int, int, np.ndarray]:
    """(rows, cols, labels) of a checked IDX pair; the pixel payload of
    len(labels) records starts at byte 16 of the image file."""
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
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held < count * rows * cols:
            raise _truncated(images_path, "pixel payload", count * rows * cols, held)
        if rows * cols * 8 > np.iinfo(np.intp).max:  # as float64; reachable with count 0
            raise ParseError(f"{images_path}: bad image size {rows} x {cols}, too large")

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
    return rows, cols, labels


def read_mnist_labels(images_path, labels_path) -> np.ndarray:
    """The uint8 labels of an MNIST IDX pair, with every check that
    load_mnist_idx makes and no pixel read."""
    return _mnist_layout(images_path, labels_path)[2]


def load_mnist_idx(images_path, labels_path, records=None) -> list[LabeledImage]:
    """Parse the big-endian MNIST IDX image/label file pair.

    With records=None every record is returned, in file order.  Otherwise
    records is a sequence of record indices, and exactly those images are
    returned, in that order, each bit-identical to the same record of the
    full load.
    """
    rows, cols, labels = _mnist_layout(images_path, labels_path)
    index = _record_index(records, len(labels))
    payload = np.memmap(images_path, dtype=np.uint8, mode="r", offset=16,
                        shape=(len(labels), rows, cols, 1))
    return LabeledImage.stack(
        payload[index] / 255.0, [str(int(z)) for z in labels[index]], [f"mnist:{i}" for i in index]
    )


def _cifar_batch(path) -> np.ndarray:
    """A checked CIFAR-10 batch file as a read-only (records, 3073) map."""
    size = os.path.getsize(path)
    if size == 0 or size % CIFAR_RECORD_BYTES != 0:
        raise ParseError(
            f"{path}: size {size} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    table = np.memmap(path, dtype=np.uint8, mode="r",
                      shape=(size // CIFAR_RECORD_BYTES, CIFAR_RECORD_BYTES))
    bad = np.nonzero(table[:, 0] > 9)[0]
    if bad.size:
        raise ParseError(
            f"{path}: record {int(bad[0])} has label {int(table[bad[0], 0])},"
            " labels must be 0..9"
        )
    return table


def _batch_paths(batch_paths) -> list:
    if isinstance(batch_paths, (str, os.PathLike)):
        return [batch_paths]
    return list(batch_paths)


def read_cifar10_labels(batch_paths) -> np.ndarray:
    """The uint8 labels of CIFAR-10 batches, record by record across the
    batches in order, with every check that load_cifar10 makes."""
    return np.concatenate(
        [np.array(_cifar_batch(path)[:, 0]) for path in _batch_paths(batch_paths)]
    )


def load_cifar10(batch_paths, records=None) -> list[LabeledImage]:
    """Parse CIFAR-10 binary batches (3073-byte records, channel-planar).

    The records of all batches are numbered in order, batch after batch.
    With records=None every record is returned in that order.  Otherwise
    records is a sequence of those numbers, and exactly those images are
    returned, in that order, each bit-identical to the same record of the
    full load.
    """
    paths = _batch_paths(batch_paths)
    tables = [_cifar_batch(path) for path in paths]
    starts = np.cumsum([0] + [len(t) for t in tables])
    index = _record_index(records, int(starts[-1]))
    batch = np.searchsorted(starts, index, side="right") - 1
    local = index - starts[batch]
    raw = np.empty((index.size, CIFAR_RECORD_BYTES), dtype=np.uint8)
    for b, table in enumerate(tables):
        rows = batch == b
        raw[rows] = table[local[rows]]
    scaled = np.empty((index.size, 32, 32, 3))
    # Written through a channel-planar view, so the division reads each
    # record's bytes in file order.
    np.divide(raw[:, 1:].reshape(-1, 3, 32, 32), 255.0, out=scaled.transpose(0, 3, 1, 2))
    names = [os.path.basename(str(path)) for path in paths]
    return LabeledImage.stack(
        scaled,
        [str(int(z)) for z in raw[:, 0]],
        [f"cifar10:{names[b]}:{i}" for b, i in zip(batch, local)],
    )


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
    px = _hwc(pixels)
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

    def __post_init__(self):
        cf = real("ShapeJitter center_frac", self.center_frac, zero_ok=True)
        if band("ShapeJitter scale_range", self.scale_range)[0] <= 0.0:
            raise ValueError(f"ShapeJitter scale_range must be > 0, got {self.scale_range!r}")
        bands = {"center_frac": (-cf, cf)}
        if self.rotation is not None:
            bands["rotation"] = band("ShapeJitter rotation", self.rotation)
        for name, (low, high) in bands.items():  # a draw is low + (high - low) * u
            if not math.isfinite(float(high) - float(low)):
                raise ValueError(f"ShapeJitter {name} must be a draw band of finite"
                                 f" width, got {getattr(self, name)!r}")


# Samples per pass of the renderer's grid test, and images per pass of
# resize.  A block bounds the memory of each pass's temporaries: the
# renderer's (block, 2*size, 2*size) coverage test and resize's corner
# gathers.  On a 2-vCPU Xeon VM blocks larger than 32 ran no faster.
IMAGE_BLOCK = 32

# The polygon classes: vertex count, angle of the first vertex, and the
# radius of the odd-numbered vertices as a fraction of the shape's radius.
_POLYGONS = {
    "square": (4, np.pi / 4.0, 1.0),
    "star": (10, np.pi / 2.0, 0.5),
    "triangle": (3, np.pi / 2.0, 1.0),
}


# NumPy's SeedSequence hash and PCG64 generator, which NEP 19 keeps stable:
# the constants of numpy/random/bit_generator.pyx and of PCG64's 128-bit LCG.
_MASK32 = 0xFFFFFFFF
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = np.array([0x2360ED051FC65DA44385DF649FCCF645 >> s & _MASK32 for s in (0, 32, 64, 96)],
                     dtype=np.uint64)[:, None]


def _hashmix(value, hash_const, j, count):
    """Hash steps j .. j + count - 1 of SeedSequence on uint32 words held in
    uint64 arrays.  Step k xors with c_k, multiplies by c_(k+1) and
    xorshifts, where c_k = init * mult**k mod 2**32, (init, mult) = hash_const."""
    init, mult = hash_const
    c = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(j, j + count + 1)],
                 dtype=np.uint64)[:, None]
    value = (value ^ c[:-1]) * c[1:] & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32  # uint64 arrays wrap, so mod 2**32 holds
    return value ^ value >> 16


def _carry(limbs):
    """A 128-bit number from 4 columns of 32-bit limbs plus carries, low limb first."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
    return limbs & _MASK32


def _lcg_step(state, increment):
    """PCG64's step, state * multiplier + increment mod 2**128, in 32-bit limbs."""
    products = state[:, None] * _PCG_MULT  # limb i of the state times limb j of the multiplier
    low, high = products & _MASK32, products >> 32
    columns = increment.copy()
    for i in range(4):
        columns[i:] += low[i, : 4 - i]
        columns[i + 1 :] += high[i, : 3 - i]
    return _carry(columns)


def _stream_doubles(entropy: np.ndarray, m: int) -> np.ndarray:
    """(n, m): the first m doubles of default_rng(SeedSequence(words)) for n
    streams at once.  Row k of entropy is uint32 word k of each stream's
    words, with zero rows up to 4, which hash as SeedSequence's padding."""
    # SeedSequence's pool: hash the first 4 words, mix each pool word into
    # the other three, then mix each further word into all four.
    pool, j = _hashmix(entropy[:4], _HASH_A, 0, 4), 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst], j = _mix(pool[dst], _hashmix(pool[src], _HASH_A, j, 3)), j + 3
    for word in entropy[4:]:
        pool, j = _mix(pool, _hashmix(word, _HASH_A, j, 4)), j + 4
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8)
    # words are 4 uint64s as low, high uint32 halves.  The initial state is
    # uint64s 0, 1 and the sequence 2, 3, each 128-bit number high first, so
    # their limbs, low first, are words 2, 3, 0, 1 and 6, 7, 4, 5.  PCG64
    # seeding: state 0 stepped is the increment, seq << 1 | 1; add the
    # initial state; step.
    increment = 2 * words[[6, 7, 4, 5]]
    increment[0] += 1
    increment = _carry(increment)
    state = _lcg_step(_carry(increment + words[[2, 3, 0, 1]]), increment)
    draws = np.empty((m, entropy.shape[1]), dtype=np.uint64)
    for row in draws:  # a draw steps, then outputs XSL-RR: high ^ low rotated by the top 6 bits
        state = _lcg_step(state, increment)
        xsl, rot = (state[3] << 32 | state[2]) ^ (state[1] << 32 | state[0]), state[3] >> 26
        row[:] = (xsl >> rot | xsl << (64 - rot & 63)) >> 11
    return draws.T * 2.0**-53


def _shape_draws(seed: int, classes, samples, m: int) -> np.ndarray:
    """(n, m) doubles: row r is default_rng(SeedSequence([seed, classes[r],
    samples[r]])).random(m), for all n records of the integer arrays
    classes and samples in one vectorised pass."""
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    draws = np.empty((samples.size, m))
    for wide in (False, True):  # a sample number of 2**32 or more is two words
        rows = (samples > _MASK32) == wide
        if rows.any():
            i = samples[rows]
            words = seed_words + [classes[rows], i & _MASK32] + [i >> 32] * wide
            entropy = np.zeros((max(len(words), 4), i.size), dtype=np.uint64)
            for row, word in zip(entropy, words):
                row[:] = word
            draws[rows] = _stream_doubles(entropy, m)
    return draws


def _point_in_polygon(coords, x, y) -> np.ndarray:
    """Even-odd test of the grid of columns and rows at coords against each
    polygon of a block, vertices x, y (b, k); (b, H, W) booleans."""
    # The grid is laid out (W, b, H), so each pass runs over b * H elements.
    inside = np.zeros((coords.size, x.shape[0], coords.size), dtype=bool)
    px, py = coords[:, None, None], coords
    x, y = x.T[:, :, None], y.T[:, :, None]  # (k, b, 1): broadcast over the rows
    x1, y1 = x[-1], y[-1]
    # Where an edge crosses a row, and the x at which it does, depend on the
    # row alone.  A horizontal edge never crosses; its division by zero is
    # masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        for x2, y2 in zip(x, y):
            crosses = (y1 > py) != (y2 > py)
            x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
            inside ^= crosses & (px < x_at)
            x1, y1 = x2, y2
    return np.ascontiguousarray(inside.transpose(1, 2, 0))


def _render_block(label: str, size: int, jitter: ShapeJitter, u: np.ndarray) -> np.ndarray:
    """(len(u), size, size, 1) coverage of one shape class.

    Row r of u is sample r's default_rng(SeedSequence([seed, ci,
    i])).random(4), from _shape_draws: the doubles Generator.uniform drew,
    in the same order: the centre, the radius and, for a rotated polygon,
    the angle.  The rest runs over the whole block in one pass, with the
    operations of a one-at-a-time render, so each image's bytes equal
    those of rendering it alone.
    """
    coords = (np.arange(2 * size) + 0.5) / 2  # 2x2 subsamples per pixel
    polygon = _POLYGONS.get(label)

    def uniform(band, draws):  # what Generator.uniform computes
        low, high = float(band[0]), float(band[1])
        return low + (high - low) * draws

    cf = jitter.center_frac
    cx, cy = (size / 2.0 + uniform((-cf, cf), u[:, :2]) * size).T[:, :, None]  # each (b, 1)
    radius = uniform(jitter.scale_range, u[:, 2]) * size / 2.0
    if polygon is None:  # a circle; r**2 is Python's float power, as for one image alone
        r2 = np.array([r**2 for r in radius.tolist()])[:, None, None]
        inside = (coords - cx[:, :, None]) ** 2 + (coords[:, None] - cy[:, :, None]) ** 2 <= r2
    else:
        k, first, odd = polygon
        theta = np.zeros(len(u)) if jitter.rotation is None else uniform(jitter.rotation, u[:, 3])
        angles = (theta + first)[:, None] + np.arange(k) * (2.0 * np.pi / k)
        radii = radius[:, None] * np.where(np.arange(k) % 2 == 0, 1.0, odd)
        x, y = cx + radii * np.cos(angles), cy + radii * np.sin(angles)
        inside = _point_in_polygon(coords, x, y)
    # Subsamples covered per pixel, an exact count: /4.0 gives the mean's bits.
    hits = inside.view(np.uint8)
    count = hits[:, ::2, ::2] + hits[:, ::2, 1::2] + hits[:, 1::2, ::2] + hits[:, 1::2, 1::2]
    return count[..., None] / 4.0


def gen_four_shapes(
    per_class: int,
    size: int = 16,
    jitter: ShapeJitter = ShapeJitter(),
    seed: int = 0,
    records=None,
) -> list[LabeledImage]:
    """Render white-on-black square/star/circle/triangle images.

    Record r is sample i = r % per_class of class SHAPE_LABELS[ci], ci =
    r // per_class.  Its draws equal those of its own RNG stream,
    default_rng(SeedSequence([seed, ci, i])), so its pixels do not depend
    on which other records are rendered with it; the streams of all
    records of a call are computed together, in one vectorised pass.
    With records=None every record is rendered, in that order: class by
    class in SHAPE_LABELS order.  Otherwise records is a sequence of record
    numbers, and exactly those images are returned, in that order, each
    bit-identical to the same record of the full render.  Consecutive
    records of one class are rendered together, up to IMAGE_BLOCK at a
    time, in one vectorised pass whose bytes equal those of a one-at-a-time
    render; the images of a block are read-only views of one pixel stack.
    """
    size = integer("image size", size, 8)
    per_class = integer("per_class", per_class, 1)
    seed = integer("seed", seed, 0)
    classes, samples = np.divmod(_record_index(records, len(SHAPE_LABELS) * per_class), per_class)
    draws = _shape_draws(seed, classes, samples, 4)
    images, start = [], 0
    for ci, run in itertools.groupby(classes.tolist()):
        label, stop = SHAPE_LABELS[ci], start + len(list(run))
        for lo in range(start, stop, IMAGE_BLOCK):
            block = slice(lo, min(lo + IMAGE_BLOCK, stop))
            ids = [f"shapes:{label}:{i}" for i in samples[block].tolist()]
            pixels = _render_block(label, size, jitter, draws[block])
            images += LabeledImage.stack(pixels, [label] * len(ids), ids)
        start = stop
    return images


# ---------------------------------------------------------------------------
# Resizing and augmentation
# ---------------------------------------------------------------------------


def resize(pixels: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear resize with half-pixel-center alignment, channels independent.

    pixels is H x W, H x W x C or a stack ... x H x W x C, which is resized
    IMAGE_BLOCK images at a time: every output element comes from the same
    operations as in a call on its image alone, so the bits are the same.
    """
    height, width = integer("resize height", height, 1), integer("resize width", width, 1)
    src = _hwc(pixels)
    if src.ndim < 2 or 0 in src.shape[-3:-1]:
        raise ValueError(f"resize needs nonempty H x W (x C) pixels, got shape {src.shape}")
    h, w = src.shape[-3:-1]
    if (h, w) == (height, width):
        return src.copy()

    ys = np.clip((np.arange(height) + 0.5) * (h / height) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(width) + 0.5) * (w / width) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[:, None]

    # Each corner is one gather of (block, height, width, C) from a block of
    # images flattened to (block, h * w, C); a block's temporaries stay small.
    count, channels = math.prod(src.shape[:-3]), src.shape[-1]
    flat = src.reshape(count, h * w, channels)
    out = np.empty((count, height, width, channels))

    def corner(block, rows, cols):
        return np.take(block, rows[:, None] * w + cols, axis=1)

    for start in range(0, count, IMAGE_BLOCK):
        block = flat[start : start + IMAGE_BLOCK]
        top = (1.0 - wx) * corner(block, y0, x0) + wx * corner(block, y0, x1)
        bottom = (1.0 - wx) * corner(block, y1, x0) + wx * corner(block, y1, x1)
        np.clip((1.0 - wy) * top + wy * bottom, 0.0, 1.0, out=out[start : start + IMAGE_BLOCK])
    return out.reshape(src.shape[:-3] + (height, width, channels))


def ensure_channels(pixels: np.ndarray, channels: int | None) -> np.ndarray:
    """Replicate grayscale to 3 channels when the config expects RGB."""
    px = _hwc(pixels)
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
    px = _hwc(pixels)
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
