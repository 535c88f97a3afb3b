"""Streams from images and their truncated signatures / log-signatures.

The fast path multiplies per-increment exponentials left to right in the
truncated tensor algebra (one exponential per stream segment).  A slow
iterated-integral quadrature oracle over the piecewise-linear path is kept
alongside for testing; it shares no code with the product route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_algebra as ta
from .tensor_algebra import TruncatedTensor, feature_length

__all__ = [
    "PIXELS_AS_STEPS",
    "ROWS_AS_STEPS",
    "StreamConvention",
    "Stream",
    "SigFeatures",
    "image_to_stream",
    "signature",
    "log_signature",
    "signature_many",
    "log_signature_many",
    "signature_oracle",
    "signature_tensor",
]

PIXELS_AS_STEPS = "pixels"
ROWS_AS_STEPS = "rows"

SIGNATURE = "signature"
LOG_SIGNATURE = "log-signature"


@dataclass(frozen=True)
class StreamConvention:
    """How an H x W x C image becomes a stream of points.

    mode "pixels": one point per pixel in row-major scan order, dim = C.
    mode "rows":   one point per image row, dim = W * C.
    basepoint: prepend the zero vector, making features sensitive to
    absolute intensity rather than only to pixel-to-pixel changes.
    """

    mode: str = PIXELS_AS_STEPS
    basepoint: bool = True

    def __post_init__(self):
        if self.mode not in (PIXELS_AS_STEPS, ROWS_AS_STEPS):
            raise ValueError(f"unknown stream mode {self.mode!r}")

    def stream_shape(self, height: int, width: int, channels: int) -> tuple[int, int]:
        """(n, d) of the stream produced from an image of the given shape."""
        if self.mode == PIXELS_AS_STEPS:
            n, d = height * width, channels
        else:
            n, d = height, width * channels
        if self.basepoint:
            n += 1
        return n, d

    def points(self, pixels: np.ndarray) -> np.ndarray:
        """(b, n, d) stream points of a (b, H, W, C) batch of images."""
        b, h, w, c = pixels.shape
        n, d = self.stream_shape(h, w, c)
        pts = pixels.reshape(b, n - int(self.basepoint), d)
        if self.basepoint:
            pts = np.concatenate([np.zeros((b, 1, d)), pts], axis=1)
        return pts


@dataclass(frozen=True)
class Stream:
    """Ordered sequence of n >= 2 points in R^d."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"stream points must be 2-D (n, d), got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError(f"stream needs at least 2 points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise ValueError("stream dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("stream contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def length(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SigFeatures:
    """Flattened signature or log-signature coefficients, levels 1..order."""

    dim: int
    order: int
    values: np.ndarray
    kind: str = SIGNATURE

    def __post_init__(self):
        if self.kind not in (SIGNATURE, LOG_SIGNATURE):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        expected = feature_length(self.dim, self.order)
        if vals.size != expected:
            raise ValueError(
                f"feature vector must have length {expected} for dim={self.dim},"
                f" order={self.order}; got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature vector contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def image_to_stream(image, conv: StreamConvention = StreamConvention()) -> Stream:
    """Unroll an H x W x C image (values in [0, 1]) into a stream of points."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.size == 0:
        raise ValueError(f"expected a nonempty H x W x C image, got shape {img.shape}")
    if img.shape[2] not in (1, 3):
        raise ValueError(f"channel count must be 1 or 3, got {img.shape[2]}")
    return Stream(conv.points(img[None])[0])


# ---------------------------------------------------------------------------
# Chen-product route: fold per-segment increment exponentials.
# ---------------------------------------------------------------------------


def _exp_increment_levels(incs: np.ndarray, order: int) -> list[np.ndarray]:
    """Levels of exp of a batch of level-1 tensors: level k = inc^(x)k / k!."""
    batch = incs.shape[0]
    levels = [np.ones(batch), incs]
    term = incs
    for k in range(2, order + 1):
        term = (term[:, :, None] * incs[:, None, :]).reshape(batch, -1) / k
        levels.append(term)
    return levels


def _signature_levels(points: np.ndarray, order: int) -> list[np.ndarray]:
    """Batched signature levels for points of shape (batch, n, d)."""
    incs = np.diff(points, axis=1)
    run = _exp_increment_levels(incs[:, 0, :], order)
    for s in range(1, incs.shape[1]):
        run = ta.mul_levels(run, _exp_increment_levels(incs[:, s, :], order))
    return run


def signature_tensor(s: Stream, order: int) -> TruncatedTensor:
    """Full truncated signature tensor of a stream (levels 0..order)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    levels = _signature_levels(s.points[None, :, :], order)
    return TruncatedTensor(
        dim=s.dim, order=order, levels=tuple(lv[0].reshape(-1) for lv in levels)
    )


def signature(s: Stream, order: int) -> SigFeatures:
    """Truncated signature of a stream, flattened to levels 1..order."""
    values = _features_batch(s.points[None, :, :], order, SIGNATURE)[0]
    return SigFeatures(dim=s.dim, order=order, values=values, kind=SIGNATURE)


def log_signature(s: Stream, order: int) -> SigFeatures:
    """Truncated log-signature: tensor logarithm of the signature, flattened."""
    values = _features_batch(s.points[None, :, :], order, LOG_SIGNATURE)[0]
    return SigFeatures(dim=s.dim, order=order, values=values, kind=LOG_SIGNATURE)


# Byte budget for one fold chunk's top level (8 * d**order bytes a stream):
# wide order-3 streams are memory-bound and fold fastest one or two at a
# time, narrow ones need wide chunks to amortise per-step numpy dispatch.
FOLD_BYTES = 384 * 1024


def _features_batch(points: np.ndarray, order: int, kind: str) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise ValueError(f"expected (batch, n, d) points, got shape {points.shape}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    chunk = max(1, FOLD_BYTES // (8 * points.shape[2] ** order))
    out = np.empty((points.shape[0], feature_length(points.shape[2], order)))
    for start in range(0, points.shape[0], chunk):
        levels = _signature_levels(points[start : start + chunk], order)
        if kind == LOG_SIGNATURE:
            levels = ta.log_levels(levels)
        np.concatenate(levels[1:], axis=-1, out=out[start : start + chunk])
    return out


def signature_many(points: np.ndarray, order: int) -> np.ndarray:
    """Signatures of a batch of equal-length streams, shape (batch, n, d).

    Returns the stacked flat feature matrix (batch, feature_length).  Each
    row is computed by exactly the same arithmetic as signature(), so batch
    results are bit-identical to one-at-a-time results.  Streams are folded
    a chunk at a time, the chunk being the number of streams whose top
    signature level fits in FOLD_BYTES (at least one).
    """
    return _features_batch(points, order, SIGNATURE)


def log_signature_many(points: np.ndarray, order: int) -> np.ndarray:
    """Log-signature analogue of signature_many()."""
    return _features_batch(points, order, LOG_SIGNATURE)


# ---------------------------------------------------------------------------
# Quadrature oracle: recursive cumulative Simpson over the piecewise-linear
# path.  Independent of the product route above; intended for tests.
# ---------------------------------------------------------------------------


def _cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along the last axis of f sampled at spacing h.

    The number of panels (f.shape[-1] - 1) must be even.  Even nodes use
    composite Simpson pairs; odd nodes use the quadratic-fit half-panel rule.
    """
    m = f.shape[-1] - 1
    out = np.zeros_like(f)
    pair = (h / 3.0) * (f[..., 0:-2:2] + 4.0 * f[..., 1:-1:2] + f[..., 2::2])
    out[..., 2::2] = np.cumsum(pair, axis=-1)
    half = (h / 12.0) * (5.0 * f[..., 0:-2:2] + 8.0 * f[..., 1:-1:2] - f[..., 2::2])
    out[..., 1:-1:2] = out[..., 0:-2:2] + half
    return out


def signature_oracle(s: Stream, order: int, min_panels: int = 1024) -> SigFeatures:
    """Signature via direct numerical quadrature of the iterated integrals.

    The stream is interpreted as a piecewise-linear path.  Each coordinate
    iterated integral is built level by level: the running integrand is
    integrated segment by segment with composite Simpson (at least
    min_panels panels in total, an even number per segment).  O(d**order)
    integrals; slow, but independent of the Chen-product implementation.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    pts = s.points
    nseg = pts.shape[0] - 1
    d = pts.shape[1]
    # per-segment derivative w.r.t. a unit-length local parameter
    deriv = np.diff(pts, axis=0)  # (nseg, d)

    per_seg = 2 * max(1, -(-min_panels // (2 * nseg)))  # even, total >= min_panels
    h = 1.0 / per_seg
    nodes = per_seg + 1

    # running integrands, one per multi-index, sampled on (segment, node) grids
    running = np.ones((1, nseg, nodes))
    flat_levels = []
    for _ in range(1, order + 1):
        seg_cum = _cumulative_simpson(running, h)  # (m, nseg, nodes)
        # new index order: previous multi-index slowest, new letter fastest
        scaled = seg_cum[:, None, :, :] * deriv.T[None, :, :, None]  # (m, d, nseg, nodes)
        seg_totals = scaled[..., -1]  # (m, d, nseg)
        offsets = np.concatenate(
            [np.zeros(seg_totals.shape[:-1] + (1,)), np.cumsum(seg_totals, axis=-1)[..., :-1]],
            axis=-1,
        )
        running = (scaled + offsets[..., None]).reshape(-1, nseg, nodes)
        flat_levels.append(running[:, -1, -1].copy())

    return SigFeatures(
        dim=d, order=order, values=np.concatenate(flat_levels), kind=SIGNATURE
    )
