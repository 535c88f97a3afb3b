"""Stream points from images, and their truncated signatures / log-signatures.

Arrays in, arrays out: a stream is an (n, d) float array of n >= 2 finite
points in R^d (d >= 1), a batch of equal-length streams is (batch, n, d),
and features are the flat levels 1..order, one (batch, F) row per stream.

The fast path multiplies per-increment exponentials left to right in the
truncated tensor algebra (one exponential per stream segment), in place in
buffers allocated once per chunk of streams; their memory layout depends
on the chunk's width but never changes a bit of the result.  Coordinates
and steps that do not move in any stream of a chunk are skipped, again
without changing a bit (see _fold_into).  A slow
iterated-integral quadrature oracle over the piecewise-linear path is kept
alongside for testing; it shares no code with the product route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_algebra as ta
from .tensor_algebra import feature_length

__all__ = [
    "PIXELS_AS_STEPS",
    "ROWS_AS_STEPS",
    "StreamConvention",
    "signature_many",
    "log_signature_many",
    "signature_oracle",
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


def _check_order(order) -> None:
    """A ValueError unless order is an integer >= 1; a bool is not an order."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")


def _checked_points(points, order: int, ndim: int) -> np.ndarray:
    """points as float64, ndim 2 for one (n, d) stream or 3 for a (batch, n, d)
    batch; a ValueError unless every stream holds n >= 2 finite points in R^d,
    d >= 1, and order is an integer >= 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != ndim:
        layout = "(batch, n, d)" if ndim == 3 else "(n, d)"
        raise ValueError(f"expected {layout} stream points, got shape {pts.shape}")
    if pts.shape[-2] < 2:
        raise ValueError(f"a stream needs at least 2 points, got {pts.shape[-2]}")
    if pts.shape[-1] < 1:
        raise ValueError("stream dimension d must be >= 1")
    if not np.isfinite(pts).all():
        raise ValueError("stream points contain non-finite coordinates")
    _check_order(order)
    return pts


# ---------------------------------------------------------------------------
# Chen-product route: fold per-segment increment exponentials.
# ---------------------------------------------------------------------------


def _exp_increment_into(levels: list[np.ndarray], inc: np.ndarray) -> None:
    """levels[k] = inc^(x)k / k! for k >= 1, for a (batch, d) increment,
    each level being the one below times inc, divided by k."""
    levels[1][...] = inc
    for k in range(2, len(levels)):
        prev = levels[k - 1]
        top = levels[k].reshape(prev.shape + (-1,))
        np.multiply(prev[:, :, None], inc[:, None, :], out=top)
        np.divide(levels[k], k, out=levels[k])


def _narrowed(levels: list[np.ndarray], width: int, batch_inner: bool) -> list[np.ndarray]:
    """The level list of `width`-dimensional tensors held in the leading
    entries of each level buffer of the full-width level list `levels`,
    batch axis innermost when batch_inner."""
    batch, narrow = len(levels[0]), [levels[0]]
    for k, lv in enumerate(levels[1:], 1):
        block = lv.ravel(order="K")[: batch * width**k]
        narrow.append(block.reshape(-1, batch).T if batch_inner else block.reshape(batch, -1))
    return narrow


def _still_map(moving: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coords, kept) for a (d,) mask of the coordinates that move.  When two
    or more are still, kept lists the moving coordinates plus the first still
    one, and coords[j] is the position in kept of coordinate j, every still
    coordinate taking the first still one's; otherwise every coordinate is
    kept in place."""
    d = len(moving)
    if d - np.count_nonzero(moving) < 2:
        return np.arange(d), np.arange(d)
    first = int(np.argmin(moving))
    kept = moving.copy()
    kept[first] = True
    coords = np.cumsum(kept) - 1
    coords[~moving] = coords[first]
    return coords, np.flatnonzero(kept)


def _widen_into(out: np.ndarray, narrow: list[np.ndarray], coords: np.ndarray,
                full: list[list[np.ndarray]]) -> None:
    """Write into out, (batch, F) over d = len(coords) coordinates, the
    features of the level list `narrow` over fewer coordinates, coordinate j
    of every multi-index read as coords[j].  The memory of the three
    full-width level lists `full` is used and overwritten: the narrow
    features go into the top level of the last, level k's gather index
    into level k of the first, and the gathered level k into level k of
    the second."""
    batch, order, d = len(out), len(narrow) - 1, len(coords)
    width = narrow[1].shape[-1]
    flat = full[2][order].ravel(order="K")[: batch * feature_length(width, order)]
    flat = flat.reshape(batch, -1)
    np.concatenate(narrow[1:], axis=-1, out=flat)
    # level k of flat starts at width + ... + width**(k-1), so a multi-index
    # sits at (its prefix's index + 1) * width + its last coordinate's
    index, wide = np.full(1, -1, dtype=np.intp), []
    for k in range(1, order + 1):
        prev, index = index, full[0][k].ravel(order="K").view(np.intp)[: d**k]
        np.multiply(prev[:, None] + 1, width, out=index.reshape(-1, d))
        np.add(index.reshape(-1, d), coords, out=index.reshape(-1, d))
        wide.append(full[1][k].ravel(order="K").reshape(batch, -1))
        np.take(flat, index, axis=1, out=wide[-1], mode="clip")
    np.concatenate(wide, axis=-1, out=out)


def _add_zero(levels: list[np.ndarray]) -> bool:
    """levels[k] += 0.0 in place for k >= 1, which is what a step by a +0.0
    increment does bit for bit to levels whose entries are all finite (it
    turns -0.0 into +0.0 and keeps every other value).  Returns False, and
    changes nothing, when some entry is not finite."""
    if not all(np.isfinite(lv).all() for lv in levels[1:]):
        return False
    for lv in levels[1:]:
        np.add(lv, 0.0, out=lv)
    return True


def _fold_into(out: np.ndarray, points: np.ndarray, order: int, kind: str) -> None:
    """Write the features of a (batch, n, d) chunk of streams into out, (batch, F).

    The running product of the increment exponentials is folded left to
    right in place, one ta.mul_levels(run, exp, out=run) a step, in buffers
    allocated once.  When the batch is at least d**(order-1), the longest
    inner loop an outer product would otherwise run, the buffers keep the
    batch axis innermost, so narrow streams run long loops over the batch.

    Work whose result is known bit for bit is skipped.  An increment entry
    is still when it is +0.0 (all bits clear; -0.0 moves).
    - Still coordinates, +0.0 at every step of every stream: when there are
      two or more, the fold runs over the moving coordinates plus one still
      coordinate, and the features are gathered back to the full layout,
      every still coordinate reading the kept one.  Every level entry is
      computed element-wise from the increments at its own indices (no sum
      runs over coordinates), so the still coordinates' entries are bitwise
      copies of the kept one's.
    - Still steps, +0.0 in every coordinate of every stream: such a step
      leaves finite levels as x + 0.0, so a run of them is one in-place
      x + 0.0 pass (none when nothing was folded since the last) instead of
      an exponential and a product.  Levels holding a non-finite entry are
      folded through in full.
    Layout and skipping change no bit of the result.
    """
    batch, n, d = points.shape
    batch_inner = batch >= d ** (order - 1)
    incs = np.empty((d, n - 1, batch)).T if batch_inner else np.empty((batch, n - 1, d))
    np.subtract(points[:, 1:], points[:, :-1], out=incs)
    moved = incs.view(np.uint64).any(axis=0)  # (n - 1, d): moved in some stream
    coords, kept = _still_map(moved.any(axis=0))
    width = len(kept)
    if width < d:
        for j, c in enumerate(kept):
            if j != c:
                incs[:, :, j] = incs[:, :, c]
        incs = incs[:, :, :width]
    still = ~moved.any(axis=1)

    def empty(*shape):
        return np.empty(shape[::-1]).T if batch_inner else np.empty(shape)

    # the full-width fold's buffers, of which a narrower fold uses the
    # leading entries: allocations stay the same whatever the chunk holds
    full = [[np.ones(batch)] + [empty(batch, d**k) for k in range(1, order + 1)]
            for _ in range(3)]
    run, exp, scratch = (_narrowed(levels, width, batch_inner) for levels in full)
    _exp_increment_into(run, incs[:, 0])
    fresh = not still[0]  # run has changed since its last x + 0.0 pass
    for s in range(1, n - 1):
        if still[s] and (not fresh or _add_zero(run)):
            fresh = False
            continue
        _exp_increment_into(exp, incs[:, s])
        run = ta.mul_levels(run, exp, out=run, scratch=scratch)
        fresh = True
    del incs  # long chunks' largest buffer: free it before log_levels allocates
    if kind == LOG_SIGNATURE:
        run = ta.log_levels(run)
    if width == d:
        np.concatenate(run[1:], axis=-1, out=out)
    else:
        _widen_into(out, run, coords, full)


# Byte budget for one fold chunk's top level (8 * d**order bytes a stream):
# wide order-3 streams are memory-bound and fold fastest one or two at a
# time, narrow ones need wide chunks to amortise per-step numpy dispatch.
FOLD_BYTES = 384 * 1024


def _features_batch(points: np.ndarray, order: int, kind: str) -> np.ndarray:
    points = _checked_points(points, order, 3)
    chunk = max(1, FOLD_BYTES // (8 * points.shape[2] ** order))
    out = np.empty((points.shape[0], feature_length(points.shape[2], order)))
    for start in range(0, points.shape[0], chunk):
        _fold_into(out[start : start + chunk], points[start : start + chunk], order, kind)
    return out


def signature_many(points: np.ndarray, order: int) -> np.ndarray:
    """Signatures of a batch of equal-length streams, shape (batch, n, d).

    Returns the stacked flat feature matrix (batch, feature_length).  Each
    row is computed by the same arithmetic whatever the batch holds, so batch
    results are bit-identical to one-at-a-time results.  Streams are folded
    a chunk at a time, the chunk being the number of streams whose top
    signature level fits in FOLD_BYTES (at least one).  Within a chunk,
    coordinates that never move and steps in which nothing moves are
    skipped without changing a bit (see _fold_into): the bits are those of
    the full-width fold, whichever streams share a chunk.
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


def signature_oracle(points, order: int, min_panels: int = 1024) -> np.ndarray:
    """Signature via direct numerical quadrature of the iterated integrals.

    The stream is interpreted as a piecewise-linear path.  Each coordinate
    iterated integral is built level by level: the running integrand is
    integrated segment by segment with composite Simpson (at least
    min_panels panels in total, an even number per segment).  O(d**order)
    integrals; slow, but independent of the Chen-product implementation.
    Takes one (n, d) stream and returns its flat (feature_length,) signature.
    """
    pts = _checked_points(points, order, 2)
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

    return np.concatenate(flat_levels)
