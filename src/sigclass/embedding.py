"""2-D visualization of feature sets: PCA reduction followed by exact t-SNE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, real

__all__ = ["EmbeddingResult", "pca_reduce", "tsne_exact", "embedding_csv"]

LEARNING_RATE = 200.0  # the standard schedule's (van der Maaten & Hinton, JMLR 2008)
RECORD_EVERY = 25  # iterations between two records of tsne_exact's KL trace
BISECT_TOL = 1e-5  # entropy tolerance of _conditional_probs' bisection
BISECT_STEPS = 50  # the most bisection steps a row takes


@dataclass(frozen=True)
class EmbeddingResult:
    coords: np.ndarray  # (n, 2)
    labels: tuple[str, ...] | None
    kl_trace: tuple[float, ...]


def _as_matrix(features) -> np.ndarray:
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {mat.shape}")
    return mat


def pca_reduce(features, k: int) -> np.ndarray:
    """Project samples onto the top-k principal directions.

    features is an (n, length) array.  Directions are sign-fixed
    (largest-magnitude loading made positive) so the output is
    deterministic.
    """
    mat = _as_matrix(features)
    n, length = mat.shape
    k = integer("k", k)
    if not 1 <= k <= min(n, length):
        raise ValueError(f"k must be in 1..min(n, length) = {min(n, length)}, got {k}")
    centered = mat - mat.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    return centered @ components.T


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _conditional_probs(d2: np.ndarray, perplexity: float):
    """Per-point Gaussian affinities with bandwidths bisected to the target
    perplexity (entropy tolerance BISECT_TOL, at most BISECT_STEPS steps).

    All rows are bisected at once.  A row freezes at the first bandwidth
    whose entropy is within BISECT_TOL of the target, so each row takes
    exactly the steps of a bisection of that row alone.
    """
    n = d2.shape[0]
    target = np.log(perplexity)
    off = ~np.eye(n, dtype=bool)
    rows = d2[off].reshape(n, n - 1)
    beta = np.ones(n)
    beta_min = np.full(n, -np.inf)
    beta_max = np.full(n, np.inf)
    live, r = np.arange(n), rows  # the rows still bisecting
    for _ in range(BISECT_STEPS):
        b = beta[live]
        w = np.exp(-r * b[:, None])
        s = np.maximum(w.sum(axis=1), 1e-300)
        diff = np.log(s) + b * (r * w).sum(axis=1) / s - target
        going = ~(np.abs(diff) <= BISECT_TOL)
        if not going.all():
            live, r, b, diff = live[going], r[going], b[going], diff[going]
            if live.size == 0:
                break
        up = diff > 0
        lo, hi = beta_min[live], beta_max[live]
        beta_min[live] = np.where(up, b, lo)
        beta_max[live] = np.where(up, hi, b)
        beta[live] = np.where(
            up,
            np.where(hi == np.inf, b * 2.0, (b + hi) / 2.0),
            np.where(lo == -np.inf, b / 2.0, (b + lo) / 2.0),
        )
    w = np.exp(-rows * beta[:, None])
    w /= np.maximum(w.sum(axis=1), 1e-300)[:, None]
    p = np.zeros((n, n))
    p[off] = w.ravel()
    return p


def _outer_difference(v: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = v[i] - v[j], bit for bit what np.subtract.outer gives.

    It is one matmul of [v, 1] by [1, -v]: both products are exact, so each
    entry is the single rounding of v[i] - v[j].  The broadcast subtraction
    costs about four times as much at n = 300.
    """
    ones = np.ones_like(v)
    np.matmul(np.stack([v, ones], axis=1), np.stack([ones, -v]), out=out)


def _student_affinities(y: np.ndarray, num: np.ndarray, q: np.ndarray) -> None:
    """Fill num with the Student-t kernel 1 / (1 + |y_i - y_j|^2) of 2-D
    points y (zero diagonal) and q with its normalised affinities, floored
    at 1e-12."""
    _outer_difference(y[:, 0], num)
    num *= num
    _outer_difference(y[:, 1], q)
    q *= q
    num += q
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=q)
    np.maximum(q, 1e-12, out=q)


def _kl_divergence(p: np.ndarray, q: np.ndarray, scratch: np.ndarray) -> float:
    """KL(p || q) for strictly positive p and q; scratch is overwritten."""
    np.divide(p, q, out=scratch)
    np.log(scratch, out=scratch)
    scratch *= p
    return float(scratch.sum())


def tsne_exact(
    points,
    perplexity: float = 30.0,
    iterations: int = 1000,
    seed: int = 0,
    labels=None,
) -> EmbeddingResult:
    """Exact O(n^2) t-SNE to 2-D.

    Standard schedule: early exaggeration x12 for the first 250 iterations,
    momentum 0.5 switching to 0.8 at iteration 250, learning rate
    LEARNING_RATE, adaptive per-component gains, seeded Gaussian
    initialization (sigma 1e-4).  kl_trace records the KL divergence
    against the un-exaggerated affinities every RECORD_EVERY iterations
    and once after the last; runs need iterations > 250 for the trace to
    settle (shorter runs never leave the exploration phase and the final
    KL may exceed the initial one).
    The loop reuses three n x n buffers and allocates no others.
    """
    x = _as_matrix(points)
    n = x.shape[0]
    if n < 5:
        raise ValueError(f"need at least 5 samples, got {n}")
    perplexity = real("perplexity", perplexity, inf_ok=True)
    if not perplexity < n / 3:
        raise ValueError(f"perplexity must be < n/3 = {n / 3:.2f}, got {perplexity}")
    iterations = integer("iterations", iterations, 0)
    seed = integer("seed", seed, 0)
    if labels is not None and len(labels) != n:
        raise ValueError("labels length does not match sample count")

    d2 = _pairwise_sq_dists(x)
    if d2.max() == 0.0:
        raise ValueError(
            "degenerate input: all samples identical, pairwise distances are zero"
        )

    p_cond = _conditional_probs(d2, perplexity)
    p = (p_cond + p_cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)
    del d2, p_cond

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)

    num, q, pq = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    kl_trace = []
    for t in range(iterations):
        _student_affinities(y, num, q)
        if t % RECORD_EVERY == 0:
            kl_trace.append(_kl_divergence(p, q, pq))

        if t < 250:
            np.multiply(p, 12.0, out=pq)
            pq -= q
        else:
            np.subtract(p, q, out=pq)
        pq *= num
        grad = 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)

        momentum = 0.5 if t < 250 else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - LEARNING_RATE * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    _student_affinities(y, num, q)
    kl_trace.append(_kl_divergence(p, q, pq))

    return EmbeddingResult(
        coords=y,
        labels=None if labels is None else tuple(labels),
        kl_trace=tuple(kl_trace),
    )


def embedding_csv(result: EmbeddingResult) -> str:
    """CSV text with header x,y,label, one row per sample."""
    lines = ["x,y,label"]
    labels = result.labels if result.labels is not None else [""] * len(result.coords)
    for (px, py), label in zip(result.coords, labels):
        lines.append(f"{float(px)!r},{float(py)!r},{label}")
    return "\n".join(lines) + "\n"
