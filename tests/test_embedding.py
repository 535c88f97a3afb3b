import numpy as np
import pytest

from sigclass.embedding import (
    EmbeddingResult,
    _conditional_probs,
    _outer_difference,
    _pairwise_sq_dists,
    embedding_csv,
    pca_reduce,
    tsne_exact,
)


def three_clusters(rng, per_cluster=20, dim=10, separation=12.0):
    centers = separation * np.eye(3, dim)
    points = np.concatenate(
        [center + rng.normal(0, 1.0, size=(per_cluster, dim)) for center in centers]
    )
    labels = np.repeat(np.array(["a", "b", "c"]), per_cluster)
    return points, labels


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_preserves_distances_of_low_rank_data():
    rng = np.random.default_rng(0)
    latent = rng.normal(size=(30, 3))
    basis = np.linalg.qr(rng.normal(size=(10, 3)))[0]
    points = latent @ basis.T + rng.normal(size=10)  # affine offset
    reduced = pca_reduce(points, 3)
    orig = _pairwise_sq_dists(points)
    new = _pairwise_sq_dists(reduced)
    assert np.abs(orig - new).max() < 1e-10


def test_pca_full_rank_is_isometry():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(12, 5))
    reduced = pca_reduce(points, 5)
    assert np.abs(_pairwise_sq_dists(points) - _pairwise_sq_dists(reduced)).max() < 1e-10


def test_pca_deterministic_on_duplicate_input():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(15, 6))
    assert np.array_equal(pca_reduce(points, 2), pca_reduce(points.copy(), 2))


def test_pca_k_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="k must be"):
        pca_reduce(rng.normal(size=(5, 3)), 4)


# ---------------------------------------------------------------------------
# t-SNE
# ---------------------------------------------------------------------------


def test_affinity_rows_are_distributions():
    rng = np.random.default_rng(5)
    d2 = _pairwise_sq_dists(rng.normal(size=(20, 4)))
    p = _conditional_probs(d2, perplexity=5.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
    assert np.allclose(np.diag(p), 0.0)


def reference_conditional_probs(d2, perplexity, tol=1e-5, max_iter=50):
    """One row at a time: the bisection _conditional_probs must reproduce
    byte for byte.  Also returns how many rows ran out of bisections."""
    n = d2.shape[0]
    target = np.log(perplexity)
    p = np.zeros((n, n))
    exhausted = 0
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        for _ in range(max_iter):
            w = np.exp(-row * beta)
            s = max(w.sum(), 1e-300)
            entropy = np.log(s) + beta * float((row * w).sum()) / s
            diff = entropy - target
            if abs(diff) <= tol:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        else:
            exhausted += 1
        w = np.exp(-row * beta)
        w /= max(w.sum(), 1e-300)
        p[i, np.arange(n) != i] = w
    return p, exhausted


@pytest.mark.parametrize("n, dim, scale", [(6, 2, 1.0), (37, 5, 0.01), (120, 12, 40.0)])
@pytest.mark.parametrize("perplexity", [1.5, 5.0, 11.0])
def test_bisection_matches_row_by_row_reference_bytes(n, dim, scale, perplexity):
    rng = np.random.default_rng(n * 100 + dim)
    d2 = _pairwise_sq_dists(scale * rng.normal(size=(n, dim)))
    ref, _ = reference_conditional_probs(d2, perplexity)
    assert _conditional_probs(d2, perplexity).tobytes() == ref.tobytes()


def test_bisection_matches_reference_on_rows_that_exhaust_it():
    # Four copies of each point: a row's entropy never drops below log(3),
    # so at perplexity 2 every row runs all max_iter bisections.
    rng = np.random.default_rng(9)
    points = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)
    d2 = _pairwise_sq_dists(points)
    for perplexity, max_iter in ((2.0, 50), (2.0, 7), (6.0, 50)):
        ref, exhausted = reference_conditional_probs(d2, perplexity, max_iter=max_iter)
        got = _conditional_probs(d2, perplexity, max_iter=max_iter)
        assert got.tobytes() == ref.tobytes()
        if perplexity == 2.0:
            assert exhausted == len(points)


def test_outer_difference_is_bitwise_subtract_outer():
    rng = np.random.default_rng(14)
    for n in (5, 64, 300):
        for scale in (1e-6, 1e-4, 1.0, 1e3):
            v = scale * rng.normal(size=(n, 2))[:, 1]  # a strided column, as in t-SNE
            v[: n // 4] = v[n // 4 : 2 * (n // 4)]  # exact ties give +0.0 entries
            out = np.empty((n, n))
            _outer_difference(v, out)
            assert out.tobytes() == np.subtract.outer(v, v).tobytes()


def reference_tsne_loop(points, perplexity, iterations, seed, learning_rate=200.0):
    """The exact t-SNE loop written with fresh temporaries every iteration:
    matmul squared distances, a rebuilt exaggerated p and the diag(s) @ y
    gradient.  Returns (coords, KL after every iteration's update)."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    p_cond = _conditional_probs(_pairwise_sq_dists(x), perplexity)
    p = np.maximum((p_cond + p_cond.T) / (2.0 * n), 1e-12)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)

    def affinities(y):
        num = 1.0 / (1.0 + _pairwise_sq_dists(y))
        np.fill_diagonal(num, 0.0)
        return num, np.maximum(num / num.sum(), 1e-12)

    kl = []
    for t in range(iterations):
        num, q = affinities(y)
        kl.append(float(np.sum(p * np.log(p / q))))
        p_eff = p * 12.0 if t < 250 else p
        pq_num = (p_eff - q) * num
        grad = 4.0 * (np.diag(pq_num.sum(axis=1)) - pq_num) @ y
        momentum = 0.5 if t < 250 else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.maximum(np.where(same_sign, gains * 0.8, gains + 0.2), 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    num, q = affinities(y)
    kl.append(float(np.sum(p * np.log(p / q))))
    return y, kl


def test_first_iterations_match_reference_loop():
    rng = np.random.default_rng(10)
    points, _ = three_clusters(rng, per_cluster=15)
    for iterations in (1, 5):
        ref_y, ref_kl = reference_tsne_loop(points, 8.0, iterations, seed=2)
        got = tsne_exact(points, perplexity=8.0, iterations=iterations, seed=2, record_every=1)
        assert np.abs(got.coords - ref_y).max() <= 1e-12 * np.abs(ref_y).max()
        assert np.allclose(got.kl_trace, ref_kl, rtol=1e-12, atol=0.0)


def test_300_sample_rerun_is_byte_identical():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(300, 20))
    a = tsne_exact(points, perplexity=30.0, iterations=30, seed=5)
    b = tsne_exact(points.copy(), perplexity=30.0, iterations=30, seed=5)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.kl_trace == b.kl_trace


def test_clusters_stay_separated_and_kl_decreases():
    rng = np.random.default_rng(6)
    points, labels = three_clusters(rng)
    result = tsne_exact(points, perplexity=10.0, iterations=400, seed=0, labels=labels)
    assert result.kl_trace[-1] < result.kl_trace[0]

    coords = result.coords
    intra, inter = [], []
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            d = np.linalg.norm(coords[i] - coords[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)


def test_seeded_determinism_bit_exact():
    rng = np.random.default_rng(7)
    points, _ = three_clusters(rng, per_cluster=7)
    a = tsne_exact(points, perplexity=5.0, iterations=60, seed=3)
    b = tsne_exact(points, perplexity=5.0, iterations=60, seed=3)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.kl_trace == b.kl_trace
    c = tsne_exact(points, perplexity=5.0, iterations=60, seed=4)
    assert a.coords.tobytes() != c.coords.tobytes()


def test_degenerate_input_rejected():
    points = np.ones((10, 4))
    with pytest.raises(ValueError, match="degenerate"):
        tsne_exact(points, perplexity=2.0, iterations=10)


def test_sample_count_and_perplexity_contracts():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="at least 5"):
        tsne_exact(rng.normal(size=(4, 3)), perplexity=1.0)
    with pytest.raises(ValueError, match="perplexity"):
        tsne_exact(rng.normal(size=(12, 3)), perplexity=4.0)
    with pytest.raises(ValueError, match="labels"):
        tsne_exact(rng.normal(size=(12, 3)), perplexity=3.0, labels=["x"] * 5)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"perplexity": 0.0}, "perplexity must be > 0"),
        ({"perplexity": -2.0}, "perplexity must be > 0"),
        ({"perplexity": float("nan")}, "perplexity must be > 0"),
        ({"iterations": -1}, "iterations must be >= 0"),
        ({"record_every": 0}, "record_every must be >= 1"),
    ],
)
def test_embedding_parameters_rejected_by_name(kwargs, match):
    points = np.random.default_rng(12).normal(size=(12, 3))
    with pytest.raises(ValueError, match=match):
        tsne_exact(points, **{"perplexity": 3.0, "iterations": 5, **kwargs})


def test_zero_iterations_record_the_initial_kl_only():
    points = np.random.default_rng(13).normal(size=(12, 3))
    result = tsne_exact(points, perplexity=3.0, iterations=0, seed=1)
    assert len(result.kl_trace) == 1
    initial = np.random.default_rng(1).normal(0.0, 1e-4, size=(12, 2))
    assert result.coords.tobytes() == initial.tobytes()


def test_embedding_csv_layout():
    result = EmbeddingResult(
        coords=np.array([[1.0, 2.0], [3.0, 4.0]]),
        labels=("cat", "dog"),
        kl_trace=(1.0, 0.5),
    )
    lines = embedding_csv(result).strip().split("\n")
    assert lines[0] == "x,y,label"
    assert lines[1] == "1.0,2.0,cat"
    assert len(lines) == 3
