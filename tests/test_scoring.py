import numpy as np
import pytest

from sigclass.scoring import score_rows


def rmse(a, b):
    return float(score_rows(np.asarray(a, dtype=float), np.asarray(b, dtype=float), "rmse"))


def mae(a, b):
    return float(score_rows(np.asarray(a, dtype=float), np.asarray(b, dtype=float), "mae"))


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert np.isclose(rmse([0.0, 0.0], [3.0, 4.0]), np.sqrt(12.5))


def test_exact_inverse_scale_zeroes_rmse():
    x, y = np.array([2.0, 4.0]), np.array([1.0, 2.0])
    lam = y / x
    assert rmse(lam * x, y) < 1e-15


def test_mae_examples():
    assert mae([1.0, -1.0], [1.0, -1.0]) == 0.0
    assert np.isclose(mae([0.0, 0.0], [3.0, 4.0]), 3.5)


def test_mae_absolute_homogeneity_under_joint_scalar():
    x, y = np.array([1.0, -2.0, 0.5]), np.array([0.3, 1.0, -0.7])
    c = -2.5
    assert np.isclose(mae(c * x, c * y), abs(c) * mae(x, y))


def test_scores_symmetric_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert rmse(x, y) >= 0.0
        assert np.isclose(rmse(x, y), rmse(y, x))
        assert np.isclose(mae(x, y), mae(y, x))
        assert rmse(x, x) == 0.0 and mae(x, x) == 0.0
        if not np.array_equal(x, y):
            assert rmse(x, y) > 0.0 and mae(x, y) > 0.0


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert mae(x, y) <= rmse(x, y) + 1e-15


def test_positive_homogeneity_degree_one():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=8), rng.normal(size=8)
    lam_x, lam_y = rng.normal(size=8), rng.normal(size=8)
    for c in (0.5, 3.0):
        for score in (rmse, mae):
            assert np.isclose(
                score(c * lam_x * x, c * lam_y * y), c * score(lam_x * x, lam_y * y)
            )


def test_rows_scored_one_at_a_time():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=7)
    for metric in ("rmse", "mae"):
        scores = score_rows(a, b, metric)
        assert scores.shape == (5,)
        for row, value in zip(a, scores):
            assert value == score_rows(row, b, metric)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        rmse([1.0, 2.0], [1.0, 2.0, 3.0])
    # a length-1 row would otherwise broadcast silently
    with pytest.raises(ValueError, match="length mismatch: 1 vs 3"):
        mae([1.0], [1.0, 2.0, 3.0])


def test_unknown_metric_rejected():
    with pytest.raises(ValueError, match="unknown metric 'l2'"):
        score_rows(np.ones(2), np.ones(2), "l2")
