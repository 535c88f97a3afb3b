import numpy as np
import pytest

from sigclass.calibration import (
    CalibrationSet,
    _objective_and_subgrad,
    closed_form_lambda,
    optimize_lambda,
)


def one_class_set(rep, val_list, label="a"):
    return CalibrationSet(
        representatives=np.array([rep], dtype=float),
        validation={label: np.array(val_list, dtype=float)},
    )


def synthetic_two_class(rng, n=12, per_class=6, spread=0.05):
    """Two well-separated classes with positive, stable features."""
    base_a = rng.uniform(1.0, 2.0, size=n)
    base_b = rng.uniform(4.0, 6.0, size=n)
    val_a = [base_a * (1 + rng.uniform(-spread, spread, n)) for _ in range(per_class)]
    val_b = [base_b * (1 + rng.uniform(-spread, spread, n)) for _ in range(per_class)]
    return CalibrationSet(
        representatives=np.stack([base_a, base_b]),
        validation={"a": np.stack(val_a), "b": np.stack(val_b)},
    )


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_identity_when_validation_equals_representative():
    rep = [1.3, -0.7, 2.2]
    lam = closed_form_lambda(one_class_set(rep, [rep, rep, rep]))
    assert np.array_equal(lam, np.ones((1, 3)))


def test_single_instance_elementwise_ratio():
    lam = closed_form_lambda(one_class_set([1.0, 2.0], [[2.0, 4.0]]))[0]
    assert np.allclose(lam, [0.5, 0.5])


def test_two_instance_average_of_ratios():
    lam = closed_form_lambda(one_class_set([3.0, 2.0], [[1.0, 1.0], [3.0, 1.0]]))[0]
    assert np.allclose(lam, [2.0, 2.0])


def test_guarded_division():
    lam = closed_form_lambda(one_class_set([1.0, 1.0], [[0.0, -1e-12]]), epsilon=1e-8)[0]
    assert np.allclose(lam, [1e8, -1e8])


def test_empty_validation_rejected():
    with pytest.raises(ValueError, match="no validation"):
        CalibrationSet(representatives=np.ones((1, 1)), validation={"a": np.empty((0, 1))})


def test_mismatched_class_sets_rejected():
    # one representative row per validation class
    with pytest.raises(ValueError, match=r"\(2, F\) matrix, one row per validation class"):
        CalibrationSet(
            representatives=np.ones((1, 1)),
            validation={"a": np.ones((1, 1)), "b": np.ones((1, 1))},
        )
    with pytest.raises(ValueError, match="no classes"):
        CalibrationSet(representatives=np.ones((1, 1)), validation={})


def test_malformed_representatives_rejected():
    for reps, match in (
        (np.ones(2), r"\(1, F\) matrix.* got shape \(2,\)"),
        (np.array([[1.0, np.nan]]), "representatives contain non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            CalibrationSet(representatives=reps, validation={"a": np.ones((1, 2))})


def test_malformed_validation_matrix_rejected():
    for rows, match in (
        (np.ones((2, 3)), r"\(n, 2\) matrix .* got shape \(2, 3\)"),
        (np.ones(2), r"\(n, 2\) matrix .* got shape \(2,\)"),
        (np.array([[1.0, np.nan]]), "class 'a' contains non-finite"),
        (np.array([[1.0, np.inf]]), "class 'a' contains non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            CalibrationSet(representatives=np.array([[1.0, 2.0]]), validation={"a": rows})


def test_validation_stored_read_only_without_touching_caller():
    rows = np.array([[2.0, 4.0], [1.0, 1.0]])
    validation = {"a": rows}
    reps = np.array([[1.0, 2.0]])
    cal = CalibrationSet(representatives=reps, validation=validation)
    assert cal.validation is not validation
    assert list(validation) == ["a"] and validation["a"] is rows
    assert rows.flags.writeable and reps.flags.writeable
    assert np.shares_memory(cal.validation["a"], rows)
    assert np.shares_memory(cal.representatives, reps)
    assert not cal.validation["a"].flags.writeable
    assert not cal.representatives.flags.writeable


def test_bad_epsilon_rejected():
    with pytest.raises(ValueError, match="epsilon"):
        closed_form_lambda(one_class_set([1.0], [[1.0]]), epsilon=0.0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_gamma_zero_single_instance_converges_to_ratio():
    rng = np.random.default_rng(0)
    rep = rng.uniform(0.5, 2.0, size=6)
    x = rng.uniform(0.5, 2.0, size=6)
    cal = one_class_set(rep, [x])
    lam = optimize_lambda(cal, gamma=0.0, box=np.inf, iters=2000)[0]
    assert np.abs(lam - rep / x).max() < 1e-3


def test_exact_minimizer_is_fixed_point():
    rep = np.array([1.0, 2.0, 3.0])
    x = np.array([2.0, 1.0, 6.0])
    cal = one_class_set(rep, [x])
    lam = optimize_lambda(cal, gamma=0.0, box=np.inf, iters=50)[0]
    assert np.allclose(lam, rep / x, atol=0)
    value, _ = _objective_and_subgrad(lam, x[None, :], rep, [], 0.0)
    assert value == 0.0


def test_descent_on_two_class_problem():
    rng = np.random.default_rng(1)
    cal = synthetic_two_class(rng)
    gamma = 0.1
    out = optimize_lambda(cal, gamma=gamma, box=10.0, iters=300)
    assert out.shape == cal.representatives.shape
    for zi, label in enumerate(cal.classes):
        xs = cal.validation[label]
        own = cal.representatives[zi]
        others = [cal.representatives[oi] for oi in range(len(cal.classes)) if oi != zi]
        start = np.clip(closed_form_lambda(cal)[zi], -10.0, 10.0)
        v_start, _ = _objective_and_subgrad(start, xs, own, others, gamma)
        v_final, _ = _objective_and_subgrad(out[zi], xs, own, others, gamma)
        assert v_final <= v_start + 1e-12


def test_never_worse_than_all_ones_at_gamma_zero():
    rng = np.random.default_rng(2)
    for trial in range(10):
        cal = synthetic_two_class(rng, spread=0.2)
        out = optimize_lambda(cal, gamma=0.0, box=5.0, iters=200)
        for zi, label in enumerate(cal.classes):
            xs = cal.validation[label]
            own = cal.representatives[zi]
            v_ones, _ = _objective_and_subgrad(np.ones(xs.shape[1]), xs, own, [], 0.0)
            v_out, _ = _objective_and_subgrad(out[zi], xs, own, [], 0.0)
            assert v_out <= v_ones + 1e-12


def test_projection_respects_box():
    rng = np.random.default_rng(3)
    cal = synthetic_two_class(rng)
    box = 0.5
    out = optimize_lambda(cal, gamma=0.3, box=box, iters=100)
    assert np.abs(out).max() <= box + 1e-15


def test_deterministic_on_rerun():
    rng = np.random.default_rng(4)
    cal = synthetic_two_class(rng)
    a = optimize_lambda(cal, gamma=0.2, box=2.0, iters=150)
    b = optimize_lambda(cal, gamma=0.2, box=2.0, iters=150)
    assert np.array_equal(a, b)


def test_invalid_arguments_rejected():
    cal = one_class_set([1.0], [[1.0]])
    with pytest.raises(ValueError, match="gamma"):
        optimize_lambda(cal, gamma=-1.0)
    with pytest.raises(ValueError, match="iters"):
        optimize_lambda(cal, iters=0)
