import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigclass.calibration as calibration
from sigclass.calibration import (
    CalibrationSet,
    _objective,
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
    for epsilon in (0.0, -1e-3, np.nan, np.inf, "1e-3", True, None):
        with pytest.raises(ValueError, match="^epsilon must be"):
            closed_form_lambda(one_class_set([1.0], [[1.0]]), epsilon=epsilon)


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
    value, _ = _objective(x[None, :], rep, [], 0.0)(lam)
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
        v_start, _ = _objective(xs, own, others, gamma)(start)
        v_final, _ = _objective(xs, own, others, gamma)(out[zi])
        assert v_final <= v_start + 1e-12


def test_never_worse_than_all_ones_at_gamma_zero():
    rng = np.random.default_rng(2)
    for trial in range(10):
        cal = synthetic_two_class(rng, spread=0.2)
        out = optimize_lambda(cal, gamma=0.0, box=5.0, iters=200)
        for zi, label in enumerate(cal.classes):
            xs = cal.validation[label]
            own = cal.representatives[zi]
            v_ones, _ = _objective(xs, own, [], 0.0)(np.ones(xs.shape[1]))
            v_out, _ = _objective(xs, own, [], 0.0)(out[zi])
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


def test_invalid_arguments_rejected(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the solver started before checking its arguments")

    monkeypatch.setattr(calibration, "closed_form_lambda", no_work)
    bad = {
        "gamma": (-1.0, np.nan, np.inf, "0.1", True),
        "box": (-1.0, 0.0, -np.inf, np.nan, "50", False),
        "iters": (0, 2.5, "500", True),
        "epsilon": (0.0, np.nan, "1e-3", True),
    }
    for key, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=f"^{key} must be"):
                optimize_lambda(one_class_set([1.0], [[1.0]]), **{key: value})


def test_infinite_box_and_numpy_scalars_accepted():
    cal = synthetic_two_class(np.random.default_rng(5))
    a = optimize_lambda(cal, gamma=0.1, box=np.inf, iters=20)
    b = optimize_lambda(cal, gamma=np.float64(0.1), box=float("inf"), iters=np.int64(20))
    assert a.tobytes() == b.tobytes()


def test_non_finite_objective_names_class_and_iteration():
    # class "b"'s closed-form start overflows to inf, so its first objective is inf
    cal = CalibrationSet(
        representatives=np.array([[1.0, 2.0], [1e300, 1.0]]),
        validation={"a": np.ones((2, 2)), "b": np.full((2, 2), 1e-300)},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="class 'b' at iteration 1$"):
            optimize_lambda(cal, gamma=0.1, box=np.inf, iters=5)


# ---------------------------------------------------------------------------
# the class-batched solver against a per-class reference
# ---------------------------------------------------------------------------


def reference_objective(lam, xs, own_rep, other_reps, gamma):
    """One class, one representative at a time: the objective as first written."""
    n = lam.size
    scaled = lam[None, :] * xs
    resid_own = scaled - own_rep[None, :]
    value = np.sum(np.abs(resid_own)) / n
    grad = np.sign(resid_own) * xs
    grad = grad.sum(axis=0) / n
    for rep in other_reps:
        resid = scaled - rep[None, :]
        value -= gamma * np.sum(np.abs(resid)) / n
        grad -= gamma * (np.sign(resid) * xs).sum(axis=0) / n
    return value, grad


def reference_optimize(cal, gamma=0.0, box=1.0, iters=500, epsilon=1e-8):
    """The per-class descent loop that optimize_lambda must match bit for bit."""
    start = closed_form_lambda(cal, epsilon=epsilon)
    reps = cal.representatives
    out = np.empty(reps.shape)
    for zi, xs in enumerate(cal.validation.values()):
        own = reps[zi]
        others = [rep for oi, rep in enumerate(reps) if oi != zi]
        lam = np.clip(start[zi], -box, box)
        best_val = np.inf
        for t in range(1, iters + 1):
            value, grad = reference_objective(lam, xs, own, others, gamma)
            assert np.isfinite(value)
            if value < best_val:
                best_val, out[zi] = value, lam
            lam = np.clip(lam - (calibration.STEP0 / np.sqrt(t)) * grad, -box, box)
        final_val, _ = reference_objective(lam, xs, own, others, gamma)
        if np.isfinite(final_val) and final_val < best_val:
            out[zi] = lam
    return out


# a grid with exact ties and both signed zeros, so residuals hit the kinks
GRID = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
VALUES = st.one_of(GRID, st.floats(-4.0, 4.0, allow_subnormal=False))


@st.composite
def solver_problems(draw):
    z = draw(st.integers(1, 5))
    f = draw(st.sampled_from([1, 2, 3, 7, 16]))
    if draw(st.booleans()):
        counts = [draw(st.integers(1, 4))] * z
    else:
        counts = draw(st.lists(st.integers(1, 4), min_size=z, max_size=z))

    def matrix(rows):
        return np.array(draw(st.lists(VALUES, min_size=rows * f, max_size=rows * f))).reshape(rows, f)

    cal = CalibrationSet(representatives=matrix(z),
                         validation={f"c{i}": matrix(n) for i, n in enumerate(counts)})
    kwargs = {
        "gamma": draw(st.sampled_from([0.0, 0.1, 0.35])),
        "box": draw(st.sampled_from([0.5, 3.0, np.inf])),
        "iters": draw(st.integers(1, 100)),
        "epsilon": draw(st.sampled_from([1e-8, 1e-3])),
    }
    return cal, kwargs


@settings(max_examples=150, deadline=None)
@given(problem=solver_problems())
def test_batched_solver_matches_per_class_loop(problem):
    cal, kwargs = problem
    expected = reference_optimize(cal, **kwargs)
    assert optimize_lambda(cal, **kwargs).tobytes() == expected.tobytes()
    # the kernel's per-class form keeps the reference's bits too
    reps, start = cal.representatives, np.clip(closed_form_lambda(cal), -1.0, 1.0)
    for zi, xs in enumerate(cal.validation.values()):
        others = [rep for oi, rep in enumerate(reps) if oi != zi]
        got = _objective(xs, reps[zi], others, kwargs["gamma"])(start[zi])
        want = reference_objective(start[zi], xs, reps[zi], others, kwargs["gamma"])
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def uneven_problems(seed, count=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = int(rng.integers(2, 6))
        f = int(rng.choice([1, 5, 40]))
        counts = [3] * (z - 1) + [int(rng.integers(1, 5))]
        reps = rng.normal(size=(z, f))
        val = {f"c{i}": reps[i] + 0.3 * rng.normal(size=(n, f)) for i, n in enumerate(counts)}
        yield CalibrationSet(reps, val)


class RecordingNumpy:
    """numpy as calibration sees it, recording the shape of every np.empty."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        self.shapes.append(tuple(shape))
        return np.empty(shape, *args, **kwargs)


def budgets(cal):
    """Each budget's SOLVE_BYTES for one calibration set."""
    smallest = min(x.nbytes for x in cal.validation.values())
    return {
        "one byte": 1,
        "whole problem": sum(x.nbytes for x in cal.validation.values()) * len(cal.classes),
        # a lone class of the smallest count scores two representatives a chunk
        "partial last chunk": 5 * smallest // 2,
    }


def recorded_blocks(monkeypatch):
    """A list that records, for each _objective built from here on, (block,
    chunk, rows, tiled): its class count, the leading length of its residual
    buffers, its table's row count and whether it tiled the table."""
    blocks = []
    build = calibration._objective
    numpy = RecordingNumpy()
    monkeypatch.setattr(calibration, "np", numpy)

    def recording_build(xs, own_rep, other_reps, gamma):
        numpy.shapes.clear()
        objective = build(xs, own_rep, other_reps, gamma)
        # two residual buffers, (chunk, *xs.shape) or (rows, *xs.shape) for
        # fewer rows, and the tiled table, the same shape, when there is one
        leads = [shape[0] for shape in numpy.shapes if shape[1:] == xs.shape]
        assert len(set(leads)) == 1 and len(leads) in (2, 3)
        blocks.append((len(xs), leads[0], 1 + len(other_reps), len(leads) == 3))
        return objective

    monkeypatch.setattr(calibration, "_objective", recording_build)
    return blocks


@pytest.mark.parametrize("budget", ["one byte", "whole problem", "partial last chunk"])
def test_batched_solver_matches_under_any_budget(monkeypatch, budget):
    blocks = recorded_blocks(monkeypatch)
    for cal in uneven_problems(7):
        monkeypatch.setattr(calibration, "SOLVE_BYTES", budgets(cal)[budget])
        expected = reference_optimize(cal, gamma=0.2, box=4.0, iters=30)
        assert optimize_lambda(cal, gamma=0.2, box=4.0, iters=30).tobytes() == expected.tobytes()
    chunks = [chunk for _, chunk, _, _ in blocks]
    if budget == "one byte":  # the table's rows broadcast one at a time
        assert max(block for block, *_ in blocks) == 1 and set(chunks) == {1}
        assert not any(tiled for *_, tiled in blocks)
    elif budget == "whole problem":  # one chunk, tiled
        assert max(block for block, *_ in blocks) > 1 and max(chunks) > 1
        assert all(tiled for *_, tiled in blocks)
    else:  # three or more chunks, the last one partial, so rows broadcast
        assert any(chunk > 1 and rows > 2 * chunk and rows % chunk and not tiled
                   for _, chunk, rows, tiled in blocks)


def test_benchmark_shaped_problem_matches_per_class_loop(monkeypatch):
    # cifar-pixels-logsig's calibration shape at the real budget: one block
    # of 4 classes of 40 x 39, its whole table tiled in one chunk
    rng = np.random.default_rng(10)
    reps = rng.normal(size=(4, 39))
    cal = CalibrationSet(reps, {f"c{i}": reps[i] * rng.uniform(0.5, 1.5, size=(40, 39))
                                for i in range(4)})
    expected = reference_optimize(cal, gamma=0.1, box=50.0, iters=50)
    blocks = recorded_blocks(monkeypatch)
    assert optimize_lambda(cal, gamma=0.1, box=50.0, iters=50).tobytes() == expected.tobytes()
    assert blocks == [(4, 4, 4, True)]


def test_solver_state_is_built_once_a_block(monkeypatch):
    numpy = RecordingNumpy()
    monkeypatch.setattr(calibration, "np", numpy)
    cal = synthetic_two_class(np.random.default_rng(9))
    for budget in (1, calibration.SOLVE_BYTES):  # a block a class, and one block
        monkeypatch.setattr(calibration, "SOLVE_BYTES", budget)
        counts = []
        for iters in (3, 30):
            numpy.shapes.clear()
            optimize_lambda(cal, gamma=0.1, box=2.0, iters=iters)
            counts.append(len(numpy.shapes))
        assert counts[0] == counts[1], budget


def test_solver_memory_does_not_grow_with_iters():
    # a step length array would take 8 bytes an iteration, 160 KB here
    cal = one_class_set([1.5], [[0.5]])
    tracemalloc.start()
    try:
        optimize_lambda(cal, gamma=0.0, box=np.inf, iters=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_solver_memory_stays_within_the_budget(monkeypatch):
    """Every solver temporary is at most max(SOLVE_BYTES, one (n, F) matrix).
    At most five are live at once, all of one class block's state: the
    validation stack, the scaled stack, two residual buffers and, when one
    chunk holds the whole representative table, the table tiled to the
    residuals' shape.  Beside them are the block's (R, block, F) table and
    gradient terms, numpy's own iteration buffers and the (Z, F) start and
    result."""
    rng = np.random.default_rng(8)
    z, n, f = 6, 16, 1024
    reps = rng.normal(size=(z, f))
    cal = CalibrationSet(reps, {f"c{i}": reps[i] + rng.normal(size=(n, f)) for i in range(z)})
    matrix = n * f * 8
    for budget in (1, 2 * matrix):
        monkeypatch.setattr(calibration, "SOLVE_BYTES", budget)
        tracemalloc.start()
        try:
            optimize_lambda(cal, gamma=0.1, box=5.0, iters=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every class against every representative at once would be z * z = 36 matrices
        assert peak <= 6 * max(budget, matrix) + 2 * reps.nbytes, (budget, peak)
