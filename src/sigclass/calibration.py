"""Scale-factor calibration: closed-form ratio averaging and projected
subgradient optimization of the scaled-MAE separation objective."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["CalibrationSet", "METHODS", "closed_form_lambda", "optimize_lambda", "solver_settings"]

# Each calibration method with the solver keywords it takes
METHODS = {"none": (), "closed_form": ("epsilon",), "optimize": ("gamma", "box", "iters", "epsilon")}


@dataclass(frozen=True)
class CalibrationSet:
    """A (Z, F) representative matrix and, per class, an (n_z, F) matrix of
    validation feature rows; row z of representatives belongs to the z-th
    class of validation.  Both are kept as read-only float64 views of the
    given arrays, which callers should not change afterwards; the caller's
    dict is not the one stored."""

    representatives: np.ndarray
    validation: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.validation:
            raise ValueError("calibration set has no classes")
        reps = np.asarray(self.representatives, dtype=np.float64).view()
        if reps.ndim != 2 or reps.shape[0] != len(self.validation):
            raise ValueError(
                f"representatives must be a ({len(self.validation)}, F) matrix, one row per"
                f" validation class, got shape {reps.shape}"
            )
        if not np.all(np.isfinite(reps)):
            raise ValueError("representatives contain non-finite entries")
        reps.setflags(write=False)
        matrices = {}
        for label, rows in self.validation.items():
            rows = np.asarray(rows, dtype=np.float64).view()
            if rows.ndim != 2 or rows.shape[1] != reps.shape[1]:
                raise ValueError(
                    f"validation of class {label!r} must be an (n, {reps.shape[1]}) matrix"
                    f" to match the representatives, got shape {rows.shape}"
                )
            if rows.shape[0] == 0:
                raise ValueError(f"class {label!r} has no validation instances")
            if not np.all(np.isfinite(rows)):
                raise ValueError(f"validation of class {label!r} contains non-finite entries")
            rows.setflags(write=False)
            matrices[label] = rows
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "validation", matrices)

    @property
    def classes(self) -> list[str]:
        return list(self.validation)


def _guarded(divisor: np.ndarray, epsilon: float) -> np.ndarray:
    """Replace entries of magnitude < epsilon by sign-preserving epsilon."""
    return np.where(np.abs(divisor) < epsilon, np.copysign(epsilon, divisor), divisor)


def closed_form_lambda(cal: CalibrationSet, epsilon: float = 1e-8) -> np.ndarray:
    """(Z, F) scale factors, row z for class z, as averaged element-wise ratios.

    For each class the factor solves scale * validation = representative in
    the element-wise sense, averaged over validation instances:
    mean_v(representative / x_v).  Divisors smaller than epsilon in
    magnitude are replaced by sign-preserving epsilon.
    """
    epsilon = _setting("epsilon", epsilon)
    out = np.empty(cal.representatives.shape)
    for zi, (rep, xs) in enumerate(zip(cal.representatives, cal.validation.values())):
        out[zi] = (rep[None, :] / _guarded(xs, epsilon)).mean(axis=0)
    return out


STEP0 = 0.1  # optimize_lambda's first step length
# optimize_lambda's budget for one temporary.  On a 4-class, 40 x 39
# calibration set, 1 MiB (one residual chunk an iteration, not two) gave a
# 7 % faster fit but a 0.2 MB higher peak RSS; 128 KiB left it unchanged.
SOLVE_BYTES = 1 << 17


def _real(name: str, value, *, zero_ok: bool = False, inf_ok: bool = False) -> float:
    """value as a float, or a ValueError naming it: a real number other than
    a bool, > 0 (>= 0 when zero_ok) and finite (or inf, when inf_ok)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if not (number >= 0 if zero_ok else number > 0) or not (inf_ok or math.isfinite(number)):
        bound = f"{'' if inf_ok else 'finite and '}{'>=' if zero_ok else '>'} 0"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


def _setting(key: str, value):
    """One solver setting as its solver uses it, or a ValueError naming it:
    iters an integer >= 1, gamma a finite real >= 0, box a real > 0 (inf
    allowed), epsilon a finite real > 0; bools and strings are rejected."""
    if key != "iters":
        return _real(key, value, zero_ok=key == "gamma", inf_ok=key == "box")
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"iters must be an integer >= 1, got {value!r}")
    return value


def solver_settings(method: str, settings: dict) -> dict:
    """The solver keywords of a calibration method, each checked as its
    solver checks it, so that a bad setting is named before any data is
    read; a ValueError for an unknown method, a key the method does not
    take (see METHODS) or a bad value."""
    if method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    unknown = sorted(set(settings) - set(METHODS[method]))
    if unknown:
        raise ValueError(f"calibration method {method!r} takes no key {unknown[0]!r}")
    return {key: _setting(key, value) for key, value in settings.items()}


def _objective_and_subgrad(lam, xs, own_rep, other_reps, gamma, scratch=None):
    """Scalarized objective sum_v MAE(lam*x_v, own) - gamma * sum_{l,v} MAE(lam*x_v, other_l)
    and its subgradient (0 at kinks).

    Broadcasts over leading axes: lam (..., F), xs (..., n, F), own_rep
    (..., F) and an iterable other_reps of (..., F) arrays give a value (...)
    and a gradient (..., F).  The representatives, own first, are scored a
    chunk at a time, the (chunk, ..., n, F) residuals kept within
    SOLVE_BYTES (at least one representative), and each term is folded in
    the order above, so the bits equal a one-representative-at-a-time sum.
    scratch is a list in which the two residual buffers are kept between
    calls of the same shapes ([] before the first); without it they are
    allocated for this call alone.
    """
    f = lam.shape[-1]
    scaled = lam[..., None, :] * xs
    reps = itertools.chain([own_rep], other_reps)
    chunk = max(1, SOLVE_BYTES // scaled.nbytes)
    scratch = [] if scratch is None else scratch
    value = grad = None
    while table := list(itertools.islice(reps, chunk)):
        if not scratch:  # the first chunk is the largest
            scratch += [np.empty((len(table),) + scaled.shape) for _ in range(2)]
        resid, signs = (buf[:len(table)] for buf in scratch)
        np.subtract(scaled, np.stack(table)[..., None, :], out=resid)
        sums = np.abs(resid, out=signs).reshape(signs.shape[:-2] + (-1,)).sum(-1)
        np.sign(resid, out=signs)  # not in place: numpy's in-place sign is several times slower
        signs *= xs
        weight = np.full(sums.shape[:1] + (1,) * (sums.ndim - 1), gamma, dtype=float)
        if value is None:
            weight[0] = 1.0  # the own-class term, unweighted
        values, grads = weight * sums / f, weight[..., None] * signs.sum(-2) / f
        if value is not None:
            values = np.concatenate([[value], values])
            grads = np.concatenate([[grad], grads])
        value, grad = np.subtract.reduce(values), np.subtract.reduce(grads)
    return value, grad


def optimize_lambda(
    cal: CalibrationSet,
    gamma: float = 0.0,
    box: float = 1.0,
    iters: int = 500,
    epsilon: float = 1e-8,
) -> np.ndarray:
    """(Z, F) scale factors, row z for class z, by deterministic projected
    subgradient descent.

    Minimizes, independently per class z, the scalarized objective
    (own-class scaled MAE) - gamma * (sum of scaled MAE against the other
    representatives) over all validation instances of z.  Steps shrink as
    STEP0 / sqrt(t); every iterate is clipped component-wise into
    [-box, +box]; the start point is the closed-form ratio average clipped
    to the box.  The best iterate seen is returned, so the result is never
    worse than the start.

    Classes with equal validation counts descend together, in blocks whose
    (block, n, F) validation stack fits SOLVE_BYTES (at least one class);
    every factor is bit-identical to solving each class on its own.  gamma
    must be a finite real >= 0, box a real > 0 (inf allowed), iters an
    integer >= 1 and epsilon a finite real > 0; anything else, bools and
    strings included, is a ValueError naming the argument.
    """
    gamma, box, iters, epsilon = (_setting(key, value) for key, value in (
        ("gamma", gamma), ("box", box), ("iters", iters), ("epsilon", epsilon)))

    start = closed_form_lambda(cal, epsilon=epsilon)
    reps, labels = cal.representatives, cal.classes
    steps = STEP0 / np.sqrt(np.arange(1, iters + 1))
    out = np.empty(reps.shape)
    for block in _class_blocks(cal):
        xs = np.stack([cal.validation[labels[zi]] for zi in block])
        own = reps[block]
        # row k indexes the k-th other representative of each block class, in class order
        others = np.array([np.delete(np.arange(len(reps)), zi) for zi in block]).T
        lam = np.clip(start[block], -box, box)
        best, best_val = np.empty_like(lam), np.full(len(block), np.inf)
        scratch = []
        for t, step in enumerate(steps, 1):
            value, grad = _objective_and_subgrad(
                lam, xs, own, map(reps.__getitem__, others), gamma, scratch)
            bad = ~np.isfinite(value)
            if bad.any():
                raise ArithmeticError(
                    f"optimize_lambda: non-finite objective for class "
                    f"{labels[block[np.argmax(bad)]]!r} at iteration {t}"
                )
            better = value < best_val
            best_val[better], best[better] = value[better], lam[better]
            lam = np.clip(lam - step * grad, -box, box)
        final_val, _ = _objective_and_subgrad(
            lam, xs, own, map(reps.__getitem__, others), gamma, scratch)
        better = np.isfinite(final_val) & (final_val < best_val)
        best[better] = lam[better]
        out[block] = best
    return out


def _class_blocks(cal: CalibrationSet):
    """Class indices in blocks of equal validation count, in class order, each
    block's (block, n, F) validation stack within SOLVE_BYTES (at least one class)."""
    groups: dict[tuple, list[int]] = {}
    for zi, rows in enumerate(cal.validation.values()):
        groups.setdefault(rows.shape, []).append(zi)
    for shape, members in groups.items():
        per_block = max(1, SOLVE_BYTES // (8 * math.prod(shape)))
        for b0 in range(0, len(members), per_block):
            yield members[b0:b0 + per_block]
