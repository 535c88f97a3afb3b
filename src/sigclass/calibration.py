"""Scale-factor calibration: closed-form ratio averaging and projected
subgradient optimization of the scaled-MAE separation objective."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, json_object, real

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
    epsilon = _SETTINGS["epsilon"](epsilon)
    out = np.empty(cal.representatives.shape)
    for zi, (rep, xs) in enumerate(zip(cal.representatives, cal.validation.values())):
        out[zi] = (rep[None, :] / _guarded(xs, epsilon)).mean(axis=0)
    return out


STEP0 = 0.1  # optimize_lambda's first step length
# optimize_lambda's budget for one temporary.  On a 4-class, 40 x 39
# calibration set, 1 MiB (one residual chunk an iteration, not two) gave a
# 7 % faster fit but a 0.2 MB higher peak RSS; 128 KiB left it unchanged.
# 256 KiB holds that set's whole 200 KB table in one chunk, tiled once a
# block (see _objective): its 500-step solve took 47-52 ms against 56-66 ms
# at 128 KiB (60-66 ms before the state was built once a block), and the
# peak RSS rose 0.04 MB.
SOLVE_BYTES = 1 << 18


# Each solver setting's check, as the solvers and solver_settings apply it
_SETTINGS = {
    "gamma": lambda value: real("gamma", value, zero_ok=True),
    "box": lambda value: real("box", value, inf_ok=True),
    "iters": lambda value: integer("iters", value, 1),
    "epsilon": lambda value: real("epsilon", value),
}


def solver_settings(method: str, settings: dict) -> dict:
    """The solver keywords of a calibration method, each checked as its
    solver checks it, so that a bad setting is named before any data is
    read; a ValueError for an unknown method, a key the method does not
    take (see METHODS) or a bad value."""
    if not isinstance(method, str) or method not in METHODS:
        raise ValueError(f"unknown calibration method {method!r}")
    json_object(f"calibration method {method!r}", settings, METHODS[method])
    return {key: _SETTINGS[key](value) for key, value in settings.items()}


def _objective(xs, own_rep, other_reps, gamma):
    """The scalarized objective sum_v MAE(lam*x_v, own) - gamma * sum_{l,v}
    MAE(lam*x_v, other_l) as a function of lam, returning the value and its
    subgradient (0 at kinks), with every buffer it uses allocated here, once.

    Broadcasts over leading axes: xs (..., n, F), own_rep (..., F) and a
    sequence other_reps of (..., F) arrays give a function of lam (..., F)
    returning a value (...) and a gradient (..., F), written into the same
    two arrays at every call.  The representatives, own first, are stacked
    into one (R, ..., F) table and scored a chunk of rows at a time, the
    (chunk, ..., n, F) residuals kept within SOLVE_BYTES (at least one
    row).  When one chunk holds the whole table, it is tiled to the
    residuals' shape, so that each subtract is same-shape.  The R terms are
    folded left in table order, so the bits equal a
    one-representative-at-a-time sum.
    """
    f = xs.shape[-1]
    table = np.stack([own_rep, *other_reps])
    chunk = max(1, SOLVE_BYTES // xs.nbytes)
    scaled = np.empty(xs.shape)
    resid, signs = (np.empty((min(chunk, len(table)),) + xs.shape) for _ in range(2))
    if len(resid) < len(table):
        chunks = [table[r0:r0 + chunk, ..., None, :] for r0 in range(0, len(table), chunk)]
    else:
        chunks = [np.empty(resid.shape)]
        chunks[0][...] = table[..., None, :]
    sums, grads = np.empty(table.shape[:-1]), np.empty(table.shape)
    value, grad = np.empty(table.shape[1:-1]), np.empty(table.shape[1:])

    def evaluate(lam):
        np.multiply(lam[..., None, :], xs, out=scaled)
        for r0, reps in zip(range(0, len(table), chunk), chunks):
            rows = slice(r0, r0 + len(reps))
            res, sig = resid[:len(reps)], signs[:len(reps)]
            np.subtract(scaled, reps, out=res)
            np.abs(res, out=sig).reshape(sig.shape[:-2] + (-1,)).sum(-1, out=sums[rows])
            np.sign(res, out=sig)  # not in place: numpy's in-place sign is several times slower
            sig *= xs
            sig.sum(-2, out=grads[rows])
        for terms in (sums, grads):  # weighted in place; row 0, the own class, is unweighted
            terms[1:] *= gamma
            terms /= f
        return np.subtract.reduce(sums, out=value), np.subtract.reduce(grads, out=grad)

    return evaluate


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
    (block, n, F) validation stack fits SOLVE_BYTES (at least one class).
    Each step scores a block against a table of every representative, own
    first, a chunk of rows at a time within the same budget.  A block's
    table and buffers (see _objective) are built once, before its first
    step, and freed before the next block builds its own; the iterate is
    stepped in place, so an iteration allocates no array the size of the
    problem, and memory does not grow with iters.  Every factor is
    bit-identical to solving each class on its own.  gamma
    must be a finite real >= 0, box a real > 0 (inf allowed), iters an
    integer >= 1 and epsilon a finite real > 0; anything else, bools and
    strings included, is a ValueError naming the argument.
    """
    gamma, box, iters, epsilon = (_SETTINGS[key](value) for key, value in (
        ("gamma", gamma), ("box", box), ("iters", iters), ("epsilon", epsilon)))

    start = closed_form_lambda(cal, epsilon=epsilon)
    reps, labels = cal.representatives, cal.classes
    out = np.empty(reps.shape)
    for block in _class_blocks(cal):
        xs = np.stack([cal.validation[labels[zi]] for zi in block])
        # row k holds the k-th other representative of each block class, in class order
        others = reps[np.array([np.delete(np.arange(len(reps)), zi) for zi in block]).T]
        objective = _objective(xs, reps[block], others, gamma)
        lam = np.clip(start[block], -box, box)
        best, best_val = np.empty_like(lam), np.full(len(block), np.inf)
        for t in range(1, iters + 1):
            value, grad = objective(lam)
            bad = ~np.isfinite(value)
            if bad.any():
                raise ArithmeticError(
                    f"optimize_lambda: non-finite objective for class "
                    f"{labels[block[np.argmax(bad)]]!r} at iteration {t}"
                )
            better = value < best_val
            best_val[better], best[better] = value[better], lam[better]
            grad *= STEP0 / math.sqrt(t)
            np.clip(np.subtract(lam, grad, out=lam), -box, box, out=lam)
        final_val, _ = objective(lam)
        better = np.isfinite(final_val) & (final_val < best_val)
        best[better] = lam[better]
        out[block] = best
        del xs, others, objective  # free this block's state before the next builds its own
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
