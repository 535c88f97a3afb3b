"""Scale-factor calibration: closed-form ratio averaging and projected
subgradient optimization of the scaled-MAE separation objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CalibrationSet", "closed_form_lambda", "optimize_lambda"]


@dataclass(frozen=True)
class CalibrationSet:
    """A (Z, F) representative matrix and, per class, an (n_z, F) matrix of
    validation feature rows; row z of representatives belongs to the z-th
    class of validation.  Representatives are kept as a read-only view,
    validation rows as read-only float64 copies (the caller's dict and
    arrays are left untouched)."""

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
            rows = np.array(rows, dtype=np.float64)
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = np.empty(cal.representatives.shape)
    for zi, (rep, xs) in enumerate(zip(cal.representatives, cal.validation.values())):
        out[zi] = (rep[None, :] / _guarded(xs, epsilon)).mean(axis=0)
    return out


STEP0 = 0.1  # optimize_lambda's first step length


def _objective_and_subgrad(lam, xs, own_rep, other_reps, gamma):
    """Scalarized objective sum_v MAE(lam*x_v, own) - gamma * sum_{l,v} MAE(lam*x_v, other_l)
    and its subgradient (0 at kinks)."""
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
    """
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and >= 0")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    start = closed_form_lambda(cal, epsilon=epsilon)
    reps = cal.representatives
    out = np.empty(reps.shape)
    for zi, (label, xs) in enumerate(cal.validation.items()):
        own = reps[zi]
        others = [rep for oi, rep in enumerate(reps) if oi != zi]

        lam = np.clip(start[zi], -box, box)
        best_val = np.inf
        for t in range(1, iters + 1):
            value, grad = _objective_and_subgrad(lam, xs, own, others, gamma)
            if not np.isfinite(value):
                raise ArithmeticError(
                    f"optimize_lambda: non-finite objective for class {label!r} "
                    f"at iteration {t}"
                )
            if value < best_val:
                best_val, out[zi] = value, lam
            lam = np.clip(lam - (STEP0 / np.sqrt(t)) * grad, -box, box)
        final_val, _ = _objective_and_subgrad(lam, xs, own, others, gamma)
        if np.isfinite(final_val) and final_val < best_val:
            out[zi] = lam
    return out
