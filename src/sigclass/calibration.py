"""Scale-factor calibration: closed-form ratio averaging and projected
subgradient optimization of the scaled-MAE separation objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .path_signature import SigFeatures
from .scoring import ScaleFactors

__all__ = ["CalibrationSet", "closed_form_lambda", "optimize_lambda"]


@dataclass(frozen=True)
class CalibrationSet:
    """Per class: a representative feature vector and an (n_z, F) matrix of
    validation feature rows, stored as a read-only float64 copy (the
    caller's dict and arrays are left untouched)."""

    representatives: dict[str, SigFeatures]
    validation: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.representatives:
            raise ValueError("calibration set has no classes")
        if set(self.representatives) != set(self.validation):
            raise ValueError("representative and validation class sets differ")
        ref = next(iter(self.representatives.values()))
        matrices = {}
        for label, rep in self.representatives.items():
            if not ref.same_space(rep):
                raise ValueError(f"representative of class {label!r} has mismatched metadata")
            rows = np.array(self.validation[label], dtype=np.float64)
            if rows.ndim != 2 or rows.shape[1] != len(rep):
                raise ValueError(
                    f"validation of class {label!r} must be an (n, {len(rep)}) matrix"
                    f" to match its representative, got shape {rows.shape}"
                )
            if rows.shape[0] == 0:
                raise ValueError(f"class {label!r} has no validation instances")
            if not np.all(np.isfinite(rows)):
                raise ValueError(f"validation of class {label!r} contains non-finite entries")
            rows.setflags(write=False)
            matrices[label] = rows
        object.__setattr__(self, "validation", matrices)

    @property
    def classes(self) -> list[str]:
        return list(self.representatives)


def _guarded(divisor: np.ndarray, epsilon: float) -> np.ndarray:
    """Replace entries of magnitude < epsilon by sign-preserving epsilon."""
    return np.where(np.abs(divisor) < epsilon, np.copysign(epsilon, divisor), divisor)


def closed_form_lambda(
    cal: CalibrationSet,
    epsilon: float = 1e-8,
    transposed: bool = False,
) -> dict[str, ScaleFactors]:
    """Per-class scale factors as averaged element-wise ratios.

    For each class the factor solves scale * validation = representative in
    the element-wise sense, averaged over validation instances:
    mean_v(representative / x_v).  Divisors smaller than epsilon in
    magnitude are replaced by sign-preserving epsilon.  transposed=True
    computes the reversed reading mean_v(x_v / representative) instead.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = {}
    for label in cal.classes:
        rep = cal.representatives[label].values
        xs = cal.validation[label]
        if transposed:
            ratios = xs / _guarded(rep, epsilon)[None, :]
        else:
            ratios = rep[None, :] / _guarded(xs, epsilon)
        out[label] = ScaleFactors(values=ratios.mean(axis=0), label=label)
    return out


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
    seed: int = 0,
    step0: float = 0.1,
    epsilon: float = 1e-8,
    batch_size: int | None = None,
) -> dict[str, ScaleFactors]:
    """Per-class scale factors by deterministic projected subgradient descent.

    Minimizes, independently per class z, the scalarized objective
    (own-class scaled MAE) - gamma * (sum of scaled MAE against the other
    representatives) over all validation instances of z.  Steps shrink as
    step0 / sqrt(t); every iterate is clipped component-wise into
    [-box, +box]; the start point is the closed-form ratio average clipped
    to the box.  The best iterate seen is returned, so the result is never
    worse than the start.  batch_size selects a seeded random subset of
    validation instances per iteration (default: full batch).
    """
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and >= 0")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if step0 <= 0:
        raise ValueError("step0 must be positive")

    start = closed_form_lambda(cal, epsilon=epsilon)
    reps = {label: cal.representatives[label].values for label in cal.classes}
    out = {}
    for class_index, label in enumerate(cal.classes):
        xs_full = cal.validation[label]
        own = reps[label]
        others = [reps[l] for l in cal.classes if l != label]
        rng = np.random.default_rng(np.random.SeedSequence([seed, class_index]))

        lam = np.clip(np.asarray(start[label].values, dtype=np.float64), -box, box)
        best_lam = lam.copy()
        best_val = np.inf
        minibatch = batch_size is not None and batch_size < xs_full.shape[0]
        for t in range(1, iters + 1):
            if minibatch:
                idx = rng.choice(xs_full.shape[0], size=batch_size, replace=False)
                value, grad = _objective_and_subgrad(lam, xs_full[idx], own, others, gamma)
                track, _ = _objective_and_subgrad(lam, xs_full, own, others, gamma)
            else:
                value, grad = _objective_and_subgrad(lam, xs_full, own, others, gamma)
                track = value
            if not np.isfinite(value):
                raise ArithmeticError(
                    f"optimize_lambda: non-finite objective for class {label!r} "
                    f"at iteration {t}"
                )
            if track < best_val:
                best_val = track
                best_lam = lam.copy()
            lam = np.clip(lam - (step0 / np.sqrt(t)) * grad, -box, box)
        final_val, _ = _objective_and_subgrad(lam, xs_full, own, others, gamma)
        if np.isfinite(final_val) and final_val < best_val:
            best_lam = lam.copy()
        out[label] = ScaleFactors(values=best_lam, label=label)
    return out
