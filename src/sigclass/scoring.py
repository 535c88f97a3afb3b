"""The one RMSE/MAE scoring kernel."""

from __future__ import annotations

import numpy as np

__all__ = ["score_rows"]


def score_rows(a: np.ndarray, b: np.ndarray, metric: str, scratch=None) -> np.ndarray:
    """RMSE or MAE of a - b along the last axis: the one scoring kernel.  When
    scratch is given, an array of a - b's shape (it may be a or b itself), the
    difference and its square or abs are written into it."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"feature length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    diff = np.subtract(a, b, out=scratch)
    if metric == "rmse":
        return np.sqrt(np.mean(np.multiply(diff, diff, out=scratch), axis=-1))
    if metric == "mae":
        return np.mean(np.abs(diff, out=scratch), axis=-1)
    raise ValueError(f"unknown metric {metric!r}")
