"""The one RMSE/MAE scoring kernel."""

from __future__ import annotations

import numpy as np

__all__ = ["score_rows"]


def score_rows(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """RMSE or MAE of a - b along the last axis: the one scoring kernel."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"feature length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    diff = a - b
    if metric == "rmse":
        return np.sqrt(np.mean(diff * diff, axis=-1))
    if metric == "mae":
        return np.mean(np.abs(diff), axis=-1)
    raise ValueError(f"unknown metric {metric!r}")
