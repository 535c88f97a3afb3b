"""Element-wise mean aggregation and scaled RMSE/MAE score functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .path_signature import SigFeatures

__all__ = ["ScaleFactors", "elementwise_mean", "score_rows", "rmse", "mae"]


@dataclass(frozen=True)
class ScaleFactors:
    """Component-wise multiplicative factors for one class.

    values is either the scalar 1.0 (identity) or a vector whose length
    must match the feature vector it multiplies.
    """

    values: np.ndarray | float = 1.0

    def __post_init__(self):
        vals = self.values
        if np.isscalar(vals):
            if not np.isfinite(vals):
                raise ValueError("scale factor must be finite")
            object.__setattr__(self, "values", float(vals))
            return
        arr = np.asarray(vals, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("scale factors contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def identity(cls) -> "ScaleFactors":
        return cls(values=1.0)

    def resolve(self, n: int):
        """Scalar or length-n vector, validated against the target length."""
        if np.isscalar(self.values):
            return self.values
        if self.values.size != n:
            raise ValueError(
                f"scale factor length {self.values.size} does not match feature length {n}"
            )
        return self.values


def elementwise_mean(features: Sequence[SigFeatures]) -> SigFeatures:
    """Component-wise arithmetic mean of feature vectors sharing metadata."""
    feats = list(features)
    if not feats:
        raise ValueError("elementwise_mean needs at least one feature vector")
    first = feats[0]
    for f in feats[1:]:
        if not first.same_space(f):
            raise ValueError(
                "heterogeneous features: "
                f"(dim={first.dim}, order={first.order}, kind={first.kind}) vs "
                f"(dim={f.dim}, order={f.order}, kind={f.kind})"
            )
    stacked = np.stack([f.values for f in feats])
    return SigFeatures(
        dim=first.dim, order=first.order, values=stacked.mean(axis=0), kind=first.kind
    )


def score_rows(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """RMSE or MAE of a - b along the last axis: the one scoring kernel."""
    diff = a - b
    if metric == "rmse":
        return np.sqrt(np.mean(diff * diff, axis=-1))
    if metric == "mae":
        return np.mean(np.abs(diff), axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


def _scaled(x: SigFeatures, y: SigFeatures, scale_x, scale_y) -> tuple[np.ndarray, np.ndarray]:
    if len(x) != len(y):
        raise ValueError(f"feature length mismatch: {len(x)} vs {len(y)}")
    lx = scale_x.resolve(len(x)) if scale_x is not None else 1.0
    ly = scale_y.resolve(len(y)) if scale_y is not None else 1.0
    return ly * y.values, lx * x.values


def rmse(
    x: SigFeatures,
    y: SigFeatures,
    scale_x: ScaleFactors | None = None,
    scale_y: ScaleFactors | None = None,
) -> float:
    """Root mean squared error between scaled feature vectors."""
    return float(score_rows(*_scaled(x, y, scale_x, scale_y), "rmse"))


def mae(
    x: SigFeatures,
    y: SigFeatures,
    scale_x: ScaleFactors | None = None,
    scale_y: ScaleFactors | None = None,
) -> float:
    """Mean absolute error between scaled feature vectors."""
    return float(score_rows(*_scaled(x, y, scale_x, scale_y), "mae"))
