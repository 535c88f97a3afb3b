"""Arithmetic in the free tensor algebra over R^d truncated at a fixed level.

An element is a "level list" [x_0, x_1, ..., x_N] where x_k is an ndarray
whose last axis holds the d**k coefficients of level k in row-major
multi-index order (first index slowest); x_0 has no trailing axis.  Any
leading axes are carried along unchanged, so the same kernels serve single
tensors (no leading axes) and batches of tensors (leading batch axis).  All
arithmetic is exact up to float64 rounding; truncation simply drops levels
above the cutoff.
"""

from __future__ import annotations

import numpy as np

__all__ = ["feature_length", "mul_levels", "exp_levels", "log_levels"]


def feature_length(dim: int, order: int) -> int:
    """Total coefficient count of levels 1..order: d + d**2 + ... + d**order."""
    return sum(dim**k for k in range(1, order + 1))


def mul_levels(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Truncated concatenation product of two level lists."""
    order = len(a) - 1
    out = [a[0] * b[0]]
    for k in range(1, order + 1):
        acc = a[0][..., None] * b[k] + a[k] * b[0][..., None]
        for i in range(1, k):
            cross = a[i][..., :, None] * b[k - i][..., None, :]
            acc = acc + cross.reshape(a[i].shape[:-1] + (-1,))
        out.append(acc)
    return out


def exp_levels(x: list[np.ndarray]) -> list[np.ndarray]:
    """Exponential sum_{n=0..N} x^n / n! of a level list with zero level-0.

    Finite because the zero-level-0 part is nilpotent in the truncation.
    """
    order = len(x) - 1
    out = [lv.copy() for lv in x]
    out[0] = out[0] + 1.0
    term = x
    for n in range(2, order + 1):
        term = mul_levels(term, x)
        term = [lv / n for lv in term]
        for k in range(n, order + 1):
            out[k] = out[k] + term[k]
    return out


def log_levels(s: list[np.ndarray]) -> list[np.ndarray]:
    """Logarithm sum_{n>=1} (-1)**(n+1) (s-1)^n / n of a grouplike level list."""
    order = len(s) - 1
    u = [lv.copy() for lv in s]
    u[0] = u[0] - 1.0
    out = [lv.copy() for lv in u]
    term = u
    for n in range(2, order + 1):
        term = mul_levels(term, u)
        coeff = (1.0 if n % 2 == 1 else -1.0) / n
        for k in range(n, order + 1):
            out[k] = out[k] + coeff * term[k]
    return out
