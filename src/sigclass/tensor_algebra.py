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


def mul_levels(a: list[np.ndarray], b: list[np.ndarray], out=None, scratch=None
               ) -> list[np.ndarray]:
    """Truncated concatenation product of two level lists.

    Level k is (a_0 b_k + a_k b_0) + a_1 (x) b_{k-1} + ... + a_{k-1} (x) b_1,
    summed in that order.  The product goes into `out` when given, which may
    be `a` itself: levels are written top first, so each lower level of `a`
    is still unchanged when it is read.  `scratch`, when given, holds one
    buffer shaped like out[k] for each k >= 1, for the a_0 b_k and cross
    terms.  A level 0 of None is exactly 1.0 and is not multiplied by; an
    array level 0 always is.  The product's level 0 is None when both are.
    """
    order = len(a) - 1
    a_one, b_one = a[0] is None, b[0] is None
    if out is None:
        out = [None] + [np.empty(np.broadcast(a[k], b[k]).shape) for k in range(1, order + 1)]
    for k in range(order, 0, -1):
        acc = out[k]
        tmp = np.empty_like(acc) if scratch is None else scratch[k]
        ak_b0 = a[k] if b_one else np.multiply(a[k], b[0][..., None], out=acc)
        a0_bk = b[k] if a_one else np.multiply(a[0][..., None], b[k], out=tmp)
        np.add(a0_bk, ak_b0, out=acc)
        for i in range(1, k):
            cross = tmp.reshape(tmp.shape[:-1] + (a[i].shape[-1], -1))
            np.multiply(a[i][..., :, None], b[k - i][..., None, :], out=cross)
            np.add(acc, tmp, out=acc)
    a0, b0 = (1.0 if x[0] is None else x[0] for x in (a, b))
    out[0] = None if a[0] is None and b[0] is None else a0 * b0
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
