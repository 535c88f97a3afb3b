"""The one rule for numbers: Python and numpy scalars are accepted, bools
(Python or numpy) never are, and a numpy scalar is returned as the Python
number it holds; a Python int or float is returned as it is, so a value
written to a file keeps its text.  A breach is a ValueError naming it."""

import math
import numbers

import numpy as np


def _plain(value, kind):
    """value as a Python number when it is a non-bool `kind`, else None."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind):
        return None
    return value.item() if isinstance(value, np.generic) else value


def integer(name: str, value, low: int | None = None) -> int:
    """value as an int: an integer, >= low when low is given."""
    number = _plain(value, numbers.Integral)
    if number is None or (low is not None and number < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


def real(name: str, value, *, zero_ok: bool = False, inf_ok: bool = False) -> float:
    """value as a Python number: > 0 (>= 0 when zero_ok), finite unless inf_ok."""
    number = _plain(value, numbers.Real)
    if number is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (number >= 0 if zero_ok else number > 0) or not (inf_ok or math.isfinite(number)):
        bound = f"{'' if inf_ok else 'finite and '}{'>=' if zero_ok else '>'} 0"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


def band(name: str, value) -> tuple:
    """value as a (low, high) tuple of two finite real numbers, low <= high."""
    pair = (None,)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        pair = tuple(_plain(v, numbers.Real) for v in value)
    if None in pair or not all(map(math.isfinite, pair)) or pair[0] > pair[1]:
        raise ValueError(f"{name} must be two finite real numbers low <= high, got {value!r}")
    return pair
