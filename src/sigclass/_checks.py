"""The one rule for numbers: Python and numpy scalars are accepted, bools
(Python or numpy) never are, and a numpy scalar is returned as the Python
number it holds; a Python int or float is returned as it is, so a value
written to a file keeps its text.  The one rule for JSON objects: a dict
whose keys are all known and include the required ones, and from which
alone a config object is built.  A breach is a ValueError naming it.  The one
rule for a float written as text: its repr."""

import dataclasses
import math
import numbers
import sys

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
    finite = abs(number) <= sys.float_info.max  # not nan, inf or an int past a float's range
    if not (number >= 0 if zero_ok else number > 0) or not (inf_ok or finite):
        bound = f"{'' if inf_ok else 'finite and '}{'>=' if zero_ok else '>'} 0"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    if not finite and number != math.inf:  # inf_ok takes a float inf, not a huge int
        raise ValueError(f"{name} must be within a float's range or inf, got {value!r}")
    return number


def band(name: str, value) -> tuple:
    """value as a (low, high) tuple of two finite real numbers, low <= high."""
    pair = (None,)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        pair = tuple(_plain(v, numbers.Real) for v in value)
    if None in pair or not all(abs(v) <= sys.float_info.max for v in pair) or pair[0] > pair[1]:
        raise ValueError(f"{name} must be two finite real numbers low <= high, got {value!r}")
    return pair


def json_object(where: str, value, keys=None, required=()) -> dict:
    """value as a dict: a JSON object holding only keys (any key when None) and
    every one of required."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ValueError(f"{where} has unknown field {unknown[0]!r}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{where} lacks field {missing[0]!r}")
    return value


def config_object(cls, where: str, value, complete: bool = False, nested=None):
    """The dataclass cls from a JSON object of its fields, every one required when
    complete, lists as tuples; a field named in nested (field: dataclass) holds
    such an object too, or null where its default is null."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    doc = json_object(where, value, defaults, tuple(defaults) if complete else ())
    values = {}
    for key, v in doc.items():
        if key in (nested or {}) and (v is not None or defaults[key] is not None):
            v = config_object(nested[key], where, v, complete)
        values[key] = tuple(v) if isinstance(v, list) else v
    return cls(**values)


def float_texts(values) -> list[str]:
    """repr of each float64 of a 1-D array, with repr called once per distinct
    bit pattern (by bits, not value: 0.0 and -0.0 keep their own texts)."""
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.uint64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse].tolist()
