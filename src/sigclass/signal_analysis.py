"""Savitzky-Golay smoothing of absolute feature-component series and
per-class spectrum CSV export."""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import float_texts, integer

__all__ = [
    "SpectrumSeries",
    "savgol_coefficients",
    "savgol_filter",
    "export_spectrum",
]


@dataclass(frozen=True)
class SpectrumSeries:
    """Absolute feature components of one class, raw and smoothed."""

    label: str
    raw_abs: np.ndarray
    values: np.ndarray  # smoothed series, same length as raw_abs
    window: int
    polyorder: int


def savgol_coefficients(window: int, polyorder: int) -> np.ndarray:
    """Central-point least-squares smoothing kernel of odd length `window`.

    Fits a degree-`polyorder` polynomial over positions -h..h by solving
    the Vandermonde normal equations; the kernel evaluates the fit at the
    window center and sums to 1.
    """
    window, polyorder = integer("window", window, 1), integer("polyorder", polyorder)
    if window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    if not 0 <= polyorder < window:
        raise ValueError(
            f"polyorder must satisfy 0 <= polyorder < window, got {polyorder} vs {window}"
        )
    h = (window - 1) // 2
    positions = np.arange(-h, h + 1, dtype=np.float64)
    vander = np.vander(positions, polyorder + 1, increasing=True)
    # fitted value at 0 is the constant coefficient of the LS fit
    kernel = np.linalg.solve(vander.T @ vander, vander.T)[0]
    return kernel


def savgol_filter(series, window: int, polyorder: int) -> np.ndarray:
    """Length-preserving Savitzky-Golay smoothing under mirror padding, which
    reflects the series about its end samples (np.pad "reflect", scipy "mirror")."""
    values = np.asarray(series, dtype=np.float64).reshape(-1)
    if values.size < 1:
        raise ValueError("series must have length >= 1")
    kernel = savgol_coefficients(window, polyorder)
    pad = (window - 1) // 2
    padded = np.pad(values, pad, mode="reflect")
    return np.correlate(padded, kernel, mode="valid")


def _clamped_window(window: int, length: int) -> int:
    limit = length if length % 2 == 1 else length - 1
    if window > limit:
        warnings.warn(
            f"window {window} exceeds series length {length}; clamped to {limit}",
            stacklevel=3,
        )
        return limit
    return window


def _safe_filename(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", label)


def export_spectrum(model, window: int, polyorder: int, out_dir=None) -> list[SpectrumSeries]:
    """Smoothed absolute representative spectra, one series per class.

    When out_dir is given, each class is written as
    spectrum_<label>.csv with columns index,raw_abs,smoothed, each value as
    its repr, formatted once per distinct bit pattern of its column.  Windows
    larger than the feature length are clamped (largest odd value that
    fits) with a warning.  Two labels that map to one file name are a
    ValueError, raised before any file is written.
    """
    names = [f"spectrum_{_safe_filename(label)}.csv" for label in model.classes]
    if out_dir is not None:
        first = {}
        for name, label in zip(names, model.classes):
            if first.setdefault(name, label) != label:
                raise ValueError(f"class labels {first[name]!r} and {label!r} both map to {name}")
    out = []
    for name, label, rep in zip(names, model.classes, model.representatives):
        raw = np.abs(rep)
        win = _clamped_window(window, raw.size)
        smoothed = savgol_filter(raw, win, polyorder)
        series = SpectrumSeries(
            label=label, raw_abs=raw, values=smoothed, window=win, polyorder=polyorder
        )
        out.append(series)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
                # one write: writelines would make a write call per line
                fh.write("index,raw_abs,smoothed\n" + "".join([
                    f"{i},{r},{s}\n"
                    for i, (r, s) in enumerate(zip(float_texts(raw), float_texts(smoothed)))]))
    return out
