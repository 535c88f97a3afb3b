"""Seeded synthetic datasets in the MNIST IDX and CIFAR-10 binary formats.

The images are four-shapes renders (square, star, circle, triangle) drawn
by this module's own rasteriser, so the benchmark inputs do not change when
the library's shape generator does.  The program under test only sees the
written files and parses them with its own loaders.
"""

from __future__ import annotations

import struct

import numpy as np

SHAPES = ("square", "star", "circle", "triangle")

# Desk jitter: a small centre offset, a narrow scale band and an off-axis
# rotation band, which keeps polygons away from the mirror-symmetric
# orientations where row-stream signatures vanish.
CENTER_FRAC = 0.03
SCALE_RANGE = (0.72, 0.82)
ROTATION_DEG = (7.0, 13.0)
SUPERSAMPLE = 4


def _inside_polygon(px, py, verts):
    inside = np.zeros(px.shape, dtype=bool)
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        if y2 != y1:
            x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
            inside ^= ((y1 > py) != (y2 > py)) & (px < x_at)
        x1, y1 = x2, y2
    return inside


def render(shape: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Coverage in [0, 1] of one jittered shape on a size x size grid."""
    coords = (np.arange(size * SUPERSAMPLE) + 0.5) / SUPERSAMPLE
    py, px = np.meshgrid(coords, coords, indexing="ij")
    cx, cy = size / 2.0 + rng.uniform(-CENTER_FRAC, CENTER_FRAC, size=2) * size
    radius = rng.uniform(*SCALE_RANGE) * size / 2.0
    theta = np.deg2rad(rng.uniform(*ROTATION_DEG))
    name = SHAPES[shape]
    if name == "circle":
        inside = (px - cx) ** 2 + (py - cy) ** 2 <= radius**2
    else:
        if name == "square":
            angles = theta + np.pi / 4.0 + np.arange(4) * (np.pi / 2.0)
            radii = np.full(4, radius)
        elif name == "triangle":
            angles = theta + np.pi / 2.0 + np.arange(3) * (2.0 * np.pi / 3.0)
            radii = np.full(3, radius)
        else:
            angles = theta + np.pi / 2.0 + np.arange(10) * (np.pi / 5.0)
            radii = np.where(np.arange(10) % 2 == 0, radius, 0.5 * radius)
        verts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
        inside = _inside_polygon(px, py, verts)
    return inside.reshape(size, SUPERSAMPLE, size, SUPERSAMPLE).mean(axis=(1, 3))


def shapes(per_class: int, size: int, seed: int, part: int) -> tuple[np.ndarray, np.ndarray]:
    """(coverage (n, size, size), labels (n,) uint8) in a seeded record order.

    part separates independent draws from one seed, such as a train file
    and a test file.
    """
    n = per_class * len(SHAPES)
    order = np.random.default_rng(np.random.SeedSequence([seed, part])).permutation(n)
    labels = (order % len(SHAPES)).astype(np.uint8)
    cover = np.empty((n, size, size))
    for i, label in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence([seed, part, i]))
        cover[i] = render(int(label), size, rng)
    return cover, labels


def to_bytes(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def colourise(cover: np.ndarray) -> np.ndarray:
    """(n, h, w) coverage -> (n, h, w, 3): each channel is the coverage
    times a different spatial ramp, so pixel streams are not collinear."""
    _, h, w = cover.shape
    y = (np.arange(h) + 0.5)[:, None] / h
    x = (np.arange(w) + 0.5)[None, :] / w
    ramps = [0.35 + 0.65 * x, 0.35 + 0.65 * y, 1.0 - 0.5 * (x + y)]
    ramps = np.stack([np.broadcast_to(r, (h, w)) for r in ramps], axis=-1)
    return cover[..., None] * ramps[None]


def write_idx_pair(images_path, labels_path, pixels: np.ndarray, labels: np.ndarray):
    """Big-endian IDX3 images (n, rows, cols) uint8 and IDX1 labels."""
    n, rows, cols = pixels.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_cifar_batch(path, pixels: np.ndarray, labels: np.ndarray):
    """CIFAR-10 binary batch: per record one label byte, then the 32x32
    red, green and blue planes."""
    n = pixels.shape[0]
    records = np.empty((n, 3073), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = np.ascontiguousarray(pixels.transpose(0, 3, 1, 2)).reshape(n, 3072)
    with open(path, "wb") as fh:
        fh.write(records.tobytes())
