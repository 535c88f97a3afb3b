import struct

import numpy as np
import pytest

from sigclass.data_io import (
    RENDER_BLOCK,
    AugmentSpec,
    LabeledImage,
    ParseError,
    SHAPE_LABELS,
    ShapeJitter,
    augment,
    ensure_channels,
    gen_four_shapes,
    load_cifar10,
    load_image_dir,
    load_mnist_idx,
    read_pnm,
    resize,
    write_pnm,
)


# ---------------------------------------------------------------------------
# MNIST IDX
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801):
    """pixels: (n, r, c) uint8, labels: (n,) uint8."""
    n, r, c = pixels.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, r, c))
        fh.write(pixels.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(bytes(labels))
    return img_path, lbl_path


def test_mnist_fixture_roundtrip(tmp_path):
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    img, lbl = write_idx_pair(tmp_path, pixels, [7, 1])
    images = load_mnist_idx(img, lbl)
    assert len(images) == 2
    assert images[0].label == "7" and images[1].label == "1"
    assert images[0].pixels.shape == (3, 4, 1)
    assert np.allclose(images[0].pixels[:, :, 0], pixels[0] / 255.0)


def test_mnist_bad_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, pixels, [0], image_magic=0x804)
    with pytest.raises(ParseError, match="bad image magic"):
        load_mnist_idx(img, lbl)


def test_mnist_truncated_payload_names_missing_bytes(tmp_path):
    pixels = np.zeros((2, 4, 4), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, pixels, [0, 1])
    data = img.read_bytes()
    img.write_bytes(data[:-5])
    with pytest.raises(ParseError, match="missing 5"):
        load_mnist_idx(img, lbl)


def test_mnist_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, _ = write_idx_pair(tmp_path, pixels, [0, 1])
    lbl = tmp_path / "short-labels"
    with open(lbl, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, 1))
        fh.write(bytes([0]))
    with pytest.raises(ParseError, match="count mismatch"):
        load_mnist_idx(img, lbl)


@pytest.mark.parametrize(
    "dims, match",
    [
        ((0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF), "truncated pixel payload"),
        ((1, 0, 28), "bad image size 0 x 28"),
        ((1, 28, 0), "bad image size 28 x 0"),
        ((0, 0xFFFFFFFF, 0xFFFFFFFF), "bad image size 4294967295 x 4294967295, too large"),
    ],
)
def test_mnist_lying_header_rejected(tmp_path, dims, match):
    _, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    img = tmp_path / "lying-idx3-ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, *dims) + bytes(64))
    with pytest.raises(ParseError, match=match):
        load_mnist_idx(img, lbl)


# ---------------------------------------------------------------------------
# CIFAR-10
# ---------------------------------------------------------------------------


def cifar_record(label, red=10, green=20, blue=30):
    return bytes([label]) + bytes([red] * 1024 + [green] * 1024 + [blue] * 1024)


def test_cifar_roundtrip(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_record(3) + cifar_record(9, red=255))
    images = load_cifar10([path])
    assert len(images) == 2
    assert images[0].label == "3" and images[1].label == "9"
    assert images[0].pixels.shape == (32, 32, 3)
    assert np.allclose(images[0].pixels[0, 0], [10 / 255, 20 / 255, 30 / 255])
    assert np.allclose(images[1].pixels[..., 0], 1.0)


def test_cifar_bad_size(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(ParseError, match="multiple of 3073"):
        load_cifar10([path])


def test_cifar_bad_label(tmp_path):
    path = tmp_path / "bad_label.bin"
    path.write_bytes(cifar_record(3) + bytes([255]) + bytes(3072))
    with pytest.raises(ParseError, match="labels must be 0..9"):
        load_cifar10([path])


# ---------------------------------------------------------------------------
# PGM/PPM directory loading
# ---------------------------------------------------------------------------


def test_image_dir_mixed_formats(tmp_path):
    rng = np.random.default_rng(0)
    for label in ("cat", "dog"):
        d = tmp_path / label
        d.mkdir()
        for i in range(3):
            write_pnm(d / f"{i}.ppm", rng.random((4, 5, 3)))
    images = load_image_dir(tmp_path)
    assert len(images) == 6
    assert [im.label for im in images] == ["cat"] * 3 + ["dog"] * 3


def test_image_dir_skips_bad_files_and_continues(tmp_path):
    d = tmp_path / "a"
    d.mkdir()
    write_pnm(d / "good.pgm", np.full((2, 2, 1), 0.5))
    (d / "bad.png").write_bytes(b"\x89PNG\r\n")
    with pytest.warns(UserWarning, match="unsupported format magic"):
        images = load_image_dir(tmp_path)
    assert len(images) == 1


def test_pnm_maxval_rescaling(tmp_path):
    path = tmp_path / "half.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 50]))
    arr = read_pnm(path)
    assert np.allclose(arr[:, :, 0], [[1.0, 0.5]])


def test_pnm_comment_and_truncation(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert read_pnm(path).shape == (2, 2, 1)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(ParseError, match="truncated"):
        read_pnm(path)
    path.write_bytes(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))
    with pytest.raises(ParseError, match="bad width"):
        read_pnm(path)
    path.write_bytes(b"P5\n0 3\n255\n")
    with pytest.raises(ParseError, match="bad image size 0 x 3"):
        read_pnm(path)


def test_pnm_roundtrip_quantization(tmp_path):
    rng = np.random.default_rng(1)
    px = rng.random((5, 4, 3))
    path = tmp_path / "rt.ppm"
    write_pnm(path, px)
    back = read_pnm(path)
    assert np.abs(back - px).max() <= 1.0 / 255.0 + 1e-12


def test_grayscale_written_as_p5(tmp_path):
    path = tmp_path / "g.pgm"
    write_pnm(path, np.full((2, 2, 1), 0.25))
    assert path.read_bytes().startswith(b"P5")
    assert read_pnm(path).shape == (2, 2, 1)


# ---------------------------------------------------------------------------
# four-shapes generator
# ---------------------------------------------------------------------------


def test_shapes_deterministic_per_seed():
    a = gen_four_shapes(2, size=16, seed=5)
    b = gen_four_shapes(2, size=16, seed=5)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert np.array_equal(x.pixels, y.pixels)
    c = gen_four_shapes(2, size=16, seed=6)
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_shapes_counts_and_labels():
    images = gen_four_shapes(10, size=16, seed=0)
    assert len(images) == 40
    assert {im.label for im in images} == set(SHAPE_LABELS)


def test_centered_circle_rotational_symmetry():
    jitter = ShapeJitter(center_frac=0.0, scale_range=(0.75, 0.75), rotation=None)
    images = gen_four_shapes(1, size=16, jitter=jitter, seed=0)
    circle = next(im for im in images if im.label == "circle")
    mass = circle.pixels[:, :, 0]
    rotated = np.rot90(mass)
    assert np.abs(rotated - mass).sum() / mass.sum() < 0.01


def test_minimum_size_enforced():
    with pytest.raises(ValueError, match="size"):
        gen_four_shapes(1, size=4)


def test_shape_pixels_in_unit_range():
    for im in gen_four_shapes(3, size=16, seed=2):
        assert im.pixels.min() >= 0.0 and im.pixels.max() <= 1.0


def _reference_render(label, size, jitter, rng):
    """One image at a time over the full meshgrid: the renderer's reference."""
    coords = (np.arange(size * 2) + 0.5) / 2
    py, px = np.meshgrid(coords, coords, indexing="ij")
    cf = jitter.center_frac
    cx, cy = size / 2.0 + rng.uniform(-cf, cf, size=2) * size
    radius = rng.uniform(*jitter.scale_range) * size / 2.0
    if label == "circle":
        inside = (px - cx) ** 2 + (py - cy) ** 2 <= radius**2
    else:
        theta = 0.0 if jitter.rotation is None else rng.uniform(*jitter.rotation)
        k, offset = {"square": (4, np.pi / 4.0), "triangle": (3, np.pi / 2.0),
                     "star": (10, np.pi / 2.0)}[label]
        angles = theta + offset + np.arange(k) * (2.0 * np.pi / k)
        radii = np.where(np.arange(10) % 2 == 0, radius, 0.5 * radius) if k == 10 else radius
        verts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
        inside = np.zeros(px.shape, dtype=bool)
        x1, y1 = verts[-1]
        for x2, y2 in verts:
            if y2 != y1:
                x_at = (x2 - x1) * (py - y1) / (y2 - y1) + x1
                inside ^= ((y1 > py) != (y2 > py)) & (px < x_at)
            x1, y1 = x2, y2
    return inside.reshape(size, 2, size, 2).mean(axis=(1, 3))


@pytest.mark.parametrize("size", [8, 16, 32])
@pytest.mark.parametrize("rotation", [None, (0.0, 2.0 * np.pi)])
def test_shapes_subset_render_bit_exact(size, rotation):
    jitter = ShapeJitter(rotation=rotation)
    per_class = RENDER_BLOCK + 9  # blocks split every class
    full = gen_four_shapes(per_class, size=size, jitter=jitter, seed=size)
    by_key = {(SHAPE_LABELS.index(im.label), int(im.source_id.rsplit(":", 1)[1])): im
              for im in full}
    assert len(by_key) == 4 * per_class
    for (ci, i), im in by_key.items():
        rng = np.random.default_rng(np.random.SeedSequence([size, ci, i]))
        expected = _reference_render(SHAPE_LABELS[ci], size, jitter, rng)
        assert im.pixels[:, :, 0].tobytes() == expected.tobytes()

    # Classes interleaved, a run longer than a block, repeats, any order.
    rng = np.random.default_rng(0)
    keys = [(int(ci), int(i)) for ci, i in zip(rng.integers(0, 4, 30),
                                               rng.integers(0, per_class, 30))]
    keys += [(2, i) for i in range(per_class - 1, -1, -1)] + [(0, 3), (0, 3)]
    subset = gen_four_shapes(per_class, size=size, jitter=jitter, seed=size, samples=keys)
    assert len(subset) == len(keys)
    for key, im in zip(keys, subset):
        ref = by_key[key]
        assert (im.label, im.source_id) == (ref.label, ref.source_id)
        assert im.pixels.tobytes() == ref.pixels.tobytes()


def test_shapes_subset_keys_validated():
    assert gen_four_shapes(2, samples=[]) == []
    for key in [(4, 0), (-1, 0), (0, 2), (0, -1)]:
        with pytest.raises(ValueError, match="sample key"):
            gen_four_shapes(2, samples=[key])
    with pytest.raises(ValueError, match="per_class"):
        gen_four_shapes(0, samples=[])


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------


def test_resize_identity():
    px = np.random.default_rng(0).random((4, 4, 1))
    assert np.array_equal(resize(px, 4, 4), px)


def test_resize_constant_image():
    px = np.full((2, 2, 1), 0.3)
    out = resize(px, 7, 5)
    assert out.shape == (7, 5, 1)
    assert np.allclose(out, 0.3)


def test_resize_checkerboard_average():
    board = np.indices((4, 4)).sum(axis=0) % 2
    out = resize(board[:, :, None].astype(float), 2, 2)
    assert np.allclose(out, 0.5)


def test_ensure_channels():
    gray = np.full((2, 2, 1), 0.4)
    rgb = ensure_channels(gray, 3)
    assert rgb.shape == (2, 2, 3)
    assert np.allclose(rgb, 0.4)
    assert ensure_channels(gray, None).shape == (2, 2, 1)
    with pytest.raises(ValueError, match="cannot convert"):
        ensure_channels(np.zeros((2, 2, 3)), 1)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_identity_augmentation_copies():
    px = np.random.default_rng(0).random((4, 4, 1))
    out = augment(px, AugmentSpec(copies=3))
    assert len(out) == 3
    for copy in out:
        assert np.allclose(copy, px)


def test_salt_pepper_full_coverage():
    px = np.full((8, 8, 1), 0.5)
    out = augment(px, AugmentSpec(noise="salt_pepper", noise_level=1.0, copies=1))[0]
    assert np.all((out == 0.0) | (out == 1.0))


def test_augment_seeded_reproducibility():
    px = np.random.default_rng(1).random((4, 4, 3))
    spec = AugmentSpec(contrast=(0.8, 1.2), brightness=(-0.1, 0.1),
                       noise="speckle", noise_level=0.05, copies=4, seed=3)
    a = augment(px, spec)
    b = augment(px, spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = augment(px, spec, seed=99)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_augment_output_clamped():
    px = np.random.default_rng(2).random((6, 6, 1))
    spec = AugmentSpec(contrast=(3.0, 3.0), brightness=(0.5, 0.5),
                       noise="speckle", noise_level=0.5, copies=2, seed=0)
    for copy in augment(px, spec):
        assert copy.min() >= 0.0 and copy.max() <= 1.0


def test_augment_spec_validation():
    with pytest.raises(ValueError, match="noise"):
        AugmentSpec(noise="gaussian")
    with pytest.raises(ValueError, match="fraction"):
        AugmentSpec(noise="salt_pepper", noise_level=1.5)
    with pytest.raises(ValueError, match="copies"):
        AugmentSpec(copies=0)


def test_labeled_image_validation():
    with pytest.raises(ValueError, match="within"):
        LabeledImage(np.full((2, 2, 1), 1.5), "x")
    with pytest.raises(ValueError, match="C in"):
        LabeledImage(np.zeros((2, 2, 2)), "x")
