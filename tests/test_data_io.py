import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigclass.data_io as data_io
from sigclass.data_io import (
    IMAGE_BLOCK,
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
    read_cifar10_labels,
    read_mnist_labels,
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
        # addressable as uint8 but not once scaled to float64
        ((0, 0x7FFFFFFF, 0x7FFFFFFF), "bad image size 2147483647 x 2147483647, too large"),
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
# label readers and records=: the chosen records of the full load
# ---------------------------------------------------------------------------


def assert_same_images(got, expected):
    assert [(im.label, im.source_id) for im in got] == [
        (im.label, im.source_id) for im in expected
    ]
    for a, b in zip(got, expected):
        assert a.pixels.shape == b.pixels.shape and a.pixels.tobytes() == b.pixels.tobytes()
        assert not a.pixels.flags.writeable


def random_cifar_batch(path, rng, n):
    records = rng.integers(0, 256, (n, 3073), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, n)
    path.write_bytes(records.tobytes())
    return path


RECORD_ORDERS = [[], [0], [4, 1, 4, 0], [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]]


@pytest.mark.parametrize("records", RECORD_ORDERS)
def test_mnist_records_are_the_full_load_records(tmp_path, records):
    rng = np.random.default_rng(1)
    img, lbl = write_idx_pair(tmp_path, rng.integers(0, 256, (10, 5, 7), dtype=np.uint8),
                              rng.integers(0, 10, 10).tolist())
    full = load_mnist_idx(img, lbl)
    assert [im.label for im in full] == [str(z) for z in read_mnist_labels(img, lbl)]
    assert_same_images(load_mnist_idx(img, lbl, records=records), [full[i] for i in records])
    assert_same_images(load_mnist_idx(img, lbl, records=np.array(records, dtype=int)),
                       [full[i] for i in records])


@pytest.mark.parametrize("records", RECORD_ORDERS + [[12, 3, 9, 10]])
def test_cifar_records_number_every_batch_in_order(tmp_path, records):
    rng = np.random.default_rng(2)
    batches = [random_cifar_batch(tmp_path / "a.bin", rng, 9),
               random_cifar_batch(tmp_path / "b.bin", rng, 4)]
    full = load_cifar10(batches)
    assert [im.source_id for im in full[8:10]] == ["cifar10:a.bin:8", "cifar10:b.bin:0"]
    assert [im.label for im in full] == [str(z) for z in read_cifar10_labels(batches)]
    assert_same_images(load_cifar10(batches, records=records), [full[i] for i in records])
    assert np.array_equal(read_cifar10_labels(batches[0]), read_cifar10_labels([batches[0]]))


def test_records_outside_the_file_are_rejected(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2])
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_record(3) * 2)
    for load, n in ((lambda r: load_mnist_idx(img, lbl, records=r), 3),
                    (lambda r: load_cifar10(path, records=r), 2)):
        for bad in (n, -1):
            with pytest.raises(ValueError, match=f"record {bad} outside {n} records"):
                load([0, bad])
        with pytest.raises(ValueError, match="record must be an integer, got 0.0"):
            load([0.0])


@pytest.mark.parametrize(
    "records, bad",
    [([True, False], True), ([0, np.True_], np.True_), ([1.0], 1.0),
     (np.array([0.0, 1.0]), np.float64(0.0))],
)
def test_record_numbers_must_be_integers(tmp_path, records, bad):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2])
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_record(3) * 2)
    for load in (lambda: load_mnist_idx(img, lbl, records=records),
                 lambda: load_cifar10(path, records=records)):
        with pytest.raises(ValueError, match=re.escape(f"record must be an integer, got {bad!r}")):
            load()


def test_whole_file_checks_run_before_chosen_records(tmp_path):
    """A fault past the chosen records still fails the load, with the
    same ParseError as the full load and the label reader."""
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 4, 4), dtype=np.uint8), [0, 1, 2])
    img.write_bytes(img.read_bytes()[:-5])
    for load in (lambda: load_mnist_idx(img, lbl, records=[0]),
                 lambda: load_mnist_idx(img, lbl, records=[]),
                 lambda: read_mnist_labels(img, lbl)):
        with pytest.raises(ParseError, match="missing 5"):
            load()
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    good.write_bytes(cifar_record(3))
    bad.write_bytes(cifar_record(3) + bytes([12]) + bytes(3072))
    for load in (lambda: load_cifar10([good, bad], records=[0]),
                 lambda: read_cifar10_labels([good, bad])):
        with pytest.raises(ParseError, match="record 1 has label 12"):
            load()


# ---------------------------------------------------------------------------
# LabeledImage.stack: the constructor's checks, once per stack
# ---------------------------------------------------------------------------


def test_labeled_image_stack_matches_the_constructor():
    px = np.random.default_rng(3).random((3, 4, 5, 3))
    images = LabeledImage.stack(px, "abc", ["x", "y", "z"])
    assert_same_images(images, [LabeledImage(p, z, sid) for p, z, sid in zip(px, "abc", "xyz")])
    assert images[0].pixels.base is px and not px.flags.writeable  # taken over
    view = np.full((2, 3, 3, 1), 0.5)[::1]
    copied = LabeledImage.stack(view, "ab", "xy")
    view[0] = 0.0
    assert copied[0].pixels.min() == 0.5 and not copied[0].pixels.flags.writeable
    assert LabeledImage.stack(np.zeros((0, 2, 2, 1)), [], []) == []


@pytest.mark.parametrize("pixels, labels, match", [
    (np.full((1, 2, 2, 1), 1.5), "a", "within"),
    (np.full((1, 2, 2, 1), np.nan), "a", "within"),
    (np.zeros((1, 2, 2, 2)), "a", "C in"),
    (np.zeros((2, 2, 1)), "ab", "C in"),
    (np.zeros((1, 0, 2, 1)), "a", "C in"),
    (np.zeros((2, 2, 2, 1)), "a", "as many labels"),
])
def test_labeled_image_stack_validation(pixels, labels, match):
    with pytest.raises(ValueError, match=match):
        LabeledImage.stack(pixels, labels, ["s"] * len(labels))


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


def test_empty_image_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        LabeledImage(np.zeros((0, 4)), "a")


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
    per_class = IMAGE_BLOCK + 9  # blocks split every class
    full = gen_four_shapes(per_class, size=size, jitter=jitter, seed=size)
    # Record r is sample r % per_class of class r // per_class.
    assert [(im.label, im.source_id) for im in full] == [
        (label, f"shapes:{label}:{i}") for label in SHAPE_LABELS for i in range(per_class)
    ]
    for r, im in enumerate(full):
        ci, i = divmod(r, per_class)
        rng = np.random.default_rng(np.random.SeedSequence([size, ci, i]))
        expected = _reference_render(SHAPE_LABELS[ci], size, jitter, rng)
        assert im.pixels[:, :, 0].tobytes() == expected.tobytes()

    # Classes interleaved, a run longer than a block, repeats, any order.
    rng = np.random.default_rng(0)
    records = [int(r) for r in rng.integers(0, 4 * per_class, 30)]
    records += [2 * per_class + i for i in range(per_class - 1, -1, -1)] + [3, 3]
    subset = gen_four_shapes(per_class, size=size, jitter=jitter, seed=size,
                             records=np.array(records))
    assert len(subset) == len(records)
    for r, im in zip(records, subset):
        ref = full[r]
        assert (im.label, im.source_id) == (ref.label, ref.source_id)
        assert im.pixels.tobytes() == ref.pixels.tobytes()


def band(low, high):
    return st.tuples(st.floats(low, high), st.floats(low, high)).map(sorted).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(8, 33),
    center_frac=st.one_of(st.just(0), st.floats(0.0, 0.5)),
    scale_range=st.one_of(band(0.05, 2.0), st.floats(0.05, 2.0).map(lambda v: (v, v))),
    rotation=st.one_of(st.none(), band(-1.0, 1.0), band(-100.0, 100.0),
                       st.floats(-7.0, 7.0).map(lambda v: (v, v))),
    seed=st.one_of(st.integers(0, 2**63), st.integers(2**64 - 2**16, 2**160)),
    per_class=st.integers(1, 40),
    records=st.one_of(st.none(), st.lists(st.integers(0, 10**6), max_size=40)),
)
def test_render_is_bytes_equal_to_the_one_at_a_time_reference(
    size, center_frac, scale_range, rotation, seed, per_class, records
):
    jitter = ShapeJitter(center_frac=center_frac, scale_range=scale_range, rotation=rotation)
    if records is not None:
        records = [r % (4 * per_class) for r in records]
    images = gen_four_shapes(per_class, size=size, jitter=jitter, seed=seed, records=records)
    numbers = range(4 * per_class) if records is None else records
    assert len(images) == len(numbers)
    for r, im in zip(numbers, images):
        ci, i = divmod(r, per_class)
        rng = np.random.default_rng(np.random.SeedSequence([seed, ci, i]))
        expected = _reference_render(SHAPE_LABELS[ci], size, jitter, rng)
        assert (im.label, im.source_id) == (SHAPE_LABELS[ci], f"shapes:{SHAPE_LABELS[ci]}:{i}")
        assert im.pixels.shape == (size, size, 1)
        assert im.pixels[:, :, 0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**96 + 7])
def test_bulk_draws_are_each_records_own_default_rng_stream(seed, m):
    # Every word-count boundary: the seed is 1 to 4 uint32 words and a
    # sample number 1 or 2, so the entropy is 3 to 6 words; 5 or more take
    # SeedSequence's further mixing loop.  Classes interleave within a call.
    samples = [0, 1, 299, 2**31, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**63 - 1]
    classes = [ci for ci in range(4) for _ in samples]
    samples = [i for _ in range(4) for i in samples]
    order = np.random.default_rng(m).permutation(len(samples))
    classes, samples = np.array(classes)[order], np.array(samples)[order]
    draws = data_io._shape_draws(seed, classes, samples, m)
    assert draws.shape == (len(samples), m)
    for ci, i, row in zip(classes.tolist(), samples.tolist(), draws):
        expected = np.random.default_rng(np.random.SeedSequence([seed, ci, i])).random(m)
        assert row.tobytes() == expected.tobytes(), (seed, ci, i)


def test_records_past_two_to_the_32_render_their_own_streams():
    per_class = 2**33  # sample numbers of one and of two uint32 words, in one block
    records = [2**32 + 5, 2**32 - 1, 2**32, 3, 3 * per_class + 2**32 + 7, 2 * per_class + 1]
    jitter = ShapeJitter(center_frac=0.2, rotation=(-1.0, 3.0))
    images = gen_four_shapes(per_class, size=9, jitter=jitter, seed=2**64 + 3, records=records)
    for r, im in zip(records, images, strict=True):
        ci, i = divmod(r, per_class)
        rng = np.random.default_rng(np.random.SeedSequence([2**64 + 3, ci, i]))
        expected = _reference_render(SHAPE_LABELS[ci], 9, jitter, rng)
        assert im.source_id == f"shapes:{SHAPE_LABELS[ci]}:{i}"
        assert im.pixels[:, :, 0].tobytes() == expected.tobytes()


def test_render_builds_no_generator_or_seed_sequence(monkeypatch):
    jitter = ShapeJitter(center_frac=0.2, rotation=(-1.0, 3.0))
    calls = [dict(per_class=IMAGE_BLOCK + 3), dict(per_class=20, records=[70, 5, 6, 30, 0, 71])]
    expected = [[im.pixels.tobytes() for im in gen_four_shapes(size=9, jitter=jitter, seed=4, **kw)]
                for kw in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("gen_four_shapes built an RNG")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    got = [[im.pixels.tobytes() for im in gen_four_shapes(size=9, jitter=jitter, seed=4, **kw)]
           for kw in calls]
    assert got == expected


@pytest.mark.parametrize("block", [1, 7])
def test_output_bytes_do_not_depend_on_the_image_block(monkeypatch, block):
    jitter = ShapeJitter(center_frac=0.2, rotation=(-1.0, 3.0))
    records = [5, 6, 7, 8, 9, 10, 30, 31, 0, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 1]
    stack = np.random.default_rng(block).random((2, 9, 7, 5, 3))

    def outputs():
        images = (gen_four_shapes(20, size=13, jitter=jitter, seed=4, records=records)
                  + gen_four_shapes(IMAGE_BLOCK + 3, size=9, jitter=jitter, seed=1))
        rendered = [(im.label, im.source_id, im.pixels.tobytes()) for im in images]
        return images, rendered, resize(stack, 4, 6).tobytes()

    expected = outputs()[1:]
    monkeypatch.setattr(data_io, "IMAGE_BLOCK", block)
    images, *got = outputs()
    assert tuple(got) == expected
    for im in images:
        assert not im.pixels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            im.pixels[0, 0, 0] = 0.5


@pytest.mark.parametrize("fields, name", [
    ({"center_frac": float("nan")}, "center_frac"),
    ({"center_frac": -0.1}, "center_frac"),
    ({"center_frac": True}, "center_frac"),
    ({"scale_range": (0.9,)}, "scale_range"),
    ({"scale_range": (-0.8, -0.6)}, "scale_range"),
    ({"scale_range": (0.0, 0.6)}, "scale_range"),
    ({"scale_range": (0.9, 0.6)}, "scale_range"),
    ({"scale_range": (0.6, float("inf"))}, "scale_range"),
    ({"scale_range": 0.8}, "scale_range"),
    ({"rotation": (0.12,)}, "rotation"),
    ({"rotation": (0.2, 0.1)}, "rotation"),
    ({"rotation": (float("nan"), 0.1)}, "rotation"),
    ({"rotation": ("0", "1")}, "rotation"),
    ({"rotation": (-1e308, 1e308)}, "rotation"),
    ({"center_frac": 1e308}, "center_frac"),
])
def test_shape_jitter_names_bad_fields(fields, name):
    with pytest.raises(ValueError, match=f"ShapeJitter {name} must be"):
        ShapeJitter(**fields)


def test_shape_jitter_accepts_degenerate_bands():
    ShapeJitter(center_frac=0, scale_range=(0.7, 0.7), rotation=(-0.1, -0.1))
    ShapeJitter(scale_range=[0.5, 1.5], rotation=None)


def test_shapes_subset_keys_validated():
    assert gen_four_shapes(2, records=[]) == []
    for bad in (8, -1, 4 * 2**62):
        with pytest.raises(ValueError, match=f"^record {bad} outside 8 records$"):
            gen_four_shapes(2, records=[0, bad])
    for bad in (True, np.True_, 1.0, np.float64(0.0)):
        with pytest.raises(ValueError, match=re.escape(f"record must be an integer, got {bad!r}")):
            gen_four_shapes(2, records=[0, bad])
    with pytest.raises(ValueError, match="per_class"):
        gen_four_shapes(0, records=[])
    for seed in (True, 2.5, -1):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            gen_four_shapes(1, seed=seed)


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


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    src=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    dst=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    channels=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_resize_is_bytes_equal_to_per_image_resize(batch, src, dst, channels, seed):
    stack = np.random.default_rng(seed).random((batch, *src, channels))
    out = resize(stack, *dst)
    assert out.shape == (batch, *dst, channels)
    for image, resized in zip(stack, out):
        assert resized.tobytes() == resize(image, *dst).tobytes()
    # any number of leading axes
    assert resize(stack[None], *dst).tobytes() == out.tobytes()


@pytest.mark.parametrize("height, width, name", [
    (0, 4, "height"), (4, -2, "width"), (2.5, 4, "height"), (4, True, "width"), (4, "4", "width"),
])
def test_resize_target_must_be_an_integer_of_at_least_one(height, width, name):
    with pytest.raises(ValueError, match=f"resize {name} must be an integer >= 1"):
        resize(np.zeros((3, 3, 1)), height, width)
    assert resize(np.zeros((3, 3, 1)), np.int64(2), 1).shape == (2, 1, 1)


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
