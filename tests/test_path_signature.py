import numpy as np
import pytest

from sigclass.path_signature import (
    FOLD_BYTES,
    SigFeatures,
    Stream,
    StreamConvention,
    _exp_increment_levels,
    image_to_stream,
    log_signature,
    log_signature_many,
    signature,
    signature_many,
    signature_oracle,
    signature_tensor,
)
from sigclass.tensor_algebra import tensor_exp, tensor_from_level1, tensor_product


def random_stream(rng, n=None, d=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(1, 4))
    return Stream(rng.normal(size=(n, d)))


# ---------------------------------------------------------------------------
# image -> stream
# ---------------------------------------------------------------------------

IMG = np.array([[0.1, 0.2], [0.3, 0.4]])[:, :, None]


def test_pixels_as_steps():
    s = image_to_stream(IMG, StreamConvention("pixels", basepoint=False))
    assert s.dim == 1
    assert np.allclose(s.points.ravel(), [0.1, 0.2, 0.3, 0.4])


def test_rows_as_steps():
    s = image_to_stream(IMG, StreamConvention("rows", basepoint=False))
    assert s.dim == 2
    assert np.allclose(s.points, [[0.1, 0.2], [0.3, 0.4]])


def test_basepoint_prepends_zero():
    s = image_to_stream(IMG, StreamConvention("pixels", basepoint=True))
    assert s.length == 5
    assert np.allclose(s.points[0], 0.0)


def test_stream_shape_matches_builder():
    rng = np.random.default_rng(0)
    for channels in (1, 3):
        batch = rng.random((3, 4, 5, channels))
        for mode in ("pixels", "rows"):
            for basepoint in (True, False):
                conv = StreamConvention(mode, basepoint)
                points = conv.points(batch)
                # evaluate() sizes its blocks from stream_shape
                assert points.shape == (3, *conv.stream_shape(4, 5, channels))
                single = np.stack([image_to_stream(img, conv).points for img in batch])
                assert points.dtype == single.dtype
                assert points.tobytes() == single.tobytes()


def test_empty_image_rejected():
    with pytest.raises(ValueError):
        image_to_stream(np.zeros((0, 2, 1)), StreamConvention())


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        StreamConvention("columns", True)


# ---------------------------------------------------------------------------
# signatures: worked examples
# ---------------------------------------------------------------------------


def test_two_point_closed_form():
    a, b = np.array([0.2, -0.1]), np.array([1.0, 0.5])
    sig = signature(Stream(np.stack([a, b])), 2)
    inc = b - a
    assert np.allclose(sig.values[:2], inc)
    assert np.allclose(sig.values[2:], np.outer(inc, inc).ravel() / 2.0)


def test_l_shaped_stream_example():
    s = Stream(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(signature(s, 2).values, [1, 1, 0.5, 1, 0, 0.5])
    assert np.allclose(log_signature(s, 2).values, [1, 1, 0, 0.5, -0.5, 0])


def test_collinear_midpoint_insertion_is_noop():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 3))
    mid = 0.5 * (pts[1] + pts[2])
    with_mid = np.insert(pts, 2, mid, axis=0)
    a = signature(Stream(pts), 3).values
    b = signature(Stream(with_mid), 3).values
    assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_two_point_log_signature_level2_zero():
    sig = log_signature(Stream(np.array([[0.0, 1.0], [2.0, 2.0]])), 2)
    assert np.allclose(sig.values[:2], [2.0, 1.0])
    assert np.allclose(sig.values[2:], 0.0, atol=1e-15)


def test_order_one_log_equals_signature():
    rng = np.random.default_rng(5)
    s = random_stream(rng, n=5, d=3)
    assert np.allclose(log_signature(s, 1).values, signature(s, 1).values, atol=0)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_oracle_two_point_matches_closed_form():
    a, b = np.array([0.0, 0.0]), np.array([0.7, -0.4])
    vals = signature_oracle(Stream(np.stack([a, b])), 3).values
    expected = signature(Stream(np.stack([a, b])), 3).values
    assert np.abs(vals - expected).max() < 1e-10


def test_oracle_matches_chen_on_random_stream():
    rng = np.random.default_rng(8)
    s = random_stream(rng, n=5, d=2)
    chen = signature(s, 3).values
    quad = signature_oracle(s, 3).values
    assert np.abs(chen - quad).max() / max(np.abs(quad).max(), 1e-30) < 1e-8


def test_oracle_reversed_stream_negates_level1():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(4, 2))
    fwd = signature_oracle(Stream(pts), 1).values
    bwd = signature_oracle(Stream(pts[::-1]), 1).values
    assert np.allclose(fwd, -bwd, atol=1e-10)


def test_chen_consistency_random_suite():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        s = random_stream(rng, n=n, d=d)
        chen = signature(s, order).values
        quad = signature_oracle(s, order).values
        assert np.abs(chen - quad).max() / max(np.abs(quad).max(), 1e-30) < 1e-8


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_translation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        s = random_stream(rng)
        shift = rng.normal(size=s.dim)
        a = signature(s, 3).values
        b = signature(Stream(s.points + shift), 3).values
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_segment_split_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        pts = rng.normal(size=(5, 2))
        seg = int(rng.integers(0, 4))
        ratio = rng.uniform(0.1, 0.9)
        split = pts[seg] + ratio * (pts[seg + 1] - pts[seg])
        with_split = np.insert(pts, seg + 1, split, axis=0)
        a = signature(Stream(pts), 3).values
        b = signature(Stream(with_split), 3).values
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_duplicate_point_invariance():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(4, 2))
    dup = np.insert(pts, 2, pts[2], axis=0)
    a = signature(Stream(pts), 4).values
    b = signature(Stream(dup), 4).values
    assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_concatenation_identity():
    rng = np.random.default_rng(15)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        p1 = rng.normal(size=(4, d))
        p2 = np.vstack([p1[-1], rng.normal(size=(3, d))])
        joined = signature(Stream(np.vstack([p1, p2[1:]])), 3)
        t1 = signature_tensor(Stream(p1), 3)
        t2 = signature_tensor(Stream(p2), 3)
        prod = tensor_product(t1, t2).flatten()
        assert np.abs(joined.values - prod).max() < 1e-12 * max(np.abs(prod).max(), 1.0)


def test_batch_matches_single_bitwise():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(6, 5, 3))
    batch = signature_many(pts, 3)
    for i in range(6):
        single = signature(Stream(pts[i]), 3).values
        assert np.array_equal(batch[i], single)
    lbatch = log_signature_many(pts, 3)
    for i in range(6):
        single = log_signature(Stream(pts[i]), 3).values
        assert np.array_equal(lbatch[i], single)


def test_fold_chunk_does_not_change_bits():
    # MNIST-row width at order 3: the byte-budget chunk is smaller than the batch
    rng = np.random.default_rng(18)
    pts = rng.random((5, 4, 28))
    assert FOLD_BYTES // (8 * 28**3) < pts.shape[0]
    for many in (signature_many, log_signature_many):
        derived = many(pts, 3)
        assert np.array_equal(many(pts, 3, chunk=1), derived)
        assert np.array_equal(many(pts, 3, chunk=pts.shape[0]), derived)


def test_increment_exp_matches_tensor_exp_bitwise():
    rng = np.random.default_rng(17)
    v = rng.normal(size=3)
    batch_levels = _exp_increment_levels(v[None, :], 4)
    reference = tensor_exp(tensor_from_level1(v, 4))
    for k in range(1, 5):
        assert np.array_equal(batch_levels[k][0], reference.level(k))


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def test_short_stream_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        Stream(np.zeros((1, 2)))


def test_bad_order_rejected():
    s = Stream(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="order"):
        signature(s, 0)


def test_sig_features_length_validated():
    with pytest.raises(ValueError, match="length"):
        SigFeatures(dim=2, order=2, values=np.zeros(5))
