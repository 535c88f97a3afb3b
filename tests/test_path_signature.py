import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigclass.path_signature as path_signature
import sigclass.tensor_algebra as ta
from sigclass.path_signature import (
    FOLD_BYTES,
    StreamConvention,
    log_signature_many,
    signature_many,
    signature_oracle,
)
from sigclass.tensor_algebra import exp_levels, log_levels, mul_levels


def random_stream(rng, n=None, d=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(1, 4))
    return rng.normal(size=(n, d))


def signature(points, order):
    """Flat signature of one (n, d) stream, through the batch fold."""
    return signature_many(points[None], order)[0]


def log_signature(points, order):
    return log_signature_many(points[None], order)[0]


# ---------------------------------------------------------------------------
# image -> stream
# ---------------------------------------------------------------------------

IMG = np.array([[0.1, 0.2], [0.3, 0.4]])[:, :, None]


def test_pixels_as_steps():
    pts = StreamConvention("pixels", basepoint=False).points(IMG[None])[0]
    assert pts.shape[1] == 1
    assert np.allclose(pts.ravel(), [0.1, 0.2, 0.3, 0.4])


def test_rows_as_steps():
    pts = StreamConvention("rows", basepoint=False).points(IMG[None])[0]
    assert pts.shape[1] == 2
    assert np.allclose(pts, [[0.1, 0.2], [0.3, 0.4]])


def test_basepoint_prepends_zero():
    pts = StreamConvention("pixels", basepoint=True).points(IMG[None])[0]
    assert pts.shape[0] == 5
    assert np.allclose(pts[0], 0.0)


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
                # reference: scan each image row-major, then prepend the basepoint
                n, d = (4 * 5, channels) if mode == "pixels" else (4, 5 * channels)
                single = np.stack([img.reshape(n, d) for img in batch])
                if basepoint:
                    single = np.concatenate([np.zeros((3, 1, d)), single], axis=1)
                assert points.dtype == single.dtype
                assert points.tobytes() == single.tobytes()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        StreamConvention("columns", True)


# ---------------------------------------------------------------------------
# signatures: worked examples
# ---------------------------------------------------------------------------


def test_two_point_closed_form():
    a, b = np.array([0.2, -0.1]), np.array([1.0, 0.5])
    sig = signature(np.stack([a, b]), 2)
    inc = b - a
    assert np.allclose(sig[:2], inc)
    assert np.allclose(sig[2:], np.outer(inc, inc).ravel() / 2.0)


def test_l_shaped_stream_example():
    s = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(signature(s, 2), [1, 1, 0.5, 1, 0, 0.5])
    assert np.allclose(log_signature(s, 2), [1, 1, 0, 0.5, -0.5, 0])


def test_collinear_midpoint_insertion_is_noop():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 3))
    mid = 0.5 * (pts[1] + pts[2])
    with_mid = np.insert(pts, 2, mid, axis=0)
    a = signature(pts, 3)
    b = signature(with_mid, 3)
    assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_two_point_log_signature_level2_zero():
    sig = log_signature(np.array([[0.0, 1.0], [2.0, 2.0]]), 2)
    assert np.allclose(sig[:2], [2.0, 1.0])
    assert np.allclose(sig[2:], 0.0, atol=1e-15)


def test_order_one_log_equals_signature():
    rng = np.random.default_rng(5)
    s = random_stream(rng, n=5, d=3)
    assert np.allclose(log_signature(s, 1), signature(s, 1), atol=0)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_oracle_two_point_matches_closed_form():
    a, b = np.array([0.0, 0.0]), np.array([0.7, -0.4])
    vals = signature_oracle(np.stack([a, b]), 3)
    expected = signature(np.stack([a, b]), 3)
    assert np.abs(vals - expected).max() < 1e-10


def test_oracle_matches_chen_on_random_stream():
    rng = np.random.default_rng(8)
    s = random_stream(rng, n=5, d=2)
    chen = signature(s, 3)
    quad = signature_oracle(s, 3)
    assert np.abs(chen - quad).max() / max(np.abs(quad).max(), 1e-30) < 1e-8


def test_oracle_reversed_stream_negates_level1():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(4, 2))
    fwd = signature_oracle(pts, 1)
    bwd = signature_oracle(pts[::-1], 1)
    assert np.allclose(fwd, -bwd, atol=1e-10)


def test_chen_consistency_random_suite():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        s = random_stream(rng, n=n, d=d)
        chen = signature(s, order)
        quad = signature_oracle(s, order)
        assert np.abs(chen - quad).max() / max(np.abs(quad).max(), 1e-30) < 1e-8


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_translation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        s = random_stream(rng)
        shift = rng.normal(size=s.shape[1])
        a = signature(s, 3)
        b = signature(s + shift, 3)
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_segment_split_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        pts = rng.normal(size=(5, 2))
        seg = int(rng.integers(0, 4))
        ratio = rng.uniform(0.1, 0.9)
        split = pts[seg] + ratio * (pts[seg + 1] - pts[seg])
        with_split = np.insert(pts, seg + 1, split, axis=0)
        a = signature(pts, 3)
        b = signature(with_split, 3)
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_duplicate_point_invariance():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(4, 2))
    dup = np.insert(pts, 2, pts[2], axis=0)
    a = signature(pts, 4)
    b = signature(dup, 4)
    assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_concatenation_identity(split_levels):
    rng = np.random.default_rng(15)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        p1 = rng.normal(size=(4, d))
        p2 = np.vstack([p1[-1], rng.normal(size=(3, d))])
        joined = signature(np.vstack([p1, p2[1:]]), 3)
        t1 = split_levels(signature(p1, 3), d, 3)
        t2 = split_levels(signature(p2, 3), d, 3)
        prod = np.concatenate(mul_levels(t1, t2)[1:])
        assert np.abs(joined - prod).max() < 1e-12 * max(np.abs(prod).max(), 1.0)


def test_batch_matches_single_bitwise():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(6, 5, 3))
    batch = signature_many(pts, 3)
    for i in range(6):
        single = signature_many(pts[i : i + 1], 3)[0]
        assert np.array_equal(batch[i], single)
    lbatch = log_signature_many(pts, 3)
    for i in range(6):
        single = log_signature_many(pts[i : i + 1], 3)[0]
        assert np.array_equal(lbatch[i], single)


def test_fold_chunk_does_not_change_bits(monkeypatch):
    # MNIST-row width at order 3: the byte-budget chunk is smaller than the batch
    rng = np.random.default_rng(18)
    pts = rng.random((5, 4, 28))
    top_level_bytes = 8 * 28**3
    assert FOLD_BYTES // top_level_bytes < pts.shape[0]
    fold, chunks = path_signature._fold_into, []
    monkeypatch.setattr(path_signature, "_fold_into",
                        lambda out, p, *args: chunks.append(p.shape[0]) or fold(out, p, *args))
    for many in (signature_many, log_signature_many):
        derived = many(pts, 3)
        # a budget below one stream's top level still folds one stream at a time
        for budget, sizes in ((1, [1] * 5), (top_level_bytes * 5, [5])):
            monkeypatch.setattr(path_signature, "FOLD_BYTES", budget)
            chunks.clear()
            assert np.array_equal(many(pts, 3), derived)
            assert chunks == sizes
        monkeypatch.setattr(path_signature, "FOLD_BYTES", FOLD_BYTES)


# ---------------------------------------------------------------------------
# the in-place fold against the allocating one it replaced
# ---------------------------------------------------------------------------


def reference_mul_levels(a, b):
    """The allocating truncated product: every level a fresh array."""
    order = len(a) - 1
    out = [a[0] * b[0]]
    for k in range(1, order + 1):
        acc = a[0][..., None] * b[k] + a[k] * b[0][..., None]
        for i in range(1, k):
            cross = a[i][..., :, None] * b[k - i][..., None, :]
            acc = acc + cross.reshape(a[i].shape[:-1] + (-1,))
        out.append(acc)
    return out


def _exp_increment_levels(incs, order):
    """Levels of exp of a batch of level-1 tensors: level k = inc^(x)k / k!."""
    batch = incs.shape[0]
    levels = [np.ones(batch), incs]
    term = incs
    for k in range(2, order + 1):
        term = (term[:, :, None] * incs[:, None, :]).reshape(batch, -1) / k
        levels.append(term)
    return levels


def reference_features(points, order, log=False):
    """The allocating Chen fold, one fresh level list a step, unchunked."""
    incs = np.diff(points, axis=1)
    run = _exp_increment_levels(incs[:, 0, :], order)
    for s in range(1, incs.shape[1]):
        run = reference_mul_levels(run, _exp_increment_levels(incs[:, s, :], order))
    if log:
        run = log_levels(run)
    return np.concatenate(run[1:], axis=-1)


def test_increment_exp_matches_exp_levels_bitwise():
    rng = np.random.default_rng(17)
    v = rng.normal(size=3)
    levels = [np.ones(1)] + [np.empty((1, 3**k)) for k in range(1, 5)]
    path_signature._exp_increment_into(levels, v[None, :])
    reference = exp_levels([np.zeros(()), v] + [np.zeros(3**k) for k in range(2, 5)])
    for k in range(1, 5):
        assert np.array_equal(levels[k][0], reference[k])
        assert np.array_equal(_exp_increment_levels(v[None, :], 4)[k][0], reference[k])


@st.composite
def fold_cases(draw):
    """(points, order): small batches on both sides of the batch-innermost
    threshold d**(order-1); coordinates on a coarse grid, so that many
    increments and products are exact zeros of either sign.  Some columns
    are still (+0.0, -0.0 or a nonzero constant throughout) or move only by
    -0.0, and some points repeat the one before, in every stream of the
    batch or in one stream only."""
    d = draw(st.integers(1, 6))
    order = draw(st.integers(1, 4 if d <= 4 else 3))
    threshold = d ** (order - 1)
    batch = draw(st.one_of(st.integers(1, min(threshold, 7)),
                           st.integers(threshold, threshold + 3)))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(-2, 3, size=(batch, n, d)) * 0.5
    points = np.where(rng.random((batch, n, d)) < draw(st.sampled_from([0.0, 0.5, 1.0])),
                      grid, rng.normal(size=(batch, n, d)))
    still = draw(st.sampled_from([0.0, 0.5, 1.0]))
    for j in np.flatnonzero(rng.random(d) < still):
        fills = (0.0, -0.0, rng.normal(), np.where(rng.random((batch, n)) < 0.5, 0.0, -0.0))
        points[:, :, j] = fills[rng.integers(len(fills))]
    for s in np.flatnonzero(rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3, 0.7]))):
        rows = slice(None) if rng.random() < 0.7 else int(rng.integers(batch))
        points[rows, s + 1] = points[rows, s]
    return points, order


FOLD_PROPERTY = settings(max_examples=150, deadline=None)


def same_bytes(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@FOLD_PROPERTY
@given(fold_cases())
def test_in_place_fold_is_byte_identical_to_the_allocating_fold(case):
    points, order = case
    batch, _, d = points.shape
    narrowed, level_lists = path_signature._narrowed, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(path_signature, "_narrowed",
                   lambda *args: level_lists.append(narrowed(*args)) or level_lists[-1])
        assert same_bytes(signature_many(points, order), reference_features(points, order))
    top = level_lists[0][order]
    if batch > 1 and top.shape[1] > 1:
        # the layout the fold chose for this shape
        assert top.flags.f_contiguous == (batch >= d ** (order - 1))
    assert same_bytes(log_signature_many(points, order),
                      reference_features(points, order, log=True))


@FOLD_PROPERTY
@given(fold_cases(), st.integers(1, 10))
def test_fold_bits_do_not_depend_on_chunk_or_batch(case, chunk):
    points, order = case
    whole = signature_many(points, order), log_signature_many(points, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(path_signature, "FOLD_BYTES", 8 * points.shape[2] ** order * chunk)
        assert same_bytes(signature_many(points, order), whole[0])
        assert same_bytes(log_signature_many(points, order), whole[1])
    for i in range(points.shape[0]):
        assert same_bytes(signature_many(points[i : i + 1], order)[0], whole[0][i])
        assert same_bytes(log_signature_many(points[i : i + 1], order)[0], whole[1][i])


def test_fold_skips_still_steps_and_still_coordinates(monkeypatch):
    # d = 6: three coordinates move, three are still (+0.0, -0.0 and a
    # nonzero constant); k points repeat the one before
    rng = np.random.default_rng(20)
    n, order = 7, 3
    base = rng.normal(size=(2, n, 6))
    base[:, :, 3:] = [0.0, -0.0, 2.5]
    mul, widths = ta.mul_levels, []
    monkeypatch.setattr(ta, "mul_levels",
                        lambda a, b, **kw: widths.append(a[1].shape[-1]) or mul(a, b, **kw))
    for k in range(4):
        repeats = np.ones(n, dtype=int)
        repeats[1 : k + 1] = 2  # each a still step after the first
        points = np.repeat(base, repeats, axis=1)
        # one stream: n + k - 1 steps, the first an exponential, k of them still
        widths.clear()
        assert same_bytes(signature_many(points[:1], order), reference_features(points[:1], order))
        assert widths == [4] * (n - 2)
        # the second stream moves coordinate 3 and repeats the same points
        points[1, :, 3] = np.repeat(rng.normal(size=n), repeats)
        widths.clear()
        assert same_bytes(signature_many(points, order), reference_features(points, order))
        assert widths == [5] * (n - 2)


def test_still_step_after_overflow_is_folded_in_full():
    # level 2 overflows at the first step, and the full fold's next product
    # turns level 3 into NaN where a skipped step would leave inf
    points = np.array([[[0.0, 0.0], [1e160, -3e119], [1e160, -3e119], [2e160, 1e119]]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_features(points, 3)
        assert np.isnan(expected).any()
        assert same_bytes(signature_many(points, 3), expected)
        assert same_bytes(log_signature_many(points, 3), reference_features(points, 3, log=True))


@pytest.mark.parametrize("level0", ["zero", "one", "arbitrary"])
def test_mul_levels_in_place_matches_out_of_place(level0):
    rng = np.random.default_rng(19)
    for _ in range(30):
        d, order, batch = (int(v) for v in rng.integers(1, 4, size=3))

        def levels():
            lv = [rng.normal(size=batch)]
            lv += [rng.normal(size=(batch, d**k)) for k in range(1, order + 1)]
            lv[1][:, 0] = 0.0
            lv[1][:, -1] = -0.0
            if level0 != "arbitrary":
                lv[0] = np.full(batch, 0.0 if level0 == "zero" else 1.0)
            return lv

        a, b = levels(), levels()
        expected = mul_levels(a, b)
        assert all(same_bytes(x, y) for x, y in zip(expected, reference_mul_levels(a, b)))
        a_id = [id(lv) for lv in a[1:]]
        got = mul_levels(a, b, out=a)
        assert got is a and [id(lv) for lv in a[1:]] == a_id
        assert all(same_bytes(x, y) for x, y in zip(got, expected))


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def test_short_stream_rejected():
    # one-point streams, as rows of a 1-row image without a basepoint
    with pytest.raises(ValueError, match="at least 2"):
        signature_many(np.zeros((3, 1, 2)), 2)


def test_bad_order_rejected():
    s = np.zeros((2, 2))
    with pytest.raises(ValueError, match="order"):
        signature(s, 0)
    for order in (2.5, "2", True):
        with pytest.raises(ValueError, match=f"order must be an integer >= 1, got {order!r}"):
            signature(s, order)


# each function with the ndim of the stream points it takes
FOLDS = [(signature_many, 3), (log_signature_many, 3), (signature_oracle, 2)]
# (n, d) points, extra leading axes beyond the function's ndim, error match
MALFORMED = {
    "one point": (np.zeros((1, 2)), 0, "at least 2"),
    "d = 0": (np.zeros((3, 0)), 0, "dimension"),
    "nan": (np.array([[0.0, 0.0], [np.nan, 1.0]]), 0, "non-finite"),
    "inf": (np.array([[0.0, 0.0], [1.0, -np.inf]]), 0, "non-finite"),
    "one axis too many": (np.zeros((3, 2)), 1, "expected"),
    "one axis too few": (np.zeros((3, 2)), -1, "expected"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("fold, ndim", FOLDS, ids=[f.__name__ for f, _ in FOLDS])
def test_malformed_stream_rejected(fold, ndim, case):
    points, extra, match = MALFORMED[case]
    target = ndim + extra
    points = points.reshape((1,) * (target - 2) + points.shape) if target >= 2 else points[0]
    with pytest.raises(ValueError, match=match):
        fold(points, 2)
