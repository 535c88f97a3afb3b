"""Property tests: the binary loaders and label readers reject any
malformed bytes with ParseError and never with another exception, and
where a file parses they agree on its labels."""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigclass.data_io import (
    ParseError, load_cifar10, load_mnist_idx, read_cifar10_labels, read_mnist_labels, read_pnm,
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Header integers: small and edge values, where parsing decisions are made.
u32 = st.one_of(st.integers(0, 40), st.sampled_from([0xFF, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF]),
                st.integers(0, 0xFFFFFFFF))
tail = st.binary(max_size=200)


def idx_file(magic):
    """Bytes of an IDX file: arbitrary, or a valid magic then fuzzed
    dimensions and payload."""
    return st.one_of(
        st.binary(max_size=64),
        st.builds(lambda dims, rest: struct.pack(">I", magic)
                  + b"".join(struct.pack(">I", d) for d in dims) + rest,
                  st.lists(u32, max_size=4), tail),
    )


# Record indices, taken modulo the record count of a file that parses.
picks = st.lists(st.integers(0, 2**16), max_size=5)


def parses_or_parse_error(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except ParseError:
        return None


def check_readers(read_labels, load, picks):
    """The label reader, the full load and a load of some records fail
    together, each with ParseError, or agree on the labels."""
    labels = parses_or_parse_error(read_labels)
    records = [i % len(labels) for i in picks] if labels is not None and len(labels) else []
    loads = [parses_or_parse_error(load), parses_or_parse_error(load, records=records)]
    if labels is None:
        assert loads == [None, None]
        return
    full, chosen = loads
    assert [im.label for im in full] == [str(z) for z in labels]
    assert [im.source_id for im in chosen] == [full[i].source_id for i in records]
    assert all(a.pixels.tobytes() == full[i].pixels.tobytes() for a, i in zip(chosen, records))


@st.composite
def idx_pair(draw):
    """A valid IDX pair of up to 3 small images, then up to 3 bytes cut
    from the end of either file."""
    n, rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    images = struct.pack(">IIII", 0x803, n, rows, cols) + draw(
        st.binary(min_size=n * rows * cols, max_size=n * rows * cols))
    labels = struct.pack(">II", 0x801, n) + draw(st.binary(min_size=n, max_size=n))
    cut_images, cut_labels = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return images[: len(images) - cut_images], labels[: len(labels) - cut_labels]


@FUZZ
@given(files=st.one_of(st.tuples(idx_file(0x803), idx_file(0x801)), idx_pair()), picks=picks)
def test_mnist_raises_only_parse_error(tmp_path, files, picks):
    images, labels = files
    img, lbl = tmp_path / "images", tmp_path / "labels"
    img.write_bytes(images)
    lbl.write_bytes(labels)
    check_readers(lambda: read_mnist_labels(img, lbl),
                  lambda **kw: load_mnist_idx(img, lbl, **kw), picks)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda n, label, rest: (bytes([label]) + bytes(3072)) * n + rest,
              st.integers(0, 2), st.one_of(st.integers(0, 9), st.integers(0, 255)),
              st.one_of(st.just(b""), tail)),
), picks=picks)
def test_cifar_raises_only_parse_error(tmp_path, data, picks):
    path = tmp_path / "batch.bin"
    path.write_bytes(data)
    check_readers(lambda: read_cifar10_labels(path),
                  lambda **kw: load_cifar10(path, **kw), picks)


header_token = st.one_of(
    st.integers(0, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b"-1", b"0", b"256", b"#c\n", b"99999999999", b"x"]),
    st.binary(max_size=6),
)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda magic, fields, seps, rest: magic + b"".join(
        sep + tok for sep, tok in zip(seps, fields)) + rest,
        st.sampled_from([b"P5", b"P6"]),
        st.lists(header_token, max_size=4),
        st.lists(st.sampled_from([b" ", b"\n", b"\t", b""]), min_size=4, max_size=4),
        tail),
))
def test_pnm_raises_only_parse_error(tmp_path, data):
    path = tmp_path / "image.pnm"
    path.write_bytes(data)
    parses_or_parse_error(read_pnm, path)
