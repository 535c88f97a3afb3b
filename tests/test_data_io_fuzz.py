"""Property tests: the binary loaders reject any malformed bytes with
ParseError and never with another exception."""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigclass.data_io import ParseError, load_cifar10, load_mnist_idx, read_pnm

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


def parses_or_parse_error(load, *args):
    try:
        load(*args)
    except ParseError:
        pass


@FUZZ
@given(images=idx_file(0x803), labels=idx_file(0x801))
def test_mnist_raises_only_parse_error(tmp_path, images, labels):
    img, lbl = tmp_path / "images", tmp_path / "labels"
    img.write_bytes(images)
    lbl.write_bytes(labels)
    parses_or_parse_error(load_mnist_idx, img, lbl)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda n, label, rest: (bytes([label]) + bytes(3072)) * n + rest,
              st.integers(0, 2), st.integers(0, 255), tail),
))
def test_cifar_raises_only_parse_error(tmp_path, data):
    path = tmp_path / "batch.bin"
    path.write_bytes(data)
    parses_or_parse_error(load_cifar10, path)


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
