"""Binary and CSV matrix file formats."""

import struct

import numpy as np
import pytest

from snrq import FormatError, read_matrix, write_matrix
from snrq.matio import MAGIC


def test_binary_roundtrip_bit_exact(tmp_path, rng):
    m = rng.normal(size=(2, 3))
    p = tmp_path / "m.snrqmat"
    write_matrix(p, m)
    back = read_matrix(p)
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))  # bit-exact


def test_i32_variant_roundtrip(tmp_path):
    codes = np.array([[-3, 0], [7, 2]], dtype=np.int32)
    p = tmp_path / "codes.snrqmat"
    write_matrix(p, codes)
    back = read_matrix(p)
    assert back.dtype == np.int32
    assert np.array_equal(back, codes)


def test_f32_reads_back(tmp_path):
    m = np.array([[1.5, -2.25]])
    p = tmp_path / "m.snrqmat"
    write_matrix(p, m, dtype="f32")
    assert np.array_equal(read_matrix(p), m)  # exactly representable in f32


@pytest.mark.parametrize("m, dtype, code, fmt", [
    (np.array([[1.5, -2.25, 3.0]]), "f32", 0, "<3f"),
    (np.array([[1.0, -0.0], [1e300, 2.0 ** -1074]]), "f64", 1, "<4d"),
    (np.array([[1, -2], [3, 2**31 - 1], [-2**31, 0]]), "i32", 2, "<6i"),
    (np.arange(6.0).reshape(2, 3).T, "f64", 1, "<6d"),  # not contiguous: rows of the transpose
], ids=["f32", "f64", "i32", "f64-transposed"])
def test_binary_bytes_match_a_hand_built_file(tmp_path, m, dtype, code, fmt):
    p = tmp_path / "m.snrqmat"
    write_matrix(p, m, dtype=dtype)
    rows, cols = m.shape
    values = [v for row in m.tolist() for v in row]
    assert p.read_bytes() == b"SNRQMAT1" + struct.pack("<IIB", rows, cols, code) + struct.pack(fmt, *values)


def test_csv_parse(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_roundtrip(tmp_path, rng):
    m = rng.normal(size=(3, 4))
    p = tmp_path / "m.csv"
    write_matrix(p, m)
    assert np.array_equal(read_matrix(p), m)  # repr() round-trips doubles


def test_truncated_payload(tmp_path):
    p = tmp_path / "m.snrqmat"
    write_matrix(p, np.ones((4, 4)))
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="payload"):
        read_matrix(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "m.snrqmat"
    write_matrix(p, np.ones((1, 1)))
    data = bytearray(p.read_bytes())
    data[:8] = b"BADMAGIC"
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic"):
        read_matrix(p)


def test_nonfinite_rejected(tmp_path):
    import struct

    p = tmp_path / "m.snrqmat"
    payload = struct.pack("<d", float("nan"))
    p.write_bytes(MAGIC + struct.pack("<IIB", 1, 1, 1) + payload)
    with pytest.raises(FormatError, match="non-finite"):
        read_matrix(p)


def test_ragged_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(FormatError, match="ragged"):
        read_matrix(p)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "nope.snrqmat")


def test_truncated_header(tmp_path):
    p = tmp_path / "m.snrqmat"
    p.write_bytes(MAGIC + bytes(8))  # one byte short of rows, cols and the dtype code
    with pytest.raises(FormatError, match="truncated header"):
        read_matrix(p)


def test_unknown_dtype_code(tmp_path):
    import struct

    p = tmp_path / "m.snrqmat"
    p.write_bytes(MAGIC + struct.pack("<IIB", 1, 1, 3) + bytes(8))
    with pytest.raises(FormatError, match="unknown dtype code 3"):
        read_matrix(p)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,x\n", r"m\.csv:2: could not convert string to float: 'x'"),
    ("\n \n", "empty CSV"),
    ("1,2\n3,inf\n", "non-finite entry"),
    ("nan\n", "non-finite entry"),
], ids=["bad-token", "empty", "inf", "nan"])
def test_bad_csv(tmp_path, text, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=message):
        read_matrix(p)
