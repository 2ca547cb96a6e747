"""Tensor container and table codec: round trips, checksums, corruption
detection."""

import re

import numpy as np
import pytest

from uttertune.errors import CorruptFile
from uttertune.tensorio import load_table, load_tensors, save_table, save_tensors


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
        "empty": np.zeros((0, 2), dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    p = tmp_path / "t.bin"
    tensors = sample_tensors()
    meta = {"r": "16", "note": "value with spaces"}
    save_tensors(p, tensors, meta)
    loaded, got_meta = load_tensors(p)
    assert got_meta == meta
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(
            loaded[name].view(np.uint32), tensors[name].view(np.uint32)
        )


def test_save_deterministic(tmp_path):
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(pa, sample_tensors(), {"k": "v"})
    save_tensors(pb, sample_tensors(), {"k": "v"})
    assert pa.read_bytes() == pb.read_bytes()


def test_checksum_detects_payload_flip(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, sample_tensors(), {})
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        load_tensors(p)


def test_truncation_detected(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, sample_tensors(), {})
    raw = p.read_bytes()
    p.write_bytes(raw[:-40])
    with pytest.raises(CorruptFile):
        load_tensors(p)


def test_tiny_file_rejected(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"short")
    with pytest.raises(CorruptFile):
        load_tensors(p)


def test_version_mismatch(tmp_path):
    import hashlib

    p = tmp_path / "t.bin"
    blob = b"uttertune-tensors v999\nend\n"
    p.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(CorruptFile,
                       match="expected first line 'uttertune-tensors v1'"):
        load_tensors(p)


@pytest.mark.parametrize("body, message", [
    (b"meta alpha\t8.0\nmeta alpha\t99.0\nend\n",
     "duplicate meta key 'alpha'"),
    (b"tensor x 1 1\ntensor x 1 1\nend\n" + bytes(8),
     "duplicate tensor name 'x'"),
], ids=["meta", "tensor"])
def test_name_stated_twice_rejected(tmp_path, body, message):
    import hashlib

    p = tmp_path / "t.bin"
    blob = b"uttertune-tensors v1\n" + body
    p.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(CorruptFile, match=f"^{re.escape(str(p))}: {message}$"):
        load_tensors(p)


def test_wrong_magic(tmp_path):
    import hashlib

    p = tmp_path / "t.bin"
    blob = b"something v1\nend\n"
    p.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(CorruptFile):
        load_tensors(p)


def test_non_float32_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", {"x": np.zeros(3, dtype=np.float64)}, {})


def test_bad_names_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(
            tmp_path / "t.bin", {"a b": np.zeros(1, dtype=np.float32)}, {}
        )
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", {}, {"bad key": "v"})


def test_newline_in_meta_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", {}, {"k": "a\nb"})


def test_empty_container(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, {}, {})
    tensors, meta = load_tensors(p)
    assert tensors == {} and meta == {}


# -- tables ---------------------------------------------------------------------


def test_table_layout_and_round_trip(tmp_path):
    p = tmp_path / "t.tsv"
    save_table(p, "demo v1", {"n": 2, "rate": 0.25}, [(0, "ア", ""), (1, "-", 1.5)])
    assert p.read_bytes() == (
        "demo v1\nn\t2\nrate\t0.25\nrow\t0\tア\t\nrow\t1\t-\t1.5\n"
    ).encode("utf-8")
    assert load_table(p, "demo v1", ("n", "rate"), 3) == (
        {"n": "2", "rate": "0.25"}, [["0", "ア", ""], ["1", "-", "1.5"]]
    )


def test_table_without_header_has_no_row_mark(tmp_path):
    p = tmp_path / "t.tsv"
    save_table(p, "step\tloss", {}, [(1, 0.5), (2, 0.25)])
    assert p.read_text("utf-8") == "step\tloss\n1\t0.5\n2\t0.25\n"
    assert load_table(p, "step\tloss", (), 2) == ({}, [["1", "0.5"], ["2", "0.25"]])


@pytest.mark.parametrize("field", ["a\tb", "a\nb"], ids=["tab", "newline"])
def test_table_rejects_field_that_breaks_framing(tmp_path, field):
    with pytest.raises(ValueError):
        save_table(tmp_path / "t.tsv", "demo v1", {}, [("x", field)])
    with pytest.raises(ValueError):
        save_table(tmp_path / "t.tsv", "demo v1", {"k": field}, [])


_GOOD_TABLE = "demo v1\nn\t2\nrate\t0.5\nrow\ta\tb\nrow\tc\td\n"


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("demo v2\nn\t2\nrate\t0.5\n", 1),
    ("demo v1\nrate\t0.5\nrow\ta\tb\n", 2),
    ("demo v1\nrate\t0.5\nn\t2\n", 2),
    ("demo v1\nn\t2\n", 3),
    ("demo v1\nn\t2\nrate\t0.5\textra\n", 3),
    ("demo v1\nn\t2\nrate\t0.5\nrow\ta\tb\nrow\tc\n", 5),
    ("demo v1\nn\t2\nrate\t0.5\nrow\ta\tb\tc\n", 4),
    ("demo v1\nn\t2\nrate\t0.5\nraw\ta\tb\n", 4),
    ("demo v1\nn\t2\nrate\t0.5\nrow\ta\tb\n\n", 5),
], ids=["empty", "first-line", "missing-key", "key-order", "truncated-header",
        "header-fields", "short-row", "long-row", "row-mark", "blank-line"])
def test_table_framing_errors_name_path_and_line(tmp_path, text, line):
    p = tmp_path / "t.tsv"
    p.write_text(_GOOD_TABLE, encoding="utf-8")
    assert load_table(p, "demo v1", ("n", "rate"), 2)[1] == [["a", "b"], ["c", "d"]]
    p.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptFile, match="^" + re.escape(f"{p}:{line}: ")):
        load_table(p, "demo v1", ("n", "rate"), 2)


def test_table_rejects_binary_file(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(CorruptFile):
        load_table(p, "demo v1", (), 2)
