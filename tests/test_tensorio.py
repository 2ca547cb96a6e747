"""Tensor container and table codec: round trips, checksums, corruption
detection."""

import hashlib
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


_KEYS = ("r", "note")


def test_round_trip_bit_exact(tmp_path):
    p = tmp_path / "t.bin"
    tensors = sample_tensors()
    header = {"r": "16", "note": "value with spaces"}
    save_tensors(p, "demo v1", header, tensors)
    got_header, loaded = load_tensors(p, "demo v1", _KEYS)
    assert got_header == header
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(
            loaded[name].view(np.uint32), tensors[name].view(np.uint32)
        )


def test_layout_is_a_table_then_end_payloads_and_checksum(tmp_path):
    p = tmp_path / "t.bin"
    tensors = sample_tensors()
    save_tensors(p, "demo v1", {"r": 16, "note": "n"}, tensors)
    text = ("demo v1\nr\t16\nnote\tn\nrow\tw\t3 4\nrow\tb\t4\n"
            "row\tscalar\t\nrow\tempty\t0 2\nend\n").encode("utf-8")
    payload = b"".join(t.astype("<f4").tobytes() for t in tensors.values())
    blob = text + payload
    assert p.read_bytes() == blob + hashlib.sha256(blob).digest()


def test_save_deterministic(tmp_path):
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(pa, "demo v1", {"k": "v"}, sample_tensors())
    save_tensors(pb, "demo v1", {"k": "v"}, sample_tensors())
    assert pa.read_bytes() == pb.read_bytes()


def test_checksum_detects_payload_flip(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, "demo v1", {}, sample_tensors())
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        load_tensors(p, "demo v1", ())


def test_truncation_detected(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, "demo v1", {}, sample_tensors())
    raw = p.read_bytes()
    p.write_bytes(raw[:-40])
    with pytest.raises(CorruptFile):
        load_tensors(p, "demo v1", ())


def test_tiny_file_rejected(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"short")
    with pytest.raises(CorruptFile):
        load_tensors(p, "demo v1", ())


def _write_signed(p, blob):
    p.write_bytes(blob + hashlib.sha256(blob).digest())


def test_version_mismatch(tmp_path):
    p = tmp_path / "t.bin"
    _write_signed(p, b"demo v999\nend\n")
    with pytest.raises(CorruptFile, match="^" + re.escape(
            f"{p}:1: expected first line 'demo v1'") + "$"):
        load_tensors(p, "demo v1", ())


@pytest.mark.parametrize("body, message", [
    (b"alpha\t8.0\nalpha\t99.0\nend\n", "3: expected a row of 2 fields"),
    (b"alpha\t8.0\nrow\tx\t1\nrow\tx\t1\nend\n" + bytes(8),
     "4: duplicate tensor name 'x'"),
], ids=["meta", "tensor"])
def test_name_stated_twice_rejected(tmp_path, body, message):
    p = tmp_path / "t.bin"
    _write_signed(p, b"demo v1\n" + body)
    with pytest.raises(CorruptFile, match=f"^{re.escape(str(p))}:{message}$"):
        load_tensors(p, "demo v1", ("alpha",))


def test_wrong_magic(tmp_path):
    p = tmp_path / "t.bin"
    _write_signed(p, b"something v1\nend\n")
    with pytest.raises(CorruptFile):
        load_tensors(p, "demo v1", ())


@pytest.mark.parametrize("text, line", [
    ("other v1\nr\t1\nnote\tn\n", 1),
    ("demo v1\nnote\tn\n", 2),
    ("demo v1\nnote\tn\nr\t1\n", 2),
    ("demo v1\nr\t1\nnote\tn\nextra\tx\n", 4),
    ("demo v1\nr\t1\nnote\tn\nrow\tx\n", 4),
    ("demo v1\nr\t1\nnote\tn\nrow\tx\t-1\n", 4),
    ("demo v1\nr\t1\nnote\tn\nrow\tx\t1  1\n", 4),
    ("demo v1\nr\t1\nnote\tn\nrow\tx\t01\n", 4),
    ("demo v1\nr\t1\nnote\tn\nrow\tx\t1 y\n", 4),
], ids=["first-line", "missing-key", "key-order", "extra-key", "short-row",
        "negative-dim", "double-space", "leading-zero", "not-a-number"])
def test_table_part_errors_name_path_and_line(tmp_path, text, line):
    p = tmp_path / "t.bin"
    _write_signed(p, text.encode("utf-8") + b"end\n" + bytes(4))
    with pytest.raises(CorruptFile, match="^" + re.escape(f"{p}:{line}: ")):
        load_tensors(p, "demo v1", _KEYS)


@pytest.mark.parametrize("tail, message", [
    (b"", "missing end line"),
    (b"end\n" + bytes(3), "payload truncated at tensor 'x'"),
    (b"end\n" + bytes(8), "trailing bytes after last tensor"),
], ids=["no-end", "short-payload", "long-payload"])
def test_payload_errors_name_path(tmp_path, tail, message):
    p = tmp_path / "t.bin"
    _write_signed(p, b"demo v1\nx\t1\n" + tail)
    with pytest.raises(CorruptFile, match=f"^{re.escape(str(p))}: {message}$"):
        load_tensors(p, "demo v1", ())


def test_non_float32_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", "demo v1", {},
                     {"x": np.zeros(3, dtype=np.float64)})


def test_bad_names_rejected(tmp_path):
    for name in ("a\tb", "a\nb"):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "t.bin", "demo v1", {},
                         {name: np.zeros(1, dtype=np.float32)})
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", "demo v1", {"bad\tkey": "v"}, {})


def test_newline_in_meta_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "t.bin", "demo v1", {"k": "a\nb"}, {})


def test_empty_container(tmp_path):
    p = tmp_path / "t.bin"
    save_tensors(p, "demo v1", {}, {})
    assert load_tensors(p, "demo v1", ()) == ({}, {})


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
