"""The package's one file codec: tab-separated tables, some followed by
tensors.

A table (corpus.tsv, vocab.txt, report_<mode>.tsv, leakage.tsv, the
*_curve.tsv files, generation.tsv and every manifest.txt): a first line
that names the kind of file and its format version, one "key<TAB>value"
line per header key in a fixed order, then one line of tab-separated
fields per row, led by a "row" field when the table has a header.
load_table checks that framing and names path:line where it breaks; each
artifact's loader maps the string fields.

A tensor file (base_model.ut, adapter.ut, merged_model.ut) is a table with
one "row<TAB>name<TAB>shape" row per tensor, shape being its dimensions
joined by spaces, then a line "end", the tensor payloads in row order as
row-major little-endian float32, and a trailing 32-byte SHA-256 digest of
every preceding byte. Writing the same tensors and header twice yields
byte-identical files.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import CorruptFile

_ROW_MARK = "row"
_END = b"end\n"
_DIGEST_SIZE = 32


def _table_text(path, first_line: str, header: dict, rows) -> str:
    mark = (_ROW_MARK,) if header else ()
    lines = [first_line]
    for record in [*header.items(), *(mark + tuple(row) for row in rows)]:
        fields = [str(f) for f in record]
        if any("\t" in f or "\n" in f for f in fields):
            raise ValueError(f"{path}: a field holds a tab or newline: {fields!r}")
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def _table_fields(path, text: str, first_line: str, header_keys, width: int):
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != first_line:
        raise CorruptFile(f"{path}:1: expected first line {first_line!r}")
    header = {}
    for lineno, key in enumerate(header_keys, start=2):
        fields = lines[lineno - 1].split("\t") if lineno <= len(lines) else []
        if len(fields) != 2 or fields[0] != key:
            raise CorruptFile(f"{path}:{lineno}: expected header key {key!r}")
        header[key] = fields[1]
    mark = [_ROW_MARK] if header_keys else []
    rows = []
    first_row = len(header_keys) + 2
    for lineno, line in enumerate(lines[first_row - 1 :], start=first_row):
        fields = line.split("\t")
        if len(fields) != len(mark) + width or fields[: len(mark)] != mark:
            raise CorruptFile(f"{path}:{lineno}: expected a row of {width} fields")
        rows.append(fields[len(mark) :])
    return header, rows


def save_table(path, first_line: str, header: dict, rows) -> None:
    """Write a table; header values and row fields are written with str()."""
    text = _table_text(path, first_line, header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_table(path, first_line: str, header_keys, width: int):
    """(header values by key, rows as lists of width fields) of a table
    whose first line is first_line and whose header holds header_keys."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise CorruptFile(f"{path}: not UTF-8 text") from None
    return _table_fields(path, text, first_line, header_keys, width)


def save_tensors(path, first_line: str, header: dict, tensors: dict) -> None:
    """Write a table of header and one row per float32 tensor, in the
    tensors' order, then the tensors and the checksum."""
    rows, payloads = [], []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {name!r} must be float32, got {arr.dtype}")
        rows.append((name, " ".join(str(d) for d in arr.shape)))
        payloads.append(np.ascontiguousarray(arr).astype("<f4", copy=False).tobytes())
    text = _table_text(path, first_line, header, rows)
    blob = text.encode("utf-8") + _END + b"".join(payloads)
    with open(path, "wb") as fh:
        fh.write(blob + hashlib.sha256(blob).digest())


def _shape(field: str) -> tuple[int, ...]:
    """The dimensions a shape field states; ValueError unless it is the
    field save_tensors writes."""
    shape = tuple(int(d) for d in field.split(" ")) if field else ()
    if min(shape, default=0) < 0 or " ".join(str(d) for d in shape) != field:
        raise ValueError(field)
    return shape


def load_tensors(path, first_line: str, header_keys):
    """(header values by key, float32 tensors by name in file order) of a
    tensor file whose first line is first_line and whose header holds
    header_keys. Raises CorruptFile naming path, and the line for the
    table part."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DIGEST_SIZE:
        raise CorruptFile(f"{path}: file shorter than its checksum")
    blob, digest = raw[:-_DIGEST_SIZE], raw[-_DIGEST_SIZE:]
    if hashlib.sha256(blob).digest() != digest:
        raise CorruptFile(f"{path}: checksum mismatch")
    text_end = blob.find(b"\n" + _END) + 1
    if text_end == 0:
        raise CorruptFile(f"{path}: missing end line")
    try:
        text = blob[:text_end].decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptFile(f"{path}: table part is not UTF-8 text") from None
    header, rows = _table_fields(path, text, first_line, header_keys, 2)
    payload = memoryview(blob)[text_end + len(_END) :]
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for lineno, (name, field) in enumerate(rows, start=len(header_keys) + 2):
        try:
            shape = _shape(field)
        except ValueError:
            raise CorruptFile(f"{path}:{lineno}: bad shape {field!r}") from None
        if name in tensors:
            raise CorruptFile(f"{path}:{lineno}: duplicate tensor name {name!r}")
        nbytes = 4 * math.prod(shape)
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptFile(f"{path}: payload truncated at tensor {name!r}")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(
            np.float32
        )
        offset += nbytes
    if offset != len(payload):
        raise CorruptFile(f"{path}: trailing bytes after last tensor")
    return header, tensors
