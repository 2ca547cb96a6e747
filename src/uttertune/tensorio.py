"""The package's two file codecs: named tensors and tab-separated tables.

Tensors: a UTF-8 text header (format line, meta lines, one line per tensor
with name/shape, then "end"), the raw tensor payloads in header order as
row-major little-endian float32, and a trailing 32-byte SHA-256 digest of
every preceding byte. Writing the same tensors and meta twice yields
byte-identical files.

Tables (corpus.tsv, vocab.txt, report_<mode>.tsv, leakage.tsv, the
*_curve.tsv files, generation.tsv and every manifest.txt): a fixed first
line, one "key<TAB>value" line per header key in a fixed order, then one
line of tab-separated fields per row, led by a "row" field when the table
has a header. load_table checks that framing and names path:line where it
breaks; each artifact's loader maps the string fields.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import CorruptFile

_MAGIC = "uttertune-tensors v1"
_DIGEST_SIZE = 32


def _check_name(name: str) -> None:
    if not name or any(c in name for c in " \t\n"):
        raise ValueError(f"bad tensor/meta name {name!r}")


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    """Write float32 tensors plus string metadata; order is preserved."""
    header_lines = [_MAGIC]
    for key, value in meta.items():
        _check_name(key)
        value = str(value)
        if "\n" in value:
            raise ValueError(f"meta value for {key!r} contains a newline")
        header_lines.append(f"meta {key}\t{value}")
    payloads = []
    for name, arr in tensors.items():
        _check_name(name)
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {name!r} must be float32, got {arr.dtype}")
        dims = " ".join(str(d) for d in arr.shape)
        header_lines.append(f"tensor {name} {arr.ndim}{(' ' + dims) if dims else ''}")
        payloads.append(np.ascontiguousarray(arr).astype("<f4", copy=False).tobytes())
    header_lines.append("end")
    blob = "\n".join(header_lines).encode("utf-8") + b"\n" + b"".join(payloads)
    digest = hashlib.sha256(blob).digest()
    with open(path, "wb") as fh:
        fh.write(blob + digest)


def load_tensors(path):
    """Read a container; returns (tensors dict, meta dict) in file order.
    Raises CorruptFile naming path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DIGEST_SIZE:
        raise CorruptFile(f"{path}: file shorter than its checksum")
    blob, digest = raw[:-_DIGEST_SIZE], raw[-_DIGEST_SIZE:]
    if hashlib.sha256(blob).digest() != digest:
        raise CorruptFile(f"{path}: checksum mismatch")
    header_end = blob.find(b"\nend\n")
    if header_end == -1:
        raise CorruptFile(f"{path}: missing header terminator")
    try:
        header = blob[: header_end + 4].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: header is not UTF-8") from exc
    payload = blob[header_end + 5 :]
    lines = header.split("\n")
    if lines[0] != _MAGIC:
        raise CorruptFile(f"{path}: expected first line {_MAGIC!r}")
    meta: dict[str, str] = {}
    specs: list[tuple[str, tuple[int, ...]]] = []
    for line in lines[1:]:
        if line == "end":
            break
        if line.startswith("meta "):
            body = line[5:]
            if "\t" not in body:
                raise CorruptFile(f"{path}: malformed meta line {line!r}")
            key, value = body.split("\t", 1)
            if key in meta:
                raise CorruptFile(f"{path}: duplicate meta key {key!r}")
            meta[key] = value
        elif line.startswith("tensor "):
            parts = line.split(" ")
            try:
                ndim = int(parts[2])
                shape = tuple(int(d) for d in parts[3 : 3 + ndim])
            except (IndexError, ValueError) as exc:
                raise CorruptFile(
                    f"{path}: malformed tensor line {line!r}") from exc
            if len(parts) != 3 + ndim or len(shape) != ndim:
                raise CorruptFile(f"{path}: malformed tensor line {line!r}")
            specs.append((parts[1], shape))
        else:
            raise CorruptFile(f"{path}: unrecognized header line {line!r}")
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in specs:
        if name in tensors:
            raise CorruptFile(f"{path}: duplicate tensor name {name!r}")
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * 4
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CorruptFile(f"{path}: payload truncated at tensor {name!r}")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(
            np.float32
        )
        offset += nbytes
    if offset != len(payload):
        raise CorruptFile(f"{path}: trailing bytes after last tensor")
    return tensors, meta


_ROW_MARK = "row"


def save_table(path, first_line: str, header: dict, rows) -> None:
    """Write a table; header values and row fields are written with str()."""
    mark = (_ROW_MARK,) if header else ()
    lines = [first_line]
    for record in [*header.items(), *(mark + tuple(row) for row in rows)]:
        fields = [str(f) for f in record]
        if any("\t" in f or "\n" in f for f in fields):
            raise ValueError(f"{path}: a field holds a tab or newline: {fields!r}")
        lines.append("\t".join(fields))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path, first_line: str, header_keys, width: int):
    """(header values by key, rows as lists of width fields) of a table
    whose first line is first_line and whose header holds header_keys."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().removesuffix("\n").split("\n")
    except UnicodeDecodeError:
        raise CorruptFile(f"{path}: not UTF-8 text") from None
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
