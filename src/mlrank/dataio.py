"""Dataset and image I/O: the JSONL dataset files, their binary copies,
and the PGM/PPM canvas dumps.

JSONL dataset layout (also the loader contract for external data):
the first line is a header object {"k": classes, "d": feature length,
"generator": config echo}, plus "image_shape": [height, width, channels]
when the features are channels-last images, which then train behind the
image front end; every following line is one instance {"features":
[...], "ranks": [...]} with 0-based class positions.  ``k``, ``d``, the
shape's sizes and the ranks must be JSON integers: ``1.7``, ``1.0`` and
``true`` are data errors, not truncated or cast.  Features must be
finite JSON numbers (a string or ``true`` is a data error, not cast),
ranks non-negative, and every number must fit its float64 or int64
slot.  The reader returns, and the writer takes, the (n, d) features
and (n, k) ranks as arrays, and neither holds a second copy of them.
Canvas files written before the header declared ``image_shape`` read as
feature data and must be regenerated.

The writer writes ``max(32, 8192 // d)`` rows at a time, each the line
``json.dumps`` gives it (``_block_lines``).  A block whose values
repeat, such as canvases, takes ``float.__repr__`` once per distinct
bit pattern and gathers its bytes from one table; a block whose values
mostly differ, such as features, joins each row's reprs.  The reader
parses the rows of a text file a block of about 8192 values at a time:
one ``json.loads`` of the block's lines joined into one JSON array,
then one array each for its features and ranks, checked as arrays
(``_parse_block``).  A block that fails a check is walked line by line
with the per-row checks (``_read_row``), which name the first bad line;
the walk also reads the rare valid rows the block checks leave to it,
such as one with another key or a space after it.

Beside each dataset file the writer puts a binary copy, ``<file>.npy``:
three ``np.save`` records, the sha256 of the dataset file's bytes, the
features as float64 and the ranks as int64.  The reader takes the arrays
from it only while that digest matches the file; otherwise it parses the
file, so the copy is a cache that can be deleted and is never named as
input.
"""

from __future__ import annotations

import array
import hashlib
import itertools
import json
import math
import os

import numpy as np

from .buckets import checked_ranks

def _checked_header(header) -> tuple[int, int]:
    """(k, d) of a dataset header that keeps the layout's rules (above)."""
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got {header!r}")
    # bool is an int subclass; only true JSON integers count here.
    for key in ("k", "d"):
        if type(header.get(key)) is not int or header[key] < 1:
            raise ValueError(f"header '{key}' must be a positive JSON integer, got {header.get(key)!r}")
    k, d, shape = header["k"], header["d"], header.get("image_shape")
    if "image_shape" in header and not (
        isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v > 0 for v in shape)
        and shape[0] * shape[1] * shape[2] == d
    ):
        raise ValueError(f"image_shape must be 3 positive JSON integers of product d={d}, got {shape!r}")
    return k, d


# Rows are parsed, checked for finiteness and written in blocks of
# about this many values, so a block's scratch and text stay small.
_BLOCK_VALUES = 1 << 13
# A written block holds at least this many rows, so a block of canvases
# shares one text table between a few dozen of them.
_WRITE_BLOCK_ROWS = 32
# A block is written from a text table when at most one value in this
# many is a distinct bit pattern (canvases).  Otherwise (features) each
# value's repr is taken in place: gathering values that nearly all
# differ from a table costs more than the reprs it saves.
_TABLE_VALUES_PER_DISTINCT = 2


def _block_lines(block: np.ndarray, block_ranks: np.ndarray) -> bytes:
    """The dataset lines of a C-contiguous float block and its ranks,
    each row as ``json.dumps`` writes it.  A block whose values repeat
    is written from a table of its distinct values' texts, any other one
    a value at a time."""
    rank_texts = [",".join(map(str, row)) for row in block_ranks.tolist()]
    # Keying on the bits, not the values, keeps -0.0 apart from 0.0.  A
    # sort, not np.unique: its hash table is many times slower here.
    ordered = np.sort(block.view(np.int64), axis=None)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if len(distinct) * _TABLE_VALUES_PER_DISTINCT > block.size:
        return _repr_lines(block, rank_texts)
    return _table_lines(block, distinct, rank_texts)


def _repr_lines(block: np.ndarray, rank_texts: list[str]) -> bytes:
    """``_block_lines`` for a block whose values mostly differ: JSON
    writes a float as its ``float.__repr__``."""
    return "".join(
        '{"features":[' + ",".join(map(float.__repr__, row)) + '],"ranks":[' + row_ranks + "]}\n"
        for row, row_ranks in zip(block.tolist(), rank_texts)
    ).encode("ascii")


def _table_lines(block: np.ndarray, distinct: np.ndarray, rank_texts: list[str]) -> bytes:
    """``_block_lines`` for a block whose values repeat, given the sorted
    distinct bit patterns of its values: ``float.__repr__`` runs once per
    pattern into a NUL-padded table of ","-prefixed texts, the values'
    texts are gathered from it in one pass, and each row is cut out by
    its byte length."""
    texts = ["," + text for text in map(float.__repr__, distinct.view(np.float64).tolist())]
    codes = np.searchsorted(distinct, block.view(np.int64))
    data = memoryview(np.array(texts, dtype=bytes)[codes].tobytes().translate(None, b"\0"))
    # A text is at most 25 bytes, so its width fits a byte.
    ends = np.cumsum(np.array(list(map(len, texts)), dtype=np.uint8)[codes].sum(axis=1)).tolist()
    parts = []
    for start, end, row_ranks in zip([0, *ends], ends, rank_texts):
        # A row's text starts after its first value's comma.
        parts += (b'{"features":[', data[start + 1 : end], b'],"ranks":[' + row_ranks.encode("ascii") + b"]}\n")
    return b"".join(parts)


def _sidecar(path) -> str:
    """The binary copy of the dataset file at ``path`` (module docstring)."""
    return os.fspath(path) + ".npy"


def write_dataset_jsonl(path, x, ranks, generator: dict | None = None, image_shape=None) -> None:
    """Write the (n, d) features and (n, k) ranks behind a {"k", "d",
    "generator"} header, plus "image_shape" when the features are images,
    then the binary copy bound to the file's sha256.  What the reader
    would refuse is refused before anything is written.  Each row is the
    line ``json.dumps`` writes for it, byte for byte."""
    x = np.ascontiguousarray(x, dtype=float)
    ranks = np.asarray(ranks)
    if x.ndim != 2 or ranks.ndim != 2 or len(x) != len(ranks) or not len(x):
        raise ValueError(f"need (n, d) features and (n, k) ranks, n >= 1; got {x.shape}, {ranks.shape}")
    ranks = checked_ranks(ranks)
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    header = {"k": ranks.shape[1], "d": x.shape[1], "generator": generator or {}}
    if image_shape is not None:
        header["image_shape"] = list(image_shape)
    _checked_header(header)
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    step = max(_WRITE_BLOCK_ROWS, _BLOCK_VALUES // x.shape[1])
    blocks = (_block_lines(x[i : i + step], ranks[i : i + step]) for i in range(0, len(x), step))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in itertools.chain([header_line], blocks):
            digest.update(data)
            fh.write(data)
    with open(_sidecar(path), "wb") as fh:
        for record in (np.frombuffer(digest.digest(), dtype=np.uint8), x, ranks):
            np.save(fh, record, allow_pickle=False)


def _line_count(path) -> int:
    """The lines text-mode reading splits ``path`` into: each LF, CR or
    CR LF ends one, and so does the end of a file that ends in another
    byte.  Counted on bytes, a block at a time into one buffer; the CR
    counts run only on a block that holds a CR."""
    count, last, buf = 0, b"", bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            count += buf.count(b"\n", 0, size)
            if buf.find(b"\r", 0, size) >= 0:
                count += buf.count(b"\r", 0, size) - buf.count(b"\r\n", 0, size)
            if last == b"\r" and buf.startswith(b"\n"):
                count -= 1
            last = buf[size - 1 : size]
    return count + (last not in (b"", b"\n", b"\r"))


def _json_line(line: str):
    """``json.loads`` of one line of a dataset file, which is ASCII."""
    if not line.isascii():
        raise ValueError("dataset files are ASCII; this line is not")
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def _parse_block(lines: list[str], x: np.ndarray, ranks: np.ndarray) -> bool:
    """Fills ``x`` and ``ranks``, one row per line, from one ``json.loads``
    of ``lines`` joined by commas inside brackets, and returns True, when
    every check below holds; then each row is the one the line walk in
    ``read_dataset_jsonl`` takes from its line.  Otherwise it returns
    False, with the views in any state, and the caller walks the lines.

    - Every row has the keys "features" and "ranks", so exactly four
      quotes a row mean that no other string exists: no row has another
      key or a repeated one, and no brace or letter sits in a string.
    - A row's only braces are then its own, so with every line but the
      last ending in "}" and its newline, each inserted comma falls
      between two rows: no line holds two rows or part of one.
    - JSON writes booleans and null only as the bare literals.  A "true"
      adds a "u" beside the one each "features" key holds, and a "false"
      or "null" brings an "l"; the walk names either exactly.
    - The features form a float64 (rows, d) array and the ranks a signed
      integer (rows, k) one with no negative entry; as in the walk, an
      integer feature is rounded once to float64.
    - The views hold a row for every line: a block that runs past the
      room the reader's size cap left is walked.
    """
    m = len(lines)
    text = "[" + ",".join(lines) + "]"
    if (
        len(x) != m
        or not text.isascii()
        or not all(map(str.endswith, lines[:-1], itertools.repeat("}\n")))
        or text.count('"') != 4 * m
        or text.count("u") != m
        or "l" in text
    ):
        return False
    try:
        rows = json.loads(text)
        block_x = np.array([row["features"] for row in rows], dtype=np.float64)
        block_ranks = np.array([row["ranks"] for row in rows])
    # A ragged block is a ValueError from NumPy 1.24 on.
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return False
    if (
        block_x.shape != x.shape or block_ranks.shape != ranks.shape
        or block_ranks.dtype.kind != "i" or np.any(block_ranks < 0)
    ):
        return False
    x[...] = block_x
    ranks[...] = block_ranks
    return True


def _check_finite(path, x, stop) -> None:
    """A ValueError naming the line of the first row of ``x[:stop]`` that
    holds a non-finite value (row i is line i + 2), if any does.  Checked
    in blocks of about ``_BLOCK_VALUES`` values, so the scratch mask stays
    small."""
    rows, step = x[:stop], max(1, _BLOCK_VALUES // x.shape[1])
    for start in range(0, len(rows), step):
        bad = np.flatnonzero(~np.isfinite(rows[start : start + step]).all(axis=1))
        if bad.size:
            raise ValueError(f"{path}:{start + int(bad[0]) + 2}: features must be finite")


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.digest()


def _npy_record(fh, dtype, shape) -> np.ndarray | None:
    """The next ``np.save`` record of ``fh`` if it is a version 1.0 record
    (the one ``np.save`` writes for these arrays) of a C-order array of
    exactly ``dtype`` and ``shape`` (None matches any size) whose data the
    file holds, else None.  The record's header is checked before any of
    its data is read or allocated."""
    if np.lib.format.read_magic(fh) != (1, 0):
        return None
    got, fortran_order, got_dtype = np.lib.format.read_array_header_1_0(fh)
    if fortran_order or got_dtype != dtype or len(got) != len(shape):
        return None
    if any(want is not None and size != want for size, want in zip(got, shape)):
        return None
    if math.prod(got) * got_dtype.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        return None
    out = np.empty(got, dtype)
    return out if fh.readinto(out) == out.nbytes else None


def _sidecar_arrays(path, k: int, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(x, ranks) from the binary copy of ``path`` when it holds the sha256
    of the file's bytes, C-order float64 (n, d) features and int64 (n, k)
    ranks, n >= 1, and nothing the JSON path refuses; else None."""
    try:
        with open(_sidecar(path), "rb") as fh:
            stored = _npy_record(fh, np.dtype(np.uint8), (32,))
            if stored is None or stored.tobytes() != _sha256(path):
                return None
            x = _npy_record(fh, np.dtype(np.float64), (None, d))
            ranks = None if x is None else _npy_record(fh, np.dtype(np.int64), (len(x), k))
            if ranks is None or not len(x) or fh.read(1) or np.any(ranks < 0):
                return None
        _check_finite(path, x, len(x))
    except (OSError, ValueError):
        return None
    return x, ranks


def _read_row(line: str, x: np.ndarray, ranks: np.ndarray, i: int) -> None:
    """Row ``i`` of ``x`` and ``ranks`` from its line, with every check of
    the loader contract (module docstring); a TypeError or ValueError
    says what the line breaks.  The line walk of ``read_dataset_jsonl``."""
    row = _json_line(line)
    if not isinstance(row, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(row).__name__}")
    row_ranks = row.get("ranks")
    if not isinstance(row_ranks, list) or not all(type(r) is int and r >= 0 for r in row_ranks):
        raise ValueError(f"ranks must be a list of non-negative JSON integers, got {row_ranks!r}")
    values = row.get("features")
    try:
        # Takes real numbers only, so strings, null and nested
        # lists fail here; a bool passes and is refused below.
        feats = array.array("d", values)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"features must be a list of JSON numbers that fit float64: {exc}") from None
    if len(feats) != x.shape[1] or len(row_ranks) != ranks.shape[1]:
        raise ValueError("instance shape does not match header")
    # JSON writes a boolean only as the bare literal true or false, so a
    # line without either holds none; the exact test costs a sixth of a
    # canvas read when run on every line.
    if ("true" in line or "false" in line) and bool in map(type, values):
        raise ValueError("features must be JSON numbers, not true or false")
    x[i] = feats
    try:
        ranks[i] = row_ranks
    except OverflowError:
        raise ValueError(f"ranks must fit int64, got {row_ranks!r}") from None


def read_dataset_jsonl(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a JSONL dataset; returns (header, x, ranks), the (n, d) float64
    features and the (n, k) int64 ranks.

    The header line is always parsed and checked.  The arrays then come
    from the binary copy ``write_dataset_jsonl`` puts beside the file
    when it holds the sha256 of the file's bytes and arrays of the
    header's k and d that pass the row checks below.  In every other case
    (no copy, a stale digest, an unreadable or mismatched copy) the
    file's rows are parsed, so both ways return the same arrays.

    A malformed header or row, a feature that is not a JSON number or is
    not finite, a negative rank or a number too large for its array is a
    ValueError that names the first such line as ``file:line``.  The rows
    are counted first, so each block of rows (module docstring) is parsed
    straight into its slots of the two matrices and the dataset is never
    held twice.  Finiteness is checked once over the filled rows, after
    the last row or before a malformed line is named.
    """
    # Latin-1 decodes any byte, so a non-ASCII one fails on its own line
    # and not on the line where the decoder's read-ahead meets it.
    with open(path, "r", encoding="latin-1") as fh:
        lineno = 1
        try:
            header = _json_line(fh.readline())
            k, d = _checked_header(header)
            stored = _sidecar_arrays(path, k, d)
            if stored is not None:
                return (header, *stored)
            # A valid row spends over 2(d + k) bytes on its values and
            # commas, so a header cannot make room for more rows than the
            # file could hold: a row past that room fails its checks.
            n = min(_line_count(path) - 1, os.path.getsize(path) // (2 * (d + k)))
            x = np.empty((n, d))
            ranks = np.empty((n, k), dtype=np.int64)
            step, start = max(1, _BLOCK_VALUES // d), 0
            while lines := list(itertools.islice(fh, step)):
                stop = start + len(lines)
                if not _parse_block(lines, x[start:stop], ranks[start:stop]):
                    for lineno, line in enumerate(lines, start=start + 2):
                        _read_row(line, x, ranks, lineno - 2)
                start = stop
        except (TypeError, ValueError) as exc:
            if lineno > 2:
                _check_finite(path, x, lineno - 2)
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    _check_finite(path, x, start)
    if not n:
        raise ValueError(f"{path}: dataset has a header but no instances")
    return header, x, ranks


# (magic number, file suffix) per channel count.
_PNM = {1: ("P5", "pgm"), 3: ("P6", "ppm")}


def write_pnm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) from an (h, w, 1) array or PPM (P6) from an
    (h, w, 3) array, with values in [0, 1]."""
    data = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(f"{_PNM[c][0]}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
