"""File formats: MOT-challenge rows, per-detection feature rows and model
checkpoints as text, and the stages' array archives as uncompressed,
pickle-free ``.npz`` files (:func:`save_arrays`, :func:`load_arrays`).

Each text format has one column representation, which its writer takes
and its reader returns: a :class:`MotTable` and a :class:`FeatureTable`,
whose embeddings are one ``(N, K+1, D)`` stack, foreground first, as a
features line holds them.  A reader converts the tokens column by column
with ``int`` and ``float`` and checks whole columns; only where that
fails does it convert each line alone, to name the first bad line in its
:class:`ParseError`.  :func:`load_arrays` reads every archive member in
chunks, after checking its header's shape against the member's size.

All writers are deterministic: stable ordering and fixed decimal
formatting, so identical inputs produce byte-identical files and every
format round-trips losslessly at its declared precision.  The MOT and
feature writers format each line with one ``%`` template: ``%.6f`` for
boxes, confidence and visibility, ``%.9g`` for feature values, ``%d`` for
frames, ids and visibility bits.
"""

from __future__ import annotations

import math
import warnings
import zipfile
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import DataError, _check_boxes
from .embedder import EmbedderModel, PARAM_NAMES

__all__ = [
    "ParseError",
    "MotTable",
    "FeatureTable",
    "read_text",
    "row_lines",
    "write_mot",
    "parse_mot",
    "write_features",
    "parse_features",
    "save_model",
    "load_model",
    "save_arrays",
    "load_arrays",
]

# frame, id, box, confidence, class, visibility: 6 decimals for the floats.
_MOT_LINE = "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%.6f\n"
# Lines formatted per write or parsed per block, which bounds the Python
# floats and strings alive at once: parsing a default run's 18,750
# feature lines at once raised the peak RSS of ``prtrack track`` from 92
# to 144 MB.
_LINES_PER_BLOCK = 1024
# Bytes per read of an archive member by load_arrays: below glibc's
# initial mmap threshold, so the chunks reuse heap memory.
_READ_CHUNK = 1 << 16


class ParseError(DataError):
    """Malformed file content, located by line and, where given, file."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


@dataclass(frozen=True)
class MotTable:
    """N MOT-challenge rows as columns.  The reader reads int64 integer
    columns; the writer formats object arrays of Python ints too."""

    frame: np.ndarray       # (N,) integers
    id: np.ndarray          # (N,) integers
    boxes: np.ndarray       # (N, 4) left, top, width, height
    conf: np.ndarray        # (N,)
    class_id: np.ndarray    # (N,) integers
    visibility: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def of_boxes(cls, frame, ids, boxes) -> "MotTable":
        """Rows of confidence 1, class 1 and visibility 1."""
        n = len(frame)
        return cls(frame, ids, boxes, np.ones(n), np.ones(n, dtype=int),
                   np.ones(n))


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, all line ends read as
    ``\\n``; other bytes raise :class:`ParseError` naming path and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        # The line ends before the bad byte, as the text is read: \r\n,
        # \r or \n.
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"not UTF-8 text ({exc.reason})", line + 1,
                         path) from None


def row_lines(path) -> np.ndarray:
    """The line number of each row of the text file at ``path``: of each
    non-blank line, counted from 1."""
    lines = read_text(path).split("\n")
    return np.flatnonzero(np.fromiter(map(bool, map(str.strip, lines)),
                                      bool, len(lines))) + 1


def _read_rows(path, split, columns) -> list[np.ndarray]:
    """``columns(rows)`` of the non-blank lines of the text file at
    ``path``, split into tokens by ``split``, a block of lines at a time
    after the first row.  Where ``columns`` raises ``ValueError`` or
    ``IndexError``, the :class:`ParseError` names the first line that
    fails alone, else the first that fails after the first row."""
    lines = read_text(path).split("\n")
    blocks, first = [], []
    try:
        for lo in range(0, len(lines), _LINES_PER_BLOCK):
            rows = list(filter(None, map(split,
                                         lines[lo:lo + _LINES_PER_BLOCK])))
            if rows:
                first = first or rows[:1]
                blocks.append([c[1:] for c in columns(first + rows)])
    except (ValueError, IndexError):
        for before in ([], first):
            for lineno, row in enumerate(map(split, lines), start=1):
                try:
                    if row:
                        columns(before + [row])
                except (ValueError, IndexError) as exc:
                    raise ParseError(str(exc), lineno, path) from None
        raise AssertionError(f"{path}: no line fails on its own")
    return ([np.concatenate(c) for c in zip(*blocks)] if blocks
            else columns([]))


def _ints(tokens, name: str) -> np.ndarray:
    """``int`` of each token, in int64; a value outside it raises
    ``ValueError`` naming ``name``."""
    try:
        return np.fromiter(map(int, tokens), np.int64)
    except OverflowError:
        raise ValueError(f"{name} is outside the int64 range") from None


def _floats(tokens) -> np.ndarray:
    return np.fromiter(map(float, tokens), float)


def _write_rows(path, line: str, keys, *columns) -> None:
    """One ``line`` per row of the ``(N,)`` or ``(N, M)`` columns, filled
    with the row's values, the rows stably sorted by the ``(N,)`` keys."""
    order = np.lexsort(keys[::-1])
    columns = [c[:, None] if c.ndim == 1 else c for c in (*keys, *columns)]
    with open(path, "w") as fh:
        for lo in range(0, len(order), _LINES_PER_BLOCK):
            rows = order[lo:lo + _LINES_PER_BLOCK]
            values = np.concatenate([c[rows].astype(object) for c in columns],
                                    axis=1)
            fh.write(line * len(rows) % tuple(values.ravel().tolist()))


def write_mot(table: MotTable, path) -> None:
    """Write the rows of ``table``, stably sorted by frame and id."""
    _write_rows(path, _MOT_LINE, (table.frame, table.id), table.boxes,
                table.conf, table.class_id, table.visibility)


def _mot_fields(line: str) -> list[str]:
    return line.strip().split(",") if line.strip() else []


def _mot_columns(rows: list[list[str]]):
    """The :class:`MotTable` columns of MOT rows: nine fields each, frame,
    id and class in int64, finite confidence, visibility and box, and a
    box of positive size; each field is converted in field order."""
    if bad := set(map(len, rows)) - {9}:
        raise ValueError(f"expected 9 fields, got {bad.pop()}")
    fields = list(chain.from_iterable(rows))
    frame, ids = _ints(fields[0::9], "frame"), _ints(fields[1::9], "id")
    boxes = np.stack([_floats(fields[j::9]) for j in range(2, 6)], axis=1)
    conf, class_id = _floats(fields[6::9]), _ints(fields[7::9], "class")
    visibility = _floats(fields[8::9])
    if not (np.isfinite(conf).all() and np.isfinite(visibility).all()):
        raise ValueError("conf and visibility must be finite")
    _check_boxes(boxes)
    return frame, ids, boxes, conf, class_id, visibility


def parse_mot(path) -> MotTable:
    """The rows of a MOT file, one per non-blank line, in file order.  A
    frame below the row's before (below 0 on the first row) warns."""
    table = MotTable(*_read_rows(path, _mot_fields, _mot_columns))
    falls = np.flatnonzero(table.frame < np.append(0, table.frame[:-1]))
    for line in row_lines(path)[falls].tolist() if len(falls) else []:
        warnings.warn(f"non-monotone frame at line {line}")
    return table


@dataclass(frozen=True)
class FeatureTable:
    """The feature rows of N detections as columns, each row keyed by its
    frame and its index within the frame, its embeddings one ``(K+1, D)``
    stack ordered like its visibility bits.  A table checks, once over its
    whole arrays, what :class:`~prtrack.core.PartFeatureSet` checks per
    set: shapes, finite embeddings and visibility bits in {0, 1}."""

    frame: np.ndarray        # (N,) integers
    det_index: np.ndarray    # (N,) integers
    embeddings: np.ndarray   # (N, K+1, D), (foreground, part 1..K)
    visibility: np.ndarray   # (N, K+1) of {0, 1}, in the same order
    role_logits: np.ndarray  # (N, 4)

    def __post_init__(self):
        n, k1, d = self.embeddings.shape
        if k1 < 2:
            raise ValueError("parts must be an (N, K, D) array with K >= 1")
        for name, shape in (("frame", (n,)), ("det_index", (n,)),
                            ("visibility", (n, k1)),
                            ("role_logits", (n, 4))):
            if (actual := getattr(self, name).shape) != shape:
                raise ValueError(f"{name} has shape {actual}, "
                                 f"expected {shape}")
        if not ((self.visibility == 0) | (self.visibility == 1)).all():
            raise ValueError("visibility entries must be 0 or 1")
        if not np.isfinite(self.embeddings).all():
            raise ValueError("part and foreground embeddings must be finite")

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def empty(cls) -> "FeatureTable":
        """No rows, of K 1 and D 0."""
        return cls(*_feature_columns([]))


def write_features(table: FeatureTable, path) -> None:
    """One line per row of ``table``, stably sorted by frame and index in
    the frame: frame, index, K, D, the foreground, the K parts, the K+1
    visibility bits and the 4 role logits, separated by spaces."""
    n, k1, d = table.embeddings.shape
    line = " ".join(["%d %d", str(k1 - 1), str(d)] + ["%.9g"] * (k1 * d)
                    + ["%d"] * k1 + ["%.9g"] * 4) + "\n"
    _write_rows(path, line, (table.frame, table.det_index),
                table.embeddings.reshape(n, k1 * d), table.visibility,
                table.role_logits)


def _feature_columns(rows: list[list[str]]):
    """The :class:`FeatureTable` columns of feature rows shaped as the
    first: frame and index in int64, K and D, then exactly the values they
    imply.  A row's tokens are converted, and its rules checked, in the
    order of the per-line reader that built a ``PartFeatureSet`` a row."""
    frame, det_index, ks, ds = (
        _ints(map(itemgetter(j), rows), name)
        for j, name in enumerate(("frame", "index", "K", "D")))
    k, d = (int(ks[0]), int(ds[0])) if rows else (1, 0)
    if (ks != k).any() or (ds != d).any():
        raise ValueError("parts shaped unlike the first row's")
    vis_at = 4 + (k + 1) * d                 # the first visibility bit
    width = vis_at + k + 1 + 4
    if bad := set(map(len, rows)) - {width}:
        raise ValueError(f"expected {width} tokens, got {bad.pop()}")
    if k < 0 or d < 0:
        raise ValueError(f"K {k} and D {d} must not be negative")
    n, tokens = len(rows), list(chain.from_iterable(rows))

    def block(lo, hi):                       # columns lo..hi-1, (hi-lo, N)
        return chain.from_iterable(tokens[j::width] for j in range(lo, hi))
    vectors = _floats(block(4, vis_at)).reshape(vis_at - 4, n).T
    vis = _ints(block(vis_at, vis_at + k + 1), "visibility")
    vis = vis.reshape(k + 1, n).T
    logits = _floats(block(width - 4, width)).reshape(4, n).T
    if not np.isfinite(logits).all():
        raise ValueError("role logits must be finite")
    if k < 1:
        raise ValueError("parts must be a (K, D) array with K >= 1")
    columns = (frame, det_index, vectors.reshape(n, k + 1, d), vis, logits)
    FeatureTable(*columns)           # the visibility and finiteness checks
    return columns


def parse_features(path) -> FeatureTable:
    """The rows of a features file, one per non-blank line, in file order,
    as :func:`write_features` writes them."""
    return FeatureTable(*_read_rows(path, str.split, _feature_columns))


_CKPT_MAGIC = "prtrack-model v1"


def save_model(model: EmbedderModel, path) -> None:
    """Structured-text checkpoint: magic line, then one block per weight
    array (name + shape header followed by full-precision rows)."""
    with open(path, "w") as fh:
        fh.write(_CKPT_MAGIC + "\n")
        for name in PARAM_NAMES:
            arr = np.atleast_2d(getattr(model, name))
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                fh.write(" ".join("{:.17g}".format(v) for v in row) + "\n")


def load_model(path) -> EmbedderModel:
    """The model of a :func:`save_model` checkpoint.  A malformed header or
    row, an unknown, repeated or missing array, or text after the blank
    line that ends the arrays raises :class:`ParseError` naming the line."""
    lines = iter(read_text(path).split("\n"))
    magic = next(lines)
    if magic != _CKPT_MAGIC:
        raise ParseError(f"bad checkpoint header {magic!r}", 1, path)
    arrays = {}
    lineno = 1
    while True:
        header = next(lines, "")
        lineno += 1
        if not header.strip():
            break
        try:
            name, rows, cols = header.split()
            rows, cols = int(rows), int(cols)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from exc
        if name in arrays:
            raise ParseError(f"repeated array {name!r}", lineno, path)
        if name not in PARAM_NAMES:
            raise ParseError(f"unknown array {name!r}", lineno, path)
        if rows < 0 or cols < 0:
            raise ParseError(f"{name} has a negative shape ({rows}, {cols})",
                             lineno, path)
        data = []
        for _ in range(rows):
            line = next(lines, "")
            lineno += 1
            try:
                data.append([float(v) for v in line.split()])
            except ValueError as exc:
                raise ParseError(str(exc), lineno, path) from exc
            if len(data[-1]) != cols:    # short, ragged, or past the end
                raise ParseError(f"{name} row has {len(data[-1])} values, "
                                 f"expected {cols}", lineno, path)
            if not all(map(math.isfinite, data[-1])):
                raise ParseError(f"{name} row has a non-finite value",
                                 lineno, path)
        arrays[name] = np.array(data).reshape(rows, cols)
    # The blank line ends the arrays: only blank lines may follow it.
    for extra, line in enumerate(lines, lineno + 1):
        if line.strip():
            raise ParseError("text after the blank line that ends the "
                             "arrays", extra, path)
    missing = [n for n in PARAM_NAMES if n not in arrays]
    if missing:
        raise ParseError(f"missing arrays {missing}", lineno, path)
    # A bias is one row; a bias of any other row count fails the shape check.
    kwargs = {name: arrays[name][0]
              if name.startswith("b_") and len(arrays[name]) == 1
              else arrays[name] for name in PARAM_NAMES}
    try:
        return EmbedderModel(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def save_arrays(path, arrays: dict) -> None:
    """The arrays as an uncompressed ``.npz`` archive that ``np.load``
    reads with ``allow_pickle=False``.  Unlike ``np.savez``, arrays go to
    the file from their own buffers, without a copy of a C-ordered array,
    and every member has the zip format's fixed 1980 timestamp, so equal
    arrays make equal files."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            header = {"descr": np.lib.format.dtype_to_descr(array.dtype),
                      "fortran_order": False, "shape": array.shape}
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                         force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(array.reshape(-1).view(np.uint8).data)


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array of member ``name`` of an ``.npz`` archive, read in chunks
    into an array of its own once the header's shape is known to fit in
    the member."""
    with zf.open(f"{name}.npy") as fh:
        version = np.lib.format.read_magic(fh)
        if version not in _NPY_HEADERS:
            raise ValueError(f"{name} has .npy version {version}")
        shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
        if dtype.hasobject:
            raise ValueError("Object arrays cannot be loaded when "
                             "allow_pickle=False")
        if math.prod(shape) * dtype.itemsize > zf.getinfo(
                f"{name}.npy").file_size:
            raise EOFError(f"{name} is shorter than its shape {shape}")
        array = np.empty(shape[::-1] if fortran_order else shape, dtype)
        buf = array.reshape(-1).view(np.uint8).data
        for lo in range(0, len(buf), _READ_CHUNK):
            chunk = buf[lo:lo + _READ_CHUNK]
            if fh.readinto(chunk) < len(chunk):
                raise EOFError(f"{name} ends early")
    return array.T if fortran_order else array


def load_arrays(path, spec: dict[str, str], what: str,
                sizes) -> dict[str, np.ndarray]:
    """The arrays named in ``spec`` of the ``.npz`` archive at ``path``,
    opened without pickle and checked against ``spec``.

    ``spec`` gives each array's dtype kind and shape, as in ``"f N K+1
    D"``: each dimension is an int or a name of ``sizes(arrays)``, which
    may raise ``ValueError`` on arrays it cannot size.  Float arrays must
    be finite.  Each array is read in chunks, after its ``.npy`` header's
    shape is checked against the member's size, so a header that claims
    more than the member holds allocates nothing.  A file that is no such
    archive, a missing or misshapen array or a non-finite float raises
    :class:`ParseError` naming the file; ``what`` names the archive in its
    message.
    """
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ParseError("a single array, not an archive", path=path)
        with npz:
            members = npz.zip.namelist()
            missing = [name for name in spec if f"{name}.npy" not in members]
            arrays = {name: _read_member(npz.zip, name)
                      for name in spec if name not in missing}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"not a {what} archive: {exc}", path=path) from None
    if missing:
        raise ParseError(f"missing arrays {missing}", path=path)
    try:
        dims = sizes(arrays)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    for name, entry in spec.items():
        kind, *names = entry.split()
        shape = tuple(dims[x] if x in dims else int(x) for x in names)
        array = arrays[name]
        if array.shape != shape:
            raise ParseError(f"{name} has shape {array.shape}, expected "
                             f"{shape}", path=path)
        if array.dtype.kind != kind:
            raise ParseError(f"{name} has dtype {array.dtype}", path=path)
        if kind == "f" and not np.isfinite(array).all():
            raise ParseError(f"{name} has a non-finite value", path=path)
    return arrays
