"""File formats: MOT-challenge records, per-detection feature records and
model checkpoints as text, and the stages' array archives as uncompressed,
pickle-free ``.npz`` files (:func:`save_arrays`, :func:`load_arrays`).

All writers are deterministic: stable ordering and fixed decimal
formatting, so identical inputs produce byte-identical files and every
format round-trips losslessly at its declared precision.  The MOT and
feature writers format each line with one ``%`` template: ``%.6f`` for
boxes, confidence and visibility, ``%.9g`` for feature values, ``%d`` for
frames, ids and visibility bits.  Feature rows are written from a
:class:`FeatureTable` of columns.
"""

from __future__ import annotations

import math
import operator
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import BoundingBox, DataError, PartFeatureSet, Tracklet
from .embedder import EmbedderModel, PARAM_NAMES

__all__ = [
    "ParseError",
    "MotRecord",
    "tracklets_to_records",
    "FeatureRecord",
    "FeatureTable",
    "read_text",
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
# Feature rows formatted per write, which bounds the Python floats alive at
# once: a whole run's rows at once held about twice the memory of the old
# per-record writer.
_FEATURE_ROWS_PER_WRITE = 1024
# Bytes per read of an array that load_arrays reads into a caller's buffer:
# below glibc's initial mmap threshold, so the chunks reuse heap memory.
_READ_CHUNK = 1 << 16


class ParseError(DataError):
    """Malformed file content, located by line and, where given, file."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


class MotRecord(NamedTuple):
    """One MOT-challenge row: frame, id, box, confidence, class, visibility.
    A named tuple, so a run's thousands of records are cheap to build."""

    frame: int
    id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float = 1.0
    class_id: int = 1
    visibility: float = 1.0

    @property
    def box(self) -> BoundingBox:
        return BoundingBox(self.bb_left, self.bb_top,
                           self.bb_width, self.bb_height)


def tracklets_to_records(tracklets: list[Tracklet]) -> list[MotRecord]:
    """MOT records of each tracklet's detections in turn."""
    return [MotRecord(frame, t.id, *box) for t in tracklets
            for frame, box in zip(t.detections.frame.tolist(),
                                  t.detections.boxes.tolist())]


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, all line ends read as
    ``\\n``; other bytes raise :class:`ParseError` naming path and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})",
                         data.count(b"\n", 0, exc.start) + 1, path) from None


def write_mot(records, path) -> None:
    """Write ``records`` (:class:`MotRecord` objects or plain tuples in its
    field order), stably sorted by frame and id."""
    with open(path, "w") as fh:
        fh.write("".join([_MOT_LINE % r for r in sorted(
            records, key=operator.itemgetter(0, 1))]))


def parse_mot(path) -> list[MotRecord]:
    records = []
    last_frame = 0
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        fields = raw.split(",")
        if len(fields) != 9:
            raise ParseError(f"expected 9 fields, got {len(fields)}", lineno,
                             path)
        try:
            rec = MotRecord(
                frame=int(fields[0]), id=int(fields[1]),
                bb_left=float(fields[2]), bb_top=float(fields[3]),
                bb_width=float(fields[4]), bb_height=float(fields[5]),
                conf=float(fields[6]), class_id=int(fields[7]),
                visibility=float(fields[8]))
            if not all(map(math.isfinite, (rec.conf, rec.visibility))):
                raise ValueError("conf and visibility must be finite")
            rec.box  # BoundingBox rejects a non-finite or empty box
        except ValueError as exc:
            raise ParseError(str(exc), lineno, path) from exc
        if rec.frame < last_frame:
            warnings.warn(f"non-monotone frame at line {lineno}")
        last_frame = rec.frame
        records.append(rec)
    return records


@dataclass(frozen=True)
class FeatureRecord:
    frame: int
    det_index: int
    features: PartFeatureSet
    role_logits: np.ndarray  # (4,)


@dataclass(frozen=True)
class FeatureTable:
    """The feature rows of N detections as columns, each row keyed by its
    frame and its index within the frame.  A table checks, once over its
    whole arrays, what :class:`~prtrack.core.PartFeatureSet` checks per set:
    shapes, finite embeddings and visibility bits in {0, 1}."""

    frame: np.ndarray        # (N,) integers
    det_index: np.ndarray    # (N,) integers
    parts: np.ndarray        # (N, K, D)
    foreground: np.ndarray   # (N, D)
    visibility: np.ndarray   # (N, K+1) of {0, 1}, ordered (fg, parts)
    role_logits: np.ndarray  # (N, 4)

    def __post_init__(self):
        n, k, d = self.parts.shape
        if k < 1:
            raise ValueError("parts must be an (N, K, D) array with K >= 1")
        for name, shape in (("frame", (n,)), ("det_index", (n,)),
                            ("foreground", (n, d)),
                            ("visibility", (n, k + 1)),
                            ("role_logits", (n, 4))):
            if (actual := getattr(self, name).shape) != shape:
                raise ValueError(f"{name} has shape {actual}, "
                                 f"expected {shape}")
        if not ((self.visibility == 0) | (self.visibility == 1)).all():
            raise ValueError("visibility entries must be 0 or 1")
        if not (np.isfinite(self.parts).all()
                and np.isfinite(self.foreground).all()):
            raise ValueError("part and foreground embeddings must be finite")

    @classmethod
    def from_records(cls, records: list[FeatureRecord]) -> "FeatureTable":
        """The rows of ``records``, in order; their feature sets must share
        K and D."""
        if not records:
            return cls(np.zeros(0, int), np.zeros(0, int), np.zeros((0, 1, 0)),
                       np.zeros((0, 0)), np.zeros((0, 2), int),
                       np.zeros((0, 4)))
        # Python ints, so frames and indices beyond 64 bits keep their value.
        return cls(np.array([r.frame for r in records], dtype=object),
                   np.array([r.det_index for r in records], dtype=object),
                   np.stack([r.features.parts for r in records]),
                   np.stack([r.features.foreground for r in records]),
                   np.stack([r.features.visibility for r in records]),
                   np.stack([r.role_logits for r in records]))


def write_features(table: FeatureTable, path) -> None:
    """One line per row of ``table``, stably sorted by frame and index in
    the frame: frame, index, K, D, the foreground, the K parts, the K+1
    visibility bits and the 4 role logits, separated by spaces."""
    n, k, d = table.parts.shape
    line = " ".join(["%d %d", str(k), str(d)] + ["%.9g"] * ((k + 1) * d)
                    + ["%d"] * (k + 1) + ["%.9g"] * 4) + "\n"
    keys = list(zip(table.frame.tolist(), table.det_index.tolist()))
    order = sorted(range(n), key=keys.__getitem__)
    vectors = np.concatenate([table.foreground, table.parts.reshape(n, k * d)],
                             axis=1)
    with open(path, "w") as fh:
        for start in range(0, n, _FEATURE_ROWS_PER_WRITE):
            rows = order[start:start + _FEATURE_ROWS_PER_WRITE]
            fh.write("".join([line % (*keys[i], *v, *bits, *logits)
                              for i, v, bits, logits in zip(
                                  rows, vectors[rows].tolist(),
                                  table.visibility[rows].tolist(),
                                  table.role_logits[rows].tolist())]))


def parse_features(path) -> list[FeatureRecord]:
    return [rec for _, rec in _feature_rows(path)]


def _feature_rows(path) -> list[tuple[int, FeatureRecord]]:
    """``(line number, record)`` of each non-blank line of a features file."""
    records = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        tok = raw.split()
        try:
            frame, det_index, k, d = (int(tok[0]), int(tok[1]),
                                      int(tok[2]), int(tok[3]))
            expected = 4 + d + k * d + (k + 1) + 4
            if len(tok) != expected:
                raise ParseError(f"expected {expected} tokens, "
                                 f"got {len(tok)}", lineno, path)
            pos = 4
            fg = np.array([float(v) for v in tok[pos:pos + d]])
            pos += d
            parts = np.array(
                [float(v) for v in tok[pos:pos + k * d]]).reshape(k, d)
            pos += k * d
            vis = np.array([int(v) for v in tok[pos:pos + k + 1]])
            pos += k + 1
            role_logits = np.array([float(v) for v in tok[pos:pos + 4]])
            if not np.isfinite(role_logits).all():
                raise ValueError("role logits must be finite")
            records.append((lineno, FeatureRecord(
                frame, det_index,
                PartFeatureSet(parts=parts, foreground=fg, visibility=vis),
                role_logits)))
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), lineno, path) from exc
    return records


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
    reads with ``allow_pickle=False``.  An entry may also be a pair
    ``(array, rows)``, written as ``array[rows]`` one row at a time, without
    gathering the rows.  Unlike ``np.savez``, arrays go to the file from
    their own buffers, without a copy of the whole array, and every member
    has the zip format's fixed 1980 timestamp, so equal arrays make equal
    files."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, entry in arrays.items():
            array, rows = entry if isinstance(entry, tuple) else (entry, None)
            array = np.asarray(array, order="C")
            shape = array.shape if rows is None else (len(rows),
                                                      *array.shape[1:])
            header = {"descr": np.lib.format.dtype_to_descr(array.dtype),
                      "fortran_order": False, "shape": shape}
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                         force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                for block in ((array,) if rows is None
                              else (array[r] for r in rows.tolist())):
                    fh.write(block.reshape(-1).view(np.uint8).data)


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_into(zf: zipfile.ZipFile, name: str, alloc) -> np.ndarray:
    """The array of member ``name`` of an ``.npz`` archive, read in chunks
    into ``alloc(shape, dtype)``."""
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
        array = alloc(shape[::-1] if fortran_order else shape, dtype)
        buf = array.reshape(-1).view(np.uint8).data
        for lo in range(0, len(buf), _READ_CHUNK):
            chunk = buf[lo:lo + _READ_CHUNK]
            if fh.readinto(chunk) < len(chunk):
                raise EOFError(f"{name} ends early")
    return array.T if fortran_order else array


def load_arrays(path, spec: dict[str, str], what: str, sizes,
                into=None) -> dict[str, np.ndarray]:
    """The arrays named in ``spec`` of the ``.npz`` archive at ``path``,
    opened without pickle and checked against ``spec``.

    ``spec`` gives each array's dtype kind and shape, as in ``"f N K+1
    D"``: each dimension is an int or a name of ``sizes(arrays)``, which
    may raise ``ValueError`` on arrays it cannot size.  Float arrays must
    be finite.  ``into`` maps names to allocators ``(shape, dtype) ->
    array`` that those arrays are read into, instead of numpy's own.  A
    file that is no such archive, a missing or misshapen array or a
    non-finite float raises :class:`ParseError` naming the file; ``what``
    names the archive in its message.
    """
    into = into or {}
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ParseError("a single array, not an archive", path=path)
        with npz:
            missing = [name for name in spec if name not in npz.files]
            arrays = {name: _read_into(npz.zip, name, into[name])
                      if name in into else npz[name]
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
