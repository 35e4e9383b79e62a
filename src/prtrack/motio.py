"""Text file formats: MOT-challenge records, per-detection feature records
and model checkpoints.

All writers are deterministic: stable ordering and fixed decimal
formatting, so identical inputs produce byte-identical files and every
format round-trips losslessly at its declared precision.
"""

from __future__ import annotations

import math
import warnings
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
    "read_text",
    "write_mot",
    "parse_mot",
    "write_features",
    "parse_features",
    "save_model",
    "load_model",
]

_F = "{:.6f}"   # box/confidence precision
_G = "{:.9g}"   # feature vectors: 9 significant digits


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
    return [MotRecord(d.frame, t.id, d.box.x, d.box.y, d.box.w, d.box.h,
                      d.confidence)
            for t in tracklets for d in t.detections]


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, all line ends read as
    ``\\n``; other bytes raise :class:`ParseError` naming path and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})",
                         data.count(b"\n", 0, exc.start) + 1, path) from None


def write_mot(records: list[MotRecord], path) -> None:
    lines = []
    for r in sorted(records, key=lambda r: (r.frame, r.id)):
        lines.append(",".join([
            str(r.frame), str(r.id),
            _F.format(r.bb_left), _F.format(r.bb_top),
            _F.format(r.bb_width), _F.format(r.bb_height),
            _F.format(r.conf), str(r.class_id), _F.format(r.visibility),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


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


def _vec(values) -> str:
    return " ".join(_G.format(float(v)) for v in values)


def write_features(records: list[FeatureRecord], path) -> None:
    lines = []
    for r in sorted(records, key=lambda r: (r.frame, r.det_index)):
        f = r.features
        fields = [str(r.frame), str(r.det_index),
                  str(f.num_parts), str(f.dim),
                  _vec(f.foreground)]
        for k in range(f.num_parts):
            fields.append(_vec(f.parts[k]))
        fields.append(" ".join(str(int(v)) for v in f.visibility))
        fields.append(_vec(r.role_logits))
        lines.append(" ".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


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
