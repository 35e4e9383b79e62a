"""Text file formats: MOT-challenge records, per-detection feature records,
tracklet summaries, and model checkpoints.

All writers are deterministic: stable ordering and fixed decimal
formatting, so identical inputs produce byte-identical files and every
format round-trips losslessly at its declared precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, PartFeatureSet
from .embedder import EmbedderModel, PARAM_NAMES

__all__ = [
    "ParseError",
    "MotRecord",
    "FeatureRecord",
    "write_mot",
    "parse_mot",
    "write_features",
    "parse_features",
    "save_model",
    "load_model",
]

_F = "{:.6f}"   # box/confidence precision
_G = "{:.9g}"   # feature vectors: 9 significant digits


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class MotRecord:
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
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) != 9:
                raise ParseError(f"expected 9 fields, got {len(fields)}",
                                 lineno)
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
                raise ParseError(str(exc), lineno) from exc
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
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            tok = raw.split()
            try:
                frame, det_index, k, d = (int(tok[0]), int(tok[1]),
                                          int(tok[2]), int(tok[3]))
                expected = 4 + d + k * d + (k + 1) + 4
                if len(tok) != expected:
                    raise ParseError(
                        f"expected {expected} tokens, got {len(tok)}", lineno)
                pos = 4
                fg = np.array([float(v) for v in tok[pos:pos + d]])
                pos += d
                parts = np.array(
                    [float(v) for v in tok[pos:pos + k * d]]).reshape(k, d)
                pos += k * d
                vis = np.array([int(v) for v in tok[pos:pos + k + 1]])
                pos += k + 1
                role_logits = np.array([float(v) for v in tok[pos:pos + 4]])
                features = PartFeatureSet(parts=parts, foreground=fg,
                                          visibility=vis)
            except ParseError:
                raise
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), lineno) from exc
            records.append(FeatureRecord(frame, det_index, features,
                                         role_logits))
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
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _CKPT_MAGIC:
            raise ParseError(f"bad checkpoint header {magic!r}", 1)
        arrays = {}
        lineno = 1
        while True:
            header = fh.readline()
            lineno += 1
            if not header.strip():
                break
            try:
                name, rows, cols = header.split()
                rows, cols = int(rows), int(cols)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            data = []
            for _ in range(rows):
                line = fh.readline()
                lineno += 1
                data.append([float(v) for v in line.split()])
            arr = np.array(data)
            if arr.shape != (rows, cols):
                raise ParseError(f"shape mismatch for {name}", lineno)
            arrays[name] = arr
    missing = [n for n in PARAM_NAMES if n not in arrays]
    if missing:
        raise ParseError(f"missing arrays {missing}", 1)
    kwargs = {}
    for name in PARAM_NAMES:
        arr = arrays[name]
        kwargs[name] = arr[0] if name.startswith("b_") else arr
    return EmbedderModel(**kwargs)
