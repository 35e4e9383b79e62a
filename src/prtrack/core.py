"""Shared domain types and the visibility-weighted part distance.

Every person (detection or tracklet) is represented by a set of body-part
embeddings plus a foreground embedding, each with a binary visibility flag.
The distance between two such sets is the average Euclidean distance over
their mutually visible indices; pairs with no mutually visible index are
unmatchable and map to +inf in cost matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "NoMutualVisibility",
    "Role",
    "PartFeatureSet",
    "part_distance",
    "part_distance_matrix",
    "xywh_to_xyah",
    "xyah_to_xywh",
    "iou_matrix",
]


class DataError(Exception):
    """Input a stage cannot work with: a malformed file or config value, or
    data outside what a stage supports.  The command line reports it with
    exit code 2; any other exception is a bug."""


class NoMutualVisibility(Exception):
    """Raised when two feature sets share no visible index."""


class Role(enum.IntEnum):
    # Order matters: ties in role voting break toward the lowest value.
    PLAYER = 0
    GOALKEEPER = 1
    REFEREE = 2
    STAFF = 3


@dataclass(frozen=True)
class PartFeatureSet:
    """K part embeddings, one foreground embedding, and K+1 visibility bits.

    ``visibility`` is ordered (foreground, part 1, ..., part K).
    """

    parts: np.ndarray        # (K, D)
    foreground: np.ndarray   # (D,)
    visibility: np.ndarray   # (K+1,) of {0, 1}

    def __post_init__(self):
        parts = np.asarray(self.parts, dtype=float)
        fg = np.asarray(self.foreground, dtype=float)
        vis = np.asarray(self.visibility, dtype=int)
        if parts.ndim != 2 or parts.shape[0] < 1:
            raise ValueError("parts must be a (K, D) array with K >= 1")
        if fg.shape != (parts.shape[1],):
            raise ValueError("foreground dimension must match parts")
        if vis.shape != (parts.shape[0] + 1,):
            raise ValueError("visibility must have K+1 entries")
        if not np.all((vis == 0) | (vis == 1)):
            raise ValueError("visibility entries must be 0 or 1")
        if not (np.isfinite(parts).all() and np.isfinite(fg).all()):
            raise ValueError("part and foreground embeddings must be finite")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "foreground", fg)
        object.__setattr__(self, "visibility", vis)

    @property
    def num_parts(self) -> int:
        return self.parts.shape[0]

    @property
    def dim(self) -> int:
        return self.parts.shape[1]

    def stacked(self) -> np.ndarray:
        """(K+1, D) array ordered (foreground, part 1..K), matching visibility."""
        return np.vstack([self.foreground[None, :], self.parts])


def _stack(sets: list[PartFeatureSet]) -> tuple[np.ndarray, np.ndarray]:
    """Features (N, K+1, D) and visibility (N, K+1) of N feature sets."""
    return (np.concatenate([np.array([p.foreground for p in sets])[:, None],
                            np.array([p.parts for p in sets])], axis=1),
            np.array([p.visibility for p in sets]))


def _part_distances(fa: np.ndarray, va: np.ndarray,
                    fb: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """(M, N) part distances of stacked feature sets: features (M, K+1, D)
    and (N, K+1, D), visibility (M, K+1) and (N, K+1); +inf where no index
    is visible on both sides.

    The package's one part-distance kernel.  The float operations keep one
    order (the difference, the Euclidean norm over D, the visibility-masked
    sum over K+1, then the division by the mutual count), so every pair's
    distance is reproducible to the bit whatever M and N are.  Temporaries
    are (M, N, K+1, D).
    """
    if fa.shape[1:] != fb.shape[1:]:
        raise ValueError("feature sets must share K and D")
    dists = np.linalg.norm(fa[:, None, :, :] - fb[None, :, :, :], axis=3)
    mutual = (va[:, None, :] * vb[None, :, :]).astype(float)
    denom = mutual.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (mutual * dists).sum(axis=2) / denom
    out[denom == 0] = np.inf
    return out


def part_distance(q: PartFeatureSet, g: PartFeatureSet) -> float:
    """Average Euclidean distance over mutually visible indices.

    Indices range over (foreground, part 1..K).  Raises
    :class:`NoMutualVisibility` when no index is visible on both sides.
    """
    out = _part_distances(*_stack([q]), *_stack([g]))[0, 0]
    if not (q.visibility * g.visibility).any():
        raise NoMutualVisibility("no mutually visible body part")
    return float(out)


def part_distance_matrix(
    a: list[PartFeatureSet], b: list[PartFeatureSet]
) -> np.ndarray:
    """(M, N) part distances; +inf where no mutual visibility.

    Cell (i, j) equals :func:`part_distance` of ``a[i]`` and ``b[j]`` to
    the bit.
    """
    if not a or not b:
        return np.zeros((len(a), len(b)))
    return _part_distances(*_stack(a), *_stack(b))


def _check_boxes(boxes: np.ndarray) -> None:
    """Finite fields and positive sizes, over an ``(N, 4)`` array of x, y,
    w, h rows."""
    if not np.isfinite(boxes).all():
        raise ValueError("box fields must be finite")
    if not (boxes[:, 2:] > 0).all():
        raise ValueError("box width and height must be positive")


def xywh_to_xyah(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) rows of center x, center y, aspect ratio w/h and height of
    (N, 4) ``x, y, w, h`` box rows; unchecked."""
    x, y, w, h = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    return np.stack([x + w / 2.0, y + h / 2.0, w / h, h], axis=1)


def xyah_to_xywh(xyah: np.ndarray) -> np.ndarray:
    """Inverse of :func:`xywh_to_xyah` over rows; unchecked."""
    cx, cy, a, h = np.asarray(xyah, dtype=float).reshape(-1, 4).T
    w = a * h
    return np.stack([cx - w / 2.0, cy - h / 2.0, w, h], axis=1)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(M, N) IoU of (M, 4) and (N, 4) ``x, y, w, h`` box arrays; 0 where
    a box has ``w <= 0`` or ``h <= 0`` or the union is not positive.  The
    float operations keep one order (x + w, min/max, w * h, then the union
    a + b - inter), so results are reproducible to the bit."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    ax, ay, aw, ah = (c[:, None] for c in a.T)
    bx, by, bw, bh = b.T
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    valid = (union > 0) & (aw > 0) & (ah > 0) & (bw > 0) & (bh > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=valid)
