"""Synthetic soccer-scenario generator.

Produces ground truth for a desk-scale match clip: smooth agent
trajectories on a pitch, identities, teams, roles, occlusion/exit events,
and per-frame feature-grid observations whose cell contents encode a latent
appearance (role/team centroid + identity offset + noise) plus a per-part
signature, so the embedding model has learnable signal for all three tasks.

A :class:`Scenario` holds its observations as columns, one row per present
(frame, agent), in frame order and, within a frame, in roster order:
``frame`` and ``identity`` ``(N,)``, ``boxes`` ``(N, 4)``,
``part_visible`` ``(N, K)`` and ``part_labels`` ``(N, H, W)``.  An absent
agent has no row.  Feature-grid cells are built only for the rows a caller
reads, as :class:`ReidSamples` holds them: ``cells`` ``(M, H, W, C)`` and
``cell_row`` ``(N,)``, each row's row of ``cells`` or -1.  :func:`generate`
builds them for every row, for every ``sampling_stride``-th row of each
identity (the re-id sample rows), or for none, from the same random stream.

Re-id samples are rows of the scenario: :func:`to_reid_dataset` splits
them into training, query and gallery row indices, and :func:`reid_samples`
takes those rows as a :class:`ReidSamples` table: part labels, identity,
team, role, view and subset columns, each sample's row of the scenario's
cells, and the scenario config and sampling stride it was made for.
:func:`save_reid_samples` writes the table as a pickle-free ``.npz`` stage
file, streaming each sample's cells from the scenario, and
:func:`load_reid_samples` reads and checks it, so the stages that only
train or score re-id need not generate the scenario again.

A run's detections are built once, as columns: :func:`detection_table`
fills a :class:`DetectionTable` of frames, boxes after detector noise,
ground-truth labels and, optionally, ground-truth-derived oracle features.
Features of every source travel as a :class:`~prtrack.motio.FeatureTable`
keyed like the table's rows: the oracle block, the model features of
:func:`embed_detections`, or rows parsed from a features file.  The tracker
steps over :meth:`DetectionTable.by_frame`'s per-frame tables, and its
:class:`~prtrack.tracker.TrackletTable` holds all member rows as one table.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .core import Role
from .embedder import EmbedderModel, TrainBatch, forward_batch
from .motio import (FeatureTable, MotRecord, ParseError, load_arrays,
                    save_arrays)

__all__ = [
    "DETECTOR_NOISES",
    "ScenarioConfig",
    "Agent",
    "Scenario",
    "generate",
    "to_reid_dataset",
    "TRAIN",
    "QUERY",
    "GALLERY",
    "ReidSamples",
    "reid_samples",
    "save_reid_samples",
    "load_reid_samples",
    "DetectionTable",
    "detection_table",
    "embed_detections",
    "to_tracking_input",
    "oracle_feature_projection",
]


# The detector noise models :func:`detection_table` applies.
DETECTOR_NOISES = ("none", "jitter", "dropout")

# Frames per view: samples of one identity in one chunk share a view id.
_VIEW_CHUNK = 125


@dataclass(frozen=True)
class ScenarioConfig:
    # Roster and clip length mirror a 30 s broadcast clip at 25 fps.
    n_players_per_team: int = 10
    n_goalkeepers: int = 2
    n_referees: int = 2
    n_staff: int = 1
    frames: int = 750
    pitch_width: float = 1920.0
    pitch_height: float = 1080.0
    occlusion_rate: float = 0.0
    exit_rate: float = 0.0
    feature_noise_sigma: float = 0.3
    role_separation: float = 3.0
    team_separation: float = 3.0
    identity_separation: float = 1.0
    part_signature_scale: float = 2.0
    grid_h: int = 8
    grid_w: int = 4
    channels: int = 16
    num_parts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_players_per_team < 1 or self.frames < 1:
            raise ValueError("n_players_per_team and frames must be >= 1")
        for name in ("pitch_width", "pitch_height", "feature_noise_sigma",
                     "role_separation", "team_separation",
                     "identity_separation", "part_signature_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name, lo in (("grid_h", 1), ("grid_w", 1), ("num_parts", 1),
                         ("pitch_width", 0), ("pitch_height", 0),
                         ("n_goalkeepers", 0), ("n_referees", 0),
                         ("n_staff", 0), ("seed", 0),
                         ("feature_noise_sigma", 0), ("role_separation", 0),
                         ("team_separation", 0), ("identity_separation", 0)):
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}")
        # Each part's band of the silhouette needs a grid row of its own.
        if self.grid_h < self.num_parts:
            raise ValueError("grid_h must be >= num_parts")
        if not (0.0 <= self.occlusion_rate <= 1.0):
            raise ValueError("occlusion_rate must be in [0, 1]")
        if not (0.0 <= self.exit_rate <= 1.0):
            raise ValueError("exit_rate must be in [0, 1]")
        needed = 6 + self.num_parts + 1
        if self.channels < needed:
            raise ValueError(
                f"channels must be >= {needed} to host centroids and part "
                f"signatures")


@dataclass
class Agent:
    identity: int
    team: int | None  # 0 left / 1 right; None for referees and staff
    role: Role
    latent: np.ndarray  # (C,)


@dataclass
class Scenario:
    """A generated clip: the roster, and one row per present (frame, agent)
    in frame order and, within a frame, in roster order.  An absent agent
    has no row.

    Row ``i``'s feature-grid cells are ``cells[cell_row[i]]``.  Only the
    rows :func:`generate` was asked for have cells, in row order; the
    others have ``cell_row`` -1, and their cells were never filled.  Every
    other column is the same whichever rows have cells."""

    config: ScenarioConfig
    agents: list[Agent]
    frame: np.ndarray         # (N,) frame numbers, from 1
    identity: np.ndarray      # (N,) agent identities, 1..A in roster order
    boxes: np.ndarray         # (N, 4) x, y, w, h
    part_visible: np.ndarray  # (N, K) 1 for a part no occluder hides
    cells: np.ndarray         # (M, H, W, C) feature-grid cells of M rows
    cell_row: np.ndarray      # (N,) each row's row of ``cells``, or -1
    part_labels: np.ndarray   # (N, H, W) cell part labels, 0 = background

    @property
    def view(self) -> np.ndarray:
        """(N,) the view of each row: its frame's chunk of
        ``_VIEW_CHUNK`` frames, from 0."""
        return (self.frame - 1) // _VIEW_CHUNK

    def cells_of(self, rows) -> np.ndarray:
        """The rows of :attr:`cells` that hold the cells of rows ``rows``.
        A row without cells raises ``ValueError``: the scenario was
        generated for other rows."""
        found = self.cell_row[rows]
        if (found < 0).any():
            raise ValueError("a scenario row has no cells: generate the "
                             "scenario with cells for the rows read")
        return found

    def roster(self) -> tuple[np.ndarray, np.ndarray]:
        """``(team, role)`` of agents 1..A, in roster order: 0 left, 1
        right or -1 for no team, and :class:`~prtrack.core.Role` values."""
        return (np.array([-1 if a.team is None else a.team
                          for a in self.agents], dtype=int),
                np.array([int(a.role) for a in self.agents], dtype=int))


def _check_boxes(boxes: np.ndarray) -> None:
    """The checks of :class:`~prtrack.core.BoundingBox`, over an ``(N, 4)``
    array of x, y, w, h rows at once."""
    if not np.isfinite(boxes).all():
        raise ValueError("box fields must be finite")
    if not (boxes[:, 2:] > 0).all():
        raise ValueError("box width and height must be positive")


def _mapped_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialised array in an anonymous memory map of its own, which
    goes back to the system as soon as the array is freed.

    A full scenario's cells are one block of several MB: 11.8 MB for the
    2,884 rows of the ``track_occluded`` benchmark config at seed 21.  From
    the C heap, the freed block of one scenario can stay resident beside
    the next: ``cli.cmd_pipeline`` on that config, called from Python at
    seeds 21-23 in turn, read a peak RSS of 74.8 MB with the cells on the
    heap and 62.9 MB with them in maps.  ``cli.main`` pins glibc's map
    threshold, which spares the commands the same way, but the pin does
    not reach library callers.  The cells of a re-id samples file are read
    into such a map too.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(1, dtype.itemsize * size)), dtype,
                         size).reshape(shape)


def _part_layout(h: int, w: int, k: int) -> np.ndarray:
    """Base silhouette labels: vertical part bands, background margins at
    the top and bottom corners."""
    edges = np.linspace(0, h, k + 1)
    parts = np.clip(np.searchsorted(edges, np.arange(h) + 0.5), 1, k)
    labels = np.repeat(parts[:, None], w, axis=1)
    if w >= 3:
        labels[[0, 0, h - 1, h - 1], [0, w - 1, 0, w - 1]] = 0
    return labels


def _sample_events(rng: np.random.Generator, frames: int, rate: float,
                   dur_lo: int, dur_hi: int) -> list[tuple[int, int]]:
    """Event windows (start, end) covering roughly ``rate`` of the clip."""
    if rate <= 0:
        return []
    mean_dur = (dur_lo + dur_hi) / 2.0
    mean_gap = max(1.0, mean_dur * (1.0 - rate) / rate)
    events = []
    t = int(rng.exponential(mean_gap))
    while t < frames:
        dur = int(rng.integers(dur_lo, dur_hi + 1))
        events.append((t, min(frames, t + dur)))
        t += dur + max(1, int(rng.exponential(mean_gap)))
    return events


def _strided_rows(identity: np.ndarray, stride: int) -> np.ndarray:
    """``(N,)`` bool: every ``stride``-th row of each identity, from its
    first row on, where ``identity`` is the identity column of N rows."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    order = np.argsort(identity, kind="stable")
    grouped = identity[order]
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
    return rank % stride == 0


def generate(config: ScenarioConfig, cell_stride: int | None = 1
             ) -> Scenario:
    """Build a scenario, deterministic per seed.

    Cells are filled for every ``cell_stride``-th row of each identity:
    every row at 1, the rows of :func:`to_reid_dataset` at its
    ``sampling_stride``, and no row for None.  Every other column, and
    every cell that is filled, is the same at any ``cell_stride``.
    """
    rng = np.random.default_rng(config.seed)
    c, k = config.channels, config.num_parts

    # Orthogonal directions: one axis per role, one team axis each for
    # players and goalkeepers, then part signatures.  Role separation and
    # team separation are controlled independently.
    q, _ = np.linalg.qr(rng.normal(size=(c, c)))
    rs, ts = config.role_separation, config.team_separation
    centroids = {
        (Role.PLAYER, 0): rs * q[:, 0] - 0.5 * ts * q[:, 4],
        (Role.PLAYER, 1): rs * q[:, 0] + 0.5 * ts * q[:, 4],
        (Role.GOALKEEPER, 0): rs * q[:, 1] - 0.5 * ts * q[:, 5],
        (Role.GOALKEEPER, 1): rs * q[:, 1] + 0.5 * ts * q[:, 5],
        (Role.REFEREE, None): rs * q[:, 2],
        (Role.STAFF, None): rs * q[:, 3],
    }
    signatures = config.part_signature_scale * q[:, 6:6 + k + 1].T  # (K+1, C)

    agents: list[Agent] = []
    ident = 1
    def add(role, team):
        nonlocal ident
        offset = rng.normal(size=c)
        offset *= config.identity_separation / np.linalg.norm(offset)
        key = (role, team if role in (Role.PLAYER, Role.GOALKEEPER) else None)
        agents.append(Agent(ident, team, role, centroids[key] + offset))
        ident += 1

    for team in (0, 1):
        for _ in range(config.n_players_per_team):
            add(Role.PLAYER, team)
    for j in range(config.n_goalkeepers):
        add(Role.GOALKEEPER, j % 2)
    for _ in range(config.n_referees):
        add(Role.REFEREE, None)
    for _ in range(config.n_staff):
        add(Role.STAFF, None)

    # Smooth trajectories: bounded-acceleration random walk with wall bounce.
    n_agents = len(agents)
    pw, ph = config.pitch_width, config.pitch_height
    pos = np.column_stack([rng.uniform(0.1 * pw, 0.9 * pw, n_agents),
                           rng.uniform(0.1 * ph, 0.9 * ph, n_agents)])
    vel = rng.normal(0.0, 2.0, size=(n_agents, 2))
    box_h = rng.uniform(100.0, 140.0, n_agents)
    box_w = box_h * rng.uniform(0.38, 0.46, n_agents)
    half_size = np.column_stack([box_w, box_h]) / 2
    v_max = 6.0

    base_labels = _part_layout(config.grid_h, config.grid_w, k)
    latents = np.array([a.latent for a in agents])

    # Occlusion and exit windows per agent, as an absent mask (A, F) and a
    # hidden mask (A, F, K+1) over part labels, where label 0, the
    # background, is never hidden.  Long occlusions ramp through a partial
    # phase (some parts hidden), a full phase (detection absent), and a
    # partial reappearance phase; short ones stay partial throughout.
    absent = np.zeros((n_agents, config.frames), dtype=bool)
    hidden = np.zeros((n_agents, config.frames, k + 1), dtype=bool)

    def hide(i, s, e):
        nhide = int(rng.integers(1, max(2, k)))
        if rng.random() < 0.5:
            hidden[i, s:e, 1:nhide + 1] = True      # occluder from above
        else:
            hidden[i, s:e, k + 1 - nhide:] = True   # from below

    occl = [_sample_events(rng, config.frames, config.occlusion_rate, 10, 60)
            for _ in range(n_agents)]
    for i, events in enumerate(occl):
        for s, e in events:
            if e - s >= 24:
                ramp = min(8, (e - s) // 3)
                hide(i, s, s + ramp)
                absent[i, s + ramp:e - ramp] = True
                hide(i, e - ramp, e)
            else:
                hide(i, s, e)
    for i in range(n_agents):
        for s, e in _sample_events(rng, config.frames, config.exit_rate,
                                   30, 120):
            absent[i, s:e] = True
    # One row per present (frame, agent), frame-major: nonzero walks the
    # (F, A) presence mask in row-major order.
    present = ~absent.T
    frame_idx, agent_idx = np.nonzero(present)
    n = len(frame_idx)
    ends = np.cumsum(present.sum(axis=1)).tolist()
    boxes = np.empty((n, 4))
    boxes[:, 2], boxes[:, 3] = box_w[agent_idx], box_h[agent_idx]
    part_visible = (~hidden[agent_idx, frame_idx, 1:]).astype(int)
    keep = (np.zeros(n, dtype=bool) if cell_stride is None
            else _strided_rows(agent_idx, cell_stride))
    cell_row = np.full(n, -1)
    cell_row[keep] = np.arange(np.count_nonzero(keep))
    cell_ends = np.cumsum(np.r_[0, keep])[ends].tolist()
    grid = (config.grid_h, config.grid_w, c)
    cells = _mapped_empty((cell_ends[-1], *grid))
    part_labels = np.empty((n, *base_labels.shape), dtype=base_labels.dtype)

    lo = cell_lo = 0
    for t, (hi, cell_hi) in enumerate(zip(ends, cell_ends)):
        rows = agent_idx[lo:hi]
        labels = part_labels[lo:hi]
        labels[...] = np.where(hidden[rows, t][:, base_labels], 0,
                               base_labels)
        # The frame's rows that get cells: a view when all of them do.
        sel = (slice(None) if cell_hi - cell_lo == hi - lo
               else np.flatnonzero(keep[lo:hi]))
        block = cells[cell_lo:cell_hi]
        # 'clip' writes into ``block`` directly, where 'raise' buffers.
        np.take(signatures, labels[sel], axis=0, out=block, mode="clip")
        np.add(block, latents[rows[sel], None, None], out=block,
               where=(labels[sel] > 0)[..., None])
        # The noise of every row is drawn, whether it gets cells or not:
        # the motion draws below follow it in the same stream.
        block += rng.normal(0.0, config.feature_noise_sigma,
                            (hi - lo, *grid))[sel]
        boxes[lo:hi, :2] = pos[rows] - half_size[rows]
        lo, cell_lo = hi, cell_hi

        accel = rng.normal(0.0, 0.4, size=(n_agents, 2))
        vel = np.clip(vel + accel, -v_max, v_max)
        pos = pos + vel
        for axis, limit in ((0, pw), (1, ph)):
            low = pos[:, axis] < 0.05 * limit
            high = pos[:, axis] > 0.95 * limit
            vel[low | high, axis] *= -1
            pos[:, axis] = np.clip(pos[:, axis], 0.05 * limit, 0.95 * limit)

    _check_boxes(boxes)
    return Scenario(config, agents, frame_idx + 1, agent_idx + 1, boxes,
                    part_visible, cells, cell_row, part_labels)


def to_reid_dataset(scenario: Scenario, sampling_stride: int = 25):
    """Every ``sampling_stride``-th row of each identity, split into a
    training set and a query/gallery retrieval structure over held-out
    identities.

    Returns (train rows, query rows, gallery rows), int arrays of row
    indices into the scenario, identity by identity in roster order and
    each identity's rows in frame order.  Identity splits are disjoint:
    each roster group (left players, right players, other roles) gives its
    first half, at least 4, 4 and 3 identities, to training.  A held-out
    identity gives its first quarter of rows to the queries and the rest to
    the gallery, or all to the gallery below 2 rows.
    """
    sampled = _strided_rows(scenario.identity, sampling_stride)
    team, role = scenario.roster()
    ids = np.arange(1, len(role) + 1)
    player = role == int(Role.PLAYER)
    groups = ((ids[player & (team == 0)], 4), (ids[player & (team == 1)], 4),
              (ids[~player], 3))

    train, queries, gallery = [], [], []
    for group, minimum in groups:
        n_train = min(max(minimum, math.ceil(len(group) / 2)), len(group))
        for i, ident in enumerate(group.tolist()):
            rows = np.flatnonzero(sampled & (scenario.identity == ident))
            if i < n_train:
                train.append(rows)
                continue
            n_query = max(1, len(rows) // 4) if len(rows) >= 2 else 0
            queries.append(rows[:n_query])
            gallery.append(rows[n_query:])
    none = [np.zeros(0, dtype=int)]
    return (np.concatenate(none + train), np.concatenate(none + queries),
            np.concatenate(none + gallery))


# The subsets of the re-id split, as :attr:`ReidSamples.subset` holds them.
TRAIN, QUERY, GALLERY = 0, 1, 2


@dataclass(frozen=True)
class ReidSamples:
    """The re-id split of a scenario as columns, one row per sample: the
    training rows, then the queries, then the gallery, each subset in
    :func:`to_reid_dataset`'s order; with the scenario config and sampling
    stride the split was made for.

    Sample ``i``'s feature-grid cells are ``cells[cell_row[i]]``: a table
    built from a scenario points into the scenario's cells, which it does
    not copy, and a table read from a file holds its samples' cells in row
    order."""

    config: ScenarioConfig
    sampling_stride: int
    cells: np.ndarray        # (M, H, W, C) feature-grid cells
    cell_row: np.ndarray     # (R,) each sample's row of ``cells``
    part_labels: np.ndarray  # (R, H, W) cell part labels, 0 = background
    identity: np.ndarray     # (R,) agent identities
    team: np.ndarray         # (R,) 0 left / 1 right, -1 for no team
    role: np.ndarray         # (R,) Role values
    view: np.ndarray         # (R,) views, for same-view filtering
    subset: np.ndarray       # (R,) TRAIN, QUERY or GALLERY, in that order

    def rows(self, *subsets: int) -> slice:
        """The rows of the consecutive subsets ``subsets``, as one slice."""
        lo, hi = np.searchsorted(self.subset,
                                 [min(subsets), max(subsets) + 1]).tolist()
        return slice(lo, hi)

    def batch(self, *subsets: int) -> TrainBatch:
        """The rows of :meth:`rows` as a
        :class:`~prtrack.embedder.TrainBatch`."""
        r = self.rows(*subsets)
        return TrainBatch(self.cells[self.cell_row[r]], self.part_labels[r],
                          self.identity[r], self.role[r], self.team[r])


def reid_samples(scenario: Scenario, sampling_stride: int = 25
                 ) -> ReidSamples:
    """The rows of :func:`to_reid_dataset`'s split as a
    :class:`ReidSamples` table: their part labels, identities, views and
    rows of the scenario's cells, and their agents' teams and roles.  The
    scenario needs cells for those rows, as :func:`generate` builds them at
    ``cell_stride`` 1 or ``sampling_stride``."""
    split = to_reid_dataset(scenario, sampling_stride)
    rows = np.concatenate(split)
    team, role = scenario.roster()
    agent = scenario.identity[rows] - 1
    return ReidSamples(
        scenario.config, sampling_stride, scenario.cells,
        scenario.cells_of(rows),
        scenario.part_labels[rows], scenario.identity[rows], team[agent],
        role[agent], scenario.view[rows],
        np.repeat([TRAIN, QUERY, GALLERY], [len(x) for x in split]))


# The arrays of a re-id samples file and their dtype kind and shape: the
# config and stride it was made for, then the columns of R samples of
# H x W cells with C channels.
_SAMPLE_ARRAYS = {
    "made_for": "U", "cells": "f R H W C", "part_labels": "i R H W",
    "identity": "i R", "team": "i R", "role": "i R", "view": "i R",
    "subset": "i R",
}


def _made_for(config: ScenarioConfig, sampling_stride: int) -> str:
    """The scenario config and sampling stride of a split, as the YAML of
    a run manifest's ``scenario:`` and ``sampling_stride`` keys."""
    return yaml.safe_dump({"scenario": asdict(config),
                           "sampling_stride": sampling_stride},
                          sort_keys=True)


def save_reid_samples(samples: ReidSamples, path) -> None:
    """The table as an uncompressed, pickle-free ``.npz`` archive: its
    config and stride as YAML, then its columns, with each sample's cells
    written from its row of the table's cells."""
    save_arrays(path, {
        "made_for": np.array(_made_for(samples.config,
                                       samples.sampling_stride)),
        "cells": (samples.cells, samples.cell_row),
        **{name: getattr(samples, name) for name in _SAMPLE_ARRAYS
           if name not in ("made_for", "cells")}})


def load_reid_samples(path, config: ScenarioConfig,
                      sampling_stride: int) -> ReidSamples:
    """The table of a file of :func:`save_reid_samples`, made for the
    scenario config ``config`` and ``sampling_stride``; its cells are read
    into a memory map of their own.

    A missing file, or one made for another config or stride, raises
    :class:`~prtrack.motio.ParseError` that says to run ``generate``
    again.  A file that is no such archive or holds a missing, misshapen
    or non-finite array, a part label outside [0, K], a team outside
    {-1, 0, 1}, an unknown role, or subsets out of their order raises it
    too.  Every message names the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError("no re-id samples file; run generate again",
                         path=path)
    want = _made_for(config, sampling_stride)

    def sizes(a):
        if str(a["made_for"]) != want:
            raise ValueError("made for another scenario or sampling_stride "
                             "than the manifest's; run generate again")
        return {"R": a["identity"].size, "H": config.grid_h,
                "W": config.grid_w, "C": config.channels}

    a = load_arrays(path, _SAMPLE_ARRAYS, "re-id samples", sizes,
                    into={"cells": _mapped_empty})
    for name, valid in (
            ("part_labels", (a["part_labels"] >= 0)
             & (a["part_labels"] <= config.num_parts)),
            ("team", np.isin(a["team"], (-1, 0, 1))),
            ("role", np.isin(a["role"], [int(r) for r in Role])),
            ("subset", np.isin(a["subset"], (TRAIN, QUERY, GALLERY)))):
        if not valid.all():
            raise ParseError(f"{name} has a value out of range", path=path)
    if (np.diff(a["subset"]) < 0).any():
        raise ParseError("subsets are not in the order train, query, "
                         "gallery", path=path)
    return ReidSamples(config, sampling_stride, a["cells"],
                       np.arange(len(a["cells"])),
                       *(a[name] for name in _SAMPLE_ARRAYS
                         if name not in ("made_for", "cells")))


def oracle_feature_projection(config: ScenarioConfig, dim: int = 8):
    """Fixed projection and per-part offsets used for ground-truth-derived
    detection features (independent of any trained model)."""
    rng = np.random.default_rng(config.seed + 987654321)
    proj = rng.normal(0.0, 1.0 / np.sqrt(config.channels),
                      size=(dim, config.channels))
    offsets = rng.normal(0.0, 1.0, size=(config.num_parts + 1, dim))
    return proj, offsets


# Oracle role logits: +scale/2 for the true role, -scale/2 for the others.
_ROLE_LOGIT_SCALE = 6.0


@dataclass(frozen=True)
class DetectionTable:
    """A run's N detections as columns, in frame order and, within a frame,
    in roster order.  Building one checks the boxes once over the whole
    array, as :class:`~prtrack.core.BoundingBox` checks one box."""

    frame: np.ndarray        # (N,) frame numbers, from 1
    det_index: np.ndarray    # (N,) index of the detection within its frame
    boxes: np.ndarray        # (N, 4) x, y, w, h, after detector noise
    gt_identity: np.ndarray  # (N,)
    gt_team: np.ndarray      # (N,) 0 left / 1 right, -1 for no team
    gt_role: np.ndarray      # (N,) Role values
    features: FeatureTable | None  # features keyed like the rows

    def __post_init__(self):
        _check_boxes(self.boxes)

    def __len__(self) -> int:
        return len(self.frame)

    def take(self, rows) -> "DetectionTable":
        """The rows ``rows``, a slice or an index array, with their
        features: views for a slice, copies for an index array."""
        f = self.features
        return DetectionTable(
            *(getattr(self, c.name)[rows] for c in fields(self)[:-1]),
            None if f is None else FeatureTable(
                *(getattr(f, c.name)[rows] for c in fields(f))))

    @staticmethod
    def concat(tables: list["DetectionTable"]) -> "DetectionTable":
        """The rows of ``tables`` in turn; they all have features or none
        has.  No tables make an empty table with empty features."""
        if not tables:
            none = np.zeros(0, dtype=int)
            return DetectionTable(none, none, np.zeros((0, 4)), none, none,
                                  none, FeatureTable.from_records([]))
        f = [t.features for t in tables]
        return DetectionTable(
            *(np.concatenate([getattr(t, c.name) for t in tables])
              for c in fields(DetectionTable)[:-1]),
            None if f[0] is None else FeatureTable(
                *(np.concatenate([getattr(x, c.name) for x in f])
                  for c in fields(FeatureTable))))

    def by_frame(self, frames: int) -> list["DetectionTable"]:
        """One table per frame, frames 1 to ``frames``, empty frames
        included; each holds views of this table's rows of its frame."""
        ends = np.searchsorted(self.frame, np.arange(1, frames + 1),
                               side="right").tolist()
        return [self.take(slice(lo, hi)) for lo, hi in zip([0, *ends], ends)]

    def mot_rows(self, ids: np.ndarray | None = None) -> list[tuple]:
        """The detections as MOT rows in :class:`~prtrack.motio.MotRecord`
        field order, with confidence 1 and the ids ``ids`` (by default the
        unknown id -1)."""
        n = len(self.frame)
        return list(zip(self.frame.tolist(),
                        [-1] * n if ids is None else ids.tolist(),
                        *self.boxes.T.tolist(), [1.0] * n, [1] * n,
                        [1.0] * n))


def detection_table(scenario: Scenario, detector_noise: str = "none",
                    noise_param: float = 0.0, features: str = "oracle",
                    feature_sigma: float = 0.05, seed: int = 0):
    """The detections of every present agent in every frame, as a
    :class:`DetectionTable`, and the :class:`~prtrack.motio.MotRecord` of
    each present agent per frame.

    ``detector_noise``: 'none', 'jitter' (gaussian box offsets of
    ``noise_param`` pixels), or 'dropout' (drop each detection with
    probability ``noise_param``).  ``features``: 'oracle' fills the
    ground-truth-derived feature block, 'none' leaves it out.  The
    generator draws come in the order the per-detection definition makes
    them: the dropout draw, the jitter pair, then the visible parts'
    feature noise.  Without dropout they are all normal draws, made in one
    call and scaled afterwards as ``rng.normal(0, scale, ...)`` scales
    them; dropout's uniform draws interleave with them, so a loop over the
    detections makes those.  Everything else is array work.
    """
    if detector_noise not in DETECTOR_NOISES:
        raise ValueError(f"unknown detector noise {detector_noise!r}")
    gt_records = list(map(MotRecord, scenario.frame.tolist(),
                          scenario.identity.tolist(),
                          *scenario.boxes.T.tolist()))
    oracle = features == "oracle"
    jitter = detector_noise == "jitter"
    for name, scale, used in (("noise_param", noise_param, jitter),
                              ("feature_sigma", feature_sigma, oracle)):
        if used and scale < 0:
            raise ValueError(f"{name} must be >= 0")
    # Each row's normal draws: its jitter pair, then ``dim`` for each
    # visible part.
    width = np.full(len(scenario.frame), 2 if jitter else 0)
    if oracle:
        k = scenario.config.num_parts
        part_vis = scenario.part_visible
        proj, offsets = oracle_feature_projection(scenario.config)
        dim = proj.shape[0]
        width += dim * part_vis.sum(axis=1)

    rng = np.random.default_rng(seed)
    if detector_noise == "dropout":
        kept, noise = [], [np.zeros(0)]
        for i, n in enumerate(width.tolist()):
            if rng.random() < noise_param:
                continue
            kept.append(i)
            if n:
                noise.append(rng.normal(0.0, feature_sigma, n))
        kept, noise = np.array(kept, dtype=int), np.concatenate(noise)
    else:
        kept = np.arange(len(width))
        z = rng.standard_normal(width.sum())
        is_shift = np.zeros(len(z), dtype=bool)
        if jitter:
            first = np.cumsum(width) - width
            is_shift[first] = is_shift[first + 1] = True
            shifts = 0.0 + noise_param * z[is_shift].reshape(-1, 2)
        noise = 0.0 + feature_sigma * z[~is_shift]

    frame = scenario.frame[kept]
    # Rows are in frame order, so each row's index within its frame is its
    # distance from the frame's first row.
    det_index = np.arange(len(kept)) - np.searchsorted(frame, frame)
    boxes = scenario.boxes[kept]
    if jitter:
        boxes[:, :2] += shifts
    agent = scenario.identity[kept] - 1
    teams, roles = scenario.roster()
    block = None
    if oracle:
        vis = part_vis[kept]
        rows, cols = np.nonzero(vis)
        base = np.array([proj @ a.latent for a in scenario.agents])
        values = base[agent[rows]]
        values += offsets[1 + cols]
        values += noise.reshape(-1, dim)
        parts = np.zeros((len(kept), k, dim))
        parts[rows, cols] = values
        count = vis.sum(axis=1)
        foreground = np.divide(parts.sum(axis=1), count[:, None],
                               out=np.zeros((len(kept), dim)),
                               where=count[:, None] > 0)
        role_logits = np.full((len(kept), 4), -_ROLE_LOGIT_SCALE / 2)
        role_logits[np.arange(len(kept)), roles[agent]] = _ROLE_LOGIT_SCALE / 2
        block = FeatureTable(frame, det_index, parts, foreground,
                             np.concatenate([count[:, None] > 0, vis],
                                            axis=1).astype(int),
                             role_logits)
    table = DetectionTable(frame, det_index, boxes, agent + 1, teams[agent],
                           roles[agent], block)
    return table, gt_records


def embed_detections(model: EmbedderModel, scenario: Scenario,
                     table: DetectionTable) -> FeatureTable:
    """The model features of the table's detections, keyed like its rows.

    Each row's grid is the cells of the scenario's row of its frame and
    identity, found by one search on the scenario's frame-major (frame,
    identity) keys; the scenario needs cells for every such row.  One
    :func:`~prtrack.embedder.forward_batch` call per frame fills the
    columns: one pass over the whole run raised peak RSS from 106 to
    142 MB.
    """
    n, k, d = len(table.frame), model.num_parts, model.dim
    parts, foreground = np.empty((n, k, d)), np.empty((n, d))
    visibility, role_logits = np.empty((n, k + 1), dtype=int), np.empty((n, 4))
    a = len(scenario.agents)
    rows = scenario.cells_of(np.searchsorted(
        (scenario.frame - 1) * a + scenario.identity,
        (table.frame - 1) * a + table.gt_identity))
    _, starts = np.unique(table.frame, return_index=True)
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), n]):
        feats, vis, logits = forward_batch(model, scenario.cells[rows[lo:hi]])
        foreground[lo:hi], parts[lo:hi] = feats[:, 0], feats[:, 1:]
        visibility[lo:hi], role_logits[lo:hi] = vis, logits
    return FeatureTable(table.frame, table.det_index, parts, foreground,
                        visibility, role_logits)


def to_tracking_input(scenario: Scenario, detector_noise: str = "none",
                      noise_param: float = 0.0, features: str = "oracle",
                      feature_sigma: float = 0.05, seed: int = 0):
    """Turn a scenario into per-frame tracker inputs plus ground truth.

    The arguments are those of :func:`detection_table`; ``features='none'``
    leaves the detections' features empty.

    Returns (frame inputs, gt records): the detection table's
    :meth:`~DetectionTable.by_frame` tables, one per frame of the clip, and
    the :class:`~prtrack.motio.MotRecord` of each present agent per frame.
    """
    table, gt_records = detection_table(scenario, detector_noise, noise_param,
                                        features, feature_sigma, seed)
    return table.by_frame(scenario.config.frames), gt_records
