"""Synthetic soccer-scenario generator.

Produces ground truth for a desk-scale match clip: smooth agent
trajectories on a pitch, identities, teams, roles, occlusion/exit events,
and per-frame feature-grid observations whose cell contents encode a latent
appearance (role/team centroid + identity offset + noise) plus a per-part
signature, so the embedding model has learnable signal for all three tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, Detection, PartFeatureSet, Role
from .embedder import FeatureGrid, GridSample
from .motio import MotRecord

__all__ = [
    "DETECTOR_NOISES",
    "ConfigInvalid",
    "ScenarioConfig",
    "Agent",
    "Observation",
    "Scenario",
    "generate",
    "to_reid_dataset",
    "to_tracking_input",
    "oracle_feature_projection",
]


# The detector noise models :func:`to_tracking_input` applies.
DETECTOR_NOISES = ("none", "jitter", "dropout")


class ConfigInvalid(Exception):
    pass


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

    def validate(self):
        if self.n_players_per_team < 1 or self.frames < 1:
            raise ConfigInvalid("n_players_per_team and frames must be >= 1")
        for name, lo in (("grid_h", 1), ("grid_w", 1), ("num_parts", 1),
                         ("pitch_width", 0), ("pitch_height", 0)):
            if getattr(self, name) < lo:
                raise ConfigInvalid(f"{name} must be >= {lo}")
        if not (0.0 <= self.occlusion_rate <= 1.0):
            raise ConfigInvalid("occlusion_rate must be in [0, 1]")
        if not (0.0 <= self.exit_rate <= 1.0):
            raise ConfigInvalid("exit_rate must be in [0, 1]")
        if self.feature_noise_sigma < 0:
            raise ConfigInvalid("feature_noise_sigma must be >= 0")
        if min(self.team_separation, self.role_separation,
               self.identity_separation) < 0:
            raise ConfigInvalid("team_separation, role_separation and "
                                "identity_separation must be >= 0")
        needed = 6 + self.num_parts + 1
        if self.channels < needed:
            raise ConfigInvalid(
                f"channels must be >= {needed} to host centroids and part "
                f"signatures")


@dataclass
class Agent:
    identity: int
    team: int | None  # 0 left / 1 right; None for referees and staff
    role: Role
    latent: np.ndarray  # (C,)


@dataclass
class Observation:
    """One agent in one frame."""

    frame: int
    identity: int
    present: bool
    box: BoundingBox | None
    part_visible: np.ndarray | None  # (K,)
    grid: FeatureGrid | None


@dataclass
class Scenario:
    config: ScenarioConfig
    agents: list[Agent]
    frames: list[list[Observation]]  # frames[t] = observations of all agents

    def agent(self, identity: int) -> Agent:
        """The agent of ``identity``; ids are 1..A in roster order."""
        if not 1 <= identity <= len(self.agents):
            raise KeyError(f"no agent with identity {identity}")
        return self.agents[identity - 1]


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


def generate(config: ScenarioConfig) -> Scenario:
    """Build a full scenario, deterministic per seed."""
    config.validate()
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
    part_visible = (~hidden[:, :, 1:]).astype(int)

    frames_out: list[list[Observation]] = []
    for t in range(config.frames):
        rows = np.flatnonzero(~absent[:, t])
        labels = np.where(hidden[rows, t][:, base_labels], 0, base_labels)
        cells = signatures[labels]
        np.add(cells, latents[rows, None, None], out=cells,
               where=(labels > 0)[..., None])
        cells += rng.normal(0.0, config.feature_noise_sigma, cells.shape)
        corner = pos - half_size
        obs_t = [Observation(t + 1, a.identity, False, None, None, None)
                 for a in agents]
        for j, i in enumerate(rows):
            obs_t[i] = Observation(
                t + 1, agents[i].identity, True,
                BoundingBox(*corner[i], box_w[i], box_h[i]),
                part_visible[i, t], FeatureGrid(cells[j], labels[j]))
        frames_out.append(obs_t)

        accel = rng.normal(0.0, 0.4, size=(n_agents, 2))
        vel = np.clip(vel + accel, -v_max, v_max)
        pos = pos + vel
        for axis, limit in ((0, pw), (1, ph)):
            low = pos[:, axis] < 0.05 * limit
            high = pos[:, axis] > 0.95 * limit
            vel[low | high, axis] *= -1
            pos[:, axis] = np.clip(pos[:, axis], 0.05 * limit, 0.95 * limit)

    return Scenario(config, agents, frames_out)


# Frames per view: samples of one identity in one chunk share a view id.
_VIEW_CHUNK = 125


def to_reid_dataset(scenario: Scenario, sampling_stride: int = 25):
    """Uniformly subsample frames per identity and split into a training
    list plus a query/gallery retrieval structure over held-out identities.

    Returns (train samples, query samples, gallery samples), all lists of
    :class:`GridSample`.  Identity splits are disjoint; samples carry a view
    id (frame chunk) used for same-view gallery filtering.
    """
    if sampling_stride < 1:
        raise ValueError("stride must be >= 1")
    per_identity: dict[int, list[GridSample]] = {}
    for frame_obs in scenario.frames:
        for ob in frame_obs:
            if not ob.present:
                continue
            agent = scenario.agent(ob.identity)
            per_identity.setdefault(ob.identity, []).append(
                GridSample(ob.grid, ob.identity, agent.team, agent.role,
                           view=(ob.frame - 1) // _VIEW_CHUNK))
    for ident, samples in per_identity.items():
        per_identity[ident] = samples[::sampling_stride]

    left = [a.identity for a in scenario.agents
            if a.role == Role.PLAYER and a.team == 0]
    right = [a.identity for a in scenario.agents
             if a.role == Role.PLAYER and a.team == 1]
    other = [a.identity for a in scenario.agents if a.role != Role.PLAYER]

    train_ids, test_ids = [], []
    for group, minimum in ((left, 4), (right, 4), (other, 3)):
        n_train = max(minimum, int(math.ceil(len(group) / 2)))
        n_train = min(n_train, len(group))
        train_ids.extend(group[:n_train])
        test_ids.extend(group[n_train:])

    train = [s for i in train_ids for s in per_identity.get(i, [])]
    queries, gallery = [], []
    for ident in test_ids:
        samples = per_identity.get(ident, [])
        if len(samples) < 2:
            gallery.extend(samples)
            continue
        n_query = max(1, len(samples) // 4)
        queries.extend(samples[:n_query])
        gallery.extend(samples[n_query:])
    return train, queries, gallery


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


def _oracle_features(agent: Agent, part_vis: np.ndarray, proj, offsets,
                     sigma: float, rng: np.random.Generator):
    k = part_vis.shape[0]
    dim = proj.shape[0]
    base = proj @ agent.latent
    visible = part_vis.astype(bool)
    parts = np.zeros((k, dim))
    parts[visible] = (base + offsets[1:][visible]
                      + rng.normal(0.0, sigma, (int(visible.sum()), dim)))
    if visible.any():
        fg = parts[visible].mean(axis=0)
        vis = np.concatenate([[1], part_vis])
    else:
        fg = np.zeros(dim)
        vis = np.zeros(k + 1, dtype=int)
    role_logits = np.full(4, -_ROLE_LOGIT_SCALE / 2)
    role_logits[int(agent.role)] = _ROLE_LOGIT_SCALE / 2
    return PartFeatureSet(parts=parts, foreground=fg, visibility=vis), role_logits


def to_tracking_input(scenario: Scenario, detector_noise: str = "none",
                      noise_param: float = 0.0, features: str = "oracle",
                      feature_sigma: float = 0.05, seed: int = 0):
    """Turn a scenario into per-frame tracker inputs plus ground truth.

    ``detector_noise``: 'none', 'jitter' (gaussian box offsets of
    ``noise_param`` pixels), or 'dropout' (drop each detection with
    probability ``noise_param``).  ``features``: 'oracle' attaches
    ground-truth-derived part features, 'none' leaves features empty
    (filled later by an embedding model).

    Returns (frame inputs, gt records): a list of Detections per frame and
    the :class:`~prtrack.motio.MotRecord` of each present agent per frame.
    """
    if detector_noise not in DETECTOR_NOISES:
        raise ValueError(f"unknown detector noise {detector_noise!r}")
    rng = np.random.default_rng(seed)
    proj, offsets = oracle_feature_projection(scenario.config)
    frame_inputs: list[list[Detection]] = []
    gt_records: list[MotRecord] = []
    for frame_obs in scenario.frames:
        dets = []
        for ob in frame_obs:
            if not ob.present:
                continue
            box = ob.box
            gt_records.append(MotRecord(ob.frame, ob.identity,
                                        box.x, box.y, box.w, box.h))
            if detector_noise == "dropout" and rng.random() < noise_param:
                continue
            if detector_noise == "jitter":
                dx, dy = rng.normal(0.0, noise_param, 2)
                box = BoundingBox(box.x + dx, box.y + dy, box.w, box.h)
            agent = scenario.agent(ob.identity)
            feats = role_logits = None
            if features == "oracle":
                feats, role_logits = _oracle_features(
                    agent, ob.part_visible, proj, offsets, feature_sigma, rng)
            dets.append(Detection(frame=ob.frame, box=box, confidence=1.0,
                                  features=feats, role_logits=role_logits,
                                  gt_identity=ob.identity,
                                  gt_team=agent.team, gt_role=agent.role))
        frame_inputs.append(dets)
    return frame_inputs, gt_records
