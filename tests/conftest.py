import numpy as np
import pytest

from prtrack.core import PartFeatureSet

from oracles import Box, MotRow, mot_table


def random_feature_set(rng, k=5, d=8, p_visible=0.7, force_any=True):
    """Random part feature set with Bernoulli visibility bits."""
    vis = (rng.random(k + 1) < p_visible).astype(int)
    if force_any and vis.sum() == 0:
        vis[rng.integers(k + 1)] = 1
    return PartFeatureSet(parts=rng.normal(size=(k, d)),
                          foreground=rng.normal(size=d),
                          visibility=vis)


def box(x, y, w=10.0, h=10.0):
    return Box(x, y, w, h)


def mot_sequence(frames):
    """The ``MotTable`` of a ``{frame: [(id, box)]}`` micro-sequence,
    frame by frame, each frame's rows in list order."""
    return mot_table([MotRow(f, i, b.x, b.y, b.w, b.h)
                      for f, boxes in frames.items() for i, b in boxes])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
