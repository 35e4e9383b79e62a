"""Why merge with parts instead of a single whole-body embedding.

On an occlusion-heavy clip the online tracker fragments tracks.  Fragment
boundaries sit inside occlusion ramps, so a fragment's whole-body
(foreground) embedding is biased by whichever parts happened to be visible
there.  Merging on the part distance compares fragments index by index and
rides out that bias; merging on the foreground embedding alone does not.
"""

from prtrack.postproc import MergeConfig, merge_tracklets
from prtrack.simgen import ScenarioConfig, generate, to_tracking_input
from prtrack.track_metrics import SequenceResult, idf1, mota_ids
from prtrack.tracker import FrameInput, OnlineTracker, TrackerConfig

SEED = 3
cfg = ScenarioConfig(n_players_per_team=9, occlusion_rate=0.3, frames=750,
                     seed=SEED)
scenario = generate(cfg)
frame_inputs, gt_mot = to_tracking_input(scenario, features="oracle",
                                         seed=SEED)

tracker = OnlineTracker(TrackerConfig(normalized_ema=True))
for t, dets in enumerate(frame_inputs):
    tracker.step(FrameInput(frame=t + 1, detections=dets))
tracklets = tracker.finish()
print(f"{len(scenario.agent_role)} agents -> {len(tracklets)} online tracklets "
      f"(occlusions fragment tracks)\n")

variants = {
    "no merge": None,
    "foreground-only merge": MergeConfig(foreground_only=True),
    "part-based merge": MergeConfig(),
}
print(f"{'variant':24s} {'tracklets':>9s} {'IDF1':>8s} {'IDs':>5s}")
for name, merge_cfg in variants.items():
    if merge_cfg is None:
        out = tracklets
    else:
        out, _ = merge_tracklets(tracklets, merge_cfg)
    # One layout of the MOT records, read by both metrics.
    result = SequenceResult(gt_mot, out.mot_rows())
    _, ids = mota_ids(result)
    print(f"{name:24s} {len(out):>9d} {idf1(result):>8.4f} {ids:>5d}")
