"""The full pipeline on one small scenario.

Generates a synthetic clip with occlusions, trains the embedder, embeds
every detection, runs the online tracker, merges fragments offline,
assigns teams and roles, and prints the evaluation report next to the
published full-scale reference numbers.
"""

import dataclasses

from prtrack.config import RunConfig
from prtrack.pipeline import run_pipeline

cfg = RunConfig().reseeded(7)
cfg = dataclasses.replace(
    cfg,
    scenario=dataclasses.replace(cfg.scenario, frames=250,
                                 occlusion_rate=0.15))

report, _ = run_pipeline(cfg)

t = report["tracking"]
print("tracking (desk scale, model features)")
for key in ("hota", "deta", "assa", "mota", "idf1"):
    print(f"  {key:12s} {t[key]:.4f}")
print(f"  id_switches  {t['id_switches']}")
print(f"  tracklets    {t['tracklets_before_merge']} -> "
      f"{t['tracklets_after_merge']} after merge")

print("\nretrieval / classification")
for key, value in sorted(report["reid"].items()):
    print(f"  {key:15s} {value:.4f}")
print(f"  team clusters   {report['team_cluster_accuracy']:.4f}")

ref = report["reference"]
print(f"\nfull-scale reference numbers ({ref['label']}):")
print(f"  tracking with oracle boxes: {ref['tracking_gt']}")
print(f"  retrieval:                  {ref['reid']}")
