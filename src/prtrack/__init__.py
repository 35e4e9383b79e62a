"""Part-based person representation learning and multi-object tracking,
desk scale: joint re-identification / team / role embeddings, an online
tracker with EMA part features, appearance-based tracklet merging, and a
full retrieval + tracking evaluation suite on synthetic scenarios."""

from .core import (BoundingBox, KalmanState, NoMutualVisibility,
                   PartFeatureSet, Role, TrackStatus, Tracklet, iou_matrix,
                   part_distance, part_distance_matrix)
from .losses import (DegenerateBatch, LossValue, LossWeights, TripletConfig,
                     cross_entropy_id, focal_loss, gilt_loss,
                     part_prediction_loss, total_loss, triplet_batch_hard)
from .embedder import (EmbedderModel, TrainBatch, TrainConfig, forward_batch,
                       grad_check, loss_and_grad, sample_batch, train)
from .solvers import Assignment, DegenerateInput, hungarian, kmeans2
from .tracker import FrameInput, OnlineTracker, TrackerConfig, build_cost, \
    ema_update, kalman_predict, kalman_update
from .postproc import (MergeConfig, TooFewPlayers, assign_roles, assign_teams,
                       merge_tracklets, tracklet_cost_matrix)
from .reid_metrics import (EmptyGallery, RetrievalTable, evaluate_retrieval,
                           map_cmc, rank, role_metrics)
from .track_metrics import (EmptyGroundTruth, EvalReport, SequenceResult,
                            evaluate_sequence, frame_match, hota, idf1,
                            mota_ids)
from .simgen import (ReidSamples, Scenario, ScenarioConfig, generate,
                     reid_samples, to_reid_dataset, to_tracking_input)
from .config import RunConfig, load_config
from .pipeline import run_pipeline

__version__ = "0.1.0"
