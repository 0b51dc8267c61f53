"""mlrank: multi-label ranking with calibrated significance scores.

Implements the Gaussian significance objective (gmlr) alongside the
pairwise baselines crpc and lsep, the tie-aware ranking/classification
metrics used to compare them, deterministic synthetic ranked-dataset
generators, and a CLI harness for the behavioural experiments.
"""

from .baselines import crpc_loss, crpc_slots, lsep_class_loss, lsep_rank_loss
from .buckets import dense_ranks, pair_mask
from .dataio import read_dataset_jsonl, write_dataset_jsonl
from .gaussian import q_grads, q_prob
from .gmlr import bucket_likelihood, classification_loss, gmlr_objective, ranking_loss
from .metrics import (
    MetricReport,
    evaluate_dataset,
    f1_score,
    goodman_kruskal_gamma,
    hamming_loss,
    kendall_tau_b,
    max1_error,
    spearman_rho,
)
from .model import (
    AdamState,
    FrontEnd,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    backward,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train_arrays,
)
from .predict import Prediction
from .synthgen import (
    CanvasConfig,
    calibration_arrays,
    canvas_arrays,
    feature_arrays,
    iter_adjust_sweeps,
)

__version__ = "0.1.0"
