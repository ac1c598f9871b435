"""Source-free object detection adaptation laboratory.

A desk-scale two-stage anchor detector with batch-normalization layers,
a synthetic shape-detection benchmark with parametric domain shift, and
the full spectrum of source-free self-training adaptation strategies
(AdaBN, mean-teacher EMA variants, fixed pseudo-label training, weak/strong
augmentation, mosaic), plus a reproducible experiment harness.
"""

from .adapt import (
    AdaptConfig,
    AdaptTrace,
    adapt,
    ema_update,
    generate_pseudo_labels,
    strategy_presets,
)
from .batchnorm import collect_target_statistics
from .boxes import Detections, EvalResult, evaluate_ap50, iou_matrix, nms
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DomainSpec, Scene, apply_fog, generate_scene, read_dataset, write_dataset
from .detector import (
    ArchDescriptor,
    LossBreakdown,
    ModelState,
    forward_train,
    init_model,
)
from .ops import sgd_step
from .train import evaluate_model, train_source

__all__ = [
    "AdaptConfig",
    "AdaptTrace",
    "ArchDescriptor",
    "Detections",
    "DomainSpec",
    "EvalResult",
    "LossBreakdown",
    "ModelState",
    "Scene",
    "adapt",
    "apply_fog",
    "collect_target_statistics",
    "ema_update",
    "evaluate_ap50",
    "evaluate_model",
    "forward_train",
    "generate_pseudo_labels",
    "generate_scene",
    "init_model",
    "iou_matrix",
    "load_checkpoint",
    "nms",
    "read_dataset",
    "save_checkpoint",
    "sgd_step",
    "strategy_presets",
    "train_source",
    "write_dataset",
]
