"""The SGD step, source training (adapt() of the fixed_sf_pl preset on the
ground truth) and dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .boxes import EvalResult, evaluate_ap50
from .detector import (
    LossBreakdown,
    ModelState,
    forward_inference_batch,
    forward_train,
    images_to_batch,
)
from .ops import sgd_step


def train_step(model: ModelState, views, rng: np.random.Generator, lr: float,
               include_reg: bool) -> LossBreakdown:
    """One SGD step on a batch of labeled scenes, mutating model.

    Raises NumericsError on a non-finite loss, leaving the model untouched.
    The gradients are not alive beside the next step's forward caches.
    """
    images = images_to_batch([v.image for v in views])
    loss, grads = forward_train(model, images, [(v.boxes, v.labels) for v in views],
                                rng, include_reg)
    sgd_step(model.params, grads, lr)
    return loss


def train_source(model: ModelState, scenes, config):
    """Supervised training: adapt() with config, the ground truth as its
    fixed label set and no evaluation pool. Returns its AdaptResult; final is
    a trained copy of model, and a non-finite loss ends the run at diverged_at."""
    from .adapt import adapt  # here: adapt.py imports this module
    return adapt(model, scenes, config, [], labels={s.id: s for s in scenes})


def evaluate_model(model: ModelState, scenes) -> EvalResult:
    """AP50 per class and mAP of a model over a list of annotated scenes,
    detected in eval mode (forward_inference_batch)."""
    scenes = list(scenes)
    return evaluate_ap50(forward_inference_batch(model, [s.image for s in scenes]),
                         [(s.boxes, s.labels) for s in scenes])
