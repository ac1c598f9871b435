"""The SGD step, source training (adapt() of the fixed_sf_pl preset on the
ground truth) and dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .boxes import EvalResult, evaluate_ap50
from .detector import (
    ArchDescriptor,
    LossBreakdown,
    ModelState,
    forward_inference_batch,
    forward_train,
    images_to_batch,
    init_model,
)
from .ops import sgd_step


def train_step(model: ModelState, views, rng: np.random.Generator, lr: float,
               include_reg: bool) -> LossBreakdown:
    """One SGD step on a batch of labeled scenes, mutating model.

    Each parameter takes its sgd_step as soon as forward_train's backward
    makes its gradient, so no gradient outlives its update and no gradient
    dict is built. Raises NumericsError on a non-finite loss, leaving the
    model untouched.
    """
    def update(name, grad):
        sgd_step(model.params, name, grad, lr)

    images = images_to_batch([v.image for v in views])
    return forward_train(model, images, [(v.boxes, v.labels) for v in views],
                         rng, include_reg, update)


def train_source(arch: ArchDescriptor, scenes, config):
    """Supervised training of a new arch model initialised from config.seed:
    adapt() with config, the ground truth as its fixed label set and no
    evaluation pool. Returns its AdaptResult; a non-finite loss ends the run
    at diverged_at."""
    from .adapt import adapt  # here: adapt.py imports this module
    return adapt(init_model(arch, config.seed), scenes, config, [],
                 labels={s.id: s for s in scenes})


def evaluate_model(model: ModelState, scenes) -> EvalResult:
    """AP50 per class and mAP of a model over a list of annotated scenes,
    detected in eval mode (forward_inference_batch)."""
    scenes = list(scenes)
    return evaluate_ap50(forward_inference_batch(model, [s.image for s in scenes]),
                         [(s.boxes, s.labels) for s in scenes])
