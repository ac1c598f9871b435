"""Supervised source training and dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .augment import weak_augment
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


def train_source(model: ModelState, scenes, steps: int, lr: float,
                 batch_size: int, rng: np.random.Generator, log_every: int):
    """SGD at a constant learning rate on labeled scenes with weak (flip)
    augmentation, mutating model.

    Returns a list of (step, LossBreakdown) rows. Raises NumericsError on
    divergence.
    """
    history = []
    n = len(scenes)
    for step in range(1, steps + 1):
        ids = rng.choice(n, size=min(batch_size, n), replace=False)
        batch = [weak_augment(scenes[i], rng) for i in ids]
        loss = train_step(model, batch, rng, lr, include_reg=True)
        history.append((step, loss))
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  total {loss.total:.4f}  "
                  f"rpn {loss.rpn_cls:.3f}/{loss.rpn_reg:.3f}  "
                  f"roi {loss.roi_cls:.3f}/{loss.roi_reg:.3f}")
    return history


def evaluate_model(model: ModelState, scenes) -> EvalResult:
    """AP50 per class and mAP of a model over a list of annotated scenes,
    detected in eval mode (forward_inference_batch)."""
    scenes = list(scenes)
    return evaluate_ap50(forward_inference_batch(model, [s.image for s in scenes]),
                         [(s.boxes, s.labels) for s in scenes])
