"""Supervised source training and dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .augment import weak_augment
from .boxes import EvalResult, evaluate_ap50
from .detector import (
    ModelState,
    forward_inference_batch,
    forward_train,
    images_to_batch,
)
from .ops import sgd_step


def train_source(model: ModelState, scenes, steps: int, lr: float,
                 batch_size: int, rng: np.random.Generator, log_every: int = 0):
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
        images = images_to_batch([s.image for s in batch])
        targets = [(s.boxes, s.labels) for s in batch]
        loss, grads = forward_train(model, images, targets, rng)
        sgd_step(model.params, grads, lr)
        del grads  # not alive beside the next step's forward caches
        history.append((step, loss))
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  total {loss.total:.4f}  "
                  f"rpn {loss.rpn_cls:.3f}/{loss.rpn_reg:.3f}  "
                  f"roi {loss.roi_cls:.3f}/{loss.roi_reg:.3f}")
    return history


EVAL_CHUNK = 4


def evaluate_model(model: ModelState, scenes) -> EvalResult:
    """AP50 per class and mAP of a model over a list of annotated scenes,
    detected in eval mode in chunks of 4 images.

    Eval mode treats every image on its own, so the chunk size changes no
    detection; it only bounds memory. The first conv's im2col buffer of a
    chunk is about 1 MB per 96-px image, so 4 images keep it near 4 MB.
    With the backbone's in-place BN and ReLU, and each block's activations
    unbound before the next conv, one evaluation of 16 96-px scenes by the
    default detector takes a traced transient of about 5.5 MiB, peaking in
    the first conv; 8-image chunks with out-of-place BN and ReLU took
    16.6 MiB.
    """
    scenes = list(scenes)
    dets = []
    for start in range(0, len(scenes), EVAL_CHUNK):
        dets.extend(forward_inference_batch(
            model, [s.image for s in scenes[start:start + EVAL_CHUNK]]))
    return evaluate_ap50(dets, [(s.boxes, s.labels) for s in scenes])
