"""Batch normalization: the detector's only BN code.

``bn_apply`` normalizes an NCHW batch per channel by the statistics it is
given: the biased batch statistics from ``batch_stats`` (training and the
AdaBN sweep) or a layer's stored running estimates (eval mode, a pure
function of the model). ``bn_backward`` is its gradient under batch
statistics; only training keeps its cache. Both work in the buffers they
are given: ``bn_apply`` turns its input into xhat and ``bn_backward``
turns the upstream gradient into dx, so each caller hands over an array
it owns and does not read again.

Only two functions write running statistics. ``update_running_statistics``
folds one training step's batch statistics into them with ``running <-
m*running + (1-m)*batch``; ``collect_target_statistics`` (AdaBN) replaces
them with the equal-weight average of per-batch statistics over one pass of
an unlabeled image set, in a new model that shares every other array with
its source.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batch_stats(x: np.ndarray):
    """Per-channel mean and biased variance over (N, H, W) of an NCHW batch."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    return mean, var


def bn_apply(x: np.ndarray, mean, var, gamma, beta):
    """gamma * (x - mean)/sqrt(var + BN_EPS) + beta with per-channel factors.

    Returns (output, xhat, inv_std); (xhat, inv_std, gamma) is the cache
    bn_backward needs when mean and var are the batch statistics of x.
    x is normalized in place and becomes xhat, so the output is the only new
    array and the caller must own x (the detector passes its conv outputs).
    All inputs share one dtype, so every step computes what the out-of-place
    expression does, bit for bit.
    """
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x -= mean[None, :, None, None]
    x *= inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * x
    out += beta[None, :, None, None]
    return out, x, inv_std


def bn_backward(dout: np.ndarray, cache):
    """Gradients of bn_apply under batch statistics w.r.t. (input, gamma,
    beta); cache is (xhat, inv_std, gamma). Eval mode keeps no cache.

    dout is consumed: dx is computed in dout's buffer and returned, so the
    caller must own dout and not read it again. The cache is left as it
    was, and one scratch array of dout's size is the only new full-size
    array. All inputs share one dtype, so the in-place steps compute the
    out-of-place inv_std/n * (n*dxhat - s1 - xhat*s2) bit for bit.
    """
    if cache is None:
        raise ValueError("bn_backward: no gradient path for eval-mode forward")
    xhat, inv_std, gamma = cache
    n = dout.shape[0] * dout.shape[2] * dout.shape[3]
    tmp = dout * xhat
    dgamma = tmp.sum(axis=(0, 2, 3))
    dbeta = dout.sum(axis=(0, 2, 3))
    dout *= gamma[None, :, None, None]  # dxhat
    s1 = dout.sum(axis=(0, 2, 3))
    s2 = np.multiply(dout, xhat, out=tmp).sum(axis=(0, 2, 3))
    np.multiply(xhat, s2[None, :, None, None], out=tmp)
    dout *= n
    dout -= s1[None, :, None, None]
    dout -= tmp
    dout *= (inv_std / n)[None, :, None, None]
    return dout, dgamma, dbeta


def update_running_statistics(model, stats):
    """Fold per-layer batch statistics [(mean, var), ...] into the model's
    running estimates in place: running <- m*running + (1-m)*batch with
    m = BN_MOMENTUM, stored as float32."""
    m = BN_MOMENTUM
    p = model.params
    for (layer, _), (mean, var) in zip(model.arch.bn_layers(), stats):
        for name, batch in ((f"{layer}.running_mean", mean), (f"{layer}.running_var", var)):
            p[name] = (m * p[name] + (1 - m) * batch).astype(np.float32)


def collect_target_statistics(model, images, batch_size: int):
    """AdaBN: one pass over the image set, replacing every BN layer's
    running statistics with the equal-weight average of per-batch statistics.

    The sweep runs the backbone in collect mode: each batch is normalized by
    its own batch statistics (so later layers see activations consistent
    with earlier layers' fresh statistics) and no backward cache is kept.
    The returned model holds the source's weight, gamma and beta arrays
    themselves, not copies; only its running statistics are new arrays
    (ModelState states when a shared array may be written).
    """
    from .detector import ModelState, _backbone_forward, images_to_batch

    images = list(images)
    if not images:
        raise ValueError("collect_target_statistics: empty target stream")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    starts = range(0, len(images), batch_size)
    sums = None
    for start in starts:
        batch = images_to_batch(images[start:start + batch_size])
        _, _, stats = _backbone_forward(model, batch, "collect")
        stats = [(m.astype(np.float64), v.astype(np.float64)) for m, v in stats]
        sums = stats if sums is None else [
            (sm + m, sv + v) for (sm, sv), (m, v) in zip(sums, stats)]

    adapted = ModelState(model.arch, dict(model.params))
    for (layer_name, _), (sm, sv) in zip(model.arch.bn_layers(), sums):
        adapted.params[f"{layer_name}.running_mean"] = (sm / len(starts)).astype(np.float32)
        adapted.params[f"{layer_name}.running_var"] = (sv / len(starts)).astype(np.float32)
    return adapted
