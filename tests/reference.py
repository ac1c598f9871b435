"""The tests' oracles for the detector's kernels, one per distinct
arithmetic. An oracle of what an operation computes (conv2d_naive,
maxpool2, roi_pool, roi_scatter) is written out on its own and calls
neither the function it checks nor that function's private helpers. An
oracle that pins a former kernel's bytes (im2col, conv2d_batched,
bn_apply) keeps that kernel's expression, so the live kernel must match it
bit for bit."""

import math
from functools import reduce

import numpy as np

from sfodlab.batchnorm import BN_EPS


def conv2d_naive(x, w, b):
    """Cross-correlation pixel by pixel: stride 1, odd square kernel, zero
    padding k // 2 and a bias; each output pixel is the sum of its zero-
    padded k x k window times the kernel."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    out = np.empty((n, o, h, wd), np.result_type(x, w))
    for yi in range(h):
        for xi in range(wd):
            window = xp[:, :, yi:yi + k, xi:xi + k]
            out[:, :, yi, xi] = np.tensordot(window, w, axes=([1, 2, 3], [1, 2, 3])) + b
    return out


def im2col(x, k, pad):
    """Batch-wide stride-1 unfold through np.pad, as the forward pass did it
    before padding into a zero buffer: (N, C*k*k, OH*OW)."""
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = x.shape[2] - k + 1
    ow = x.shape[3] - k + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, k, k, oh, ow), strides=(s0, s1, s2, s3, s2, s3), writeable=False)
    return np.ascontiguousarray(view).reshape(n, c * k * k, oh * ow)


def conv2d_batched(x, kernel, bias):
    """conv2d_forward as it ran before the per-image loop: one unfold of
    the whole batch and one batched matmul."""
    n, _, h, w = x.shape
    o, _, k, _ = kernel.shape
    out = np.matmul(kernel.reshape(o, -1), im2col(x, k, k // 2)).reshape(n, o, h, w)
    out += bias.reshape(1, o, 1, 1)
    return out


def bn_apply(x, mean, var, gamma, beta):
    """bn_apply as the out-of-place expression: new xhat and output arrays,
    x untouched."""
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None], xhat, inv_std


def maxpool2(x):
    """Reshape + argmax 2x2 max pool: values and first-occurrence window
    indices (0..3, row-major). argmax picks the first NaN in a window."""
    n, c, h, w = x.shape
    win = (x.reshape(n, c, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def roi_pool(feats, boxes, out):
    """ROI max pool of one (C, F, F) map, bin by bin: (first, cells, window).

    A box side from lo to hi is cut at lo + (hi - lo) * (g / out) for
    g = 0..out; bin g spans the cells from the floor of its lower edge,
    clipped to [0, F - 1], up to the ceiling of its upper edge, clipped to
    [1, F] and at least one cell past its start. For each bin, first
    (P, C, out, out) holds its first maximum in row-major cell order, a NaN
    counting as the maximum, and cells (P, out, out, C) that maximum's flat
    cell row * F + col as int64; window (P, C, out, out) is np.maximum
    folded over the bin's cells in that order, which fixes the sign of a
    zero maximum."""
    c, fh, fw = feats.shape

    def spans(lo, hi, size):
        for g in range(out):
            start = min(max(math.floor(lo + (hi - lo) * (g / out)), 0), size - 1)
            stop = min(max(math.ceil(lo + (hi - lo) * ((g + 1) / out)), 1), size)
            yield g, start, max(stop, start + 1)

    first = np.empty((len(boxes), c, out, out), feats.dtype)
    window_max = np.empty_like(first)
    cells = np.empty((len(boxes), out, out, c), np.int64)
    for i, (x1, y1, x2, y2) in enumerate(np.asarray(boxes, np.float64).tolist()):
        for gy, r0, r1 in spans(y1, y2, fh):
            for gx, c0, c1 in spans(x1, x2, fw):
                window = feats[:, r0:r1, c0:c1].reshape(c, -1).T  # (cells, C)
                k = window.argmax(axis=0)
                first[i, :, gy, gx] = window[k, np.arange(c)]
                window_max[i, :, gy, gx] = reduce(np.maximum, window)
                cells[i, gy, gx] = (r0 + k // (c1 - c0)) * fw + c0 + k % (c1 - c0)
    return first, cells, window_max


def roi_scatter(dpooled, cells, c, fh, fw):
    """Each (P, C, out, out) pooled gradient added, in float64 and in
    (P, out, out, C) order, onto the feature cell of its (P, out, out, C)
    flat index; returned as (C, F, F) in dpooled's dtype."""
    acc = np.zeros((c, fh * fw))
    np.add.at(acc, (np.arange(c), cells), dpooled.transpose(0, 2, 3, 1).astype(np.float64))
    return acc.reshape(c, fh, fw).astype(dpooled.dtype)
