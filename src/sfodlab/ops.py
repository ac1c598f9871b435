"""Dense float32 tensor kernels with explicit forward/backward pairs.

Arrays are plain numpy ndarrays in row-major NCHW layout. There is no
autodiff tape: every layer exposes a forward function and a matching
backward that consumes the upstream gradient together with the saved
forward inputs. Kernels are dtype-generic so tests can run a float64
shadow path for finite-difference checks; training uses float32.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent with an operation."""


class NumericsError(FloatingPointError):
    """Raised when a computation produces non-finite values."""


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, stride, pad):
    """Unfold NCHW input into (N, C*kh*kw, out_h*out_w) patch columns."""
    n, c, h, w = x.shape
    if kh == kw == 1 and stride == 1 and pad == 0:
        return x.reshape(n, c, h * w), h, w
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = x.shape[2:]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    view = as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = np.ascontiguousarray(view).reshape(n, c * kh * kw, oh * ow)
    return cols, oh, ow


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias, stride: int = 1,
                   pad: int = 0) -> np.ndarray:
    """Direct 2D cross-correlation. x: NCHW, kernel: OIHW, bias: (O,) or None.

    Output spatial size is floor((in + 2*pad - k)/stride) + 1.
    """
    out, _ = conv2d_forward_cols(x, kernel, bias, stride, pad)
    return out


def conv2d_forward_cols(x: np.ndarray, kernel: np.ndarray, bias, stride: int = 1,
                        pad: int = 0):
    """conv2d_forward that also returns the im2col patch matrix, which
    conv2d_backward can reuse to avoid re-unfolding the input."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input/kernel, got {x.shape}/{kernel.shape}")
    n, c, h, w = x.shape
    o, ci, kh, kw = kernel.shape
    if ci != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {ci}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError(f"conv2d input {h}x{w} + pad {pad} smaller than kernel {kh}x{kw}")
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    out = np.matmul(kernel.reshape(o, -1), cols).reshape(n, o, oh, ow)
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out, cols


def conv2d_backward(dout: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    stride: int = 1, pad: int = 0, cols: np.ndarray = None,
                    need_dx: bool = True):
    """Gradients of conv2d_forward w.r.t. (input, kernel, bias).

    Returns (dx, dw, db); dx is None when need_dx is False, which skips the
    full correlation that dominates the cost of a layer with few input
    channels (the first conv sees the image). dw and db do not depend on
    need_dx. cols, when given, must be the patch matrix from
    conv2d_forward_cols for the same (x, kernel, stride, pad).
    """
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if dout.shape != (n, o, oh, ow):
        raise ShapeError(f"conv2d upstream shape {dout.shape} != {(n, o, oh, ow)}")

    db = dout.sum(axis=(0, 2, 3))

    if cols is None:
        cols, _, _ = _im2col(x, kh, kw, stride, pad)
    dmat = dout.reshape(n, o, oh * ow)
    dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    if not need_dx:
        return None, dw, db

    # dL/dx is a full correlation of the (stride-dilated) upstream gradient
    # with the channel-swapped, spatially flipped kernel.
    if stride > 1:
        dd = np.zeros((n, o, (oh - 1) * stride + 1, (ow - 1) * stride + 1), dtype=dout.dtype)
        dd[:, :, ::stride, ::stride] = dout
    else:
        dd = dout
    kflip = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    full = conv2d_forward(dd, kflip, None, stride=1, pad=max(kh, kw) - 1)
    dx = np.zeros_like(x)
    region = full[:, :, pad:pad + h, pad:pad + w]
    dx[:, :, : region.shape[2], : region.shape[3]] = region
    return dx, dw, db


# ---------------------------------------------------------------------------
# pointwise / pooling / linear
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


# Offsets (row, col) of the four elements of a 2x2 window, in the flat
# window order 0..3 used by the pooling indices.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_slices(x):
    """The four stride-2 views x[:, :, r::2, c::2] in window order."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    return [x[:, :, r::2, c::2] for r, c in _WINDOW]


def maxpool2_forward(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2. A NaN in a window pools to NaN."""
    s = _pool_slices(x)
    return np.maximum(np.maximum(s[0], s[1]), np.maximum(s[2], s[3]))


def maxpool2_with_indices(x: np.ndarray):
    """maxpool2_forward plus the window index of each maximum.

    The index is int8 in 0..3, numbering the 2x2 window row-major. On ties
    it names the first maximum in that order; a window holding a NaN pools
    to NaN and its index names the first NaN.
    """
    s = _pool_slices(x)
    out = maxpool2_forward(x)
    has_nan = np.isnan(out).any()
    # Masks are applied last-to-first so the lowest matching index wins.
    idx = np.int8(3)
    for j in (2, 1, 0):
        hit = s[j] == out
        if has_nan:
            hit |= np.isnan(s[j])
        idx = np.where(hit, np.int8(j), idx)
    return out, idx


def maxpool2_scatter(dout: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Route the pooled gradient to the window element named by idx (from
    maxpool2_with_indices); every other input element gets zero."""
    n, c, h, w = shape
    if dout.shape != (n, c, h // 2, w // 2) or idx.shape != dout.shape:
        raise ShapeError(f"maxpool2 upstream {dout.shape} / indices {idx.shape} "
                         f"do not pool {tuple(shape)}")
    dx = np.empty(shape, dtype=dout.dtype)
    for j, (r, col) in enumerate(_WINDOW):
        dx[:, :, r::2, col::2] = np.where(idx == j, dout, 0)
    return dx


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: input dim {x.shape[1]} != weight dim {w.shape[0]}")
    return x @ w + b


def linear_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# losses (forward and backward fused: the gradient costs nothing extra)
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy over rows. Returns (loss, dloss/dlogits).

    targets are integer class indices in [0, num_classes).
    """
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects 2D logits, got {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise ValueError("softmax_cross_entropy: empty target set")
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} != ({n},)")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"invalid class index in targets (num_classes={k})")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)
    loss = -logp[rows, targets].mean()
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1
    dlogits /= n
    return loss, dlogits


def smooth_l1(diff: np.ndarray):
    """Elementwise smooth-L1 of a difference array, summed then divided by
    the element count. Returns (loss, dloss/ddiff)."""
    diff = np.asarray(diff)
    if diff.size == 0:
        raise ValueError("smooth_l1: empty difference set")
    a = np.abs(diff)
    vals = np.where(a < 1, 0.5 * diff * diff, a - 0.5)
    loss = vals.sum() / diff.size
    ddiff = np.clip(diff, -1, 1) / diff.size
    return loss, ddiff


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_step(model, grads: dict, lr: float):
    """In-place w <- w - lr*g for every named gradient.

    BN running statistics never appear in grads, so they are untouched.
    The model is assumed exclusively held by the caller.
    """
    params = model.params if hasattr(model, "params") else model
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"sgd_step: gradient for unknown parameter {name!r}")
        p = params[name]
        if p.shape != g.shape:
            raise ShapeError(f"sgd_step: {name} shape {p.shape} != grad {g.shape}")
        p -= lr * g
    return model
