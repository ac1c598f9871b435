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
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
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
    """conv2d_forward that also returns its (N, C*kh*kw, out_h*out_w)
    im2col patch matrix."""
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
                    stride: int = 1, pad: int = 0, need_dx: bool = True):
    """Gradients of conv2d_forward w.r.t. (input, kernel, bias).

    Returns (dx, dw, db); dx is None when need_dx is False, which skips the
    correlation that dominates the cost of a layer with few input channels
    (the first conv sees the image). dw and db do not depend on need_dx.

    dw unfolds x again, one image at a time, and adds dout_i @ cols_i^T to
    a zero accumulator in image order: the summation order of a batched
    matmul summed over the batch, so the bits are the same, but only one
    image's patch matrix is alive and the caller need not keep the forward
    pass's columns.

    dx is a same-size correlation of the upstream gradient with the
    channel-swapped, spatially flipped kernel. The gradient is written with
    stride-dilation into a zero buffer of x's size plus k-1, at offset
    k-1-pad (rows and columns falling outside it only ever met padding), so
    each output is exactly one dx element: nothing is cropped afterwards and
    no border is zero-filled. The buffer is unfolded one image at a time, so
    only one image's patch matrix (C_out*kh*kw by H*W) is alive at once; a
    batched matmul would also run one GEMM per image, so this costs no time.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if dout.shape != (n, o, oh, ow):
        raise ShapeError(f"conv2d upstream shape {dout.shape} != {(n, o, oh, ow)}")

    db = dout.sum(axis=(0, 2, 3))

    dmat = dout.reshape(n, o, oh * ow)
    dw = np.zeros((o, c * kh * kw), np.result_type(dout, x))
    for i in range(n):
        img_cols, _, _ = _im2col(x[i:i + 1], kh, kw, stride, pad)
        dw += np.matmul(dmat[i], img_cols[0].T)
    dw = dw.reshape(kernel.shape)
    if not need_dx:
        return None, dw, db

    buf = np.zeros((n, o, h + kh - 1, w + kw - 1), dtype=dout.dtype)
    row_dst, row_src = _dilated_span(kh - 1 - pad, oh, stride, h + kh - 1)
    col_dst, col_src = _dilated_span(kw - 1 - pad, ow, stride, w + kw - 1)
    buf[:, :, row_dst, col_dst] = dout[:, :, row_src, col_src]
    kmat = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = np.empty_like(x)
    for i in range(n):
        img_cols, _, _ = _im2col(buf[i:i + 1], kh, kw, 1, 0)
        dx[i] = np.matmul(kmat, img_cols[0]).reshape(c, h, w)
    return dx, dw, db


def _dilated_span(offset: int, count: int, stride: int, size: int):
    """(destination, source) slices that put element j of a length-count
    axis at offset + stride*j of a length-size axis, dropping the elements
    that land outside it."""
    first = max(0, stride - 1 - offset) // stride
    last = min(count, (size - offset + stride - 1) // stride)
    return slice(offset + first * stride, offset + last * stride, stride), slice(first, last)


# ---------------------------------------------------------------------------
# pointwise / pooling / linear
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    """max(x, 0), written into x and returned: the caller owns x (a conv,
    linear or BN output). A NaN stays NaN, so (out > 0) equals (x > 0)."""
    return np.maximum(x, 0, out=x)


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

def sgd_step(params: dict, grads: dict, lr: float):
    """In place, w <- w - lr*g for every named gradient in grads.

    params is a model's name -> array dict (``ModelState.params``), held
    exclusively by the caller. BN running statistics never appear in grads,
    so they are untouched.
    """
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"sgd_step: gradient for unknown parameter {name!r}")
        p = params[name]
        if p.shape != g.shape:
            raise ShapeError(f"sgd_step: {name} shape {p.shape} != grad {g.shape}")
        p -= lr * g
