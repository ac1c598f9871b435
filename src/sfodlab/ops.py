"""Dense float32 tensor kernels with explicit forward/backward pairs.

Arrays are plain numpy ndarrays in row-major NCHW layout. There is no
autodiff tape: every layer exposes a forward function and a matching
backward that consumes the upstream gradient together with the saved
forward inputs. Kernels are dtype-generic so tests can run a float64
shadow path for finite-difference checks; training uses float32.

Every convolution has the one form the detector runs: stride 1, an odd
square k x k kernel, zero padding k // 2 (the output keeps the input's
height and width) and a bias. In that form the input gradient is a
convolution of the same form, so dx unfolds the upstream gradient with the
forward pass's _im2col (im2col: Chellapilla et al., 2006). conv2d_forward
and conv2d_backward each run one loop over the images and unfold one image
at a time, so a convolution holds one image's patch matrix, not the batch's
(a 1 x 1 kernel's columns are a view of the image, with no patch matrix).

Ownership: a kernel writes into an array it is given only where its
docstring says so (relu_forward into x, put_where into dst, sgd_step into
the named parameter and its gradient, which it consumes; batchnorm's
bn_apply and bn_backward into their first argument). Every other kernel
leaves its inputs as they were and returns new arrays.
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

def _im2col(x, k):
    """Unfold NCHW input into (N, C*k*k, H*W) columns: the k x k window
    centred on each pixel, zero-padded by k // 2 at the border."""
    n, c, h, w = x.shape
    if k == 1:
        return x.reshape(n, c, h * w)
    pad = k // 2
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad:pad + h, pad:pad + w] = x
    s0, s1, s2, s3 = padded.strides
    view = as_strided(padded, shape=(n, c, k, k, h, w),
                      strides=(s0, s1, s2, s3, s2, s3), writeable=False)
    return np.ascontiguousarray(view).reshape(n, c * k * k, h * w)


def _kernel_size(x, kernel):
    """Side k of an OIHW kernel, checked to be odd and square and to match
    the channels of the NCHW input x."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input/kernel, got {x.shape}/{kernel.shape}")
    _, ci, kh, kw = kernel.shape
    if ci != x.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, kernel {ci}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got {kh}x{kw}")
    return kh


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """2D cross-correlation of NCHW x with an odd square OIHW kernel, zero
    padding k // 2, stride 1, plus a (O,) bias: the output is N x O x H x W.

    One loop over the images, as in conv2d_backward: each image is unfolded
    on its own and its product is written straight into the output array,
    so only one image's patch matrix is alive (about 1 MB for the first conv
    of a 96-px image; none for a 1 x 1 kernel, whose columns are a view of
    x) and no per-image result is stacked. A batched matmul runs the same
    product per image, so the bits are those of one batch-wide unfold.
    """
    k = _kernel_size(x, kernel)
    n, _, h, w = x.shape
    o = kernel.shape[0]
    kmat = kernel.reshape(o, -1)
    out = np.empty((n, o, h, w), np.result_type(kernel, x))
    for i in range(n):
        np.matmul(kmat, _im2col(x[i:i + 1], k)[0], out=out[i].reshape(o, h * w))
    out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_forward_cols(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """conv2d_forward under the name that perfbench/tracer.py, harness.py and
    BENCHMARK.json list for the RPN conv; it stays only until the benchmark's
    next revision drops that name."""
    return conv2d_forward(x, kernel, bias)


def conv2d_backward(dout: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    need_dx: bool = True):
    """Gradients of conv2d_forward w.r.t. (input, kernel, bias).

    Returns (dx, dw, db); dx is None when need_dx is False, which skips the
    correlation that dominates the cost of a layer with few input channels
    (the first conv sees the image). dw and db do not depend on need_dx.

    One loop over the images unfolds each image once for dw and, for dx,
    its upstream gradient once, so only one image's patch matrices are
    alive and the caller need not keep the forward pass's columns. dw adds
    dout_i @ cols_i^T to a zero accumulator in image order: the summation
    order of a batched matmul summed over the batch, so the bits are the
    same. dx is the same-size correlation of dout with the channel-swapped,
    spatially flipped kernel: kmat @ _im2col(dout_i, k), whose zero border
    of k // 2 is exactly where the window leaves x, so each column is one
    dx pixel and nothing is cropped.
    """
    k = _kernel_size(x, kernel)
    n, c, h, w = x.shape
    o = kernel.shape[0]
    if dout.shape != (n, o, h, w):
        raise ShapeError(f"conv2d upstream shape {dout.shape} != {(n, o, h, w)}")

    db = dout.sum(axis=(0, 2, 3))
    dmat = dout.reshape(n, o, h * w)
    dw = np.zeros((o, c * k * k), np.result_type(dout, x))
    dx = np.empty_like(x) if need_dx else None
    kmat = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    for i in range(n):
        dw += np.matmul(dmat[i], _im2col(x[i:i + 1], k)[0].T)
        if need_dx:
            dx[i] = np.matmul(kmat, _im2col(dout[i:i + 1], k)[0]).reshape(c, h, w)
    return dx, dw.reshape(kernel.shape), db


# ---------------------------------------------------------------------------
# pointwise / pooling / linear
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    """max(x, 0), written into x and returned: the caller owns x (a conv,
    linear or pooled BN output). A NaN stays NaN, so (out > 0) equals
    (x > 0), and no output is -0.0. ReLU is monotone, so it commutes with
    max pooling: relu_forward(maxpool2_forward(x)) has the bytes of
    maxpool2_forward(relu_forward(x)), NaN, -0.0 and ties included."""
    return np.maximum(x, 0, out=x)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def put_where(dst: np.ndarray, src, hit: np.ndarray) -> None:
    """np.copyto(dst, src, where=hit), bit for bit, without a branch per
    element: the bit patterns of dst and src (cast to dst's dtype and
    broadcast) are XOR-swapped through a mask that is all ones where hit
    holds, so NaN payloads and -0.0 are copied as they are."""
    bits = np.dtype(f"u{dst.itemsize}")
    d = dst.view(bits)
    mask = np.subtract(0, hit, dtype=bits)
    mask &= np.asarray(src, dst.dtype).view(bits) ^ d
    d ^= mask


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
    idx = np.full(out.shape, 3, np.int8)
    for j in (2, 1, 0):
        hit = s[j] == out
        if has_nan:
            hit |= np.isnan(s[j])
        put_where(idx, np.int8(j), hit)
    return out, idx


def maxpool2_scatter(dout: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Route the pooled gradient to the window element named by idx (from
    maxpool2_with_indices); every other input element gets +0.0.

    Returns a new array; dout is copied as it is, NaN and -0.0 included.
    """
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

def sgd_step(params: dict, name: str, grad: np.ndarray, lr: float):
    """In place, w <- w - lr*g for the one parameter params[name].

    params is a model's name -> array dict (``ModelState.params``), held
    exclusively by the caller; forward_train hands each gradient over as
    soon as the backward makes it, so BN running statistics, which have
    none, are untouched. grad is consumed: it is scaled by lr in its own
    buffer, which gives the bits of ``w -= lr * g`` for a Python float lr
    without an lr * g temporary, so the caller must own grad and not read
    it again.
    """
    if name not in params:
        raise KeyError(f"sgd_step: gradient for unknown parameter {name!r}")
    p = params[name]
    if p.shape != grad.shape:
        raise ShapeError(f"sgd_step: {name} shape {p.shape} != grad {grad.shape}")
    grad *= lr
    p -= grad
