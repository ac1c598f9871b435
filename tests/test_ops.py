"""Kernel-level contracts: naive-loop conv oracle, finite-difference
gradient checks on the 64-bit shadow path, and the optimizer step."""

import numpy as np
import pytest

from sfodlab import ops
from conftest import assert_grads_close, conv2d_naive, numerical_grad, well_separated

SEEDS = [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# conv2d forward
# ---------------------------------------------------------------------------

def test_conv_scaling_identity():
    x = np.ones((1, 1, 3, 3), np.float32)
    k = np.full((1, 1, 1, 1), 2.0, np.float32)
    out = ops.conv2d_forward(x, k, np.zeros(1, np.float32))
    assert out.shape == (1, 1, 3, 3)
    assert np.array_equal(out, np.full((1, 1, 3, 3), 2.0, np.float32))


def test_conv_zero_kernel_gives_bias(rng):
    x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
    k = np.zeros((4, 3, 3, 3), np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out = ops.conv2d_forward(x, k, b, stride=1, pad=1)
    assert np.allclose(out, b.reshape(1, 4, 1, 1) * np.ones_like(out))


def test_conv_matches_naive_reference(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    k = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)]:
        got = ops.conv2d_forward(x, k, b, stride, pad)
        want = conv2d_naive(x, k, b, stride, pad)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-5


def test_conv_output_size_formula(rng):
    x = rng.normal(size=(1, 2, 9, 7))
    k = rng.normal(size=(3, 2, 3, 3))
    out = ops.conv2d_forward(x, k, None, stride=2, pad=1)
    assert out.shape == (1, 3, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)


def test_conv_shape_errors(rng):
    x = rng.normal(size=(1, 3, 5, 5))
    with pytest.raises(ops.ShapeError):
        ops.conv2d_forward(x, rng.normal(size=(2, 4, 3, 3)), None)
    with pytest.raises(ops.ShapeError):
        ops.conv2d_forward(x, rng.normal(size=(2, 3, 7, 7)), None)
    with pytest.raises(ops.ShapeError):
        ops.conv2d_backward(np.zeros((1, 2, 9, 9)), x, rng.normal(size=(2, 3, 3, 3)))


def test_conv_linearity(rng):
    x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    y = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    a, b = 1.7, -0.6
    lhs = ops.conv2d_forward(a * x + b * y, k, None, 1, 1)
    rhs = a * ops.conv2d_forward(x, k, None, 1, 1) + b * ops.conv2d_forward(y, k, None, 1, 1)
    assert np.abs(lhs - rhs).max() < 1e-4


# ---------------------------------------------------------------------------
# conv2d backward
# ---------------------------------------------------------------------------

def test_conv_backward_zero_upstream(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    dx, dw, db = ops.conv2d_backward(np.zeros((1, 3, 5, 5)), x, k, 1, 1)
    assert not dx.any() and not dw.any() and not db.any()


def test_conv_backward_1x1_is_scaling(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    k = np.full((1, 1, 1, 1), 3.0)
    dout = rng.normal(size=(1, 1, 4, 4))
    dx, _, _ = ops.conv2d_backward(dout, x, k)
    assert np.allclose(dx, dout * 3.0)


def test_conv_backward_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = r.normal(size=(2, 2, 6, 6))
        k = r.normal(size=(3, 2, 3, 3))
        b = r.normal(size=3)
        stride, pad = [(1, 1), (2, 1), (1, 0), (2, 0), (3, 2)][seed % 5]
        dout = r.normal(size=ops.conv2d_forward(x, k, b, stride, pad).shape)

        def loss():
            return float((ops.conv2d_forward(x, k, b, stride, pad) * dout).sum())

        dx, dw, db = ops.conv2d_backward(dout, x, k, stride, pad)
        assert_grads_close(dx, numerical_grad(loss, x), what=f"conv dx seed {seed}")
        assert_grads_close(dw, numerical_grad(loss, k), what=f"conv dw seed {seed}")
        assert_grads_close(db, numerical_grad(loss, b), what=f"conv db seed {seed}")


def test_conv_backward_without_dx_identical(rng):
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    for stride, pad in [(1, 1), (2, 0)]:
        out = ops.conv2d_forward(x, k, None, stride, pad)
        dout = rng.normal(size=out.shape).astype(np.float32)
        _, dw, db = ops.conv2d_backward(dout, x, k, stride, pad)
        dx, dw_only, db_only = ops.conv2d_backward(dout, x, k, stride, pad,
                                                   need_dx=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes()
        assert db_only.tobytes() == db.tobytes()


def test_conv_backward_cached_cols_identical(rng):
    """dw from the per-image re-unfold equals dw from the patch matrix the
    forward pass returns, summed over the batch as a batched matmul."""
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    for stride, pad in [(1, 1), (2, 0)]:
        out, cols = ops.conv2d_forward_cols(x, k, None, stride, pad)
        dout = rng.normal(size=out.shape).astype(np.float32)
        dmat = dout.reshape(len(x), 4, -1)
        cached = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape)
        _, dw, _ = ops.conv2d_backward(dout, x, k, stride, pad)
        assert dw.tobytes() == cached.tobytes()
        assert cols.tobytes() == im2col_reference(x, 3, 3, stride, pad).tobytes()


def im2col_reference(x, kh, kw, stride, pad):
    """Batch-wide unfold through np.pad, as the forward pass did it before
    padding into a zero buffer."""
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride), writeable=False)
    return np.ascontiguousarray(view).reshape(n, c * kh * kw, oh * ow)


def batched_conv_backward(dout, x, kernel, stride, pad):
    """conv2d_backward as it was while the forward pass kept its patch
    matrix: dw from one batch-wide unfold, a batched matmul and a sum over
    the batch; dx from the same-size correlation, unfolded per image."""
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh, ow = dout.shape[2:]
    db = dout.sum(axis=(0, 2, 3))
    cols = im2col_reference(x, kh, kw, stride, pad)
    dmat = dout.reshape(n, o, oh * ow)
    dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    buf = np.zeros((n, o, h + kh - 1, w + kw - 1), dtype=dout.dtype)
    row_dst, row_src = ops._dilated_span(kh - 1 - pad, oh, stride, h + kh - 1)
    col_dst, col_src = ops._dilated_span(kw - 1 - pad, ow, stride, w + kw - 1)
    buf[:, :, row_dst, col_dst] = dout[:, :, row_src, col_src]
    kmat = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = np.empty_like(x)
    for i in range(n):
        img_cols = im2col_reference(buf[i:i + 1], kh, kw, 1, 0)
        dx[i] = np.matmul(kmat, img_cols[0]).reshape(c, h, w)
    return dx, dw, db


def assert_same_gradients(got, want, what):
    for name, a, b in zip(("dx", "dw", "db"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, (name, what)
        assert a.tobytes() == b.tobytes(), (name, what)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("cin, cout, size", [
    (3, 8, 96), (8, 16, 48), (16, 32, 24), (32, 64, 12), (64, 64, 12)])
def test_conv_backward_bytes_match_batched_unfold_at_detector_shapes(cin, cout, size, n):
    # The detector's five 3x3 convs (four backbone blocks and the RPN conv)
    # at the training batch sizes, on real values: the per-image dw
    # accumulation keeps the batched matmul's summation order.
    r = np.random.default_rng(size + cout + n)
    x = r.normal(size=(n, cin, size, size)).astype(np.float32)
    k = r.normal(size=(cout, cin, 3, 3)).astype(np.float32)
    dout = r.normal(size=(n, cout, size, size)).astype(np.float32)
    assert_same_gradients(ops.conv2d_backward(dout, x, k, 1, 1),
                          batched_conv_backward(dout, x, k, 1, 1), (cin, cout, n))


def test_conv_backward_bytes_match_batched_unfold_small_integers():
    r = np.random.default_rng(1)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            for ksize in (1, 3):
                for n in range(1, 6):
                    x = r.integers(-3, 4, size=(n, 3, 7, 8)).astype(np.float32)
                    k = r.integers(-3, 4, size=(4, 3, ksize, ksize)).astype(np.float32)
                    shape = ops.conv2d_forward(x, k, None, stride, pad).shape
                    dout = r.integers(-3, 4, size=shape).astype(np.float32)
                    assert_same_gradients(
                        ops.conv2d_backward(dout, x, k, stride, pad),
                        batched_conv_backward(dout, x, k, stride, pad),
                        (stride, pad, ksize, n))


def full_correlation_dx(dout, x, kernel, stride, pad):
    """The input gradient as conv2d_backward used to compute it: a full
    correlation of the stride-dilated upstream gradient over the whole
    batch, cropped to x and zero-filled where it falls short. Square
    kernels only (it pads both axes by max(kh, kw) - 1)."""
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh, ow = dout.shape[2:]
    if stride > 1:
        dd = np.zeros((n, o, (oh - 1) * stride + 1, (ow - 1) * stride + 1), dtype=dout.dtype)
        dd[:, :, ::stride, ::stride] = dout
    else:
        dd = dout
    kflip = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    full = ops.conv2d_forward(dd, kflip, None, stride=1, pad=max(kh, kw) - 1)
    dx = np.zeros_like(x)
    region = full[:, :, pad:pad + h, pad:pad + w]
    dx[:, :, : region.shape[2], : region.shape[3]] = region
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_dx_equals_full_correlation_and_crop(dtype):
    # Small integers make every product and partial sum exact, so any GEMM
    # summation order gives the same bits and the check is on where each
    # gradient lands; a positive kernel rules out -0.0 from padding.
    r = np.random.default_rng(0)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            for ksize in (1, 3):
                for n in range(1, 6):
                    x = np.zeros((n, 3, 7, 8), dtype)
                    k = r.integers(1, 4, size=(4, 3, ksize, ksize)).astype(dtype)
                    shape = ops.conv2d_forward(x, k, None, stride, pad).shape
                    dout = r.integers(-3, 4, size=shape).astype(dtype)
                    dx, _, _ = ops.conv2d_backward(dout, x, k, stride, pad)
                    want = full_correlation_dx(dout, x, k, stride, pad)
                    assert dx.dtype == want.dtype
                    assert dx.tobytes() == want.tobytes(), (stride, pad, ksize, n)


@pytest.mark.parametrize("cin, cout, size, ksize, pad", [
    (8, 16, 48, 3, 1), (16, 32, 24, 3, 1), (32, 64, 12, 3, 1), (64, 64, 12, 3, 1),
    (64, 18, 12, 1, 0), (64, 36, 12, 1, 0)])
def test_conv_dx_bytes_at_detector_layer_shapes(cin, cout, size, ksize, pad):
    # On real values the two GEMMs may round differently in general; at the
    # layer shapes the detector runs they do not, which is what keeps every
    # training trace bit-identical to the full-correlation code.
    r = np.random.default_rng(size + cout)
    x = r.normal(size=(4, cin, size, size)).astype(np.float32)
    k = r.normal(size=(cout, cin, ksize, ksize)).astype(np.float32)
    dout = r.normal(size=(4, cout, size, size)).astype(np.float32)
    dx, _, _ = ops.conv2d_backward(dout, x, k, 1, pad)
    assert dx.tobytes() == full_correlation_dx(dout, x, k, 1, pad).tobytes()


@pytest.mark.parametrize("kshape", [(1, 3), (3, 1), (2, 3)])
def test_conv_backward_non_square_kernel_matches_finite_differences(kshape):
    r = np.random.default_rng(7)
    for stride, pad in [(1, 0), (1, 1), (2, 1)]:
        x = r.normal(size=(2, 2, 6, 7))
        k = r.normal(size=(3, 2, *kshape))
        dout = r.normal(size=ops.conv2d_forward(x, k, None, stride, pad).shape)

        def loss():
            return float((ops.conv2d_forward(x, k, None, stride, pad) * dout).sum())

        dx, _, _ = ops.conv2d_backward(dout, x, k, stride, pad)
        assert_grads_close(dx, numerical_grad(loss, x),
                           what=f"conv dx kernel {kshape} stride {stride} pad {pad}")


# ---------------------------------------------------------------------------
# relu / maxpool / linear
# ---------------------------------------------------------------------------

def test_relu_forward_backward():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(ops.relu_forward(x.copy()), [0, 0, 0, 0.5, 2.0])
    dout = np.ones_like(x)
    assert np.array_equal(ops.relu_backward(dout, x), [0, 0, 0, 1, 1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_in_place_matches_reference(rng, dtype):
    """The output is the input array, holding the bytes of the out-of-place
    np.maximum(x, 0); a NaN stays NaN, so the mask out > 0 is x > 0."""
    x = rng.normal(size=(3, 4, 5, 6)).astype(dtype)
    x[0, 0, 0, :3] = (np.nan, -0.0, 0.0)
    want = np.maximum(x, 0)
    x_in = x.copy()
    out = ops.relu_forward(x_in)
    assert out is x_in and out.dtype == dtype
    assert out.tobytes() == want.tobytes()
    assert np.array_equal(out > 0, x > 0)


def test_relu_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = well_separated(r, (3, 4, 4, 2))
        dout = r.normal(size=x.shape)

        def loss():
            return float((ops.relu_forward(x.copy()) * dout).sum())

        assert_grads_close(ops.relu_backward(dout, x), numerical_grad(loss, x),
                           what=f"relu seed {seed}")


def maxpool2_reference(x):
    """Reshape + argmax 2x2 max pool: values and first-occurrence window
    indices (0..3, row-major). argmax picks the first NaN in a window."""
    n, c, h, w = x.shape
    win = (x.reshape(n, c, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def maxpool2_scatter_reference(dout, idx, shape):
    n, c, h, w = shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    return (dwin.reshape(n, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w))


def test_maxpool_forward(rng):
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = ops.maxpool2_forward(x)
    assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])
    for odd in [(1, 1, 5, 4), (1, 1, 4, 3)]:
        with pytest.raises(ops.ShapeError):
            ops.maxpool2_forward(np.zeros(odd))
        with pytest.raises(ops.ShapeError):
            ops.maxpool2_with_indices(np.zeros(odd))
    idx = np.zeros((1, 1, 2, 2), np.int8)
    with pytest.raises(ops.ShapeError):
        ops.maxpool2_scatter(np.zeros((1, 1, 2, 3)), idx, (1, 1, 4, 4))
    with pytest.raises(ops.ShapeError):
        ops.maxpool2_scatter(np.zeros((1, 1, 2, 2)), idx[..., :1], (1, 1, 4, 4))


def test_maxpool_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = well_separated(r, (2, 3, 6, 4))
        dout = r.normal(size=(2, 3, 3, 2))

        def loss():
            return float((ops.maxpool2_forward(x) * dout).sum())

        _, idx = ops.maxpool2_with_indices(x)
        assert_grads_close(ops.maxpool2_scatter(dout, idx, x.shape),
                           numerical_grad(loss, x), what=f"maxpool seed {seed}")


def test_maxpool_with_indices_consistent(rng):
    x = well_separated(rng, (2, 2, 8, 8))
    out, idx = ops.maxpool2_with_indices(x)
    assert np.array_equal(out, ops.maxpool2_forward(x))
    assert idx.dtype == np.int8
    dout = rng.normal(size=out.shape)
    assert np.array_equal(ops.maxpool2_scatter(dout, idx, x.shape),
                          maxpool2_scatter_reference(dout, idx, x.shape))


def test_maxpool_ties_match_reference(rng):
    """Bit-identical values, indices and scatter on tie-heavy inputs."""
    inputs = [
        rng.integers(0, 3, (2, 3, 8, 6)).astype(np.float32),
        np.full((1, 2, 4, 4), 0.25, np.float32),
        ops.relu_forward(rng.normal(size=(2, 4, 6, 6)).astype(np.float32)),
        ops.relu_forward(rng.integers(-2, 2, (3, 2, 4, 8)).astype(np.float64)),
    ]
    for x in inputs:
        want, want_idx = maxpool2_reference(x)
        out, idx = ops.maxpool2_with_indices(x)
        assert out.dtype == x.dtype
        assert np.array_equal(out, want) and np.array_equal(idx, want_idx)
        assert np.array_equal(ops.maxpool2_forward(x), want)
        dout = rng.normal(size=out.shape).astype(x.dtype)
        got = ops.maxpool2_scatter(dout, idx, x.shape)
        assert got.dtype == x.dtype
        assert np.array_equal(got, maxpool2_scatter_reference(dout, want_idx, x.shape))


def test_maxpool_nan_propagates(rng):
    x = ops.relu_forward(rng.normal(size=(1, 2, 4, 4)))
    x[0, 0, 1, 0] = np.nan          # window (0, 0), flat index 2
    x[0, 1, 2, 3] = np.nan          # window (1, 1), flat index 1
    x[0, 1, 3, 2] = np.nan          # same window, flat index 2
    want, want_idx = maxpool2_reference(x)
    out, idx = ops.maxpool2_with_indices(x)
    for pooled in (out, ops.maxpool2_forward(x)):
        assert np.isnan(pooled[0, 0, 0, 0]) and np.isnan(pooled[0, 1, 1, 1])
        assert np.isnan(pooled).sum() == 2
        assert np.array_equal(pooled, want, equal_nan=True)
    assert idx[0, 0, 0, 0] == 2 and idx[0, 1, 1, 1] == 1
    assert np.array_equal(idx, want_idx)


def test_linear_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = r.normal(size=(4, 5))
        w = r.normal(size=(5, 3))
        b = r.normal(size=3)
        dout = r.normal(size=(4, 3))

        def loss():
            return float((ops.linear_forward(x, w, b) * dout).sum())

        dx, dw, db = ops.linear_backward(dout, x, w)
        assert_grads_close(dx, numerical_grad(loss, x), what="linear dx")
        assert_grads_close(dw, numerical_grad(loss, w), what="linear dw")
        assert_grads_close(db, numerical_grad(loss, b), what="linear db")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_smooth_l1_values():
    loss, _ = ops.smooth_l1(np.array([0.0]))
    assert loss == 0.0
    loss, _ = ops.smooth_l1(np.array([0.5]))
    assert abs(loss - 0.125) < 1e-12
    loss, _ = ops.smooth_l1(np.array([2.0]))
    assert abs(loss - 1.5) < 1e-12
    # summed then normalized by element count
    loss, _ = ops.smooth_l1(np.array([0.5, 2.0]))
    assert abs(loss - (0.125 + 1.5) / 2) < 1e-12
    with pytest.raises(ValueError):
        ops.smooth_l1(np.zeros(0))


def test_smooth_l1_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        d = r.normal(size=(6, 4)) * 0.4 + np.where(r.random((6, 4)) < 0.5, 1.6, 0.0)

        def loss():
            return float(ops.smooth_l1(d)[0])

        assert_grads_close(ops.smooth_l1(d)[1], numerical_grad(loss, d),
                           what=f"smooth_l1 seed {seed}")


def test_cross_entropy_saturation():
    logits = np.array([[25.0, 0.0, 0.0], [0.0, 30.0, 5.0]], np.float64)
    loss, _ = ops.softmax_cross_entropy(logits, np.array([0, 1]))
    assert loss < 1e-6


def test_cross_entropy_errors():
    with pytest.raises(ValueError):
        ops.softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, np.int64))
    with pytest.raises(ValueError):
        ops.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_cross_entropy_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        logits = r.normal(size=(5, 4))
        targets = r.integers(0, 4, size=5)

        def loss():
            return float(ops.softmax_cross_entropy(logits, targets)[0])

        assert_grads_close(ops.softmax_cross_entropy(logits, targets)[1],
                           numerical_grad(loss, logits),
                           what=f"cross_entropy seed {seed}")


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------

def test_sgd_zero_lr_keeps_params():
    params = {"w": np.array([1.0, 2.0], np.float32)}
    before = params["w"].copy()
    ops.sgd_step(params, {"w": np.array([3.0, -1.0], np.float32)}, 0.0)
    assert np.array_equal(params["w"], before)


def test_sgd_scalar_arithmetic():
    params = {"w": np.array([1.0], np.float32)}
    ops.sgd_step(params, {"w": np.array([2.0], np.float32)}, 0.0025)
    assert abs(params["w"][0] - 0.995) < 1e-7


def test_sgd_mismatch_errors():
    params = {"w": np.zeros(2, np.float32)}
    with pytest.raises(KeyError):
        ops.sgd_step(params, {"v": np.zeros(2, np.float32)}, 0.1)
    with pytest.raises(ops.ShapeError):
        ops.sgd_step(params, {"w": np.zeros(3, np.float32)}, 0.1)


def test_views_share_bytes(rng):
    """Reshape/slice of contiguous arrays are views: reading back is identical."""
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    v = x.reshape(2, 48)
    assert v.base is x
    s = x[:, 1]
    assert s.base is x
    assert np.array_equal(v.reshape(x.shape), x)
    assert v.tobytes() == x.tobytes()
