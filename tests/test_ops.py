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
    out = ops.conv2d_forward(x, k, b)
    assert np.allclose(out, b.reshape(1, 4, 1, 1) * np.ones_like(out))


def test_conv_matches_naive_reference(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    b = rng.normal(size=4)
    for ksize in (1, 3, 5):
        k = rng.normal(size=(4, 3, ksize, ksize))
        got = ops.conv2d_forward(x, k, b)
        want = conv2d_naive(x, k, b, 1, ksize // 2)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-5


def test_conv_output_size_formula(rng):
    # zero padding k // 2 at stride 1: the output keeps the input's size
    x = rng.normal(size=(1, 2, 9, 7))
    for ksize in (1, 3, 5):
        k = rng.normal(size=(3, 2, ksize, ksize))
        assert ops.conv2d_forward(x, k, np.zeros(3)).shape == (1, 3, 9, 7)


def test_conv_shape_errors(rng):
    x = rng.normal(size=(1, 3, 5, 5))
    with pytest.raises(ops.ShapeError):
        ops.conv2d_forward(x, rng.normal(size=(2, 4, 3, 3)), np.zeros(2))
    with pytest.raises(ops.ShapeError):
        ops.conv2d_backward(np.zeros((1, 2, 9, 9)), x, rng.normal(size=(2, 3, 3, 3)))


def conv2d_forward_batched(x, kernel, bias):
    """conv2d_forward as it ran before the per-image loop: one unfold of
    the whole batch and one batched matmul."""
    k = kernel.shape[2]
    n, _, h, w = x.shape
    o = kernel.shape[0]
    cols = ops._im2col(x, k)
    out = np.matmul(kernel.reshape(o, -1), cols).reshape(n, o, h, w)
    out += bias.reshape(1, o, 1, 1)
    return out


@pytest.mark.parametrize("n", [1, 3, 4])
def test_conv_forward_per_image_matches_batched_bytes(rng, n):
    """Unfolding one image at a time into the output array gives the
    batched unfold's bytes, non-finite inputs and signed zeros included."""
    x = rng.normal(size=(n, 3, 12, 10)).astype(np.float32)
    x[0, 0, 2, 3] = np.nan
    x[-1, 1, 5, 5] = np.inf
    x[-1, 2, 0, 9] = -np.inf
    x[:, :, 7, :] = 0.0
    x[:, :, 8, :] = -0.0
    for ksize in (1, 3, 5):
        k = rng.normal(size=(4, 3, ksize, ksize)).astype(np.float32)
        k[1] = -0.0
        b = rng.normal(size=4).astype(np.float32)
        b[1] = -0.0
        with np.errstate(invalid="ignore"):
            got = ops.conv2d_forward(x, k, b)
            want = conv2d_forward_batched(x, k, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_conv_1x1_batched_matches_per_image_loop(rng):
    """A 1 x 1 kernel runs the per-image loop too; its bytes are those of
    one batched matmul over the whole batch, at the RPN head shapes (64
    channels on a 12 x 12 map, 18 and 36 outputs) for batches 1 to 16."""
    x = np.maximum(rng.normal(size=(16, 64, 12, 12)), 0).astype(np.float32)
    x[3, 5, 2, 2] = np.nan
    x[:, 7] = -0.0
    for o in (18, 36):
        k = rng.normal(size=(o, 64, 1, 1)).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32)
        for n in range(1, 17):
            with np.errstate(invalid="ignore"):
                got = ops.conv2d_forward(x[:n], k, b)
                want = conv2d_forward_batched(x[:n], k, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (o, n)


@pytest.mark.parametrize("kshape", [(2, 2), (1, 3)])
def test_conv_rejects_even_or_non_square_kernel(rng, kshape):
    x = rng.normal(size=(1, 3, 5, 5))
    k = rng.normal(size=(2, 3, *kshape))
    with pytest.raises(ops.ShapeError, match="odd square"):
        ops.conv2d_forward(x, k, np.zeros(2))
    with pytest.raises(ops.ShapeError, match="odd square"):
        ops.conv2d_forward_cols(x, k, np.zeros(2))
    with pytest.raises(ops.ShapeError, match="odd square"):
        ops.conv2d_backward(np.zeros((1, 2, 5, 5)), x, k)


def test_conv_linearity(rng):
    x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    y = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    zero = np.zeros(3, np.float32)
    a, b = 1.7, -0.6
    lhs = ops.conv2d_forward(a * x + b * y, k, zero)
    rhs = a * ops.conv2d_forward(x, k, zero) + b * ops.conv2d_forward(y, k, zero)
    assert np.abs(lhs - rhs).max() < 1e-4


# ---------------------------------------------------------------------------
# conv2d backward
# ---------------------------------------------------------------------------

def test_conv_backward_zero_upstream(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    dx, dw, db = ops.conv2d_backward(np.zeros((1, 3, 5, 5)), x, k)
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
        ksize = (3, 1)[seed % 2]
        x = r.normal(size=(2, 2, 6, 5))
        k = r.normal(size=(3, 2, ksize, ksize))
        b = r.normal(size=3)
        dout = r.normal(size=(2, 3, 6, 5))

        def loss():
            return float((ops.conv2d_forward(x, k, b) * dout).sum())

        dx, dw, db = ops.conv2d_backward(dout, x, k)
        assert_grads_close(dx, numerical_grad(loss, x), what=f"conv dx seed {seed}")
        assert_grads_close(dw, numerical_grad(loss, k), what=f"conv dw seed {seed}")
        assert_grads_close(db, numerical_grad(loss, b), what=f"conv db seed {seed}")


def test_conv_backward_without_dx_identical(rng):
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    for ksize in (1, 3):
        k = rng.normal(size=(4, 3, ksize, ksize)).astype(np.float32)
        dout = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        _, dw, db = ops.conv2d_backward(dout, x, k)
        dx, dw_only, db_only = ops.conv2d_backward(dout, x, k, need_dx=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes()
        assert db_only.tobytes() == db.tobytes()


def test_conv_backward_cached_cols_identical(rng):
    """dw from the per-image re-unfold equals dw from one batch-wide
    _im2col patch matrix, summed over the batch as a batched matmul."""
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    for ksize in (1, 3):
        k = rng.normal(size=(4, 3, ksize, ksize)).astype(np.float32)
        cols = ops._im2col(x, ksize)
        dout = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        dmat = dout.reshape(len(x), 4, -1)
        cached = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape)
        _, dw, _ = ops.conv2d_backward(dout, x, k)
        assert dw.tobytes() == cached.tobytes()
        assert cols.tobytes() == im2col_reference(x, ksize, ksize // 2).tobytes()


def im2col_reference(x, k, pad):
    """Batch-wide stride-1 unfold through np.pad, as the forward pass did it
    before padding into a zero buffer."""
    n, c = x.shape[:2]
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = x.shape[2] - k + 1
    ow = x.shape[3] - k + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, k, k, oh, ow), strides=(s0, s1, s2, s3, s2, s3), writeable=False)
    return np.ascontiguousarray(view).reshape(n, c * k * k, oh * ow)


def batched_conv_backward(dout, x, kernel):
    """conv2d_backward as it was before dx went through _im2col, at stride 1
    and pad k // 2: dw from one batch-wide unfold, a batched matmul and a
    sum over the batch; dx from writing dout at offset k-1-pad into a zero
    buffer of x's size plus k-1 (the stride-dilation buffer), unfolded per
    image."""
    n, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    pad = k // 2
    db = dout.sum(axis=(0, 2, 3))
    cols = im2col_reference(x, k, pad)
    dmat = dout.reshape(n, o, h * w)
    dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    buf = np.zeros((n, o, h + k - 1, w + k - 1), dtype=dout.dtype)
    off = k - 1 - pad
    buf[:, :, off:off + h, off:off + w] = dout
    kmat = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = np.empty_like(x)
    for i in range(n):
        img_cols = im2col_reference(buf[i:i + 1], k, 0)
        dx[i] = np.matmul(kmat, img_cols[0]).reshape(c, h, w)
    return dx, dw, db


def assert_same_gradients(got, want, what):
    for name, a, b in zip(("dx", "dw", "db"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, (name, what)
        assert a.tobytes() == b.tobytes(), (name, what)


# The detector's seven convs as (in channels, out channels, size, kernel):
# the four backbone blocks and the RPN conv, all 3x3, then the RPN's 1x1
# objectness and box heads.
DETECTOR_CONVS = [(3, 8, 96, 3), (8, 16, 48, 3), (16, 32, 24, 3), (32, 64, 12, 3),
                  (64, 64, 12, 3), (64, 18, 12, 1), (64, 36, 12, 1)]


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("cin, cout, size, ksize", DETECTOR_CONVS, ids=[
    f"{cin}-{cout}-{size}" + ("" if ksize == 3 else f"-{ksize}x{ksize}")
    for cin, cout, size, ksize in DETECTOR_CONVS])
def test_conv_backward_bytes_match_batched_unfold_at_detector_shapes(
        cin, cout, size, ksize, n):
    # Real values at the detector's layer shapes and batch sizes: the
    # per-image dw accumulation keeps the batched matmul's summation order,
    # and dx unfolds the same zero-padded buffer as the dilation code.
    for dtype in (np.float32, np.float64):
        r = np.random.default_rng(size + cout + n)
        x = r.normal(size=(n, cin, size, size)).astype(dtype)
        k = r.normal(size=(cout, cin, ksize, ksize)).astype(dtype)
        dout = r.normal(size=(n, cout, size, size)).astype(dtype)
        assert_same_gradients(ops.conv2d_backward(dout, x, k),
                              batched_conv_backward(dout, x, k), (cin, cout, n, dtype))


def test_conv_backward_bytes_match_batched_unfold_small_integers():
    r = np.random.default_rng(1)
    for ksize in (1, 3, 5):
        for n in range(1, 6):
            x = r.integers(-3, 4, size=(n, 3, 7, 8)).astype(np.float32)
            k = r.integers(-3, 4, size=(4, 3, ksize, ksize)).astype(np.float32)
            dout = r.integers(-3, 4, size=(n, 4, 7, 8)).astype(np.float32)
            assert_same_gradients(ops.conv2d_backward(dout, x, k),
                                  batched_conv_backward(dout, x, k), (ksize, n))


def full_correlation_dx(dout, x, kernel):
    """The input gradient as conv2d_backward computed it before it unfolded
    a same-size buffer: a full correlation (zero padding k-1) of the
    upstream gradient with the flipped kernel over the whole batch, cropped
    to x."""
    n, c, h, w = x.shape
    k = kernel.shape[2]
    kmat = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c, -1)
    full = np.matmul(kmat, im2col_reference(dout, k, k - 1))
    full = full.reshape(n, c, h + k - 1, w + k - 1)
    pad = k // 2
    return np.ascontiguousarray(full[:, :, pad:pad + h, pad:pad + w])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_dx_equals_full_correlation_and_crop(dtype):
    # Small integers make every product and partial sum exact, so any GEMM
    # summation order gives the same bits and the check is on where each
    # gradient lands; a positive kernel rules out -0.0 from padding.
    r = np.random.default_rng(0)
    for ksize in (1, 3, 5):
        for n in range(1, 6):
            x = np.zeros((n, 3, 7, 8), dtype)
            k = r.integers(1, 4, size=(4, 3, ksize, ksize)).astype(dtype)
            dout = r.integers(-3, 4, size=(n, 4, 7, 8)).astype(dtype)
            dx, _, _ = ops.conv2d_backward(dout, x, k)
            want = full_correlation_dx(dout, x, k)
            assert dx.dtype == want.dtype
            assert dx.tobytes() == want.tobytes(), (ksize, n)


@pytest.mark.parametrize("cin, cout, size, ksize, pad", [
    (8, 16, 48, 3, 1), (16, 32, 24, 3, 1), (32, 64, 12, 3, 1), (64, 64, 12, 3, 1),
    (64, 18, 12, 1, 0), (64, 36, 12, 1, 0)])
def test_conv_dx_bytes_at_detector_layer_shapes(cin, cout, size, ksize, pad):
    # On real values the two GEMMs may round differently in general; at the
    # layer shapes the detector runs they do not, which is what keeps every
    # training trace bit-identical to the full-correlation code.
    assert pad == ksize // 2
    r = np.random.default_rng(size + cout)
    x = r.normal(size=(4, cin, size, size)).astype(np.float32)
    k = r.normal(size=(cout, cin, ksize, ksize)).astype(np.float32)
    dout = r.normal(size=(4, cout, size, size)).astype(np.float32)
    dx, _, _ = ops.conv2d_backward(dout, x, k)
    assert dx.tobytes() == full_correlation_dx(dout, x, k).tobytes()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_scatter_keeps_special_values(rng, dtype):
    """NaN, infinite and -0.0 upstream values reach their window element
    bit for bit, and every other element is +0.0: the bytes of a
    put_along_axis into zeros."""
    dout = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
    dout[0, 0] = -0.0
    dout[1, 1, 2] = np.nan
    dout[1, 2, :, 0] = -np.inf
    idx = rng.integers(0, 4, dout.shape).astype(np.int8)
    shape = (2, 3, 8, 10)
    got = ops.maxpool2_scatter(dout, idx, shape)
    assert got.dtype == dtype
    assert got.tobytes() == maxpool2_scatter_reference(dout, idx, shape).tobytes()
    assert np.signbit(got).sum() == np.signbit(dout).sum()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_after_pool_matches_relu_before_pool(rng, dtype):
    """ReLU commutes with 2x2 max pooling byte for byte on NaN, +-0.0 and
    ties, so the backbone may apply it to the pooled map."""
    values = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 2.0], dtype)
    for _ in range(20):
        x = rng.choice(values, size=(2, 3, 6, 8))
        relu_then_pool = ops.maxpool2_forward(ops.relu_forward(x.copy()))
        pool_then_relu = ops.relu_forward(ops.maxpool2_forward(x))
        assert pool_then_relu.dtype == dtype
        assert pool_then_relu.tobytes() == relu_then_pool.tobytes()
        assert not np.signbit(pool_then_relu[~np.isnan(pool_then_relu)]).any()
        # signed input: the indices are those of the reference, NaN included
        want, want_idx = maxpool2_reference(x)
        out, idx = ops.maxpool2_with_indices(x)
        assert np.array_equal(out, want, equal_nan=True) and np.array_equal(idx, want_idx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8, np.uint8])
def test_put_where_matches_copyto_bytes(rng, dtype):
    """put_where writes the bytes np.copyto(where=) writes: NaN payloads and
    -0.0 as they are, with a broadcast or scalar source."""
    shape = (4, 3, 3, 6)
    hit = rng.random(shape) < 0.5
    dst = (rng.normal(size=shape) * 50).astype(dtype)
    sources = [(rng.normal(size=shape) * 50).astype(dtype),
               (rng.normal(size=(4, 3, 3, 1)) * 50).astype(dtype), dtype(7)]
    if np.dtype(dtype).kind == "f":
        dst.ravel()[::5] = -0.0
        dst.ravel()[::7] = np.nan
        bits = sources[0].view(f"u{sources[0].itemsize}")
        bits.ravel()[::3] = np.array(np.nan, dtype).view(bits.dtype) | 1  # NaN payload
        sources[0].ravel()[::4] = -0.0
    for src in sources:
        got, want = dst.copy(), dst.copy()
        ops.put_where(got, src, hit)
        np.copyto(want, src, where=hit)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


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
    ops.sgd_step(params, "w", np.array([3.0, -1.0], np.float32), 0.0)
    assert params["w"].tobytes() == before.tobytes()


def test_sgd_scalar_arithmetic(rng):
    """w - lr*g in place, with the bits of the out-of-place expression, for
    one named parameter; the others are untouched."""
    params = {"w": np.array([1.0], np.float32), "v": np.array([5.0], np.float32)}
    ops.sgd_step(params, "w", np.array([2.0], np.float32), 0.0025)
    assert abs(params["w"][0] - 0.995) < 1e-7
    assert params["v"][0] == 5.0
    for dtype in (np.float32, np.float64):
        w = rng.normal(size=(7, 5)).astype(dtype)
        g = rng.normal(size=(7, 5)).astype(dtype)
        want = w - 0.0125 * g
        params = {"w": w}
        ops.sgd_step(params, "w", g.copy(), 0.0125)
        assert params["w"] is w
        assert w.tobytes() == want.tobytes()


def test_sgd_mismatch_errors():
    params = {"w": np.zeros(2, np.float32)}
    with pytest.raises(KeyError):
        ops.sgd_step(params, "v", np.zeros(2, np.float32), 0.1)
    with pytest.raises(ops.ShapeError):
        ops.sgd_step(params, "w", np.ones(3, np.float32), 0.1)
    assert not params["w"].any()


def test_views_share_bytes(rng):
    """Reshape/slice of contiguous arrays are views: reading back is identical."""
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    v = x.reshape(2, 48)
    assert v.base is x
    s = x[:, 1]
    assert s.base is x
    assert np.array_equal(v.reshape(x.shape), x)
    assert v.tobytes() == x.tobytes()
