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
        out, cols = ops.conv2d_forward_cols(x, k, None, stride, pad)
        dout = rng.normal(size=out.shape).astype(np.float32)
        _, dw, db = ops.conv2d_backward(dout, x, k, stride, pad, cols=cols)
        dx, dw_only, db_only = ops.conv2d_backward(dout, x, k, stride, pad,
                                                   cols=cols, need_dx=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes()
        assert db_only.tobytes() == db.tobytes()


def test_conv_backward_cached_cols_identical(rng):
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    out, cols = ops.conv2d_forward_cols(x, k, None, 1, 1)
    dout = rng.normal(size=out.shape).astype(np.float32)
    plain = ops.conv2d_backward(dout, x, k, 1, 1)
    cached = ops.conv2d_backward(dout, x, k, 1, 1, cols=cols)
    for a, b in zip(plain, cached):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# relu / maxpool / linear
# ---------------------------------------------------------------------------

def test_relu_forward_backward():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(ops.relu_forward(x), [0, 0, 0, 0.5, 2.0])
    dout = np.ones_like(x)
    assert np.array_equal(ops.relu_backward(dout, x), [0, 0, 0, 1, 1])


def test_relu_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = well_separated(r, (3, 4, 4, 2))
        dout = r.normal(size=x.shape)

        def loss():
            return float((ops.relu_forward(x) * dout).sum())

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
