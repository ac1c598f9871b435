"""BN layer contracts on the functions the detector runs: the
normalization identity, running-statistics update, backward gradients,
and the AdaBN statistics-collection pass."""

import tracemalloc

import numpy as np
import pytest

from sfodlab import batchnorm as bn
from sfodlab import detector as D
from sfodlab.detector import ArchDescriptor, _backbone_forward, images_to_batch, init_model
from conftest import assert_grads_close, bn_stat_names, numerical_grad

SEEDS = [0, 1, 2, 3, 4]


def small_arch():
    return ArchDescriptor(input_size=32, channels=(4, 8), feature_stride=4,
                          anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                          rpn_channels=8, roi_pool_size=3, roi_hidden=16)


def bn_train(x, gamma=None, beta=None):
    """bn_apply on x's own batch statistics, as the detector trains; returns
    the output and bn_backward's cache. x becomes the cache's xhat."""
    c = x.shape[1]
    gamma = np.ones(c, x.dtype) if gamma is None else gamma
    beta = np.zeros(c, x.dtype) if beta is None else beta
    mean, var = bn.batch_stats(x)
    out, xhat, inv_std = bn.bn_apply(x, mean, var, gamma, beta)
    return out, (xhat, inv_std, gamma)


def test_worked_example_two_values():
    # per-channel batch {0, 2}, gamma=2, beta=1: mean 1, var 1 -> outputs {-1, 3}
    x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
    out, _ = bn_train(x, np.array([2.0]), np.array([1.0]))
    assert np.abs(out.ravel() - np.array([-1.0, 3.0])).max() < 1e-3


def test_constant_input_returns_beta():
    x = np.full((3, 2, 4, 4), 7.25, np.float64)
    out, _ = bn_train(x, beta=np.array([0.5, -1.5]))
    assert np.allclose(out[:, 0], 0.5) and np.allclose(out[:, 1], -1.5)


def test_eval_identity_statistics(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    out, _, _ = bn.bn_apply(x.copy(), np.zeros(3), np.ones(3), np.ones(3), np.zeros(3))
    assert np.abs(out - x / np.sqrt(1 + 1e-5)).max() < 1e-6
    # the detector's eval mode keeps no cache and no batch statistics
    model = init_model(small_arch(), 0)
    _, caches, stats = _backbone_forward(model, rng.random((2, 3, 32, 32)), "eval")
    assert caches == [] and stats == []


def test_train_output_normalized(rng):
    x = (rng.normal(size=(8, 4, 24, 24)) * rng.uniform(0.5, 3, size=(1, 4, 1, 1))
         + rng.uniform(-2, 2, size=(1, 4, 1, 1)))
    out, _ = bn_train(x.copy())
    for c in range(4):
        assert abs(out[:, c].mean()) <= 1e-5
        assert abs(out[:, c].var() - 1.0) <= 1e-4
    # float32 path keeps the same contract
    out32, _ = bn_train(x.astype(np.float32))
    assert out32.dtype == np.float32
    for c in range(4):
        assert abs(float(out32[:, c].mean())) <= 1e-5
        assert abs(float(out32[:, c].var()) - 1.0) <= 1e-4


def test_running_update_convention(rng):
    model = init_model(small_arch(), 0)  # running mean 0, running var 1
    stats = [bn.batch_stats(rng.normal(size=(4, c, 6, 6)) + 3.0)
             for _, c in model.arch.bn_layers()]
    bn.update_running_statistics(model, stats)
    for (layer, _), (mean, var) in zip(model.arch.bn_layers(), stats):
        rm = model.params[f"{layer}.running_mean"]
        rv = model.params[f"{layer}.running_var"]
        assert rm.dtype == rv.dtype == np.float32
        assert np.allclose(rm, 0.1 * 0.0 + 0.9 * mean, atol=1e-6)
        assert np.allclose(rv, 0.1 * 1.0 + 0.9 * var, atol=1e-6)
    # neither forward mode mutates anything
    before = {n: model.params[n].tobytes() for n in model.params}
    x = rng.random((2, 3, 32, 32)).astype(np.float32)
    for mode in ("train", "collect", "eval"):
        _backbone_forward(model, x, mode)
    assert before == {n: model.params[n].tobytes() for n in model.params}


def bn_apply_reference(x, mean, var, gamma, beta):
    """bn_apply as the out-of-place expression: new xhat and output arrays,
    x untouched."""
    inv_std = 1.0 / np.sqrt(var + bn.BN_EPS)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None], xhat, inv_std


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_apply_matches_out_of_place_reference(rng, dtype):
    """Byte-equal to the out-of-place expression; the input becomes xhat and
    the output is the only new array."""
    x = (rng.normal(size=(3, 5, 7, 6)) * 4 + 1).astype(dtype)
    x_before = x.tobytes()
    running = (rng.normal(size=5).astype(dtype), rng.uniform(0, 3, 5).astype(dtype))
    for mean, var in (bn.batch_stats(x), running):
        gamma = rng.normal(size=5).astype(dtype)
        beta = rng.normal(size=5).astype(dtype)
        want = bn_apply_reference(x, mean, var, gamma, beta)
        x_in = x.copy()
        got = bn.bn_apply(x_in, mean, var, gamma, beta)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        out, xhat, _ = got
        assert xhat is x_in and not np.shares_memory(out, x_in)
    assert x.tobytes() == x_before


def test_backward_requires_cache():
    with pytest.raises(ValueError):
        bn.bn_backward(np.zeros((1, 3, 2, 2)), None)


def test_backward_zero_upstream(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    _, cache = bn_train(x)
    dx, dg, db = bn.bn_backward(np.zeros_like(x), cache)
    assert not dx.any() and not dg.any() and not db.any()


def test_beta_gradient_is_upstream_sum(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    dout = rng.normal(size=x.shape)
    _, cache = bn_train(x)
    _, _, db = bn.bn_backward(dout.copy(), cache)
    assert np.allclose(db, dout.sum(axis=(0, 2, 3)), atol=1e-10)


def bn_backward_reference(dout, cache):
    """bn_backward as the out-of-place expression: dout and the cache
    untouched, every intermediate a new array."""
    xhat, inv_std, gamma = cache
    n = dout.shape[0] * dout.shape[2] * dout.shape[3]
    dgamma = (dout * xhat).sum(axis=(0, 2, 3))
    dbeta = dout.sum(axis=(0, 2, 3))
    dxhat = dout * gamma[None, :, None, None]
    s1 = dxhat.sum(axis=(0, 2, 3))
    s2 = (dxhat * xhat).sum(axis=(0, 2, 3))
    dx = (inv_std[None, :, None, None] / n) * (
        n * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None]
    )
    return dx, dgamma, dbeta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_backward_matches_out_of_place_reference(rng, dtype):
    """Byte-equal to the out-of-place expression, NaN input included; dx is
    returned in dout's buffer and the cache keeps its bytes."""
    for shape, nan_at in (((3, 5, 7, 6), None), ((4, 3, 6, 6), (1, 2, 3, 4)),
                          ((2, 4, 5, 5), (0, 1, 0, 0))):
        x = (rng.normal(size=shape) * 3 - 1).astype(dtype)
        dout = rng.normal(size=shape).astype(dtype)
        dout[:, 0, 1, :] = -0.0
        if nan_at is not None:
            x[nan_at] = np.nan
            dout[(0, 0, *nan_at[2:])] = np.nan
        gamma = rng.normal(size=shape[1]).astype(dtype)
        with np.errstate(invalid="ignore"):
            _, cache = bn_train(x, gamma, np.zeros(shape[1], dtype))
            cache_before = [a.tobytes() for a in cache]
            want = bn_backward_reference(dout, cache)
            owned = dout.copy()
            got = bn.bn_backward(owned, cache)
        assert got[0] is owned
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert [a.tobytes() for a in cache] == cache_before


def test_backward_matches_finite_differences():
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 2, 4, 4))
        gamma = r.normal(size=2) + 1.5
        beta = r.normal(size=2)
        dout = r.normal(size=x.shape)

        def loss():
            out, _ = bn_train(x.copy(), gamma, beta)
            return float((out * dout).sum())

        _, cache = bn_train(x.copy(), gamma, beta)
        dx, dg, db = bn.bn_backward(dout.copy(), cache)
        assert_grads_close(dx, numerical_grad(loss, x), what=f"bn dx seed {seed}")
        assert_grads_close(dg, numerical_grad(loss, gamma), what=f"bn dgamma seed {seed}")
        assert_grads_close(db, numerical_grad(loss, beta), what=f"bn dbeta seed {seed}")


# ---------------------------------------------------------------------------
# AdaBN statistics collection
# ---------------------------------------------------------------------------

def test_collect_requires_images():
    model = init_model(small_arch(), 0)
    with pytest.raises(ValueError):
        bn.collect_target_statistics(model, [], 4)


def test_collect_freezes_weights(rng):
    model = init_model(small_arch(), 0)
    images = [rng.random((32, 32, 3), dtype=np.float32) for _ in range(10)]
    adapted = bn.collect_target_statistics(model, images, batch_size=4)
    stats = bn_stat_names(model.arch)
    for name in model.params.keys() - set(stats):
        assert adapted.params[name].tobytes() == model.params[name].tobytes(), name
    changed = [n for n in stats
               if adapted.params[n].tobytes() != model.params[n].tobytes()]
    assert changed, "statistics should actually move"


def test_collect_shares_weights_and_makes_new_statistics(rng):
    """The AdaBN model holds the source's weight, gamma and beta arrays
    themselves; its running statistics are new arrays, and the source's
    bytes do not change."""
    model = init_model(small_arch(), 4)
    before = {k: v.tobytes() for k, v in model.params.items()}
    images = [rng.random((32, 32, 3), dtype=np.float32) for _ in range(6)]
    adapted = bn.collect_target_statistics(model, images, batch_size=4)
    stats = set(bn_stat_names(model.arch))
    assert adapted.params is not model.params
    assert list(adapted.params) == list(model.params)
    for name, v in adapted.params.items():
        if name in stats:
            assert not np.shares_memory(v, model.params[name]), name
        else:
            assert v is model.params[name], name
    assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_collect_traced_memory_bound():
    """AdaBN over 32 96-px noise images with the default detector: sharing
    the source's weights leaves only the new running statistics held after
    return (a copy of every array held 2.09 MiB), and convs that unfold one
    image at a time keep the traced peak near 3.5 MiB (5.35 MiB when each
    4-image batch was unfolded at once)."""
    rng = np.random.default_rng(0)
    model = init_model(ArchDescriptor(), 0)
    images = [rng.random((96, 96, 3)).astype(np.float32) for _ in range(32)]
    bn.collect_target_statistics(model, images[:4], 4)  # first-call allocations
    tracemalloc.start()
    try:
        adapted = bn.collect_target_statistics(model, images, 4)  # held while read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"
    assert peak < 4.25 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
    assert adapted.arch == model.arch


def test_collect_zero_images_zero_bias_backbone(rng):
    model = init_model(small_arch(), 0)
    for name in model.params:
        if name.endswith("conv.b"):
            model.params[name][:] = 0.0
    images = [np.zeros((32, 32, 3), np.float32) for _ in range(8)]
    adapted = bn.collect_target_statistics(model, images, batch_size=4)
    assert np.array_equal(adapted.params["backbone.b0.bn.running_mean"],
                          np.zeros(4, np.float32))
    assert np.array_equal(adapted.params["backbone.b0.bn.running_var"],
                          np.zeros(4, np.float32))


def test_collect_is_sample_statistics(rng):
    """Two large samples from one distribution give nearly equal statistics."""
    model = init_model(small_arch(), 1)
    def sample(r):
        return [np.clip(r.normal(0.45, 0.2, (32, 32, 3)), 0, 1).astype(np.float32)
                for _ in range(16)]  # 16*32*32 > 4096 values/channel at layer 0

    a = bn.collect_target_statistics(model, sample(np.random.default_rng(10)), 4)
    b = bn.collect_target_statistics(model, sample(np.random.default_rng(20)), 4)
    for layer, _ in model.arch.bn_layers():
        std = np.sqrt(a.params[f"{layer}.running_var"]) + 1e-8
        dmean = np.abs(a.params[f"{layer}.running_mean"]
                       - b.params[f"{layer}.running_mean"])
        assert (dmean <= 0.05 * std + 1e-4).all(), (layer, dmean, std)


def test_collect_order_invariant(rng):
    model = init_model(small_arch(), 2)
    images = [rng.random((32, 32, 3), dtype=np.float32) for _ in range(12)]
    a = bn.collect_target_statistics(model, images, batch_size=4)
    rolled = images[4:] + images[:4]  # permute whole batches
    b = bn.collect_target_statistics(model, rolled, batch_size=4)
    for name in bn_stat_names(model.arch):
        assert np.abs(a.params[name] - b.params[name]).max() <= 1e-6


def collect_reference(model, images, batch_size):
    """The AdaBN sweep as it ran before: per-batch statistics from the
    caching 'train' forward, averaged in float64."""
    per_batch = [_backbone_forward(model, images_to_batch(images[i:i + batch_size]),
                                   "train")[2]
                 for i in range(0, len(images), batch_size)]
    sums = [(m.astype(np.float64), v.astype(np.float64)) for m, v in per_batch[0]]
    for stats in per_batch[1:]:
        sums = [(sm + m, sv + v) for (sm, sv), (m, v) in zip(sums, stats)]
    n = len(per_batch)
    adapted = model.copy()
    for (layer, _), (sm, sv) in zip(model.arch.bn_layers(), sums):
        adapted.params[f"{layer}.running_mean"] = (sm / n).astype(np.float32)
        adapted.params[f"{layer}.running_var"] = (sv / n).astype(np.float32)
    return adapted


def test_sweep_keeps_no_caches(rng, monkeypatch):
    """Collect mode gives the caching mode's features and batch statistics
    byte for byte, returns no caches, and the sweep never builds one."""
    model = init_model(small_arch(), 3)
    x = rng.random((4, 3, 32, 32)).astype(np.float32)
    feats, caches, stats = _backbone_forward(model, x, "collect")
    feats_t, caches_t, stats_t = _backbone_forward(model, x, "train")
    assert caches == [] and len(caches_t) == len(model.arch.channels)
    assert feats.tobytes() == feats_t.tobytes()
    assert [(m.tobytes(), v.tobytes()) for m, v in stats] == \
        [(m.tobytes(), v.tobytes()) for m, v in stats_t]

    images = [rng.random((32, 32, 3), dtype=np.float32) for _ in range(10)]
    want = collect_reference(model, images, 4)

    def caching_kernel(*args, **kwargs):
        raise AssertionError("the AdaBN sweep built a backward cache")

    monkeypatch.setattr(D, "conv2d_forward_cols", caching_kernel)
    monkeypatch.setattr(D, "maxpool2_with_indices", caching_kernel)
    adapted = bn.collect_target_statistics(model, images, batch_size=4)
    for name in model.params:
        assert adapted.params[name].tobytes() == want.params[name].tobytes(), name
