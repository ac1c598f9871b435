"""Two-stage detector contracts: loss decomposition, frozen-plan gradient
checks against finite differences, ROI pooling oracle, determinism, and
inference behavior."""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sfodlab import boxes as B
from sfodlab import detector as D
from sfodlab.batchnorm import BN_EPS, batch_stats, update_running_statistics
from sfodlab.data import DomainSpec, generate_split
from sfodlab.ops import (
    NumericsError,
    _im2col,
    conv2d_backward,
    conv2d_forward,
    linear_backward,
    linear_forward,
    relu_backward,
    smooth_l1,
    softmax_cross_entropy,
)
from conftest import bn_stat_names, read_back


def small_arch(**kw):
    base = dict(input_size=32, channels=(4, 8), feature_stride=4,
                anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                rpn_channels=8, roi_pool_size=3, roi_hidden=16)
    base.update(kw)
    return D.ArchDescriptor(**base)


def random_batch(rng, arch, n=2, dtype=np.float32):
    s = arch.input_size
    imgs = rng.random((n, 3, s, s)).astype(dtype)
    targets = []
    for _ in range(n):
        k = int(rng.integers(1, 3))
        x1 = rng.uniform(0, s - 10, k)
        y1 = rng.uniform(0, s - 10, k)
        w = rng.uniform(6, 14, k)
        boxes = np.stack([x1, y1, np.minimum(x1 + w, s), np.minimum(y1 + w, s)], 1)
        targets.append((boxes.astype(np.float32),
                        rng.integers(0, arch.num_classes, k)))
    return imgs, targets


# ---------------------------------------------------------------------------
# architecture / state
# ---------------------------------------------------------------------------

def test_arch_validation():
    with pytest.raises(ValueError):
        D.ArchDescriptor(input_size=50, feature_stride=8)
    for stride in (3, 0, -8):
        with pytest.raises(ValueError, match="feature_stride"):
            D.ArchDescriptor(feature_stride=stride)
    with pytest.raises(ValueError):
        D.ArchDescriptor(anchor_scales=(), anchor_aspects=())
    a = D.ArchDescriptor()
    # the checkpoint header's codec: asdict, JSON, from_dict
    assert a == D.ArchDescriptor.from_dict(json.loads(json.dumps(asdict(a))))


def test_model_state_layout():
    arch = small_arch()
    m = D.init_model(arch, 0)
    assert set(m.params) == set(arch.param_shapes())
    for name, shape in arch.param_shapes().items():
        assert m.params[name].shape == shape
        assert m.params[name].dtype == np.float32
    c = m.copy()
    c.params["rpn.conv.b"][:] = 9
    assert not np.array_equal(c.params["rpn.conv.b"], m.params["rpn.conv.b"])


def test_anchor_grid():
    arch = small_arch()
    anchors = D.generate_anchors(arch)
    f = arch.feature_size
    assert anchors.shape == (f * f * arch.num_anchors, 4)
    # first anchor sits centered on the first cell
    cx = (anchors[0, 0] + anchors[0, 2]) / 2
    cy = (anchors[0, 1] + anchors[0, 3]) / 2
    assert cx == pytest.approx(arch.feature_stride / 2)
    assert cy == pytest.approx(arch.feature_stride / 2)


# ---------------------------------------------------------------------------
# ROI pooling
# ---------------------------------------------------------------------------

def roi_pool_naive(feats, box, out):
    c, fh, fw = feats.shape
    res = np.zeros((c, out, out), feats.dtype)
    x1, y1, x2, y2 = box
    for gy in range(out):
        lo = y1 + (y2 - y1) * gy / out
        hi = y1 + (y2 - y1) * (gy + 1) / out
        r0 = min(max(int(math.floor(lo)), 0), fh - 1)
        r1 = max(min(max(int(math.ceil(hi)), 1), fh), r0 + 1)
        for gx in range(out):
            lo = x1 + (x2 - x1) * gx / out
            hi = x1 + (x2 - x1) * (gx + 1) / out
            c0 = min(max(int(math.floor(lo)), 0), fw - 1)
            c1 = max(min(max(int(math.ceil(hi)), 1), fw), c0 + 1)
            res[:, gy, gx] = feats[:, r0:r1, c0:c1].max(axis=(1, 2))
    return res


def roi_pool_batch_reference(feats_img, boxes_feat, out):
    """Gather + argmax ROI pool: pooled (P, C, out, out) and the (row, col)
    of each first-occurrence maximum, shaped (C, P, out, out)."""
    c, fh, fw = feats_img.shape
    y0, y1 = D._roi_cell_edges(boxes_feat[:, 1], boxes_feat[:, 3], out, fh)
    x0, x1 = D._roi_cell_edges(boxes_feat[:, 0], boxes_feat[:, 2], out, fw)
    ky = int((y1 - y0).max())
    kx = int((x1 - x0).max())
    yidx = np.minimum(y0[:, :, None] + np.arange(ky), y1[:, :, None] - 1)
    xidx = np.minimum(x0[:, :, None] + np.arange(kx), x1[:, :, None] - 1)
    window = feats_img[:, yidx[:, :, None, :, None], xidx[:, None, :, None, :]]
    p = len(boxes_feat)
    flat = window.reshape(c, p, out, out, ky * kx)
    amax = flat.argmax(axis=4)
    pooled = np.take_along_axis(flat, amax[..., None], axis=4)[..., 0]
    ay, ax = np.divmod(amax, kx)
    parange = np.arange(p)[None, :, None, None]
    grid = np.arange(out)
    yy = yidx[parange, grid[None, None, :, None], ay]
    xx = xidx[parange, grid[None, None, None, :], ax]
    return pooled.transpose(1, 0, 2, 3), yy, xx


def roi_scatter_reference(dpooled, yy, xx, c, fh, fw):
    vals = dpooled.transpose(1, 0, 2, 3)
    lin = (np.arange(c)[:, None, None, None] * fh + yy) * fw + xx
    acc = np.bincount(lin.ravel(), weights=vals.ravel().astype(np.float64),
                      minlength=c * fh * fw)
    return acc.reshape(c, fh, fw).astype(dpooled.dtype)


def mixed_boxes(rng, n, size):
    """Boxes from sub-cell to full-map extent, so bin sizes (and the
    window padding) differ between proposals."""
    x1, y1 = rng.uniform(0, size - 0.5, (2, n))
    w, h = rng.uniform(0.1, size, (2, n))
    return np.stack([x1, y1, np.minimum(x1 + w, size), np.minimum(y1 + h, size)], 1)


def roi_pool_one(feats, box, out):
    """_roi_pool_batch on a single box: pooled (C, out, out) and the cells."""
    pooled, cells = D._roi_pool_batch(feats, np.asarray(box, np.float64).reshape(1, 4), out,
                                      True)
    return pooled[0], cells


def test_roi_pool_identity(rng):
    feats = rng.normal(size=(3, 5, 5))
    out, _ = roi_pool_one(feats, (0.0, 0.0, 5.0, 5.0), 5)
    assert np.array_equal(out, feats)


def test_roi_pool_constant(rng):
    feats = np.full((2, 8, 8), 0.7)
    out, _ = roi_pool_one(feats, (1.3, 2.2, 6.9, 7.1), 4)
    assert np.allclose(out, 0.7)


def test_roi_pool_degenerate_single_cell(rng):
    feats = rng.normal(size=(1, 8, 8))
    out, _ = roi_pool_one(feats, (3.2, 4.1, 3.4, 4.3), 3)
    assert np.allclose(out, feats[0, 4, 3])


def test_roi_pool_matches_naive(rng):
    for _ in range(50):
        feats = rng.normal(size=(4, 8, 8))
        x1, y1 = rng.uniform(0, 6, 2)
        x2 = rng.uniform(x1 + 0.3, 8)
        y2 = rng.uniform(y1 + 0.3, 8)
        got, _ = roi_pool_one(feats, (x1, y1, x2, y2), 3)
        assert np.array_equal(got, roi_pool_naive(feats, (x1, y1, x2, y2), 3))


def test_roi_pool_backward_gradient(rng):
    feats = rng.normal(size=(2, 6, 6))
    box = (0.7, 1.2, 5.3, 4.9)
    dout = rng.normal(size=(2, 3, 3))
    pooled, cells = roi_pool_one(feats, box, 3)
    dfeat = D._roi_scatter_batch(dout[None], cells, 2, 6, 6)
    # scatter conserves the total gradient mass
    assert dfeat.sum() == pytest.approx(dout.sum(), rel=1e-6)
    # gradient lands only on per-cell argmax positions
    assert (np.abs(dfeat[feats != feats]) == 0).all()
    nz = np.nonzero(dfeat)
    for c, y, x in zip(*nz):
        assert feats[c, y, x] in pooled[c]


def roi_window(feats_img, boxes_feat, out):
    """The (K, P, out, out) int64 cell indices of every bin and the whole
    gathered (K, P, out, out, C) window."""
    c, fh, fw = feats_img.shape
    y0, y1 = D._roi_cell_edges(boxes_feat[:, 1], boxes_feat[:, 3], out, fh)
    x0, x1 = D._roi_cell_edges(boxes_feat[:, 0], boxes_feat[:, 2], out, fw)
    ky = int((y1 - y0).max())
    kx = int((x1 - x0).max())
    yidx = np.minimum(y0[:, :, None] + np.arange(ky), y1[:, :, None] - 1)
    xidx = np.minimum(x0[:, :, None] + np.arange(kx), x1[:, :, None] - 1)
    cells = (yidx.transpose(2, 0, 1)[:, None, :, :, None] * fw
             + xidx.transpose(2, 0, 1)[None, :, :, None, :])
    cells = cells.reshape(ky * kx, len(boxes_feat), out, out).astype(np.int64)
    return cells, np.ascontiguousarray(feats_img.reshape(c, fh * fw).T)[cells]


def roi_pool_window_max(feats_img, boxes_feat, out):
    """The eval-mode ROI pool as it ran before the per-offset gather: the
    whole (K, P, out, out, C) window, reduced by max over K."""
    return roi_window(feats_img, boxes_feat, out)[1].max(axis=0).transpose(0, 3, 1, 2)


def test_roi_pool_batch_ties_match_reference(rng):
    """Bit-identical values and maximum positions on tie-heavy maps, one
    proposal or many, bins of up to 4 x 4 cells (K = 16) and signed zeros.
    The indexed pool keeps the first maximum, so its bytes, the sign of a
    zero included, are the reference's; the plain pool's bytes are those
    of a max over the whole gathered window."""
    signed_zeros = np.where(rng.random((3, 8, 8)) < 0.5, -0.0, 0.0).astype(np.float32)
    some_positive = signed_zeros.copy()
    some_positive[:, ::3, ::2] = rng.integers(0, 2, (3, 3, 4))
    maps = [
        rng.integers(0, 3, (4, 8, 8)).astype(np.float32),
        np.full((3, 6, 6), 0.5, np.float32),
        np.maximum(rng.normal(size=(5, 9, 9)), 0).astype(np.float32),
        np.maximum(rng.integers(-3, 2, (2, 7, 7)), 0).astype(np.float64),
        signed_zeros,
        some_positive,
    ]
    for feats in maps:
        c, f, _ = feats.shape
        full_map = np.array([[0.0, 0.0, f, f]])
        for out in (1, 2, 3, 5):
            for boxes in (mixed_boxes(rng, 12, f), mixed_boxes(rng, 1, f), full_map):
                want, yy, xx = roi_pool_batch_reference(feats, boxes, out)
                pooled, cells = D._roi_pool_batch(feats, boxes, out, True)
                assert pooled.dtype == feats.dtype and cells.dtype == np.int32
                assert pooled.tobytes() == want.tobytes()
                assert np.array_equal(cells, (yy * f + xx).transpose(1, 2, 3, 0))
                plain, none = D._roi_pool_batch(feats, boxes, out, need_indices=False)
                assert none is None and np.array_equal(plain, want)
                assert plain.dtype == feats.dtype
                assert plain.tobytes() == roi_pool_window_max(feats, boxes, out).tobytes()
                dpooled = rng.normal(size=want.shape).astype(feats.dtype)
                got = D._roi_scatter_batch(dpooled, cells, c, f, f)
                assert np.array_equal(got, roi_scatter_reference(dpooled, yy, xx, c, f, f))
    # a full-map box on an 8-cell map at out = 2 spans 4 x 4 cells per bin
    y0, y1 = D._roi_cell_edges(np.zeros(1), np.full(1, 8.0), 2, 8)
    assert ((y1 - y0) == 4).all()


def roi_max_cells_int64(feats_img, boxes_feat, out):
    """The (P, out, out, C) first-maximum cell indices as int64, from the
    whole gathered window: argmax over K, a NaN counted as the maximum."""
    cells, window = roi_window(feats_img, boxes_feat, out)
    k = np.argmax(np.where(np.isnan(window), np.inf, window), axis=0)
    cells = np.repeat(cells[..., None], feats_img.shape[0], axis=4)
    return np.take_along_axis(cells, k[None], axis=0)[0]


def test_roi_pool_batch_int32_indices_match_int64_reference(rng):
    """The int32 max-cell indices hold the values of an int64 reference,
    NaN bins included, and scatter the same bytes as their int64 copy."""
    feats = np.maximum(rng.normal(size=(6, 12, 12)), 0).astype(np.float32)
    feats[2, 5, 7] = np.nan
    boxes = np.concatenate([mixed_boxes(rng, 32, 12), [[0.0, 0.0, 12.0, 12.0]]])
    for out in (2, 5):
        _, cells = D._roi_pool_batch(feats, boxes, out, True)
        want = roi_max_cells_int64(feats, boxes, out)
        assert cells.dtype == np.int32 and want.dtype == np.int64
        assert np.array_equal(cells, want)
        dpooled = rng.normal(size=(len(boxes), 6, out, out)).astype(np.float32)
        got = D._roi_scatter_batch(dpooled, cells, 6, 12, 12)
        assert got.tobytes() == D._roi_scatter_batch(dpooled, want, 6, 12, 12).tobytes()


def test_roi_pool_batch_nan_propagates(rng):
    feats = np.maximum(rng.normal(size=(2, 6, 6)), 0)
    feats[0, 2, 3] = np.nan
    feats[1, 2, 4] = np.nan
    feats[1, 4, 1] = np.nan
    boxes = np.array([[0.0, 0.0, 6.0, 6.0], [3.0, 2.0, 5.0, 3.0], [0.0, 0.0, 1.5, 1.5]])
    want, yy, xx = roi_pool_batch_reference(feats, boxes, 3)
    pooled, cells = D._roi_pool_batch(feats, boxes, 3, True)
    plain, _ = D._roi_pool_batch(feats, boxes, 3, need_indices=False)
    for got in (pooled, plain):
        assert np.array_equal(got, want, equal_nan=True)
        # full-map box: only the three bins holding a NaN pool to NaN
        assert np.isnan(got[0, 0, 1, 1]) and np.isnan(got[0, 1, 1, 2])
        assert np.isnan(got[0, 1, 2, 0]) and np.isnan(got[0]).sum() == 3
        # one-row box: each NaN column lies in two of its three column bins
        assert np.isnan(got[1]).sum() == 12
        assert not np.isnan(got[2]).any()
    assert cells[0, 1, 1, 0] == 2 * 6 + 3 and cells[0, 1, 2, 1] == 2 * 6 + 4
    assert np.array_equal(cells, (yy * 6 + xx).transpose(1, 2, 3, 0))


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

# forward_train samples its plan from its own forward pass; these rebuild the
# frozen-plan steps from the same pieces, so a finite-difference check can
# perturb a parameter and re-evaluate the loss of an unchanged plan.

def build_train_plan(model, images, targets, rng):
    fw = D._forward_all(model, images, "train")
    return D._plan_from_outputs(model.arch, D.generate_anchors(model.arch),
                                fw["obj_flat"], fw["delta_flat"], targets, rng)


def forward_train_with_plan(model, images, plan, include_reg=True):
    return D._finish(model, images, D._forward_all(model, images, "train"), plan,
                     include_reg)


def training_loss(model, images, plan):
    fw = D._forward_all(model, images, "train")
    cls_logits, roi_deltas, _ = D._roi_head_forward(model, fw["feats"], plan.proposals)
    return D._compute_losses(fw["obj_flat"], fw["delta_flat"], cls_logits,
                             roi_deltas, plan, True)[0]


def test_loss_decomposition_and_toggle(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch)
    plan = build_train_plan(model, imgs, targets, np.random.default_rng(7))

    full, g_full = forward_train_with_plan(model, imgs, plan, include_reg=True)
    noreg, g_noreg = forward_train_with_plan(model, imgs, plan, include_reg=False)
    assert full.total == pytest.approx(
        full.rpn_cls + full.rpn_reg + full.roi_cls + full.roi_reg)
    assert noreg.rpn_reg == 0.0 and noreg.roi_reg == 0.0
    assert noreg.total == pytest.approx(noreg.rpn_cls + noreg.roi_cls)
    assert noreg.rpn_cls == full.rpn_cls and noreg.roi_cls == full.roi_cls
    # classification-path gradients identical; no flow into regression heads
    for name in ("rpn.obj.w", "rpn.obj.b", "roi.cls.w", "roi.cls.b"):
        assert np.array_equal(g_full[name], g_noreg[name])
    for name in ("rpn.delta.w", "rpn.delta.b", "roi.delta.w", "roi.delta.b"):
        assert not g_noreg[name].any()
        assert g_full[name].any()


def test_zero_target_batch(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    imgs = rng.random((2, 3, 32, 32)).astype(np.float32)
    targets = [(np.zeros((0, 4), np.float32), np.zeros(0, np.int64))] * 2
    loss, grads = D.forward_train(model, imgs, targets, np.random.default_rng(0), True)
    assert loss.rpn_reg == 0.0 and loss.roi_reg == 0.0
    assert loss.rpn_cls > 0 and loss.roi_cls > 0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_forward_train_deterministic(rng):
    arch = small_arch()
    imgs, targets = random_batch(rng, arch)
    runs = []
    for _ in range(2):
        model = D.init_model(arch, 3)
        loss, grads = D.forward_train(model, imgs, targets, np.random.default_rng(11), True)
        runs.append((loss, {k: v.tobytes() for k, v in grads.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def traced_step_peak(rng, n):
    """tracemalloc peak, in bytes, of one forward_train of the default
    detector at batch n."""
    arch = D.ArchDescriptor()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch, n=n)
    tracemalloc.start()
    try:
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_train_traced_peak_bound(rng):
    """One batch-4 step of the default detector allocates at most 12 MiB
    at once (measured: 10.3 MiB; 19.2 MiB while every conv kept its
    whole-batch patch matrix until its backward ran, 28.4 MiB before the
    backward dropped each cache as it went)."""
    peak = traced_step_peak(rng, 4)
    assert peak <= 12 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_forward_train_traced_peak_bound_batch16(rng):
    """The same at batch 16: at most 36 MiB (measured: 33.1 MiB; 71.1 MiB
    with the patch matrices kept)."""
    peak = traced_step_peak(rng, 16)
    assert peak <= 36 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_backward_consumes_forward_caches(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch)
    fw = D._forward_all(model, imgs, "train")
    assert "rpn_cols" not in fw
    for i, c in enumerate(fw["bb_caches"]):
        assert c["relu_mask"].dtype == bool
        assert set(c) == {"conv_in", "bn_cache", "relu_mask", "pool_idx"}
        assert (c["pool_idx"] is None) == (i >= arch.n_pools)
        # no patch matrix: every cached array is at most the conv output's
        # size, while the block's im2col columns are 9 * C_in / C_out times it
        arrays = [v for v in (c["conv_in"], *c["bn_cache"], c["relu_mask"], c["pool_idx"])
                  if isinstance(v, np.ndarray)]
        assert all(a.size <= c["relu_mask"].size for a in arrays)
    plan = D._plan_from_outputs(arch, D.generate_anchors(arch), fw["obj_flat"],
                                fw["delta_flat"], targets, np.random.default_rng(0))
    D._finish(model, imgs, fw, plan, True)
    assert fw["bb_caches"] == []
    assert "hidden" not in fw


def test_forward_train_nan_aborts(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    model.params["backbone.b0.conv.w"][:] = np.inf
    imgs, targets = random_batch(rng, arch)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True)


def test_forward_train_nan_features_abort(rng):
    """A divergent step raises and leaves every parameter, BN running
    statistics included, byte-identical."""
    arch = small_arch()
    model = D.init_model(arch, 0)
    last = len(arch.channels) - 1
    model.params[f"backbone.b{last}.bn.beta"][0] = np.nan
    before = {k: v.tobytes() for k, v in model.params.items()}
    imgs, targets = random_batch(rng, arch)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True)
    assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_forward_train_folds_batch_statistics(rng):
    arch = small_arch()
    model = D.init_model(arch, 1)
    imgs, targets = random_batch(rng, arch)
    want = model.copy()
    _, _, stats = D._backbone_forward(model, imgs, "collect")
    update_running_statistics(want, stats)
    D.forward_train(model, imgs, targets, np.random.default_rng(0), True)
    for name in model.params:
        assert model.params[name].tobytes() == want.params[name].tobytes(), name
        assert model.params[name].dtype == np.float32


def test_gradients_match_finite_differences_20_params(rng):
    """Full-pipeline spot check on the frozen plan, 64-bit shadow path."""
    arch = small_arch()
    model = D.init_model(arch, 5)
    model.params = {k: v.astype(np.float64) for k, v in model.params.items()}
    imgs64, targets = random_batch(rng, arch, dtype=np.float64)
    plan = build_train_plan(model, imgs64, targets, np.random.default_rng(21))
    _, grads = forward_train_with_plan(model, imgs64, plan, include_reg=True)

    assert grads.keys() == model.params.keys() - set(bn_stat_names(arch))
    names = sorted(grads)
    picks = []
    r = np.random.default_rng(99)
    while len(picks) < 20:
        name = names[r.integers(0, len(names))]
        idx = int(r.integers(0, model.params[name].size))
        if (name, idx) not in picks:
            picks.append((name, idx))

    h = 1e-4
    for name, idx in picks:
        flat = model.params[name].ravel()
        old = flat[idx]
        flat[idx] = old + h
        lp = training_loss(model, imgs64, plan).total
        flat[idx] = old - h
        lm = training_loss(model, imgs64, plan).total
        flat[idx] = old
        num = (lp - lm) / (2 * h)
        ana = grads[name].ravel()[idx]
        denom = max(abs(num), abs(ana), 1e-4)
        assert abs(num - ana) / denom < 1e-3, (name, idx, num, ana)


# The training step as it was while it cached every pre-activation, gathered
# the sampled RPN rows with per-image offset loops and spelled out the ROI
# cls/delta backward: the live step must give byte-equal results.

def relu_reference(x):
    """relu_forward before it wrote into its input."""
    return np.maximum(x, 0)


def conv2d_batched_reference(x, kernel, bias):
    """conv2d_forward as one batch-wide _im2col and one batched matmul."""
    n, _, h, w = x.shape
    o = kernel.shape[0]
    out = np.matmul(kernel.reshape(o, -1), _im2col(x, kernel.shape[2])).reshape(n, o, h, w)
    out += bias.reshape(1, o, 1, 1)
    return out


def rpn_forward_reference(model, feats):
    p = model.params
    hidden_pre = conv2d_batched_reference(feats, p["rpn.conv.w"], p["rpn.conv.b"])
    hidden = relu_reference(hidden_pre)
    obj_map = conv2d_batched_reference(hidden, p["rpn.obj.w"], p["rpn.obj.b"])
    delta_map = conv2d_batched_reference(hidden, p["rpn.delta.w"], p["rpn.delta.b"])
    return obj_map, delta_map, hidden_pre, hidden


def roi_head_forward_reference(model, feats, proposals):
    arch, p = model.arch, model.params
    pooled_parts, scatter = [], []
    for i, props in enumerate(proposals):
        boxes = np.asarray(props, np.float64).reshape(-1, 4) / arch.feature_stride
        pooled, cells = D._roi_pool_batch(feats[i], boxes, arch.roi_pool_size, True)
        pooled_parts.append(pooled)
        scatter.append((cells, len(boxes)))
    flat = np.concatenate(pooled_parts).reshape(-1, p["roi.fc1.w"].shape[0])
    h1_pre = linear_forward(flat, p["roi.fc1.w"], p["roi.fc1.b"])
    h1 = relu_reference(h1_pre)
    h2_pre = linear_forward(h1, p["roi.fc2.w"], p["roi.fc2.b"])
    h2 = relu_reference(h2_pre)
    cls_logits = linear_forward(h2, p["roi.cls.w"], p["roi.cls.b"])
    deltas = linear_forward(h2, p["roi.delta.w"], p["roi.delta.b"])
    cache = {"flat": flat, "h1_pre": h1_pre, "h1": h1, "h2_pre": h2_pre,
             "h2": h2, "scatter": scatter}
    return cls_logits, deltas, cache


def compute_losses_reference(obj_flat, delta_flat, cls_logits, roi_deltas, plan,
                             include_reg):
    n_img = obj_flat.shape[0]
    # the plan no longer lists the positives apart: they are the class-1 rows
    rpn_pos_idx = [ix[cls == 1] for ix, cls in zip(plan.rpn_idx, plan.rpn_cls)]
    sel_logits = np.concatenate(
        [obj_flat[i][plan.rpn_idx[i]] for i in range(n_img)], axis=0)
    sel_targets = np.concatenate(plan.rpn_cls)
    rpn_cls, dsel = softmax_cross_entropy(sel_logits, sel_targets)
    dobj = np.zeros_like(obj_flat)
    off = 0
    for i in range(n_img):
        k = len(plan.rpn_idx[i])
        dobj[i][plan.rpn_idx[i]] = dsel[off:off + k]
        off += k

    ddelta = np.zeros_like(delta_flat)
    n_rpn_pos = sum(len(ix) for ix in rpn_pos_idx)
    if include_reg and n_rpn_pos > 0:
        diffs = np.concatenate(
            [delta_flat[i][rpn_pos_idx[i]] - plan.rpn_reg_targets[i]
             for i in range(n_img)], axis=0)
        rpn_reg, ddiffs = smooth_l1(diffs)
        off = 0
        for i in range(n_img):
            k = len(rpn_pos_idx[i])
            ddelta[i][rpn_pos_idx[i]] = ddiffs[off:off + k]
            off += k
    else:
        rpn_reg = 0.0

    labels = np.concatenate(plan.roi_labels)
    roi_cls, dcls = softmax_cross_entropy(cls_logits, labels)

    droi_delta = np.zeros_like(roi_deltas)
    fg = np.where(labels > 0)[0]
    if include_reg and len(fg) > 0:
        reg_targets = np.concatenate(plan.roi_reg_targets)[fg]
        cols = (labels[fg] - 1)[:, None] * 4 + np.arange(4)[None, :]
        pred = roi_deltas[fg[:, None], cols]
        roi_reg, dd = smooth_l1(pred - reg_targets)
        droi_delta[fg[:, None], cols] = dd
    else:
        roi_reg = 0.0

    loss = D.LossBreakdown(float(rpn_cls), float(rpn_reg), float(roi_cls), float(roi_reg))
    return loss, dobj, ddelta, dcls, droi_delta


def forward_train_reference(model, images, targets, rng, include_reg):
    arch, p = model.arch, model.params
    feats, bb_caches, stats = D._backbone_forward(model, images, "train")
    obj_map, delta_map, hidden_pre, hidden = rpn_forward_reference(model, feats)
    obj_flat = D._flatten_rpn(arch, obj_map, 2)
    delta_flat = D._flatten_rpn(arch, delta_map, 4)
    plan = D._plan_from_outputs(arch, D.generate_anchors(arch), obj_flat, delta_flat,
                                targets, rng)
    cls_logits, roi_deltas, roi_cache = roi_head_forward_reference(
        model, feats, plan.proposals)
    loss, dobj, ddelta, dcls, droi_delta = compute_losses_reference(
        obj_flat, delta_flat, cls_logits, roi_deltas, plan, include_reg)

    grads = {}
    dh2 = dcls @ p["roi.cls.w"].T + droi_delta @ p["roi.delta.w"].T
    grads["roi.cls.w"] = roi_cache["h2"].T @ dcls
    grads["roi.cls.b"] = dcls.sum(axis=0)
    grads["roi.delta.w"] = roi_cache["h2"].T @ droi_delta
    grads["roi.delta.b"] = droi_delta.sum(axis=0)
    dh2 = relu_backward(dh2, roi_cache["h2_pre"])
    dh1, grads["roi.fc2.w"], grads["roi.fc2.b"] = linear_backward(
        dh2, roi_cache["h1"], p["roi.fc2.w"])
    dh1 = relu_backward(dh1, roi_cache["h1_pre"])
    dflat, grads["roi.fc1.w"], grads["roi.fc1.b"] = linear_backward(
        dh1, roi_cache["flat"], p["roi.fc1.w"])

    dfeats = np.zeros_like(feats)
    dpooled = dflat.reshape(-1, arch.channels[-1], arch.roi_pool_size,
                            arch.roi_pool_size)
    c, fh, fw = feats.shape[1:]
    row = 0
    for i, (cells, count) in enumerate(roi_cache["scatter"]):
        dfeats[i] += D._roi_scatter_batch(dpooled[row:row + count], cells, c, fh, fw)
        row += count

    dh, grads["rpn.obj.w"], grads["rpn.obj.b"] = conv2d_backward(
        D._unflatten_rpn(arch, dobj, 2), hidden, p["rpn.obj.w"])
    dh_d, grads["rpn.delta.w"], grads["rpn.delta.b"] = conv2d_backward(
        D._unflatten_rpn(arch, ddelta, 4), hidden, p["rpn.delta.w"])
    dh = relu_backward(dh + dh_d, hidden_pre)
    dfeats_rpn, grads["rpn.conv.w"], grads["rpn.conv.b"] = conv2d_backward(
        dh, feats, p["rpn.conv.w"])
    dfeats += dfeats_rpn

    D._backbone_backward(model, bb_caches, dfeats, grads)
    grads = {k: np.asarray(v, images.dtype) for k, v in grads.items()}
    update_running_statistics(model, stats)
    return loss, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()],
                         ids=["small", "default"])
def test_forward_train_matches_reference(arch, n, dtype):
    """Byte-equal loss terms, gradients and folded BN statistics."""
    rng = np.random.default_rng(n)
    model = D.init_model(arch, 9)
    model.params = {k: v.astype(dtype) for k, v in model.params.items()}
    imgs, _ = random_batch(rng, arch, n=n, dtype=dtype)
    # objects of 6-14 px on a 32-px frame, scaled to the input, so that
    # both regression terms have positives on either architecture
    _, targets = random_batch(rng, small_arch(), n=n)
    targets = [(b * np.float32(arch.input_size / 32), l) for b, l in targets]
    for include_reg in (True, False):
        live, want = model.copy(), model.copy()
        loss, grads = D.forward_train(live, imgs, targets, np.random.default_rng(5),
                                      include_reg)
        ref_loss, ref_grads = forward_train_reference(
            want, imgs, targets, np.random.default_rng(5), include_reg)
        assert loss == ref_loss
        assert (loss.rpn_reg > 0 and loss.roi_reg > 0) == include_reg
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
            assert g.tobytes() == ref_grads[name].tobytes(), (include_reg, name)
        for name, v in live.params.items():
            assert v.tobytes() == want.params[name].tobytes(), name


def bn_apply_reference(x, mean, var, gamma, beta):
    """bn_apply before it normalized its input in place: xhat and the output
    are new arrays and x is untouched."""
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = x - mean[None, :, None, None]
    xhat *= inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat
    out += beta[None, :, None, None]
    return out, xhat, inv_std


def backbone_forward_reference(model, x, mode):
    """_backbone_forward with the out-of-place BN and ReLU, masking the
    ReLU backward by the BN output."""
    p, arch = model.params, model.arch
    caches, stats, h = [], [], x
    for i in range(len(arch.channels)):
        pre = f"backbone.b{i}"
        conv_out = conv2d_forward(h, p[f"{pre}.conv.w"], p[f"{pre}.conv.b"])
        if mode == "eval":
            mean, var = p[f"{pre}.bn.running_mean"], p[f"{pre}.bn.running_var"]
        else:
            mean, var = batch_stats(conv_out)
            stats.append((mean, var))
        gamma = p[f"{pre}.bn.gamma"]
        bn_out, xhat, inv_std = bn_apply_reference(conv_out, mean, var, gamma,
                                                   p[f"{pre}.bn.beta"])
        relu_out = relu_reference(bn_out)
        conv_in, pool_idx = h, None
        if i >= arch.n_pools:
            h = relu_out
        elif mode == "train":
            h, pool_idx = D.maxpool2_with_indices(relu_out)
        else:
            h = D.maxpool2_forward(relu_out)
        if mode == "train":
            caches.append({"conv_in": conv_in, "bn_cache": (xhat, inv_std, gamma),
                           "relu_mask": bn_out > 0, "pool_idx": pool_idx})
    return h, caches, stats


def _bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()],
                         ids=["small", "default"])
def test_backbone_in_place_matches_reference(arch, dtype):
    """Byte-equal features, batch statistics and block caches in every mode,
    with a NaN and exact zeros in the image (the ReLU mask must agree)."""
    rng = np.random.default_rng(4)
    model = D.init_model(arch, 9)
    model.params = {k: v.astype(dtype) for k, v in model.params.items()}
    s = arch.input_size
    x = rng.random((3, 3, s, s)).astype(dtype)
    x[0, :, :4, :4] = 0.0
    nan_x = x.copy()
    nan_x[2, 1, s // 2, s // 3] = np.nan
    for images in (x, nan_x):
        for mode in ("eval", "collect", "train"):
            feats, caches, stats = D._backbone_forward(model, images.copy(), mode)
            want_feats, want_caches, want_stats = backbone_forward_reference(
                model, images.copy(), mode)
            assert _bytes(feats) == _bytes(want_feats), mode
            assert [(_bytes(m), _bytes(v)) for m, v in stats] == \
                [(_bytes(m), _bytes(v)) for m, v in want_stats], mode
            assert len(caches) == len(want_caches)
            for c, w in zip(caches, want_caches):
                assert c.keys() == w.keys()
                assert [_bytes(a) for a in c["bn_cache"]] == \
                    [_bytes(a) for a in w["bn_cache"]]
                for key in ("conv_in", "relu_mask", "pool_idx"):
                    assert _bytes(c[key]) == _bytes(w[key]), (mode, key)
        assert np.isnan(D._backbone_forward(model, nan_x, "eval")[0]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()],
                         ids=["small", "default"])
def test_forward_train_in_place_matches_reference(arch, dtype, monkeypatch):
    """Byte-equal loss terms, gradients and folded statistics when the
    detector runs the out-of-place BN and ReLU instead."""
    rng = np.random.default_rng(2)
    model = D.init_model(arch, 9)
    model.params = {k: v.astype(dtype) for k, v in model.params.items()}
    imgs, _ = random_batch(rng, arch, n=4, dtype=dtype)
    _, targets = random_batch(rng, small_arch(), n=4)
    targets = [(b * np.float32(arch.input_size / 32), l) for b, l in targets]
    live, want = model.copy(), model.copy()
    loss, grads = D.forward_train(live, imgs, targets, np.random.default_rng(5), True)
    monkeypatch.setattr(D, "bn_apply", bn_apply_reference)
    monkeypatch.setattr(D, "relu_forward", relu_reference)
    ref_loss, ref_grads = D.forward_train(want, imgs, targets, np.random.default_rng(5), True)
    assert loss == ref_loss and loss.rpn_reg > 0 and loss.roi_reg > 0
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert _bytes(g) == _bytes(ref_grads[name]), name
    for name, v in live.params.items():
        assert _bytes(v) == _bytes(want.params[name]), name


def test_softmax_objectness_matches_reference(rng):
    """_propose's foreground score: byte-equal to the two-column softmax it
    used to compute on its own."""
    def objectness_reference(obj):
        z = obj - obj.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e[:, 1] / e.sum(axis=1)

    for scale in (1.0, 30.0, 1e3):
        obj = rng.normal(size=(500, 2)) * scale
        got = D._softmax(obj)[:, 1]
        assert got.dtype == np.float64
        assert got.tobytes() == objectness_reference(obj).tobytes(), scale


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_inference_contract_untrained(rng, monkeypatch):
    arch = small_arch()
    model = D.init_model(arch, 2)
    img = rng.random((32, 32, 3)).astype(np.float32)
    monkeypatch.setattr(D, "MAX_DETS", 20)
    (dets,) = D.forward_inference_batch(model, [img])
    assert len(dets) <= 20
    assert ((dets.scores >= 0) & (dets.scores <= 1)).all()
    assert (dets.labels < arch.num_classes).all()
    b = dets.boxes
    assert (b[:, 0] >= 0).all() and (b[:, 2] <= 32).all()
    assert (b[:, 2] > b[:, 0]).all() and (b[:, 3] > b[:, 1]).all()


def test_inference_score_floor_monotone(rng, monkeypatch):
    arch = small_arch()
    model = D.init_model(arch, 4)
    img = rng.random((32, 32, 3)).astype(np.float32)
    counts = []
    for floor in (0.0, 0.05, 0.2, 0.5, 0.9):
        monkeypatch.setattr(D, "SCORE_FLOOR", floor)
        counts.append(len(D.forward_inference_batch(model, [img])[0]))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_batched_inference_matches_single(rng):
    arch = small_arch()
    model = D.init_model(arch, 6)
    imgs = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(5)]
    batched = D.forward_inference_batch(model, imgs)
    for im, got in zip(imgs, batched):
        (single,) = D.forward_inference_batch(model, [im])
        assert np.array_equal(got.boxes, single.boxes)
        assert np.array_equal(got.scores, single.scores)
        assert np.array_equal(got.labels, single.labels)


def test_inference_chunking_is_invisible(rng, monkeypatch):
    """forward_inference_batch detects INFER_CHUNK images at a time, and
    the chunks change no detection."""
    model = D.init_model(small_arch(), 3)
    images = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(20)]
    single = [D.forward_inference_batch(model, [im])[0] for im in images]
    chunks = []
    real = D._forward_all

    def recording(model, images, mode):
        chunks.append(len(images))
        return real(model, images, mode)

    monkeypatch.setattr(D, "_forward_all", recording)
    got = D.forward_inference_batch(model, images)
    assert chunks == [4, 4, 4, 4, 4]
    assert_same_detections(got, single, "chunked")
    assert sum(len(d) for d in got) > 0


def test_inference_eval_mode_pure(rng):
    arch = small_arch()
    model = D.init_model(arch, 7)
    before = {k: v.copy() for k, v in model.params.items()}
    img = rng.random((32, 32, 3)).astype(np.float32)
    D.forward_inference_batch(model, [img])
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def inference_reference(model, images, score_floor=0.05, nms_iou=0.5, max_dets=50):
    """forward_inference_batch as it was before the class decode was
    vectorized (one decode, clip and filter pass per class), and before it
    shared _forward_all's backbone/RPN/flatten and the _softmax of _propose."""
    arch = model.arch
    x = D.images_to_batch(images)
    feats, _, _ = D._backbone_forward(model, x, mode="eval")
    obj_map, delta_map, _ = D._rpn_forward(model, feats)
    obj_flat = D._flatten_rpn(arch, obj_map, 2)
    delta_flat = D._flatten_rpn(arch, delta_map, 4)
    anchors = D.generate_anchors(arch)
    proposals = [D._propose(arch, anchors, obj_flat[i], delta_flat[i])
                 for i in range(len(images))]
    cls_logits, roi_deltas, _ = D._roi_head_forward(model, feats, proposals,
                                                    need_indices=False)
    z = cls_logits - cls_logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    results, row = [], 0
    for props in proposals:
        n = len(props)
        if n == 0:
            results.append(B.Detections())
            continue
        pr, dl = probs[row:row + n], roi_deltas[row:row + n]
        row += n
        parts = []
        for c in range(arch.num_classes):
            scores = pr[:, c + 1]
            boxes = B.decode_deltas(dl[:, 4 * c:4 * c + 4], props)
            boxes = B.clip_boxes(boxes, arch.input_size, arch.input_size)
            ok = ((boxes[:, 2] - boxes[:, 0] > 1e-3)
                  & (boxes[:, 3] - boxes[:, 1] > 1e-3)
                  & (scores >= score_floor))
            parts.append((boxes[ok], np.full(int(ok.sum()), c, np.int64),
                          scores[ok].astype(np.float32)))
        dets = B.Detections(np.concatenate([b for b, _, _ in parts]),
                            np.concatenate([l for _, l, _ in parts]),
                            np.concatenate([s for _, _, s in parts]))
        results.append(B.nms(dets, nms_iou)[:max_dets])
    return results


@pytest.mark.parametrize("num_classes", [2, 3, 5])
def test_class_decode_matches_per_class_reference(rng, num_classes, monkeypatch):
    """Byte-equal Detections; the ROI head is scaled up so scores straddle
    the floors and 7-45% of the decoded boxes clip to nothing."""
    model = D.init_model(small_arch(num_classes=num_classes), 8)
    for name in ("roi.cls.w", "roi.delta.w"):
        model.params[name] *= np.float32(30.0)
    imgs = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(4)]
    for floor in (0.05, 0.0):
        monkeypatch.setattr(D, "SCORE_FLOOR", floor)
        got = D.forward_inference_batch(model, imgs)
        assert_same_detections(got, inference_reference(model, imgs, floor), floor)
    assert sum(len(d) for d in got) > 0


def assert_same_detections(got, want, what):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("boxes", "labels", "scores"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (what, field)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()],
                         ids=["small", "default"])
def test_inference_matches_reference(arch, n, dtype):
    """Byte-equal Detections with float32 or float64 parameters."""
    rng = np.random.default_rng(n)
    model = D.init_model(arch, 8)
    model.params = {k: v.astype(dtype) for k, v in model.params.items()}
    s = arch.input_size
    imgs = [rng.random((s, s, 3)).astype(np.float32) for _ in range(n)]
    got = D.forward_inference_batch(model, imgs)
    assert_same_detections(got, inference_reference(model, imgs), "eval")
    assert sum(len(d) for d in got) > 0


def test_inference_without_proposals_matches_reference(rng, monkeypatch):
    """Images without a proposal get the reference's empty Detections (same
    dtypes and shapes) beside images with detections in their chunk, and a
    chunk in which no image has a proposal gives only empty ones."""
    model = D.init_model(small_arch(), 8)
    imgs = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(6)]
    real, calls = D._propose, []

    def sparse(arch, anchors, obj, delta):
        calls.append(len(calls) % len(imgs))
        return real(arch, anchors, obj, delta)[: 0 if calls[-1] in (1, 4, 5) else None]

    monkeypatch.setattr(D, "_propose", sparse)
    got = D.forward_inference_batch(model, imgs)
    assert_same_detections(got, inference_reference(model, imgs), "no proposals")
    assert [len(d) > 0 for d in got] == [True, False, True, True, False, False]


def test_images_to_batch_on_8_bit_matches_float_decode(tmp_path):
    """Read images, alone or mixed with decoded ones, batch to the bytes of
    their float32 decode."""
    spec = DomainSpec(image_size=32, min_size=8, max_size=16)
    read, decoded = read_back(generate_split(spec, 4, 0, "b"), tmp_path / "ds")
    want = D.images_to_batch([s.image for s in decoded])
    mixed = [read[0].image, decoded[1].image, read[2].image, decoded[3].image]
    for images in ([s.image for s in read], mixed):
        got = D.images_to_batch(images)
        assert got.dtype == np.float32 and got.shape == (4, 3, 32, 32)
        assert got.tobytes() == want.tobytes()
