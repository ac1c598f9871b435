"""Two-stage detector contracts: loss decomposition, frozen-plan gradient
checks against finite differences, ROI pooling and scatter against their
oracles in reference.py, the training step against a former step built on
those oracles, determinism, and inference behavior."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sfodlab import boxes as B
from sfodlab import detector as D
from sfodlab.batchnorm import batch_stats, bn_backward, update_running_statistics
from sfodlab.data import DomainSpec, generate_split
from sfodlab.ops import (
    NumericsError,
    conv2d_backward,
    linear_backward,
    linear_forward,
    maxpool2_scatter,
    relu_backward,
    sgd_step,
    smooth_l1,
    softmax_cross_entropy,
)
import reference
from conftest import bn_stat_names, read_back, small_arch


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

def mixed_boxes(rng, n, size):
    """Boxes from sub-cell to full-map extent, so bin sizes (and the
    window padding) differ between proposals."""
    x1, y1 = rng.uniform(0, size - 0.5, (2, n))
    w, h = rng.uniform(0.1, size, (2, n))
    return np.stack([x1, y1, np.minimum(x1 + w, size), np.minimum(y1 + h, size)], 1)


def test_roi_pool_identity(rng):
    feats = rng.normal(size=(3, 5, 5))
    pooled, _ = D._roi_pool_batch(feats, np.array([[0.0, 0.0, 5.0, 5.0]]), 5, True)
    assert np.array_equal(pooled[0], feats)


def test_roi_pool_constant(rng):
    feats = np.full((2, 8, 8), 0.7)
    pooled, _ = D._roi_pool_batch(feats, np.array([[1.3, 2.2, 6.9, 7.1]]), 4, True)
    assert np.allclose(pooled, 0.7)


def test_roi_pool_degenerate_single_cell(rng):
    feats = rng.normal(size=(1, 8, 8))
    pooled, _ = D._roi_pool_batch(feats, np.array([[3.2, 4.1, 3.4, 4.3]]), 3, True)
    assert np.allclose(pooled, feats[0, 4, 3])


def test_roi_pool_matches_naive(rng):
    for _ in range(50):
        feats = rng.normal(size=(4, 8, 8))
        x1, y1 = rng.uniform(0, 6, 2)
        x2 = rng.uniform(x1 + 0.3, 8)
        y2 = rng.uniform(y1 + 0.3, 8)
        box = np.array([[x1, y1, x2, y2]])
        got, _ = D._roi_pool_batch(feats, box, 3, True)
        assert np.array_equal(got, reference.roi_pool(feats, box, 3)[0])


def test_roi_pool_backward_gradient(rng):
    feats = rng.normal(size=(2, 6, 6))
    box = np.array([[0.7, 1.2, 5.3, 4.9]])
    dout = rng.normal(size=(2, 3, 3))
    pooled, cells = D._roi_pool_batch(feats, box, 3, True)
    dfeat = D._roi_scatter_batch(dout[None], cells, 2, 6, 6)
    # scatter conserves the total gradient mass
    assert dfeat.sum() == pytest.approx(dout.sum(), rel=1e-6)
    # gradient lands only on per-cell argmax positions
    assert (np.abs(dfeat[feats != feats]) == 0).all()
    nz = np.nonzero(dfeat)
    for c, y, x in zip(*nz):
        assert feats[c, y, x] in pooled[0, c]


def test_roi_pool_batch_ties_match_reference(rng):
    """Bit-identical values and maximum positions on tie-heavy maps, one
    proposal or many, bins of up to 4 x 4 cells (K = 16) and signed zeros.
    The indexed pool keeps the first maximum, so its bytes, the sign of a
    zero included, are the reference's; the plain pool's bytes are those
    of np.maximum folded over each bin's cells."""
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
                want, want_cells, window = reference.roi_pool(feats, boxes, out)
                pooled, cells = D._roi_pool_batch(feats, boxes, out, True)
                assert pooled.dtype == feats.dtype
                assert cells.dtype == np.min_scalar_type(f * f - 1) == np.uint8
                assert pooled.tobytes() == want.tobytes()
                assert np.array_equal(cells, want_cells)
                plain, none = D._roi_pool_batch(feats, boxes, out, need_indices=False)
                assert none is None and np.array_equal(plain, want)
                assert plain.dtype == feats.dtype
                assert plain.tobytes() == window.tobytes()
                dpooled = rng.normal(size=want.shape).astype(feats.dtype)
                got = D._roi_scatter_batch(dpooled, cells, c, f, f)
                assert got.tobytes() == \
                    reference.roi_scatter(dpooled, want_cells, c, f, f).tobytes()
    # a full-map box on an 8-cell map at out = 2 spans 4 x 4 cells per bin
    y0, y1 = D._roi_cell_edges(np.zeros(1), np.full(1, 8.0), 2, 8)
    assert ((y1 - y0) == 4).all()


@pytest.mark.parametrize("f, dtype", [(12, np.uint8), (17, np.uint16)],
                         ids=["12x12-uint8", "17x17-uint16"])
def test_roi_pool_batch_indices_match_int64_reference(rng, f, dtype):
    """The max-cell indices come in the smallest integer type that holds
    F*F - 1 (uint8 at the default 12 x 12 map, uint16 once F*F > 256), hold
    the values of the int64 reference, NaN bins included, and scatter the
    bytes the reference scatters from those int64 cells."""
    feats = np.maximum(rng.normal(size=(6, f, f)), 0).astype(np.float32)
    feats[2, 5, 7] = np.nan
    boxes = np.concatenate([mixed_boxes(rng, 32, f), [[0.0, 0.0, f, f]]])
    for out in (2, 5):
        _, cells = D._roi_pool_batch(feats, boxes, out, True)
        _, want, _ = reference.roi_pool(feats, boxes, out)
        assert cells.dtype == dtype and want.dtype == np.int64
        assert np.array_equal(cells, want)
        dpooled = rng.normal(size=(len(boxes), 6, out, out)).astype(np.float32)
        got = D._roi_scatter_batch(dpooled, cells, 6, f, f)
        assert got.tobytes() == reference.roi_scatter(dpooled, want, 6, f, f).tobytes()


def test_roi_pool_batch_nan_propagates(rng):
    feats = np.maximum(rng.normal(size=(2, 6, 6)), 0)
    feats[0, 2, 3] = np.nan
    feats[1, 2, 4] = np.nan
    feats[1, 4, 1] = np.nan
    boxes = np.array([[0.0, 0.0, 6.0, 6.0], [3.0, 2.0, 5.0, 3.0], [0.0, 0.0, 1.5, 1.5]])
    want, want_cells, _ = reference.roi_pool(feats, boxes, 3)
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
    assert np.array_equal(cells, want_cells)


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
    grads = {}
    loss = D._finish(model, images, D._forward_all(model, images, "train"), plan,
                     include_reg, grads.__setitem__)
    return loss, grads


def forward_train_grads(model, images, targets, rng, include_reg=True):
    """forward_train with every gradient it hands over collected by name:
    (LossBreakdown, gradients). Each name is handed over once."""
    grads = {}

    def collect(name, grad):
        assert name not in grads, name
        grads[name] = grad

    return D.forward_train(model, images, targets, rng, include_reg, collect), grads


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
    loss, grads = forward_train_grads(model, imgs, targets, np.random.default_rng(0))
    assert loss.rpn_reg == 0.0 and loss.roi_reg == 0.0
    assert loss.rpn_cls > 0 and loss.roi_cls > 0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_forward_train_deterministic(rng):
    arch = small_arch()
    imgs, targets = random_batch(rng, arch)
    runs = []
    for _ in range(2):
        model = D.init_model(arch, 3)
        loss, grads = forward_train_grads(model, imgs, targets, np.random.default_rng(11))
        runs.append((loss, {k: v.tobytes() for k, v in grads.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def traced_step_peak(rng, n):
    """tracemalloc peak, in bytes, of one forward_train of the default
    detector at batch n whose update is train_step's in-place sgd_step."""
    arch = D.ArchDescriptor()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch, n=n)

    def update(name, grad):
        sgd_step(model.params, name, grad, 1e-3)

    tracemalloc.start()
    try:
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True, update)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_train_traced_peak_bound(rng):
    """One batch-4 step of the default detector allocates at most 12 MiB
    at once (measured: 7.1 MiB with each SGD update applied as its
    gradient is made and the ReLU after the pool; 8.4 MiB while the
    whole gradient dict was built first, 19.2 MiB while every conv kept its
    whole-batch patch matrix until its backward ran, 28.4 MiB before the
    backward dropped each cache as it went)."""
    peak = traced_step_peak(rng, 4)
    assert peak <= 12 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_forward_train_traced_peak_bound_batch16(rng):
    """The same at batch 16: at most 36 MiB (measured: 23.7 MiB; 26.6 MiB
    with the gradient dict built first, 71.1 MiB with the patch matrices
    kept)."""
    peak = traced_step_peak(rng, 16)
    assert peak <= 36 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_backward_consumes_forward_caches(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch)
    fw = D._forward_all(model, imgs, "train")
    assert "rpn_cols" not in fw
    for i, c in enumerate(fw["bb_caches"]):
        # no ReLU mask: the backward reads the block output instead
        assert set(c) == {"conv_in", "bn_cache", "pool_idx"}
        assert (c["pool_idx"] is None) == (i >= arch.n_pools)
        if c["pool_idx"] is not None:
            assert c["pool_idx"].dtype == np.int8
        # no patch matrix: every cached array is at most the conv output's
        # size, while the block's im2col columns are 9 * C_in / C_out times it
        conv_out_size = c["bn_cache"][0].size
        arrays = [v for v in (c["conv_in"], *c["bn_cache"], c["pool_idx"])
                  if isinstance(v, np.ndarray)]
        assert all(a.size <= conv_out_size for a in arrays)
    plan = D._plan_from_outputs(arch, D.generate_anchors(arch), fw["obj_flat"],
                                fw["delta_flat"], targets, np.random.default_rng(0))
    D._finish(model, imgs, fw, plan, True, {}.__setitem__)
    assert fw["bb_caches"] == []
    assert "hidden" not in fw


def test_forward_train_nan_aborts(rng):
    """The non-finite loss raises before the first gradient is handed over."""
    arch = small_arch()
    model = D.init_model(arch, 0)
    model.params["backbone.b0.conv.w"][:] = np.inf
    imgs, targets = random_batch(rng, arch)
    handed = {}
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True,
                        handed.__setitem__)
    assert handed == {}


def test_forward_train_nan_features_abort(rng):
    """A divergent step raises before its first SGD update and leaves every
    parameter, BN running statistics included, byte-identical."""
    arch = small_arch()
    model = D.init_model(arch, 0)
    last = len(arch.channels) - 1
    model.params[f"backbone.b{last}.bn.beta"][0] = np.nan
    before = {k: v.tobytes() for k, v in model.params.items()}
    imgs, targets = random_batch(rng, arch)
    updated = []

    def update(name, grad):
        updated.append(name)
        sgd_step(model.params, name, grad, 0.1)

    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        D.forward_train(model, imgs, targets, np.random.default_rng(0), True, update)
    assert updated == []
    assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_forward_train_folds_batch_statistics(rng):
    arch = small_arch()
    model = D.init_model(arch, 1)
    imgs, targets = random_batch(rng, arch)
    want = model.copy()
    _, _, stats = D._backbone_forward(model, imgs, "collect")
    update_running_statistics(want, stats)
    forward_train_grads(model, imgs, targets, np.random.default_rng(0))
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
# the sampled RPN rows with per-image offset loops, spelled out the ROI
# cls/delta backward, ran each ReLU before its pool and built the whole
# gradient dict, with the forward kernels and the ROI scatter of
# reference.py (batch-wide conv unfold, out-of-place BN, argmax pooling and
# the bin-by-bin ROI pool): the live step must give byte-equal results.

def _bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def rpn_forward_reference(model, feats):
    p = model.params
    hidden_pre = reference.conv2d_batched(feats, p["rpn.conv.w"], p["rpn.conv.b"])
    hidden = np.maximum(hidden_pre, 0)
    obj_map = reference.conv2d_batched(hidden, p["rpn.obj.w"], p["rpn.obj.b"])
    delta_map = reference.conv2d_batched(hidden, p["rpn.delta.w"], p["rpn.delta.b"])
    return obj_map, delta_map, hidden_pre, hidden


def roi_head_forward_reference(model, feats, proposals):
    arch, p = model.arch, model.params
    pooled_parts, scatter = [], []
    for i, props in enumerate(proposals):
        boxes = np.asarray(props, np.float64).reshape(-1, 4) / arch.feature_stride
        pooled, cells, _ = reference.roi_pool(feats[i], boxes, arch.roi_pool_size)
        pooled_parts.append(pooled)
        scatter.append((cells, len(boxes)))
    flat = np.concatenate(pooled_parts).reshape(-1, p["roi.fc1.w"].shape[0])
    h1_pre = linear_forward(flat, p["roi.fc1.w"], p["roi.fc1.b"])
    h1 = np.maximum(h1_pre, 0)
    h2_pre = linear_forward(h1, p["roi.fc2.w"], p["roi.fc2.b"])
    h2 = np.maximum(h2_pre, 0)
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


def backbone_backward_reference(model, caches, dfeats, grads):
    """_backbone_backward of backbone_forward_reference's relu-then-pool
    caches: the pooled gradient is scattered to the ReLU output's shape and
    then masked by the cached ReLU mask."""
    p = model.params
    d = dfeats
    for i in reversed(range(len(model.arch.channels))):
        pre = f"backbone.b{i}"
        c = caches[i]
        if c["pool_idx"] is not None:
            d = maxpool2_scatter(d, c["pool_idx"], c["relu_mask"].shape)
        d = d * c["relu_mask"]
        d, grads[f"{pre}.bn.gamma"], grads[f"{pre}.bn.beta"] = bn_backward(
            d, c["bn_cache"])
        d, grads[f"{pre}.conv.w"], grads[f"{pre}.conv.b"] = conv2d_backward(
            d, c["conv_in"], p[f"{pre}.conv.w"], need_dx=i > 0)


def forward_train_reference(model, images, targets, rng, include_reg):
    """forward_train as a gradient dict built in full before anything reads
    it, on the relu-then-pool backbone (backbone_forward_reference)."""
    arch, p = model.arch, model.params
    feats, bb_caches, stats = backbone_forward_reference(model, images, "train")
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
        dfeats[i] += reference.roi_scatter(dpooled[row:row + count], cells, c, fh, fw)
        row += count

    dh, grads["rpn.obj.w"], grads["rpn.obj.b"] = conv2d_backward(
        D._unflatten_rpn(arch, dobj, 2), hidden, p["rpn.obj.w"])
    dh_d, grads["rpn.delta.w"], grads["rpn.delta.b"] = conv2d_backward(
        D._unflatten_rpn(arch, ddelta, 4), hidden, p["rpn.delta.w"])
    dh = relu_backward(dh + dh_d, hidden_pre)
    dfeats_rpn, grads["rpn.conv.w"], grads["rpn.conv.b"] = conv2d_backward(
        dh, feats, p["rpn.conv.w"])
    dfeats += dfeats_rpn

    backbone_backward_reference(model, bb_caches, dfeats, grads)
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
        loss, grads = forward_train_grads(live, imgs, targets, np.random.default_rng(5),
                                          include_reg)
        ref_loss, ref_grads = forward_train_reference(
            want, imgs, targets, np.random.default_rng(5), include_reg)
        assert loss == ref_loss
        assert (loss.rpn_reg > 0 and loss.roi_reg > 0) == include_reg
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
            assert _bytes(g) == _bytes(ref_grads[name]), (include_reg, name)
        for name, v in live.params.items():
            assert _bytes(v) == _bytes(want.params[name]), name


def backbone_forward_reference(model, x, mode):
    """_backbone_forward on the batch-wide conv unfold, the out-of-place BN
    and ReLU and the argmax pool, with the ReLU before the pool and a
    train-mode cache that masks the ReLU backward by the BN output
    (relu_mask); the pooling indices are int8, as the former cache held
    them."""
    p, arch = model.params, model.arch
    caches, stats, h = [], [], x
    for i in range(len(arch.channels)):
        pre = f"backbone.b{i}"
        conv_out = reference.conv2d_batched(h, p[f"{pre}.conv.w"], p[f"{pre}.conv.b"])
        if mode == "eval":
            mean, var = p[f"{pre}.bn.running_mean"], p[f"{pre}.bn.running_var"]
        else:
            mean, var = batch_stats(conv_out)
            stats.append((mean, var))
        gamma = p[f"{pre}.bn.gamma"]
        bn_out, xhat, inv_std = reference.bn_apply(conv_out, mean, var, gamma,
                                                   p[f"{pre}.bn.beta"])
        relu_out = np.maximum(bn_out, 0)
        conv_in, pool_idx = h, None
        if i >= arch.n_pools:
            h = relu_out
        else:
            h, pool_idx = reference.maxpool2(relu_out)
            pool_idx = pool_idx.astype(np.int8) if mode == "train" else None
        if mode == "train":
            caches.append({"conv_in": conv_in, "bn_cache": (xhat, inv_std, gamma),
                           "relu_mask": bn_out > 0, "pool_idx": pool_idx})
    return h, caches, stats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()],
                         ids=["small", "default"])
def test_backbone_in_place_matches_reference(arch, dtype):
    """Byte-equal features, batch statistics and block caches in every mode
    against relu-then-pool, with a NaN and exact zeros in the image. The
    pooling indices agree wherever the block output is > 0, and the ReLU
    mask taken from the block output before the scatter gives the bytes of
    the cached mask applied after it."""
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
            outs = [c["conv_in"] for c in caches[1:]] + [feats]
            for c, w, out in zip(caches, want_caches, outs):
                assert c.keys() == w.keys() - {"relu_mask"}
                assert [_bytes(a) for a in c["bn_cache"]] == \
                    [_bytes(a) for a in w["bn_cache"]]
                assert _bytes(c["conv_in"]) == _bytes(w["conv_in"]), mode
                alive = out > 0
                if c["pool_idx"] is None:
                    assert w["pool_idx"] is None
                    assert _bytes(alive) == _bytes(w["relu_mask"])
                    continue
                assert c["pool_idx"].dtype == w["pool_idx"].dtype
                assert _bytes(c["pool_idx"][alive]) == _bytes(w["pool_idx"][alive])
                shape = w["relu_mask"].shape
                positive = rng.random(out.shape).astype(dtype) + dtype(0.5)
                signed = rng.normal(size=out.shape).astype(dtype)
                for d in (positive, signed):
                    got = maxpool2_scatter(d * alive, c["pool_idx"], shape)
                    want = maxpool2_scatter(d, w["pool_idx"], shape) * w["relu_mask"]
                    # a -0.0 from d * False may sit at another index of a
                    # window whose maximum is <= 0; a positive d makes none
                    if d is positive:
                        assert _bytes(got) == _bytes(want), mode
                    else:
                        assert np.array_equal(got, want), mode
        assert np.isnan(D._backbone_forward(model, nan_x, "eval")[0]).any()


def softmax_reference(logits):
    """Row-wise softmax as _propose and inference each computed it on their
    own."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_softmax_objectness_matches_reference(rng):
    """_propose's foreground score: byte-equal to the two-column softmax it
    used to compute on its own."""
    for scale in (1.0, 30.0, 1e3):
        obj = rng.normal(size=(500, 2)) * scale
        got = D._softmax(obj)[:, 1]
        assert got.dtype == np.float64
        assert got.tobytes() == softmax_reference(obj)[:, 1].tobytes(), scale


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
    probs = softmax_reference(cls_logits)
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
