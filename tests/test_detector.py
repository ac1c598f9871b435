"""Two-stage detector contracts: loss decomposition, frozen-plan gradient
checks against finite differences, ROI pooling oracle, determinism, and
inference behavior."""

import math

import numpy as np
import pytest

from sfodlab import boxes as B
from sfodlab import detector as D
from sfodlab.batchnorm import update_running_statistics
from sfodlab.ops import NumericsError


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
    with pytest.raises(ValueError):
        D.ArchDescriptor(feature_stride=3)
    with pytest.raises(ValueError):
        D.ArchDescriptor(anchor_scales=(), anchor_aspects=())
    a = D.ArchDescriptor()
    assert a == D.ArchDescriptor.from_dict(a.to_dict())


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
    pooled, cells = D._roi_pool_batch(feats, np.asarray(box, np.float64).reshape(1, 4), out)
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


def test_roi_pool_batch_ties_match_reference(rng):
    """Bit-identical values and maximum positions on tie-heavy maps."""
    maps = [
        rng.integers(0, 3, (4, 8, 8)).astype(np.float32),
        np.full((3, 6, 6), 0.5, np.float32),
        np.maximum(rng.normal(size=(5, 9, 9)), 0).astype(np.float32),
        np.maximum(rng.integers(-3, 2, (2, 7, 7)), 0).astype(np.float64),
    ]
    for feats in maps:
        c, f, _ = feats.shape
        for out in (2, 3, 5):
            boxes = mixed_boxes(rng, 12, f)
            want, yy, xx = roi_pool_batch_reference(feats, boxes, out)
            pooled, cells = D._roi_pool_batch(feats, boxes, out)
            assert pooled.dtype == feats.dtype and cells.dtype == np.int64
            assert np.array_equal(pooled, want)
            assert np.array_equal(cells, (yy * f + xx).transpose(1, 2, 3, 0))
            plain, none = D._roi_pool_batch(feats, boxes, out, need_indices=False)
            assert none is None and np.array_equal(plain, want)
            dpooled = rng.normal(size=want.shape).astype(feats.dtype)
            got = D._roi_scatter_batch(dpooled, cells, c, f, f)
            assert np.array_equal(got, roi_scatter_reference(dpooled, yy, xx, c, f, f))


def test_roi_pool_batch_nan_propagates(rng):
    feats = np.maximum(rng.normal(size=(2, 6, 6)), 0)
    feats[0, 2, 3] = np.nan
    feats[1, 2, 4] = np.nan
    feats[1, 4, 1] = np.nan
    boxes = np.array([[0.0, 0.0, 6.0, 6.0], [3.0, 2.0, 5.0, 3.0], [0.0, 0.0, 1.5, 1.5]])
    want, yy, xx = roi_pool_batch_reference(feats, boxes, 3)
    pooled, cells = D._roi_pool_batch(feats, boxes, 3)
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

def test_loss_decomposition_and_toggle(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    imgs, targets = random_batch(rng, arch)
    plan = D.build_train_plan(model, imgs, targets, np.random.default_rng(7))

    full, g_full = D.forward_train_with_plan(model, imgs, plan, include_reg=True)
    noreg, g_noreg = D.forward_train_with_plan(model, imgs, plan, include_reg=False)
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
    loss, grads = D.forward_train(model, imgs, targets, np.random.default_rng(0))
    assert loss.rpn_reg == 0.0 and loss.roi_reg == 0.0
    assert loss.rpn_cls > 0 and loss.roi_cls > 0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_forward_train_deterministic(rng):
    arch = small_arch()
    imgs, targets = random_batch(rng, arch)
    runs = []
    for _ in range(2):
        model = D.init_model(arch, 3)
        loss, grads = D.forward_train(model, imgs, targets, np.random.default_rng(11))
        runs.append((loss, {k: v.tobytes() for k, v in grads.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_forward_train_nan_aborts(rng):
    arch = small_arch()
    model = D.init_model(arch, 0)
    model.params["backbone.b0.conv.w"][:] = np.inf
    imgs, targets = random_batch(rng, arch)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        D.forward_train(model, imgs, targets, np.random.default_rng(0))


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
        D.forward_train(model, imgs, targets, np.random.default_rng(0))
    assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_forward_train_folds_batch_statistics(rng):
    arch = small_arch()
    model = D.init_model(arch, 1)
    imgs, targets = random_batch(rng, arch)
    want = model.copy()
    _, _, stats = D._backbone_forward(model, imgs, "collect")
    update_running_statistics(want, stats)
    D.forward_train(model, imgs, targets, np.random.default_rng(0))
    for name in model.params:
        assert model.params[name].tobytes() == want.params[name].tobytes(), name
        assert model.params[name].dtype == np.float32


def test_gradients_match_finite_differences_20_params(rng):
    """Full-pipeline spot check on the frozen plan, 64-bit shadow path."""
    arch = small_arch()
    model = D.init_model(arch, 5)
    model.params = {k: v.astype(np.float64) for k, v in model.params.items()}
    imgs64, targets = random_batch(rng, arch, dtype=np.float64)
    plan = D.build_train_plan(model, imgs64, targets, np.random.default_rng(21))
    _, grads = D.forward_train_with_plan(model, imgs64, plan, include_reg=True)

    names = sorted(model.trainable_names())
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
        lp = D.training_loss(model, imgs64, plan).total
        flat[idx] = old - h
        lm = D.training_loss(model, imgs64, plan).total
        flat[idx] = old
        num = (lp - lm) / (2 * h)
        ana = grads[name].ravel()[idx]
        denom = max(abs(num), abs(ana), 1e-4)
        assert abs(num - ana) / denom < 1e-3, (name, idx, num, ana)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_inference_contract_untrained(rng):
    arch = small_arch()
    model = D.init_model(arch, 2)
    img = rng.random((32, 32, 3)).astype(np.float32)
    dets = D.forward_inference(model, img, max_dets=20)
    assert len(dets) <= 20
    assert ((dets.scores >= 0) & (dets.scores <= 1)).all()
    assert (dets.labels < arch.num_classes).all()
    b = dets.boxes
    assert (b[:, 0] >= 0).all() and (b[:, 2] <= 32).all()
    assert (b[:, 2] > b[:, 0]).all() and (b[:, 3] > b[:, 1]).all()


def test_inference_score_floor_monotone(rng):
    arch = small_arch()
    model = D.init_model(arch, 4)
    img = rng.random((32, 32, 3)).astype(np.float32)
    counts = [len(D.forward_inference(model, img, score_floor=f))
              for f in (0.0, 0.05, 0.2, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_batched_inference_matches_single(rng):
    arch = small_arch()
    model = D.init_model(arch, 6)
    imgs = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(5)]
    batched = D.forward_inference_batch(model, imgs)
    for im, got in zip(imgs, batched):
        single = D.forward_inference(model, im)
        assert np.array_equal(got.boxes, single.boxes)
        assert np.array_equal(got.scores, single.scores)
        assert np.array_equal(got.labels, single.labels)


def test_inference_eval_mode_pure(rng):
    arch = small_arch()
    model = D.init_model(arch, 7)
    before = {k: v.copy() for k, v in model.params.items()}
    img = rng.random((32, 32, 3)).astype(np.float32)
    D.forward_inference(model, img)
    for k in before:
        assert np.array_equal(model.params[k], before[k])
    # there is no mode that folds statistics into the model during a forward
    with pytest.raises(ValueError):
        D.forward_inference(model, img, stats_mode="train")


def inference_reference(model, images, score_floor=0.05, nms_iou=0.5, max_dets=50,
                        stats_mode="eval"):
    """forward_inference_batch as it was before the class decode was
    vectorized: one decode, clip and filter pass per class."""
    arch = model.arch
    x = D.images_to_batch(images)
    feats, _, _ = D._backbone_forward(model, x, mode=stats_mode)
    obj_map, delta_map, _, _, _ = D._rpn_forward(model, feats)
    obj_flat = D._flatten_rpn(arch, obj_map, 2)
    delta_flat = D._flatten_rpn(arch, delta_map, 4)
    anchors = D.generate_anchors(arch)
    proposals = [D._propose(arch, anchors, obj_flat[i], delta_flat[i])[0]
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
def test_class_decode_matches_per_class_reference(rng, num_classes):
    """Byte-equal Detections; the ROI head is scaled up so scores straddle
    the floors and 7-45% of the decoded boxes clip to nothing."""
    model = D.init_model(small_arch(num_classes=num_classes), 8)
    for name in ("roi.cls.w", "roi.delta.w"):
        model.params[name] *= np.float32(30.0)
    imgs = [rng.random((32, 32, 3)).astype(np.float32) for _ in range(4)]
    for floor, mode in ((0.05, "eval"), (0.0, "eval"), (0.2, "collect")):
        got = D.forward_inference_batch(model, imgs, floor, stats_mode=mode)
        want = inference_reference(model, imgs, floor, stats_mode=mode)
        for g, w in zip(got, want):
            for field in ("boxes", "labels", "scores"):
                a, b = getattr(g, field), getattr(w, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (floor, mode, field)
    assert sum(len(d) for d in got) > 0
