"""Desk-scale two-stage anchor detector with manual backpropagation.

Structure mirrors the classic two-stage layout: a small conv backbone with
batch normalization, a region proposal network (objectness + box deltas on
a fixed anchor grid), and an ROI head (max-pooled proposal features through
two hidden linear layers into classification and per-class box refinement).

Training exposes the four-term loss (RPN classification, RPN regression,
ROI classification, ROI regression) with the regression terms toggleable.
Proposal boxes and all sampling decisions are frozen into a TrainPlan;
gradients flow only through network activations, never through proposal
coordinates, so the analytic gradients can be verified against finite
differences of the loss on the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import boxes as B
from .batchnorm import batch_stats, bn_apply, bn_backward, update_running_statistics
from .data import float_pixels
from .ops import (
    NumericsError,
    conv2d_backward,
    conv2d_forward,
    conv2d_forward_cols,
    linear_backward,
    linear_forward,
    maxpool2_forward,
    maxpool2_scatter,
    maxpool2_with_indices,
    put_where,
    relu_backward,
    relu_forward,
    smooth_l1,
    softmax_cross_entropy,
)


@dataclass(frozen=True)
class ArchDescriptor:
    """Fixed architecture parameters; two models with equal descriptors are
    parameter-compatible (EMA-combinable entry by entry)."""

    input_size: int = 96
    in_channels: int = 3
    channels: tuple = (8, 16, 32, 64)
    feature_stride: int = 8
    anchor_scales: tuple = (16.0, 32.0, 64.0)
    anchor_aspects: tuple = (0.5, 1.0, 2.0)
    num_classes: int = 3
    rpn_channels: int = 64
    roi_pool_size: int = 5
    roi_hidden: int = 256
    rpn_pos_thr: float = 0.7
    rpn_neg_thr: float = 0.3
    roi_pos_thr: float = 0.5
    rpn_sample: int = 64
    rpn_pos_fraction: float = 0.5
    roi_sample: int = 32
    roi_pos_fraction: float = 0.25
    pre_nms_topk: int = 100
    post_nms_topk: int = 50
    proposal_nms_iou: float = 0.7

    def __post_init__(self):
        if self.feature_stride < 1 or 2 ** self.n_pools != self.feature_stride:
            raise ValueError("feature_stride must be a power of two")
        if self.input_size % self.feature_stride:
            raise ValueError("feature_stride must divide input_size")
        if self.n_pools > len(self.channels):
            raise ValueError("not enough blocks for the requested stride")
        if self.num_anchors < 1:
            raise ValueError("need at least one anchor per cell")

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_scales) * len(self.anchor_aspects)

    @property
    def feature_size(self) -> int:
        return self.input_size // self.feature_stride

    @property
    def n_pools(self) -> int:
        return int(np.log2(self.feature_stride))

    def bn_layers(self):
        return [(f"backbone.b{i}.bn", c) for i, c in enumerate(self.channels)]

    def param_shapes(self) -> dict:
        """Ordered name -> shape map defining the ModelState layout."""
        a = self.num_anchors
        k = self.num_classes
        shapes = {}
        cin = self.in_channels
        for i, c in enumerate(self.channels):
            shapes[f"backbone.b{i}.conv.w"] = (c, cin, 3, 3)
            shapes[f"backbone.b{i}.conv.b"] = (c,)
            shapes[f"backbone.b{i}.bn.gamma"] = (c,)
            shapes[f"backbone.b{i}.bn.beta"] = (c,)
            shapes[f"backbone.b{i}.bn.running_mean"] = (c,)
            shapes[f"backbone.b{i}.bn.running_var"] = (c,)
            cin = c
        shapes["rpn.conv.w"] = (self.rpn_channels, cin, 3, 3)
        shapes["rpn.conv.b"] = (self.rpn_channels,)
        shapes["rpn.obj.w"] = (2 * a, self.rpn_channels, 1, 1)
        shapes["rpn.obj.b"] = (2 * a,)
        shapes["rpn.delta.w"] = (4 * a, self.rpn_channels, 1, 1)
        shapes["rpn.delta.b"] = (4 * a,)
        d = cin * self.roi_pool_size ** 2
        shapes["roi.fc1.w"] = (d, self.roi_hidden)
        shapes["roi.fc1.b"] = (self.roi_hidden,)
        shapes["roi.fc2.w"] = (self.roi_hidden, self.roi_hidden)
        shapes["roi.fc2.b"] = (self.roi_hidden,)
        shapes["roi.cls.w"] = (self.roi_hidden, k + 1)
        shapes["roi.cls.b"] = (k + 1,)
        shapes["roi.delta.w"] = (self.roi_hidden, 4 * k)
        shapes["roi.delta.b"] = (4 * k,)
        return shapes

    @classmethod
    def from_dict(cls, d: dict) -> "ArchDescriptor":
        d = dict(d)
        for key in ("channels", "anchor_scales", "anchor_aspects"):
            d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class LossBreakdown:
    rpn_cls: float
    rpn_reg: float
    roi_cls: float
    roi_reg: float

    @property
    def total(self) -> float:
        return self.rpn_cls + self.rpn_reg + self.roi_cls + self.roi_reg


@dataclass
class ModelState:
    """Named parameter collection: weights, BN affine and BN statistics.

    Two models may share arrays: AdaBN (collect_target_statistics) returns
    one that holds its source's weight arrays. So only a model that owns
    every array, one made by init_model, load_checkpoint or copy(), is
    written in place: train_step's sgd_step updates each parameter while
    forward_train's backward is still running, and forward_train folds the
    BN running statistics last. adapt, and so train-source, trains a copy()
    of its teacher and only reads the teacher and the source.
    """

    arch: ArchDescriptor
    params: dict

    def copy(self) -> "ModelState":
        return ModelState(self.arch, {k: v.copy() for k, v in self.params.items()})


def init_model(arch: ArchDescriptor, seed: int) -> ModelState:
    """He-initialized weights, zero biases, identity BN, small head weights."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in arch.param_shapes().items():
        if name.endswith((".gamma", ".running_var")):
            params[name] = np.ones(shape, np.float32)
        elif name.endswith((".beta", ".running_mean", ".b")):
            params[name] = np.zeros(shape, np.float32)
        elif name.startswith(("rpn.obj", "rpn.delta", "roi.cls", "roi.delta")):
            params[name] = rng.normal(0, 0.01, shape).astype(np.float32)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params[name] = rng.normal(0, np.sqrt(2.0 / fan_in), shape).astype(np.float32)
    return ModelState(arch, params)


def images_to_batch(images) -> np.ndarray:
    """Stack HWC images, float in [0, 1] or 8-bit as read, into an NCHW
    float32 batch."""
    arr = np.stack([float_pixels(np.asarray(im)) for im in images])
    return np.ascontiguousarray(arr.transpose(0, 3, 1, 2), dtype=np.float32)


def generate_anchors(arch: ArchDescriptor) -> np.ndarray:
    """Anchor grid in (y, x, anchor) order matching the RPN map layout.

    Aspects are height/width ratios; anchors are centered on feature cells.
    """
    f, s = arch.feature_size, arch.feature_stride
    base = []
    for scale in arch.anchor_scales:
        for aspect in arch.anchor_aspects:
            h = scale * np.sqrt(aspect)
            w = scale / np.sqrt(aspect)
            base.append((-w / 2, -h / 2, w / 2, h / 2))
    base = np.asarray(base, np.float32)
    cy, cx = (np.mgrid[0:f, 0:f].astype(np.float32) + 0.5) * s
    centers = np.stack([cx, cy, cx, cy], axis=-1)  # (f, f, 4)
    anchors = centers[:, :, None, :] + base[None, None, :, :]
    return anchors.reshape(-1, 4)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def _backbone_forward(model: ModelState, x: np.ndarray, mode: str):
    """Run the conv/BN/pool/ReLU blocks; never writes to model.params.

    mode 'train' (forward_train) normalizes each layer by its batch
    statistics and keeps the per-block caches the backward pass needs.
    'collect' (the AdaBN sweep, collect_target_statistics) uses batch
    statistics but keeps no cache, so the cheaper maxpool2_forward runs.
    'eval' uses the stored running estimates.
    Returns (features, per-block caches, per-layer batch statistics):
    caches only in train mode, no statistics in eval mode.

    A pooling block pools the BN output and applies the ReLU to the
    quarter-size pooled map. That is exact: max pooling commutes with the
    monotone ReLU and both propagate NaN, so the block output has the bytes
    of relu-then-pool (see relu_forward). The pooling indices name the first
    maximum of the BN output; they differ from relu-then-pool's only in
    windows whose maximum is <= 0, where the ReLU makes the gradient zero
    either way.

    BN and ReLU run in place: bn_apply turns each conv output into its xhat
    and returns the BN output, the block's only other full-size array, and
    relu_forward overwrites the block output (the BN output itself where
    the block does not pool). Every mode gives the bytes of the
    out-of-place expressions. A block's activations are unbound at its
    end, so in eval and collect mode only the block output h is alive
    while the next block's conv runs (train-mode caches hold their own
    references).

    A train-mode block cache holds the conv input, the BN cache and the
    pooling indices (None where the block does not pool). It keeps no ReLU
    mask: the backward takes it from the block output, which is the next
    block's conv input or the features. No im2col patch matrix:
    conv2d_backward unfolds the conv input again for dw.
    """
    if mode not in ("train", "collect", "eval"):
        raise ValueError(f"unknown backbone mode {mode!r}")
    keep = mode == "train"
    p = model.params
    arch = model.arch
    caches = []
    stats = []
    h = x
    for i in range(len(arch.channels)):
        pre = f"backbone.b{i}"
        conv_in = h
        w, b = p[f"{pre}.conv.w"], p[f"{pre}.conv.b"]
        conv_out = conv2d_forward(h, w, b)
        if mode == "eval":
            mean, var = p[f"{pre}.bn.running_mean"], p[f"{pre}.bn.running_var"]
        else:
            mean, var = batch_stats(conv_out)
            stats.append((mean, var))
        gamma = p[f"{pre}.bn.gamma"]
        bn_out, xhat, inv_std = bn_apply(conv_out, mean, var, gamma, p[f"{pre}.bn.beta"])
        pool_idx = None
        if i >= arch.n_pools:
            h = bn_out
        elif keep:
            h, pool_idx = maxpool2_with_indices(bn_out)
        else:
            h = maxpool2_forward(bn_out)
        h = relu_forward(h)
        if keep:
            caches.append({"conv_in": conv_in, "bn_cache": (xhat, inv_std, gamma),
                           "pool_idx": pool_idx})
        del conv_out, xhat, bn_out  # not alive beside the next conv
    return h, caches, stats


def _hand_over(update, dtype, names, dx, *grads):
    """Pass each gradient, as dtype, to update(name, gradient) under its
    name in names and return dx, so no gradient outlives its update."""
    for name, g in zip(names, grads):
        update(name, np.asarray(g, dtype))
    return dx


def _backbone_backward(model: ModelState, caches, dfeats, feats, update, dtype):
    """Hand the backbone's parameter gradients to update (see _hand_over).
    The gradient with respect to the image is never needed, so block 0
    skips it. Each block's cache is popped off caches as it is processed,
    so it is freed as soon as its gradients exist; caches is empty on
    return.

    The ReLU backward of a block reads its output h: feats for the last
    block, and for every other block the conv input of the block after it.
    dfeats is consumed. At every block d is an array this function owns
    (dfeats or the dx of the block after it), so the mask h > 0 is applied
    to it in place before maxpool2_scatter routes it to the pooling input,
    and bn_backward returns dx in d's buffer."""
    p = model.params
    d, h = dfeats, feats
    for i in reversed(range(len(model.arch.channels))):
        pre = f"backbone.b{i}"
        c = caches.pop()
        np.multiply(d, h > 0, out=d)
        if c["pool_idx"] is not None:
            d = maxpool2_scatter(d, c["pool_idx"], c["bn_cache"][0].shape)
        d = _hand_over(update, dtype, (f"{pre}.bn.gamma", f"{pre}.bn.beta"),
                       *bn_backward(d, c["bn_cache"]))
        h = c["conv_in"]
        d = _hand_over(update, dtype, (f"{pre}.conv.w", f"{pre}.conv.b"),
                       *conv2d_backward(d, h, p[f"{pre}.conv.w"], need_dx=i > 0))


def _rpn_forward(model: ModelState, feats: np.ndarray):
    p = model.params
    hidden = relu_forward(conv2d_forward_cols(feats, p["rpn.conv.w"], p["rpn.conv.b"]))
    obj_map = conv2d_forward(hidden, p["rpn.obj.w"], p["rpn.obj.b"])
    delta_map = conv2d_forward(hidden, p["rpn.delta.w"], p["rpn.delta.b"])
    return obj_map, delta_map, hidden


def _flatten_rpn(arch: ArchDescriptor, amap: np.ndarray, per_anchor: int):
    """(N, A*per, F, F) -> (N, F*F*A, per) matching the anchor grid order."""
    n, _, f, _ = amap.shape
    a = arch.num_anchors
    return (amap.reshape(n, a, per_anchor, f, f)
            .transpose(0, 3, 4, 1, 2)
            .reshape(n, f * f * a, per_anchor))


def _unflatten_rpn(arch: ArchDescriptor, flat: np.ndarray, per_anchor: int):
    n = flat.shape[0]
    f = arch.feature_size
    a = arch.num_anchors
    return np.ascontiguousarray(
        flat.reshape(n, f, f, a, per_anchor)
        .transpose(0, 3, 4, 1, 2)
        .reshape(n, a * per_anchor, f, f))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (rows, classes) logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _decode(arch: ArchDescriptor, deltas: np.ndarray, anchors: np.ndarray):
    """Boxes decoded from deltas on anchors and clipped to the input, and
    the mask of those that are not degenerate."""
    boxes = B.clip_boxes(B.decode_deltas(deltas, anchors), arch.input_size, arch.input_size)
    return boxes, (boxes[:, 2] - boxes[:, 0] > 1e-3) & (boxes[:, 3] - boxes[:, 1] > 1e-3)


def _propose(arch: ArchDescriptor, anchors: np.ndarray, obj_flat_img: np.ndarray,
             delta_flat_img: np.ndarray) -> np.ndarray:
    """Decode, clip, score-sort and NMS-prune one image's RPN output to boxes."""
    # foreground probability from per-anchor (background, foreground) logits
    scores = _softmax(obj_flat_img.astype(np.float64))[:, 1]
    boxes, ok = _decode(arch, delta_flat_img, anchors)
    idx = np.where(ok)[0]
    order = idx[np.lexsort((idx, -scores[idx]))][: arch.pre_nms_topk]
    dets = B.Detections(boxes[order], np.zeros(len(order), np.int64),
                        scores[order].astype(np.float32))
    kept = B.nms(dets, arch.proposal_nms_iou)
    return kept.boxes[: arch.post_nms_topk]


# ---------------------------------------------------------------------------
# ROI pooling
# ---------------------------------------------------------------------------

def _roi_cell_edges(lo: np.ndarray, hi: np.ndarray, out: int, size: int):
    """Integer source-cell ranges per output cell, vectorized over boxes."""
    lo = np.atleast_1d(np.asarray(lo, np.float64))
    hi = np.atleast_1d(np.asarray(hi, np.float64))
    edges = lo[:, None] + (hi - lo)[:, None] * (np.arange(out + 1) / out)
    c0 = np.clip(np.floor(edges[:, :-1]).astype(np.int64), 0, size - 1)
    c1 = np.clip(np.ceil(edges[:, 1:]).astype(np.int64), 1, size)
    c1 = np.maximum(c1, c0 + 1)
    return c0, c1


def _roi_pool_batch(feats_img: np.ndarray, boxes_feat: np.ndarray, out: int,
                    need_indices: bool):
    """Max-pool all proposals of one image at once.

    feats_img: (C, F, F); boxes_feat: (P, 4) in feature coordinates.
    Each bin's cells are numbered 0..K-1 in row-major order, where
    K = ky*kx spans the largest bin; smaller bins repeat their last cell,
    which cannot change the max or its first occurrence. Whole channel
    vectors are gathered from a channels-last (F*F, C) copy of the map one
    cell offset at a time, a (P, out, out, C) slice each, and folded into
    the running maximum, so no (K, P, out, out, C) window is built.

    Returns pooled (P, C, out, out) and, when need_indices, the flat
    feature-cell index row*F + col of each pooled maximum in the smallest
    integer type that holds F*F - 1 (uint8 up to a 16 x 16 map), shaped
    (P, out, out, C), for the backward scatter; otherwise None. Ties go to
    the first maximum in row-major bin order. A bin holding a NaN pools to
    NaN and its index names the first NaN.
    """
    c, fh, fw = feats_img.shape
    y0, y1 = _roi_cell_edges(boxes_feat[:, 1], boxes_feat[:, 3], out, fh)
    x0, x1 = _roi_cell_edges(boxes_feat[:, 0], boxes_feat[:, 2], out, fw)
    ky = int((y1 - y0).max())
    kx = int((x1 - x0).max())
    yidx = np.minimum(y0[:, :, None] + np.arange(ky), y1[:, :, None] - 1)  # (P,out,ky)
    xidx = np.minimum(x0[:, :, None] + np.arange(kx), x1[:, :, None] - 1)  # (P,out,kx)
    cells = (yidx.transpose(2, 0, 1)[:, None, :, :, None] * fw
             + xidx.transpose(2, 0, 1)[None, :, :, None, :])  # (ky,kx,P,out,out)
    cells = cells.reshape(ky * kx, len(boxes_feat), out, out)
    table = np.ascontiguousarray(feats_img.reshape(c, fh * fw).T)
    best = table[cells[0]]
    if not need_indices:
        for k in range(1, len(cells)):
            np.maximum(best, table[cells[k]], out=best)
        return best.transpose(0, 3, 1, 2), None
    cells = cells.astype(np.min_scalar_type(fh * fw - 1))
    arg = np.repeat(cells[0][..., None], c, axis=3)
    has_nan = np.isnan(table).any()
    for k in range(1, len(cells)):
        cand = table[cells[k]]
        # strict > keeps the first maximum; NaN must be forced in explicitly
        hit = cand > best
        if has_nan:
            hit |= np.isnan(cand) & ~np.isnan(best)
        put_where(best, cand, hit)
        put_where(arg, cells[k][..., None], hit)
    return best.transpose(0, 3, 1, 2), arg


def _roi_scatter_batch(dpooled: np.ndarray, cells: np.ndarray,
                       c: int, fh: int, fw: int) -> np.ndarray:
    """Accumulate pooled-cell gradients back onto one image's feature map.

    cells are the (P, out, out, C) maximum indices from _roi_pool_batch, in
    its smallest integer type; the flat (channel, cell) index built from
    them is int64.
    """
    vals = dpooled.transpose(0, 2, 3, 1)
    lin = np.arange(c) * (fh * fw) + cells
    acc = np.bincount(lin.ravel(), weights=vals.ravel().astype(np.float64),
                      minlength=c * fh * fw)
    return acc.reshape(c, fh, fw).astype(dpooled.dtype)


# ---------------------------------------------------------------------------
# training plan
# ---------------------------------------------------------------------------

@dataclass
class TrainPlan:
    """Frozen sampling decisions of one training step: which anchors and
    proposals participate in each loss term, and their targets."""

    rpn_idx: list = field(default_factory=list)
    rpn_cls: list = field(default_factory=list)
    rpn_reg_targets: list = field(default_factory=list)
    proposals: list = field(default_factory=list)
    roi_labels: list = field(default_factory=list)
    roi_reg_targets: list = field(default_factory=list)


def _sample(rng, pool: np.ndarray, count: int) -> np.ndarray:
    if len(pool) <= count:
        return pool
    return pool[np.sort(rng.choice(len(pool), size=count, replace=False))]


def _plan_from_outputs(arch: ArchDescriptor, anchors, obj_flat, delta_flat,
                       targets, rng) -> TrainPlan:
    plan = TrainPlan()
    for i in range(obj_flat.shape[0]):
        gt_boxes = np.asarray(targets[i][0], np.float32).reshape(-1, 4)
        gt_labels = np.asarray(targets[i][1], np.int64).reshape(-1)

        assign = B.match_anchors(anchors, gt_boxes, arch.rpn_pos_thr, arch.rpn_neg_thr)
        pos_pool = np.where(assign >= 0)[0]
        neg_pool = np.where(assign == B.ASSIGN_NEGATIVE)[0]
        n_pos = min(len(pos_pool), int(arch.rpn_sample * arch.rpn_pos_fraction))
        pos = _sample(rng, pos_pool, n_pos)
        neg = _sample(rng, neg_pool, arch.rpn_sample - len(pos))
        plan.rpn_idx.append(np.concatenate([pos, neg]))
        plan.rpn_cls.append(np.concatenate([np.ones(len(pos), np.int64),
                                            np.zeros(len(neg), np.int64)]))
        plan.rpn_reg_targets.append(
            B.encode_deltas(gt_boxes[assign[pos]], anchors[pos])
            if len(pos) else np.zeros((0, 4), np.float32))

        prop = _propose(arch, anchors, obj_flat[i], delta_flat[i])
        if len(gt_boxes):
            prop = np.concatenate([prop, gt_boxes])
        if len(prop) == 0:
            prop = anchors[:1].copy()
        if len(gt_boxes):
            ious = B.iou_matrix(prop, gt_boxes)
            best_gt = ious.argmax(axis=1)
            best_iou = ious[np.arange(len(prop)), best_gt]
            labels = np.where(best_iou >= arch.roi_pos_thr,
                              gt_labels[best_gt] + 1, 0).astype(np.int64)
        else:
            best_gt = np.zeros(len(prop), np.int64)
            labels = np.zeros(len(prop), np.int64)
        pos_pool = np.where(labels > 0)[0]
        neg_pool = np.where(labels == 0)[0]
        n_pos = min(len(pos_pool), int(arch.roi_sample * arch.roi_pos_fraction))
        pos = _sample(rng, pos_pool, n_pos)
        n_neg = arch.roi_sample - len(pos)
        if len(neg_pool) >= n_neg:
            neg = _sample(rng, neg_pool, n_neg)
        elif len(neg_pool) > 0:
            neg = neg_pool[rng.integers(0, len(neg_pool), size=n_neg)]
        else:
            neg = pos_pool[rng.integers(0, len(pos_pool), size=n_neg)]
        sel = np.concatenate([pos, neg])
        plan.proposals.append(prop[sel])
        sel_labels = labels[sel]
        plan.roi_labels.append(sel_labels)
        reg_t = np.zeros((len(sel), 4), np.float32)
        fg = np.where(sel_labels > 0)[0]
        if len(fg):
            reg_t[fg] = B.encode_deltas(gt_boxes[best_gt[sel[fg]]], prop[sel[fg]])
        plan.roi_reg_targets.append(reg_t)
    return plan


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def _roi_head_forward(model: ModelState, feats: np.ndarray, proposals,
                      need_indices: bool = True):
    arch = model.arch
    p = model.params
    out = arch.roi_pool_size
    boxes = [np.asarray(props, np.float64).reshape(-1, 4) / arch.feature_stride
             for props in proposals]
    # one array for the chunk, into which each image pools its rows
    pooled = np.empty((sum(map(len, boxes)), feats.shape[1], out, out), feats.dtype)
    scatter = []
    row = 0
    for i, b in enumerate(boxes):
        if len(b) == 0:
            scatter.append(None)
            continue
        part, cells = _roi_pool_batch(feats[i], b, out, need_indices)
        pooled[row:row + len(b)] = part
        scatter.append((cells, len(b)))
        row += len(b)
    # an explicit width, as a chunk in which no image has a proposal pools no row
    flat = pooled.reshape(len(pooled), p["roi.fc1.w"].shape[0])
    h1 = relu_forward(linear_forward(flat, p["roi.fc1.w"], p["roi.fc1.b"]))
    h2 = relu_forward(linear_forward(h1, p["roi.fc2.w"], p["roi.fc2.b"]))
    cls_logits = linear_forward(h2, p["roi.cls.w"], p["roi.cls.b"])
    deltas = linear_forward(h2, p["roi.delta.w"], p["roi.delta.b"])
    cache = {"flat": flat, "h1": h1, "h2": h2, "scatter": scatter}
    return cls_logits, deltas, cache


def _compute_losses(obj_flat, delta_flat, cls_logits, roi_deltas, plan,
                    include_reg: bool):
    """LossBreakdown plus upstream gradients for each head output. One
    (image, row) index gathers the sampled anchors and scatters their
    gradients; its rows of RPN class 1 are the regression positives."""
    img = np.repeat(np.arange(len(plan.rpn_idx)), [len(ix) for ix in plan.rpn_idx])
    row = np.concatenate(plan.rpn_idx)
    rpn_targets = np.concatenate(plan.rpn_cls)
    rpn_cls, dsel = softmax_cross_entropy(obj_flat[img, row], rpn_targets)
    dobj = np.zeros_like(obj_flat)
    dobj[img, row] = dsel

    ddelta = np.zeros_like(delta_flat)
    pos = rpn_targets == 1
    if include_reg and pos.any():
        img, row = img[pos], row[pos]
        diffs = delta_flat[img, row] - np.concatenate(plan.rpn_reg_targets)
        rpn_reg, ddiffs = smooth_l1(diffs)
        ddelta[img, row] = ddiffs
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

    loss = LossBreakdown(float(rpn_cls), float(rpn_reg), float(roi_cls), float(roi_reg))
    return loss, dobj, ddelta, dcls, droi_delta


def _forward_all(model: ModelState, images: np.ndarray, mode: str):
    """Backbone (in _backbone_forward's mode) and RPN forward. In train mode
    the result holds everything the plan, the losses and the backward pass
    need; inference reads only the features and the flattened RPN maps."""
    arch = model.arch
    feats, bb_caches, stats = _backbone_forward(model, images, mode)
    obj_map, delta_map, hidden = _rpn_forward(model, feats)
    return {
        "feats": feats, "bb_caches": bb_caches, "stats": stats, "hidden": hidden,
        "obj_flat": _flatten_rpn(arch, obj_map, 2),
        "delta_flat": _flatten_rpn(arch, delta_map, 4),
    }


def _finish(model: ModelState, images: np.ndarray, fw: dict, plan: TrainPlan,
            include_reg: bool, update):
    """ROI head forward, losses and the full backward pass; returns the
    LossBreakdown.

    Raises NumericsError on a non-finite loss before any gradient exists,
    so update is never called. Otherwise update(name, gradient) is called
    once per trained parameter, with a gradient in images' dtype that the
    callee may consume, as soon as the backward makes it (see _hand_over).
    Updating a parameter in place there is safe: each weight is read only
    by its own layer's backward (linear_backward, conv2d_backward, and BN's
    gamma through bn_cache in bn_backward), which has run before its
    gradient exists. So no gradient outlives its update.

    A ReLU backward reads the post-activation h (h > 0 where its input is,
    NaN included). The backward pass consumes fw: each forward cache (the
    RPN activation, every backbone block's cache) is dropped once its
    gradient exists, so the caches of layers already processed are not
    alive beside the backward buffers of the layers still to come.
    """
    arch = model.arch
    feats = fw["feats"]
    cls_logits, roi_deltas, roi_cache = _roi_head_forward(model, feats, plan.proposals)
    loss, dobj, ddelta, dcls, droi_delta = _compute_losses(
        fw["obj_flat"], fw["delta_flat"], cls_logits, roi_deltas, plan, include_reg)
    if not np.isfinite(loss.total):
        raise NumericsError(f"non-finite training loss: {loss}")

    p = model.params
    dt = images.dtype
    # ROI head backward
    dh2 = _hand_over(update, dt, ("roi.cls.w", "roi.cls.b"),
                     *linear_backward(dcls, roi_cache["h2"], p["roi.cls.w"]))
    dh2 += _hand_over(update, dt, ("roi.delta.w", "roi.delta.b"),
                      *linear_backward(droi_delta, roi_cache["h2"], p["roi.delta.w"]))
    dh2 = relu_backward(dh2, roi_cache["h2"])
    dh1 = _hand_over(update, dt, ("roi.fc2.w", "roi.fc2.b"),
                     *linear_backward(dh2, roi_cache["h1"], p["roi.fc2.w"]))
    dh1 = relu_backward(dh1, roi_cache["h1"])
    dflat = _hand_over(update, dt, ("roi.fc1.w", "roi.fc1.b"),
                       *linear_backward(dh1, roi_cache["flat"], p["roi.fc1.w"]))
    scatter = roi_cache["scatter"]
    del roi_cache

    dfeats = np.zeros_like(feats)
    dpooled = dflat.reshape(-1, arch.channels[-1], arch.roi_pool_size,
                            arch.roi_pool_size)
    c, fh, fw_ = feats.shape[1:]
    row = 0
    # the plan gives every image arch.roi_sample proposals, so no entry is None
    for i, (cells, count) in enumerate(scatter):
        dfeats[i] += _roi_scatter_batch(dpooled[row:row + count], cells, c, fh, fw_)
        row += count
    del scatter, dflat, dpooled

    # RPN backward
    dobj_map = _unflatten_rpn(arch, dobj, 2)
    ddelta_map = _unflatten_rpn(arch, ddelta, 4)
    hidden = fw.pop("hidden")
    dh = _hand_over(update, dt, ("rpn.obj.w", "rpn.obj.b"),
                    *conv2d_backward(dobj_map, hidden, p["rpn.obj.w"]))
    dh += _hand_over(update, dt, ("rpn.delta.w", "rpn.delta.b"),
                     *conv2d_backward(ddelta_map, hidden, p["rpn.delta.w"]))
    dh = relu_backward(dh, hidden)
    del hidden
    dfeats += _hand_over(update, dt, ("rpn.conv.w", "rpn.conv.b"),
                         *conv2d_backward(dh, feats, p["rpn.conv.w"]))

    _backbone_backward(model, fw["bb_caches"], dfeats, feats, update, dt)
    return loss


def forward_train(model: ModelState, images: np.ndarray, targets,
                  rng: np.random.Generator, include_reg: bool, update):
    """One supervised forward/backward pass on batch statistics.

    Samples anchors/proposals with rng, calls update(name, gradient) once
    per trained parameter as soon as the backward makes that gradient (see
    _finish; train_step's update is an in-place sgd_step, and a dict's
    __setitem__ collects the gradients instead) and returns the
    LossBreakdown. Raises NumericsError on a non-finite loss before the
    first update, leaving the model untouched; otherwise folds the batch
    statistics into the BN running estimates (update_running_statistics)
    last.
    """
    fw = _forward_all(model, images, "train")
    plan = _plan_from_outputs(model.arch, generate_anchors(model.arch),
                              fw["obj_flat"], fw["delta_flat"], targets, rng)
    loss = _finish(model, images, fw, plan, include_reg, update)
    update_running_statistics(model, fw["stats"])
    return loss


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# detection post-processing: class-score floor, per-class NMS IoU, kept boxes
SCORE_FLOOR = 0.05
NMS_IOU = 0.5
MAX_DETS = 50


# Images per inference chunk. Eval mode treats every image on its own, so the
# chunk size changes no detection; it only bounds the activations alive at
# once (about 1 MB per 96-px image after the first conv). The convs unfold
# and the ROI pool gathers one image at a time, so the transients do not
# grow with the chunk.
INFER_CHUNK = 4


def forward_inference_batch(model: ModelState, images):
    """Detect objects in a list of HWC images; one Detections per image.

    BN normalizes with the stored running statistics, so per-image results
    are identical to single-image calls: every stage is either elementwise
    or an independent per-image/per-row matrix product. The images go
    through the detector INFER_CHUNK at a time, and a chunk's activations
    are released before the next chunk starts. Each image's boxes are
    decoded and filtered for all classes in one pass: boxes scoring below
    SCORE_FLOOR are dropped, NMS at NMS_IOU runs per class, and at most
    MAX_DETS detections are kept.
    """
    arch = model.arch
    k = arch.num_classes
    anchors = generate_anchors(arch)
    results = []
    for start in range(0, len(images), INFER_CHUNK):
        chunk = images[start:start + INFER_CHUNK]
        fw = _forward_all(model, images_to_batch(chunk), "eval")
        proposals = [_propose(arch, anchors, fw["obj_flat"][i], fw["delta_flat"][i])
                     for i in range(len(chunk))]
        # neither the ROI cache (the fc1 input) nor fw is alive beside the
        # next chunk's forward
        cls_logits, roi_deltas = _roi_head_forward(model, fw["feats"], proposals,
                                                   need_indices=False)[:2]
        del fw
        probs = _softmax(cls_logits)

        row = 0
        for props in proposals:
            n = len(props)
            # rows c*n .. c*n + n-1 hold class c for every proposal
            scores = probs[row:row + n, 1:].T.ravel()
            deltas = roi_deltas[row:row + n].reshape(n, k, 4).transpose(1, 0, 2)
            row += n
            boxes, ok = _decode(arch, deltas.reshape(k * n, 4), np.tile(props, (k, 1)))
            ok &= scores >= SCORE_FLOOR
            dets = B.Detections(boxes[ok], np.repeat(np.arange(k, dtype=np.int64), n)[ok],
                                scores[ok].astype(np.float32))
            results.append(B.nms(dets, NMS_IOU)[:MAX_DETS])
    return results
