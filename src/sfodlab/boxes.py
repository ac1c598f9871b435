"""Axis-aligned box geometry, anchors, NMS, matching and AP50 evaluation.

Boxes are float arrays of shape (N, 4) holding (x1, y1, x2, y2) in
continuous pixel coordinates with x1 < x2 and y1 < y2. Detections bundle
boxes with integer class ids and confidence scores. All tie-breaks are
deterministic so full runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ASSIGN_NEGATIVE = -1
ASSIGN_IGNORE = -2

# log-size deltas are clamped here before exponentiation at decode time
MAX_DELTA_LOG = 4.0


@dataclass
class Detections:
    """A set of scored, classified boxes for one image."""

    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), np.float32))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float32))

    def __len__(self):
        return len(self.boxes)

    def __getitem__(self, idx) -> "Detections":
        return Detections(self.boxes[idx], self.labels[idx], self.scores[idx])


@dataclass
class EvalResult:
    """AP at IoU 0.5 per class present in ground truth, and their mean."""

    per_class_ap: dict
    map: float

    def ap(self, class_id: int, default=float("nan")) -> float:
        return self.per_class_ap.get(class_id, default)


def box_area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    out = boxes.copy()
    out[:, 0::2] = np.clip(out[:, 0::2], 0, width)
    out[:, 1::2] = np.clip(out[:, 1::2], 0, height)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) box arrays, shape (N, M)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    return inter / np.maximum(union, 1e-12)


def _det_order(dets: Detections) -> np.ndarray:
    """Score-descending order with (class_id, box coords) tie-breaks."""
    b = dets.boxes
    return np.lexsort((b[:, 3], b[:, 2], b[:, 1], b[:, 0], dets.labels, -dets.scores))


def nms(dets: Detections, iou_threshold: float) -> Detections:
    """Greedy per-class suppression; keeps a box unless it overlaps an
    already-kept same-class box with IoU strictly above the threshold.
    Output is sorted by descending score."""
    if len(dets) == 0:
        return dets
    order = _det_order(dets)
    boxes, labels = dets.boxes[order], dets.labels[order]
    overlap = iou_matrix(boxes, boxes)
    same = labels[:, None] == labels[None, :]
    suppressed = np.zeros(len(order), bool)
    keep = []
    for i in range(len(order)):
        if suppressed[i]:
            continue
        keep.append(i)
        suppressed |= same[i] & (overlap[i] > iou_threshold)
    keep = np.array(keep, dtype=np.int64)
    return Detections(boxes[keep], labels[keep], dets.scores[order][keep])


def encode_deltas(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Box -> (dx, dy, dlog_w, dlog_h) relative to anchors of positive size."""
    boxes = np.asarray(boxes, np.float64)
    anchors = np.asarray(anchors, np.float64)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("encode_deltas: anchor with non-positive size")
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    bw = boxes[:, 2] - boxes[:, 0]
    bh = boxes[:, 3] - boxes[:, 1]
    bcx = boxes[:, 0] + 0.5 * bw
    bcy = boxes[:, 1] + 0.5 * bh
    return np.stack(
        [(bcx - acx) / aw, (bcy - acy) / ah, np.log(bw / aw), np.log(bh / ah)], axis=1
    ).astype(np.float32)


def decode_deltas(deltas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Inverse of encode_deltas; log-size deltas clamped to +-MAX_DELTA_LOG."""
    deltas = np.asarray(deltas, np.float64)
    anchors = np.asarray(anchors, np.float64)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    cx = deltas[:, 0] * aw + acx
    cy = deltas[:, 1] * ah + acy
    w = aw * np.exp(np.clip(deltas[:, 2], -MAX_DELTA_LOG, MAX_DELTA_LOG))
    h = ah * np.exp(np.clip(deltas[:, 3], -MAX_DELTA_LOG, MAX_DELTA_LOG))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h],
                    axis=1).astype(np.float32)


def match_anchors(anchors: np.ndarray, gt_boxes: np.ndarray,
                  pos_thr: float, neg_thr: float) -> np.ndarray:
    """Assign each anchor a label: gt index (positive), -1 (negative) or
    -2 (ignore).

    An anchor is positive when its best IoU reaches pos_thr (assigned to
    its argmax gt, ties to the lowest gt index) or when it achieves some
    gt's maximum IoU (assigned to that gt, later gts overriding earlier
    ones); negative when its best IoU is at most neg_thr; otherwise ignored.
    """
    if pos_thr <= neg_thr:
        raise ValueError("match_anchors: pos_thr must exceed neg_thr")
    n = len(anchors)
    if len(gt_boxes) == 0:
        return np.full(n, ASSIGN_NEGATIVE, dtype=np.int64)
    ious = iou_matrix(anchors, gt_boxes)
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(n), best_gt]
    assign = np.full(n, ASSIGN_IGNORE, dtype=np.int64)
    assign[best_iou <= neg_thr] = ASSIGN_NEGATIVE
    pos = best_iou >= pos_thr
    assign[pos] = best_gt[pos]
    # force-match every gt's best anchors so no gt goes unclaimed
    for g in range(len(gt_boxes)):
        m = ious[:, g].max()
        if m > 0:
            assign[ious[:, g] == m] = g
    return assign


def _ap_from_matches(tp: np.ndarray, num_gt: int) -> float:
    """All-point interpolated AP from a score-sorted TP/FP indicator."""
    if num_gt == 0:
        return 0.0
    if len(tp) == 0:
        return 0.0
    acc_tp = np.cumsum(tp)
    acc_fp = np.cumsum(1 - tp)
    recall = acc_tp / num_gt
    precision = acc_tp / (acc_tp + acc_fp)
    # precision envelope: max precision achievable at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, env):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def evaluate_ap50(dets_per_image, gts_per_image, iou_threshold: float = 0.5) -> EvalResult:
    """AP at the given IoU threshold per class, and mAP over classes with
    ground truth.

    dets_per_image: list of Detections; gts_per_image: list of
    (boxes, labels) pairs aligned by position.

    Matching follows PASCAL VOC (Everingham et al., 2010): per class, all
    images' detections in one global order of descending score each claim
    the unmatched same-image ground truth of highest IoU (the first on ties)
    if it reaches the threshold. Equal scores rank by image, then box x1,
    y1, x2, y2, then position; one iou_matrix per (image, class).
    """
    if len(dets_per_image) != len(gts_per_image):
        raise ValueError("evaluate_ap50: image count mismatch")
    classes = sorted(
        {int(c) for _, labels in gts_per_image for c in np.asarray(labels).ravel()}
    )
    per_class = {}
    for c in classes:
        gt_c = [np.asarray(boxes)[np.asarray(labels) == c]
                for boxes, labels in gts_per_image]
        dets_c = [dets[dets.labels == c] for dets in dets_per_image]
        ious = [iou_matrix(d.boxes, g) if len(d) and len(g) else None
                for d, g in zip(dets_c, gt_c)]
        img = np.concatenate([np.full(len(d), i) for i, d in enumerate(dets_c)])
        pos = np.concatenate([np.arange(len(d)) for d in dets_c])
        score = np.concatenate([d.scores for d in dets_c]).astype(np.float64)
        box = np.concatenate([d.boxes for d in dets_c]).astype(np.float64)
        order = np.lexsort((box[:, 3], box[:, 2], box[:, 1], box[:, 0], img, -score))
        matched = [np.zeros(len(g), bool) for g in gt_c]
        tp = np.zeros(len(order))
        for rank, k in enumerate(order):
            i = img[k]
            if ious[i] is None:
                continue
            row = ious[i][pos[k]].copy()
            row[matched[i]] = -1.0
            j = int(row.argmax())
            if row[j] >= iou_threshold:
                matched[i][j] = True
                tp[rank] = 1
        per_class[c] = _ap_from_matches(tp, sum(len(g) for g in gt_c))
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalResult(per_class_ap=per_class, map=mean)
