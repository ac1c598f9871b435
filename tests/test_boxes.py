"""Box geometry and metric contracts against brute-force references."""

import numpy as np

from sfodlab import boxes as B


def iou_scalar(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter) if inter > 0 else 0.0


def iou(a, b):
    """iou_matrix of two single boxes."""
    return float(B.iou_matrix(np.asarray(a, np.float64).reshape(1, 4),
                              np.asarray(b, np.float64).reshape(1, 4))[0, 0])


def random_boxes(r, n, size=100.0):
    x1 = r.uniform(0, size * 0.8, n)
    y1 = r.uniform(0, size * 0.8, n)
    w = r.uniform(2, size * 0.5, n)
    h = r.uniform(2, size * 0.5, n)
    return np.stack([x1, y1, np.minimum(x1 + w, size), np.minimum(y1 + h, size)], 1)


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------

def test_iou_examples():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0
    assert abs(iou((0, 0, 2, 2), (1, 0, 3, 2)) - 1 / 3) < 1e-12


def test_iou_properties(rng):
    a = random_boxes(rng, 40)
    b = random_boxes(rng, 40)
    m = B.iou_matrix(a, b)
    assert np.allclose(m, B.iou_matrix(b, a).T)
    assert (m >= 0).all() and (m <= 1 + 1e-12).all()
    # translating a box away along x never increases IoU with a fixed box
    base = np.array([10.0, 10, 30, 30])
    other = np.array([12.0, 11, 28, 33])
    prev = iou(base, other)
    for shift in (2, 4, 8, 16, 32):
        cur = iou(base + np.array([shift, 0, shift, 0]), other)
        assert cur <= prev + 1e-12
        prev = cur


def test_iou_matches_scalar_reference(rng):
    a = random_boxes(rng, 25)
    b = random_boxes(rng, 30)
    m = B.iou_matrix(a, b)
    for i in range(25):
        for j in range(30):
            assert abs(m[i, j] - iou_scalar(a[i], b[j])) < 1e-12


# ---------------------------------------------------------------------------
# NMS
# ---------------------------------------------------------------------------

def nms_reference(dets: B.Detections, thr: float) -> B.Detections:
    """Independent greedy suppression with explicit candidate ordering."""
    items = sorted(
        range(len(dets)),
        key=lambda i: (-dets.scores[i], dets.labels[i], *dets.boxes[i].tolist()),
    )
    kept = []
    for i in items:
        if all(dets.labels[j] != dets.labels[i]
               or iou_scalar(dets.boxes[j], dets.boxes[i]) <= thr for j in kept):
            kept.append(i)
    idx = np.array(kept, np.int64)
    return B.Detections(dets.boxes[idx], dets.labels[idx], dets.scores[idx])


def test_nms_trivial():
    one = B.Detections(np.array([[0, 0, 10, 10.]], np.float32),
                       np.array([1]), np.array([0.7], np.float32))
    out = B.nms(one, 0.5)
    assert len(out) == 1 and np.array_equal(out.boxes, one.boxes)

    two = B.Detections(np.array([[0, 0, 10, 10.], [0, 0, 10, 10.]], np.float32),
                       np.array([0, 0]), np.array([0.9, 0.8], np.float32))
    out = B.nms(two, 0.5)
    assert len(out) == 1 and out.scores[0] == np.float32(0.9)


def test_nms_matches_reference_100_instances():
    for seed in range(100):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 13))
        dets = B.Detections(
            random_boxes(r, n, 40.0).astype(np.float32),
            r.integers(0, 3, n),
            np.round(r.random(n), 3).astype(np.float32),  # provoke score ties
        )
        thr = float(r.uniform(0.2, 0.7))
        got = B.nms(dets, thr)
        want = nms_reference(dets, thr)
        assert np.array_equal(got.boxes, want.boxes), seed
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)
        # kept set is a subset with no same-class pair above the threshold
        m = B.iou_matrix(got.boxes, got.boxes)
        same = got.labels[:, None] == got.labels[None, :]
        off = ~np.eye(len(got), dtype=bool)
        assert not (same & off & (m > thr)).any()
        assert (np.diff(got.scores) <= 1e-9).all()


# ---------------------------------------------------------------------------
# delta encoding
# ---------------------------------------------------------------------------

def test_deltas_trivial():
    a = np.array([[8.0, 8, 12, 12]])
    assert np.allclose(B.encode_deltas(a, a), 0)
    assert np.allclose(B.decode_deltas(np.zeros((1, 4)), a), a, atol=1e-5)


def test_deltas_worked_example():
    anchor = np.array([[8.0, 8, 12, 12]])          # center (10,10), 4x4
    box = np.array([[8.0, 8, 16, 12]])             # center (12,10), 8x4
    t = B.encode_deltas(box, anchor)[0]
    assert np.allclose(t, [0.5, 0.0, np.log(2), 0.0], atol=1e-6)


def test_deltas_round_trip_1000(rng):
    boxes = random_boxes(rng, 1000)
    anchors = random_boxes(rng, 1000)
    back = B.decode_deltas(B.encode_deltas(boxes, anchors), anchors)
    assert np.abs(back - boxes).max() < 1e-4


# ---------------------------------------------------------------------------
# anchor matching
# ---------------------------------------------------------------------------

def match_reference(anchors, gts, pos_thr, neg_thr):
    n, m = len(anchors), len(gts)
    if m == 0:
        return np.full(n, B.ASSIGN_NEGATIVE, np.int64)
    ious = np.array([[iou_scalar(a, g) for g in gts] for a in anchors])
    out = np.full(n, B.ASSIGN_IGNORE, np.int64)
    for i in range(n):
        best = ious[i].argmax()
        if ious[i, best] <= neg_thr:
            out[i] = B.ASSIGN_NEGATIVE
        elif ious[i, best] >= pos_thr:
            out[i] = best
    for g in range(m):
        top = ious[:, g].max()
        if top > 0:
            for i in range(n):
                if ious[i, g] == top:
                    out[i] = g
    return out


def test_match_no_gt(rng):
    anchors = random_boxes(rng, 10)
    out = B.match_anchors(anchors, np.zeros((0, 4)), 0.7, 0.3)
    assert (out == B.ASSIGN_NEGATIVE).all()


def test_match_identical_anchor_positive():
    gt = np.array([[5.0, 5, 20, 20]])
    anchors = np.array([[5.0, 5, 20, 20], [50.0, 50, 60, 60]])
    out = B.match_anchors(anchors, gt, 0.7, 0.3)
    assert out[0] == 0 and out[1] == B.ASSIGN_NEGATIVE


def test_match_matches_reference_100_instances():
    for seed in range(100):
        r = np.random.default_rng(seed + 1000)
        anchors = random_boxes(r, 20, 60.0)
        gts = random_boxes(r, int(r.integers(1, 4)), 60.0)
        got = B.match_anchors(anchors, gts, 0.7, 0.3)
        want = match_reference(anchors, gts, 0.7, 0.3)
        assert np.array_equal(got, want), seed


# ---------------------------------------------------------------------------
# AP50
# ---------------------------------------------------------------------------

def ap_sweep_reference(dets_per_image, gts_per_image, class_id, thr=0.5):
    """Per-prefix precision/recall points + envelope integration."""
    rows = []
    for img, dets in enumerate(dets_per_image):
        for i in np.where(dets.labels == class_id)[0]:
            rows.append((img, float(dets.scores[i]), dets.boxes[i]))
    rows.sort(key=lambda r: (-r[1], r[0], *r[2].tolist()))
    num_gt = sum(int((np.asarray(l) == class_id).sum()) for _, l in gts_per_image)
    if num_gt == 0:
        return 0.0
    points = []
    for k in range(1, len(rows) + 1):
        matched = {img: np.zeros(int((np.asarray(l) == class_id).sum()), bool)
                   for img, (_, l) in enumerate(gts_per_image)}
        tp = 0
        for img, _, box in rows[:k]:
            gtb = np.asarray(gts_per_image[img][0])[
                np.asarray(gts_per_image[img][1]) == class_id]
            best, best_iou = -1, -1.0
            for j in range(len(gtb)):
                if matched[img][j]:
                    continue
                v = iou_scalar(box, gtb[j])
                if v > best_iou:
                    best, best_iou = j, v
            if best >= 0 and best_iou >= thr:
                matched[img][best] = True
                tp += 1
        points.append((tp / num_gt, tp / k))
    ap, prev_r = 0.0, 0.0
    for i, (rec, _) in enumerate(points):
        env = max(p for _, p in points[i:])
        ap += (rec - prev_r) * env
        prev_r = rec
    return ap


def perfect_dets(gts):
    return [B.Detections(np.asarray(b, np.float32), np.asarray(l, np.int64),
                         np.ones(len(l), np.float32)) for b, l in gts]


def test_ap_perfect_and_empty(rng):
    gts = [(random_boxes(rng, 3), np.array([0, 1, 2])),
           (random_boxes(rng, 2), np.array([1, 2]))]
    res = B.evaluate_ap50(perfect_dets(gts), gts)
    assert res.map == 1.0 and all(v == 1.0 for v in res.per_class_ap.values())
    res = B.evaluate_ap50([B.Detections(), B.Detections()], gts)
    assert res.map == 0.0


def test_ap_three_detections_worked_case():
    # one gt-pair image; detections: FP (highest), TP, TP (lowest)
    gts = [(np.array([[0.0, 0, 10, 10], [20.0, 20, 30, 30]]), np.array([0, 0]))]
    dets = [B.Detections(
        np.array([[50.0, 50, 60, 60], [0.0, 0, 10, 10], [20.0, 20, 30, 30]], np.float32),
        np.array([0, 0, 0]),
        np.array([0.9, 0.8, 0.7], np.float32))]
    res = B.evaluate_ap50(dets, gts)
    want = ap_sweep_reference(dets, gts, 0)
    assert abs(res.per_class_ap[0] - want) < 1e-9
    # prefix P/R: (0,0) -> (0.5,1/2) -> (1,2/3); the envelope at both recall
    # steps is max(1/2, 2/3) = 2/3, so AP = 1.0 * 2/3
    assert abs(res.per_class_ap[0] - 2 / 3) < 1e-9


def test_ap_matches_sweep_reference_100_instances():
    for seed in range(100):
        r = np.random.default_rng(seed + 5000)
        n_img = int(r.integers(1, 4))
        gts, dets = [], []
        for _ in range(n_img):
            k = int(r.integers(0, 4))
            gts.append((random_boxes(r, k, 50.0), r.integers(0, 2, k)))
            m = int(r.integers(0, 5))
            jitter = random_boxes(r, m, 50.0)
            if k and m:
                src = gts[-1][0][r.integers(0, k, m)]
                mix = r.random((m, 1))
                jitter = (1 - 0.5 * mix) * src + 0.5 * mix * jitter
            dets.append(B.Detections(jitter.astype(np.float32), r.integers(0, 2, m),
                                     np.round(r.random(m), 2).astype(np.float32)))
        res = B.evaluate_ap50(dets, gts)
        for c in res.per_class_ap:
            assert abs(res.per_class_ap[c] - ap_sweep_reference(dets, gts, c)) < 1e-9, seed


def test_ap_invariances(rng):
    gts, dets = [], []
    for _ in range(4):
        k = int(rng.integers(1, 4))
        gts.append((random_boxes(rng, k, 50.0), rng.integers(0, 3, k)))
        m = int(rng.integers(1, 5))
        dets.append(B.Detections(random_boxes(rng, m, 50.0).astype(np.float32),
                                 rng.integers(0, 3, m),
                                 rng.random(m).astype(np.float32)))
    base = B.evaluate_ap50(dets, gts)
    perm = [2, 0, 3, 1]
    reordered = B.evaluate_ap50([dets[i] for i in perm], [gts[i] for i in perm])
    assert reordered.map == base.map
    # permuting detections inside an image keeps scores attached: no change
    shuf = []
    for d in dets:
        p = rng.permutation(len(d))
        shuf.append(B.Detections(d.boxes[p], d.labels[p], d.scores[p]))
    assert B.evaluate_ap50(shuf, gts).map == base.map
    # mAP is the mean of independently computed per-class APs
    assert abs(base.map - np.mean(list(base.per_class_ap.values()))) < 1e-12
