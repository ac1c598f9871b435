"""Augmentation contracts: flip geometry, photometric-only strong
transforms, mosaic box arithmetic, and 8-bit scenes as read from disk."""

import numpy as np
import pytest

from sfodlab import augment as A
from sfodlab.data import DomainSpec, Scene, float_pixels, generate_split
from conftest import read_back


def make_scene(rng, size=96, boxes=None, labels=None):
    boxes = np.asarray(boxes if boxes is not None else [[10, 20, 30, 40]], np.float32)
    labels = np.asarray(labels if labels is not None else [0], np.int64)
    return Scene(image=rng.random((size, size, 3)).astype(np.float32),
                 boxes=boxes.reshape(-1, 4), labels=labels, id="t")


class ForcedRng:
    """Minimal generator stand-in forcing probability gates."""

    def __init__(self, value, inner=None):
        self.value = value
        self.inner = inner or np.random.default_rng(0)

    def random(self, *a, **k):
        return self.value

    def uniform(self, lo, hi=None, size=None):
        return self.inner.uniform(lo, hi, size)

    def integers(self, *a, **k):
        return self.inner.integers(*a, **k)


# ---------------------------------------------------------------------------
# weak
# ---------------------------------------------------------------------------

def test_weak_no_flip_is_identity(rng):
    sc = make_scene(rng)
    out = A.weak_augment(sc, ForcedRng(0.99))
    assert np.array_equal(out.image, sc.image)
    assert np.array_equal(out.boxes, sc.boxes)


def test_flip_is_involution(rng):
    sc = make_scene(rng, boxes=[[10, 20, 30, 40], [0, 0, 5, 7]], labels=[0, 2])
    back = A.flip_scene(A.flip_scene(sc))
    assert np.array_equal(back.image, sc.image)
    assert np.allclose(back.boxes, sc.boxes)


def test_flip_coordinates_worked_example(rng):
    sc = make_scene(rng, size=96, boxes=[[10, 20, 30, 40]])
    out = A.flip_scene(sc)
    assert np.allclose(out.boxes, [[66, 20, 86, 40]])
    # image mirrored: left column becomes right column
    assert np.array_equal(out.image[:, 0], sc.image[:, -1])


# ---------------------------------------------------------------------------
# strong
# ---------------------------------------------------------------------------

def test_strong_all_probabilities_zero_is_identity(rng):
    sc = make_scene(rng)
    params = A.StrongAugParams(jitter_prob=0, grayscale_prob=0, blur_prob=0,
                               cutout_prob=0)
    out = A.strong_augment(sc, params, np.random.default_rng(0))
    assert np.array_equal(out.image, sc.image)
    assert np.array_equal(out.boxes, sc.boxes)


def test_strong_grayscale_forced(rng):
    sc = make_scene(rng)
    params = A.StrongAugParams(jitter_prob=0, grayscale_prob=1.0, blur_prob=0,
                               cutout_prob=0)
    out = A.strong_augment(sc, params, np.random.default_rng(0))
    assert np.allclose(out.image[..., 0], out.image[..., 1], atol=1e-6)
    assert np.allclose(out.image[..., 1], out.image[..., 2], atol=1e-6)


def test_strong_cutout_forced_exact_patch(rng):
    sc = make_scene(rng)
    params = A.StrongAugParams(jitter_prob=0, grayscale_prob=0, blur_prob=0,
                               cutout_prob=1.0, cutout_count=(1, 1),
                               cutout_frac=(1 / 6, 1 / 6), cutout_fill=0.5)
    out = A.strong_augment(sc, params, np.random.default_rng(3))
    diff = np.abs(out.image - sc.image).sum(axis=2)
    ys, xs = np.nonzero(diff)
    assert len(ys)  # a patch was written
    y0, y1, x0, x1 = ys.min(), ys.max(), xs.min(), xs.max()
    assert y1 - y0 + 1 == 16 and x1 - x0 + 1 == 16
    assert np.allclose(out.image[y0:y1 + 1, x0:x1 + 1], 0.5)
    mask = np.ones_like(diff, bool)
    mask[y0:y1 + 1, x0:x1 + 1] = False
    assert np.array_equal(out.image[mask], sc.image[mask])


def test_strong_never_moves_boxes(rng):
    sc = make_scene(rng, boxes=[[5, 5, 40, 60], [50, 10, 90, 20]], labels=[1, 2])
    params = A.StrongAugParams()
    for seed in range(8):
        out = A.strong_augment(sc, params, np.random.default_rng(seed))
        assert out.boxes.tobytes() == sc.boxes.tobytes()
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0


def test_strong_deterministic(rng):
    sc = make_scene(rng)
    params = A.StrongAugParams()
    a = A.strong_augment(sc, params, np.random.default_rng(42))
    b = A.strong_augment(sc, params, np.random.default_rng(42))
    assert np.array_equal(a.image, b.image)


def test_params_validation():
    with pytest.raises(ValueError):
        A.StrongAugParams(jitter_prob=1.5)
    with pytest.raises(ValueError):
        A.StrongAugParams(blur_sigma=(-0.1, 1.0))


# ---------------------------------------------------------------------------
# mosaic
# ---------------------------------------------------------------------------

def test_mosaic_blank_scenes(rng):
    blank = [Scene(np.zeros((96, 96, 3), np.float32), np.zeros((0, 4), np.float32),
                   np.zeros(0, np.int64), f"b{i}") for i in range(4)]
    out = A.mosaic(blank, 96)
    assert out.image.shape == (96, 96, 3)
    assert not out.image.any()
    assert len(out.boxes) == 0


def test_mosaic_box_arithmetic(rng):
    scenes = [make_scene(rng, boxes=[[0, 0, 10, 10]], labels=[1])] + [
        make_scene(rng, boxes=np.zeros((0, 4)), labels=np.zeros(0)) for _ in range(3)]
    out = A.mosaic(scenes, 96)
    assert np.allclose(out.boxes, [[0, 0, 5, 5]])
    assert out.labels.tolist() == [1]


def test_mosaic_quadrant_containment_and_count(rng):
    scenes = []
    total = 0
    for i in range(4):
        k = int(rng.integers(1, 4))
        boxes = []
        for _ in range(k):
            x1, y1 = rng.uniform(0, 80, 2)
            boxes.append([x1, y1, x1 + rng.uniform(2, 16), y1 + rng.uniform(2, 16)])
        total += k
        scenes.append(make_scene(rng, boxes=boxes, labels=rng.integers(0, 3, k)))
    out = A.mosaic(scenes, 96)
    assert len(out.boxes) <= total
    # every surviving box lies fully inside one output quadrant
    quads = [(0, 0), (48, 0), (0, 48), (48, 48)]
    for b in out.boxes:
        inside_any = any(b[0] >= qx - 1e-5 and b[1] >= qy - 1e-5
                         and b[2] <= qx + 48 + 1e-5 and b[3] <= qy + 48 + 1e-5
                         for qx, qy in quads)
        assert inside_any


def test_mosaic_drops_tiny_boxes(rng):
    scenes = [make_scene(rng, boxes=[[0, 0, 3, 3]], labels=[0])] + [
        make_scene(rng, boxes=np.zeros((0, 4)), labels=np.zeros(0)) for _ in range(3)]
    out = A.mosaic(scenes, 96)  # 3 px box scales to 1.5 px -> dropped
    assert len(out.boxes) == 0


def test_mosaic_requires_four_equal(rng):
    with pytest.raises(ValueError):
        A.mosaic([make_scene(rng)] * 3, 96)
    bad = [make_scene(rng), make_scene(rng, size=64), make_scene(rng), make_scene(rng)]
    with pytest.raises(ValueError):
        A.mosaic(bad, 96)


def test_strong_blur_matches_scipy(rng, monkeypatch):
    """Every strong view, blurred each time, is the one scipy's
    gaussian_filter gives in place of the numpy blur."""
    from scipy.ndimage import gaussian_filter

    params = A.StrongAugParams(blur_prob=1.0)
    scenes = [make_scene(rng) for _ in range(4)]
    live = [A.strong_augment(sc, params, np.random.default_rng(k))
            for k, sc in enumerate(scenes)]
    monkeypatch.setattr(A, "gaussian_blur", gaussian_filter)
    for k, (sc, got) in enumerate(zip(scenes, live)):
        want = A.strong_augment(sc, params, np.random.default_rng(k))
        assert got.image.tobytes() == want.image.tobytes()


# ---------------------------------------------------------------------------
# 8-bit scenes as read from disk
# ---------------------------------------------------------------------------

def read_scenes(tmp_path):
    spec = DomainSpec(image_size=32, min_size=8, max_size=16, shift="fog",
                      fog_strength=0.5)
    return read_back(generate_split(spec, 4, 0, "r"), tmp_path / "ds")


def test_weak_keeps_8_bit_pixels(tmp_path):
    read, decoded = read_scenes(tmp_path)
    for seed in range(4):
        for a, b in zip(read, decoded):
            u = A.weak_augment(a, np.random.default_rng(seed))
            f = A.weak_augment(b, np.random.default_rng(seed))
            assert u.image.dtype == np.uint8
            assert float_pixels(u.image).tobytes() == f.image.tobytes()
            assert u.boxes.tobytes() == f.boxes.tobytes()


@pytest.mark.parametrize("params", [
    A.StrongAugParams(),
    A.StrongAugParams(jitter_prob=1, grayscale_prob=1, blur_prob=1, cutout_prob=1),
], ids=["default", "every-transform"])
def test_strong_on_8_bit_matches_float_decode(tmp_path, params):
    """Under one RNG stream, the strong view of a read scene is the strong view
    of its float32 decode, byte for byte; neither input is written."""
    read, decoded = read_scenes(tmp_path)
    before = [(a.image.tobytes(), b.image.tobytes()) for a, b in zip(read, decoded)]
    for seed in range(4):
        for a, b in zip(read, decoded):
            u = A.strong_augment(a, params, np.random.default_rng(seed))
            f = A.strong_augment(b, params, np.random.default_rng(seed))
            assert u.image.dtype == np.float32
            assert u.image.tobytes() == f.image.tobytes()
    assert before == [(a.image.tobytes(), b.image.tobytes()) for a, b in zip(read, decoded)]


def test_mosaic_on_8_bit_matches_float_decode(tmp_path):
    """A mosaic of read scenes, or of read and decoded ones mixed, is the
    mosaic of the decoded scenes."""
    read, decoded = read_scenes(tmp_path)
    want = A.mosaic(decoded, 32)
    for scenes in (read, [read[0], decoded[1], read[2], decoded[3]]):
        got = A.mosaic(scenes, 32)
        assert got.image.dtype == np.float32
        assert got.image.tobytes() == want.image.tobytes()
        assert got.boxes.tobytes() == want.boxes.tobytes()
        assert np.array_equal(got.labels, want.labels)
