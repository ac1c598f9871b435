"""Weak, strong and mosaic augmentation with box-consistent geometry.

Weak augmentation is a random horizontal flip applied jointly to the image
and its boxes. Strong augmentation stacks photometric transforms (color
jitter, grayscaling, Gaussian blur) and cutout patches on top; it never
moves a box. Mosaic concatenates four scenes into a 2x2 composite resized
to a single input, rescaling boxes into their quadrants.

Everything is a pure function of (input, explicit RNG state).

``scipy.ndimage`` is imported by the blur branch of ``strong_augment`` when
it first runs, not at module level: it takes longer to import than the rest
of the package, and only strategies with strong augmentation ever blur.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Scene, float_pixels


@dataclass(frozen=True)
class StrongAugParams:
    """Photometric/occlusion transform ranges and per-transform probabilities."""

    jitter_prob: float = 0.8
    brightness: float = 0.4
    contrast: float = 0.4
    saturation: float = 0.4
    grayscale_prob: float = 0.2
    blur_prob: float = 0.5
    blur_sigma: tuple = (0.1, 2.0)
    cutout_prob: float = 0.7
    cutout_count: tuple = (1, 3)
    cutout_frac: tuple = (0.05, 0.20)
    cutout_fill: float = 0.5

    def __post_init__(self):
        for p in (self.jitter_prob, self.grayscale_prob, self.blur_prob, self.cutout_prob):
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        if self.blur_sigma[0] < 0:
            raise ValueError("blur sigma must be >= 0")


def flip_scene(scene: Scene) -> Scene:
    """Mirror a scene horizontally, boxes included."""
    w = scene.image.shape[1]
    boxes = scene.boxes.copy()
    if len(boxes):
        boxes = np.stack(
            [w - scene.boxes[:, 2], scene.boxes[:, 1],
             w - scene.boxes[:, 0], scene.boxes[:, 3]], axis=1)
    return replace(scene, image=np.ascontiguousarray(scene.image[:, ::-1]), boxes=boxes)


def weak_augment(scene: Scene, rng: np.random.Generator) -> Scene:
    """Horizontal flip with probability 0.5, otherwise identity."""
    if rng.random() < 0.5:
        return flip_scene(scene)
    return scene


def _luma(image: np.ndarray) -> np.ndarray:
    return image @ np.array([0.299, 0.587, 0.114], image.dtype)


def strong_augment(scene: Scene, params: StrongAugParams,
                   rng: np.random.Generator) -> Scene:
    """Photometric jitter, grayscale, blur and cutout; boxes untouched."""
    img = float_pixels(scene.image).astype(np.float32)

    if rng.random() < params.jitter_prob:
        img *= 1.0 + rng.uniform(-params.brightness, params.brightness)
        mean = _luma(img).mean()
        img = mean + (img - mean) * (1.0 + rng.uniform(-params.contrast, params.contrast))
        gray = _luma(img)[..., None]
        img = gray + (img - gray) * (1.0 + rng.uniform(-params.saturation, params.saturation))

    if rng.random() < params.grayscale_prob:
        img = np.repeat(_luma(img)[..., None], 3, axis=2)

    if rng.random() < params.blur_prob:
        from scipy.ndimage import gaussian_filter

        sigma = rng.uniform(*params.blur_sigma)
        img = gaussian_filter(img, sigma=(sigma, sigma, 0))

    if rng.random() < params.cutout_prob:
        h, w = img.shape[:2]
        for _ in range(rng.integers(params.cutout_count[0], params.cutout_count[1] + 1)):
            ph = max(1, int(round(rng.uniform(*params.cutout_frac) * h)))
            pw = max(1, int(round(rng.uniform(*params.cutout_frac) * w)))
            y = int(rng.integers(0, h - ph + 1))
            x = int(rng.integers(0, w - pw + 1))
            img[y:y + ph, x:x + pw, :] = params.cutout_fill

    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return replace(scene, image=img, boxes=scene.boxes.copy())


def mosaic(scenes, out_size: int) -> Scene:
    """2x2 concatenation of four equal-size scenes, resized to out_size.

    Boxes are offset to their quadrant and scaled; boxes that shrink below
    2 px in either dimension are dropped.
    """
    if len(scenes) != 4:
        raise ValueError(f"mosaic needs exactly 4 scenes, got {len(scenes)}")
    s = scenes[0].image.shape[0]
    for sc in scenes:
        if sc.image.shape != scenes[0].image.shape:
            raise ValueError("mosaic requires equal-size scenes")
    images = [float_pixels(sc.image) for sc in scenes]
    top = np.concatenate(images[:2], axis=1)
    bottom = np.concatenate(images[2:], axis=1)
    full = np.concatenate([top, bottom], axis=0)

    scale = out_size / (2 * s)
    src = np.clip(np.round((np.arange(out_size) + 0.5) / scale - 0.5).astype(int),
                  0, 2 * s - 1)
    img = np.ascontiguousarray(full[src][:, src], dtype=np.float32)

    offsets = [(0, 0), (s, 0), (0, s), (s, s)]
    boxes, labels = [], []
    for sc, (ox, oy) in zip(scenes, offsets):
        if not len(sc.boxes):
            continue
        b = (sc.boxes + np.array([ox, oy, ox, oy], np.float32)) * scale
        ok = (b[:, 2] - b[:, 0] >= 2) & (b[:, 3] - b[:, 1] >= 2)
        boxes.append(b[ok])
        labels.append(sc.labels[ok])
    return Scene(
        image=img,
        boxes=np.concatenate(boxes).astype(np.float32) if boxes else np.zeros((0, 4), np.float32),
        labels=np.concatenate(labels) if labels else np.zeros(0, np.int64),
        id=f"mosaic-{scenes[0].id}",
    )
