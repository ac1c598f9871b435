"""Procedural shape-detection scenes with a parametric domain shift.

Scenes are 96x96 float images of anti-aliased discs, squares and triangles
(classes 0/1/2) over a textured background, annotated with exact bounding
boxes. The domain shift is one of: fog (depth-dependent haze + blur,
strongest at the top of the image), a color cast, or a global scale change.

On disk a dataset is a directory of binary PPM (P6) images plus an
``annotations.jsonl`` file (one JSON object per scene) and a
``manifest.json`` echoing counts, the generating spec and the seed.

Generated scenes hold float32 pixels in [0, 1]; ``read_dataset`` keeps the
PPM's 8-bit pixels as ``uint8``, a quarter of the memory, and writing them
again reproduces the files byte for byte. ``float_pixels`` turns them into
float32 (``/ 255``) where the network or a photometric augmentation first
reads them, the one place the package scales pixels.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from .boxes import clip_boxes, iou_matrix

CLASS_NAMES = ("disc", "square", "triangle")
NUM_CLASSES = 3


class DataError(Exception):
    """Structured dataset I/O failure naming the offending entry."""


@dataclass
class Scene:
    """One image with its ground-truth (or pseudo-label) annotations."""

    image: np.ndarray                  # (H, W, 3) float32 in [0, 1], or uint8 as
                                       # read_dataset returns it
    boxes: np.ndarray                  # (K, 4) float32, (x1, y1, x2, y2)
    labels: np.ndarray                 # (K,) int64, < NUM_CLASSES
    id: str = ""


@dataclass(frozen=True)
class DomainSpec:
    """Background texture, object population and shift parameters."""

    image_size: int = 96
    base_color_range: tuple = (0.35, 0.65)
    noise_amplitude: float = 0.08
    noise_cells: int = 12              # coarse texture grid resolution
    min_objects: int = 2
    max_objects: int = 8
    min_size: float = 20.0
    max_size: float = 44.0
    min_contrast: float = 0.35         # L2 distance of fill color from base
    max_overlap: float = 0.4           # resample a shape overlapping more than this
    shift: str = "none"                # none | fog | color | scale
    fog_strength: float = 0.0
    haze_color: tuple = (0.92, 0.92, 0.95)
    color_cast: tuple = (1.0, 1.0, 1.0)
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.shift not in ("none", "fog", "color", "scale"):
            raise ValueError(f"unknown shift {self.shift!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "shift" and not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0 <= self.fog_strength <= 1:
            raise ValueError(f"fog_strength must be in [0, 1], got {self.fog_strength}")
        if self.scale_factor <= 0:
            raise ValueError(f"scale_factor must be > 0, got {self.scale_factor}")
        if self.min_objects > self.max_objects:
            raise ValueError("min_objects > max_objects")
        # a negative object count renders no object, and a negative overlap
        # bound resamples every shape after the first
        for name, low in (("image_size", 1), ("noise_cells", 1), ("min_objects", 0),
                          ("max_overlap", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.min_size <= self.max_size:
            raise ValueError(f"need 0 < min_size <= max_size, got {self.min_size} "
                             f"and {self.max_size}")
        for name, n in (("base_color_range", 2), ("haze_color", 3), ("color_cast", 3)):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} needs {n} values, got {getattr(self, name)}")
        lo, hi = self.base_color_range
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"base_color_range must lie in [0, 1] with low <= high, "
                             f"got {self.base_color_range}")
        # A fill colour is drawn uniformly from the unit cube until it lies
        # min_contrast from the base colour b. The farthest corner lies
        # sqrt(sum_k max(b_k, 1 - b_k)^2) from b, least for every b_k = m.
        m = min(max(0.5, lo), hi)
        reach = 3 ** 0.5 * max(m, 1 - m)
        if self.min_contrast >= reach:
            raise ValueError(f"min_contrast must be < {reach:.4f} for base_color_range "
                             f"{self.base_color_range}, got {self.min_contrast}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_SS = 4  # supersampling factor for anti-aliased masks


def _shape_mask(class_id: int, x1, y1, x2, y2, region_x, region_y, rw, rh):
    """Coverage alpha of one shape inside an integer pixel region,
    rendered at _SS x supersampling and box-averaged down."""
    gy = ((np.arange(rh * _SS) + 0.5) / _SS + region_y)[:, None]
    gx = ((np.arange(rw * _SS) + 0.5) / _SS + region_x)[None, :]
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    w, h = x2 - x1, y2 - y1
    if class_id == 0:        # disc
        r = w / 2
        inside = (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
    elif class_id == 1:      # axis-aligned square
        inside = (gx >= x1) & (gx <= x2) & (gy >= y1) & (gy <= y2)
    else:                    # upward triangle: apex top-center, base bottom
        t = np.clip((gy - y1) / max(h, 1e-6), 0, 1)
        half = t * (w / 2)
        inside = (np.abs(gx - cx) <= half) & (gy >= y1) & (gy <= y2)
    inside = inside.astype(np.float32)
    return inside.reshape(rh, _SS, rw, _SS).mean(axis=(1, 3))


def gaussian_blur(image: np.ndarray, sigma) -> np.ndarray:
    """image blurred with standard deviation sigma[a] along each axis a, bit
    for bit SciPy's ndimage.gaussian_filter(image, sigma) (mode 'reflect',
    truncate 4). Axis by axis in order: the kernel exp(-x^2 / 2 sigma^2) for
    the integers |x| <= int(4 sigma + 0.5), divided by its sum; the axis
    extended by reflection (d c b a | a b c d, repeated while the radius
    passes the side); each output summed in float64 as the centre tap and
    then, from the outermost inwards, each symmetric pair (left + right)
    times its weight; and the sum cast back to image.dtype. An axis of
    radius 0 (sigma < 0.125, 0 included) is skipped, as SciPy's one-tap
    kernel of weight 1 leaves it; image itself comes back when every axis
    is skipped."""
    out = image
    for axis, s in enumerate(sigma):
        r = int(4.0 * s + 0.5)
        if r == 0:
            continue
        x = np.arange(-r, r + 1)
        w = np.exp(-0.5 / (s * s) * x ** 2)
        w = w / w.sum()
        n = out.shape[axis]
        k = np.arange(-r, n + r) % (2 * n)
        padded = np.take(out, np.minimum(k, 2 * n - 1 - k), axis).astype(np.float64)
        lead = (slice(None),) * axis
        tap = [padded[lead + (slice(j, j + n),)] for j in range(2 * r + 1)]
        acc = tap[r] * w[r]
        pair = np.empty_like(acc)
        for d in range(r, 0, -1):
            np.add(tap[r - d], tap[r + d], out=pair)
            pair *= w[r + d]
            acc += pair
        out = acc.astype(image.dtype)
    return out


def _zoom_linear(grid: np.ndarray, size: int) -> np.ndarray:
    """An (m, m, C) grid resampled to (size, size, C) by bilinear
    interpolation, bit for bit SciPy's ndimage.zoom(grid[..., c], size / m,
    order=1) for each channel c (mode 'constant', no grid mode). Output
    index k samples grid coordinate k * ((m - 1) / (size - 1)); the weights
    of its two cells are w0 = 1 - frac and w1 = 1 - w0 (w1 = frac can be an
    ulp off); the four corner terms value * y weight * x weight are added
    row-major onto 0.0; and a coordinate that rounds past the last cell
    gives 0, the constant mode's fill value."""
    m = grid.shape[0]
    k = np.arange(size) * ((m - 1) / (size - 1) if size > 1 else 1.0)
    lo = np.floor(k)
    w0 = 1.0 - (k - lo)
    w1 = 1.0 - w0
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, m - 1)  # w1 is 0 at the last cell
    wy0, wy1 = w0[:, None, None], w1[:, None, None]
    wx0, wx1 = w0[None, :, None], w1[None, :, None]
    top, bottom = grid[lo], grid[hi]
    out = 0.0 + top[:, lo] * wy0 * wx0
    out += top[:, hi] * wy0 * wx1
    out += bottom[:, lo] * wy1 * wx0
    out += bottom[:, hi] * wy1 * wx1
    past = k > m - 1
    out[past] = 0.0
    out[:, past] = 0.0
    return out


def _background(spec: DomainSpec, rng: np.random.Generator):
    s = spec.image_size
    lo, hi = spec.base_color_range
    base = rng.uniform(lo, hi, size=3).astype(np.float32)
    coarse = rng.uniform(-1, 1, size=(spec.noise_cells, spec.noise_cells, 3))
    noise = _zoom_linear(coarse, s)
    img = base[None, None, :] + spec.noise_amplitude * noise.astype(np.float32)
    return np.clip(img, 0, 1).astype(np.float32), base


def generate_scene(spec: DomainSpec, rng: np.random.Generator,
                   scene_id: str) -> Scene:
    """Render one scene; boxes are exact shape bounds clipped to the image.

    Shapes whose visible part would be degenerate (under 2 px a side) are
    rejection-resampled. The domain shift is applied last.
    """
    s = spec.image_size
    img, base = _background(spec, rng)
    count = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    boxes, labels = [], []
    for _ in range(count):
        for _attempt in range(100):
            class_id = int(rng.integers(0, NUM_CLASSES))
            size = rng.uniform(spec.min_size, spec.max_size)
            cx = rng.uniform(0, s)
            cy = rng.uniform(0, s)
            x1, x2 = cx - size / 2, cx + size / 2
            y1, y2 = cy - size / 2, cy + size / 2
            vx1, vy1 = max(x1, 0.0), max(y1, 0.0)
            vx2, vy2 = min(x2, float(s)), min(y2, float(s))
            if vx2 - vx1 < 2 or vy2 - vy1 < 2:
                continue
            if boxes and iou_matrix(np.array([[vx1, vy1, vx2, vy2]]),
                                    np.asarray(boxes)).max() > spec.max_overlap:
                continue
            color = rng.uniform(0, 1, size=3).astype(np.float32)
            while np.linalg.norm(color - base) < spec.min_contrast:
                color = rng.uniform(0, 1, size=3).astype(np.float32)
            rx0, ry0 = int(np.floor(vx1)), int(np.floor(vy1))
            rx1, ry1 = int(np.ceil(vx2)), int(np.ceil(vy2))
            alpha = _shape_mask(class_id, x1, y1, x2, y2, rx0, ry0, rx1 - rx0, ry1 - ry0)
            region = img[ry0:ry1, rx0:rx1]
            img[ry0:ry1, rx0:rx1] = (alpha[..., None] * color[None, None, :]
                                     + (1 - alpha[..., None]) * region)
            boxes.append((vx1, vy1, vx2, vy2))
            labels.append(class_id)
            break
    scene = Scene(
        image=np.clip(img, 0, 1).astype(np.float32),
        boxes=np.asarray(boxes, np.float32).reshape(-1, 4),
        labels=np.asarray(labels, np.int64),
        id=scene_id,
    )
    return _apply_shift(scene, spec)


def _apply_shift(scene: Scene, spec: DomainSpec) -> Scene:
    if spec.shift == "fog" and spec.fog_strength > 0:
        return replace(scene, image=apply_fog(scene.image, spec.fog_strength,
                                              spec.haze_color))
    if spec.shift == "color":
        img = np.clip(scene.image * np.asarray(spec.color_cast, np.float32), 0, 1)
        return replace(scene, image=img.astype(np.float32))
    if spec.shift == "scale" and spec.scale_factor != 1.0:
        return apply_scale(scene, spec.scale_factor)
    return scene


FOG_DEPTH_FLOOR = 0.5


def apply_fog(image: np.ndarray, strength: float, haze_color) -> np.ndarray:
    """Depth-proxy fog: transmittance t = 1 - strength*depth with depth
    rising from the bottom row to the top row; the transmitted component is
    blurred. Identity at strength 0.

    The bottom-row depth is floored at 0.5 so the whole image hazes over:
    with a zero floor the vertical haze gradient itself adds cross-row
    variance and per-image contrast stops decreasing monotonically.
    """
    if not 0 <= strength <= 1:
        raise ValueError("fog strength must be in [0, 1]")
    if strength == 0:
        return image
    h = image.shape[0]
    depth = np.linspace(1.0, FOG_DEPTH_FLOOR, h, dtype=np.float32)
    t = (1.0 - strength * depth)[:, None, None]
    blurred = gaussian_blur(image, (2.0 * strength, 2.0 * strength, 0))
    haze = np.asarray(haze_color, np.float32)[None, None, :]
    return np.clip((1 - t) * haze + t * blurred, 0, 1).astype(np.float32)


def apply_scale(scene: Scene, factor: float) -> Scene:
    """Zoom about the image center; boxes scale with the content and boxes
    shrunk below 2 px a side are dropped."""
    h, w = scene.image.shape[:2]
    cy, cx = (h - 1) / 2, (w - 1) / 2
    ys = np.clip(np.round(cy + (np.arange(h) - cy) / factor).astype(int), 0, h - 1)
    xs = np.clip(np.round(cx + (np.arange(w) - cx) / factor).astype(int), 0, w - 1)
    img = np.ascontiguousarray(scene.image[ys][:, xs])
    boxes = scene.boxes.copy()
    labels = scene.labels.copy()
    if len(boxes):
        ctr = np.array([cx + 0.5, cy + 0.5, cx + 0.5, cy + 0.5], np.float32)
        boxes = clip_boxes((boxes - ctr) * factor + ctr, w, h)
        ok = (boxes[:, 2] - boxes[:, 0] >= 2) & (boxes[:, 3] - boxes[:, 1] >= 2)
        boxes, labels = boxes[ok], labels[ok]
    return replace(scene, image=img, boxes=boxes.astype(np.float32), labels=labels)


def generate_split(spec: DomainSpec, count: int, seed: int, prefix: str):
    """Deterministic scene list; each scene has its own derived RNG stream."""
    scenes = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        scenes.append(generate_scene(spec, rng, scene_id=f"{prefix}_{i:05d}"))
    return scenes


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def float_pixels(image: np.ndarray) -> np.ndarray:
    """A scene image as the network reads it: 8-bit pixels, as read_dataset
    returns them, become float32 in [0, 1]; any other dtype comes back as is."""
    if image.dtype == np.uint8:
        return image.astype(np.float32) / 255.0
    return image


def _write_ppm(path: Path, image: np.ndarray):
    if image.dtype == np.uint8:
        q = image
    else:
        q = np.round(np.clip(image, 0, 1) * 255).astype(np.uint8)
    h, w = q.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def _read_ppm(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise DataError(f"{path} is not a binary PPM (P6) file")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    if len(raw) - m.end() < w * h * 3:
        raise DataError(f"{path}: truncated pixel data")
    # a copy: the image is writable, as a generated one is, and owns its pixels
    return np.frombuffer(raw, np.uint8, w * h * 3, m.end()).reshape(h, w, 3).copy()


@contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a temporary file beside path for writing; when the block ends
    without an exception, os.replace it into place. On any exception the
    temporary file is removed and the exception re-raised, so the file at
    path keeps its earlier bytes, or stays absent, and nothing else is
    left beside it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(scenes, out_dir, spec: DomainSpec, seed: int):
    """Write scenes to out_dir: images/*.ppm + annotations.jsonl + manifest.json,
    the commit marker: deleted first, with any earlier split's images, and
    written last, so read_dataset refuses a split whose writing was cut off."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for stale in (out / "images").glob("*.ppm"):
        stale.unlink()
    with open(out / "annotations.jsonl", "w", encoding="utf-8") as f:
        for sc in scenes:
            fname = f"images/{sc.id}.ppm"
            _write_ppm(out / fname, sc.image)
            f.write(json.dumps({
                "file": fname,
                "id": sc.id,
                "boxes": [[float(v) for v in b] for b in sc.boxes],
                "labels": [int(v) for v in sc.labels],
            }) + "\n")
    manifest = {
        "format": "sfodlab-dataset-v1",
        "count": len(scenes),
        "classes": list(CLASS_NAMES),
        "spec": asdict(spec),
        "seed": seed,
    }
    with atomic_write(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)


def read_dataset(in_dir):
    """Load a dataset directory; raises DataError naming any broken entry:
    labels lie in [0, len(manifest classes)), boxes lie in their W x H image
    with 0 <= x1 < x2 <= W and 0 <= y1 < y2 <= H, and scene ids are unique."""
    root = Path(in_dir)
    mpath = root / "manifest.json"
    if not mpath.exists():
        raise DataError(f"missing manifest: {mpath}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"corrupt manifest {mpath}: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("classes"), list):
        raise DataError(f"{mpath}: not a JSON object with a 'classes' list")
    num_classes = len(manifest["classes"])
    apath = root / "annotations.jsonl"
    if not apath.exists():
        raise DataError(f"missing annotations: {apath}")
    scenes = []
    seen = set()
    with open(apath, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                path = root / rec["file"]
                boxes = np.asarray(rec["boxes"], np.float32).reshape(-1, 4)
                labels = np.asarray(rec["labels"], np.int64)
                scene_id = rec.get("id", path.stem)
                duplicate = scene_id in seen
            except json.JSONDecodeError as e:
                raise DataError(f"{apath}:{lineno}: corrupt record: {e}") from e
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{apath}:{lineno}: malformed record: "
                                f"{type(e).__name__}: {e}") from e
            if labels.shape != (len(boxes),):
                raise DataError(f"{apath}:{lineno}: {labels.size} labels for "
                                f"{len(boxes)} boxes")
            if ((labels < 0) | (labels >= num_classes)).any():
                raise DataError(f"{apath}:{lineno}: labels must lie in [0, {num_classes})")
            image = _read_ppm(path)
            h, w = image.shape[:2]
            # a NaN or infinite coordinate fails one of these comparisons
            lo, hi = boxes[:, :2], boxes[:, 2:]
            if not ((0 <= lo) & (lo < hi) & (hi <= (w, h))).all():
                raise DataError(f"{apath}:{lineno}: boxes must lie in the {w}x{h} image "
                                f"with 0 <= x1 < x2 <= {w} and 0 <= y1 < y2 <= {h}")
            if duplicate:
                raise DataError(f"{apath}:{lineno}: duplicate scene id {scene_id!r}")
            seen.add(scene_id)
            scenes.append(Scene(image, boxes, labels, scene_id))
    if len(scenes) != manifest.get("count", len(scenes)):
        raise DataError(
            f"{in_dir}: manifest count {manifest.get('count')} != {len(scenes)} records")
    return scenes
