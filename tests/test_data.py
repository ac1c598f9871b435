"""Synthetic scene generation, domain shifts, and dataset I/O round trips."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from sfodlab import data as Dt


def test_generation_deterministic():
    spec = Dt.DomainSpec()
    a = Dt.generate_scene(spec, np.random.default_rng(7), "a")
    b = Dt.generate_scene(spec, np.random.default_rng(7), "a")
    assert a.image.tobytes() == b.image.tobytes()
    assert a.boxes.tobytes() == b.boxes.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = Dt.generate_scene(spec, np.random.default_rng(8), "a")
    assert a.image.tobytes() != c.image.tobytes()


def test_generation_counts_and_bounds():
    spec = Dt.DomainSpec(min_objects=2, max_objects=8)
    for seed in range(10):
        sc = Dt.generate_scene(spec, np.random.default_rng(seed), "a")
        assert 2 <= len(sc.boxes) <= 8
        assert sc.image.shape == (96, 96, 3)
        assert sc.image.min() >= 0 and sc.image.max() <= 1
        b = sc.boxes
        assert (b[:, 0] >= 0).all() and (b[:, 2] <= 96).all()
        assert (b[:, 1] >= 0).all() and (b[:, 3] <= 96).all()
        areas = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        assert (areas >= 4).all()
        assert (sc.labels < Dt.NUM_CLASSES).all()


def test_zero_objects_scene():
    spec = Dt.DomainSpec(min_objects=0, max_objects=0)
    sc = Dt.generate_scene(spec, np.random.default_rng(0), "a")
    assert len(sc.boxes) == 0 and len(sc.labels) == 0


def test_disc_annotation_geometry():
    """A rendered disc's box must match its analytic bounds within 1 px."""
    spec = Dt.DomainSpec(min_objects=1, max_objects=1, min_size=20.0, max_size=20.0,
                         noise_amplitude=0.0)
    found = 0
    for seed in range(40):
        sc = Dt.generate_scene(spec, np.random.default_rng(seed), "a")
        if len(sc.labels) == 1 and sc.labels[0] == 0:
            x1, y1, x2, y2 = sc.boxes[0]
            if x2 - x1 < 19 or y2 - y1 < 19:
                continue  # clipped at the border
            found += 1
            cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
            mask = np.abs(sc.image - sc.image[0, 0]).sum(axis=2) > 0.05
            ys, xs = np.nonzero(mask)
            assert abs(xs.min() - (cx - 10)) <= 1.0
            assert abs(xs.max() + 1 - (cx + 10)) <= 1.0
            assert abs(ys.min() - (cy - 10)) <= 1.0
            assert abs(ys.max() + 1 - (cy + 10)) <= 1.0
    assert found >= 3


def test_fog_identity_at_zero(rng):
    img = rng.random((96, 96, 3)).astype(np.float32)
    assert Dt.apply_fog(img, 0.0, (0.9, 0.9, 0.9)) is img


def test_fog_saturates_to_haze_at_top(rng):
    img = rng.random((96, 96, 3)).astype(np.float32) * 0.3
    out = Dt.apply_fog(img, 1.0, (1.0, 1.0, 1.0))
    assert np.abs(out[0] - 1.0).max() < 0.05      # top row ~ white haze
    assert np.abs(out[-1] - img[-1]).mean() > 0.0  # bottom keeps content (blurred)


def test_fog_contrast_strictly_decreases():
    spec = Dt.DomainSpec()
    for seed in range(10):
        sc = Dt.generate_scene(spec, np.random.default_rng(seed), "a")
        stds = [Dt.apply_fog(sc.image, s, (0.92, 0.92, 0.95)).std()
                for s in (0.0, 0.3, 0.6)]
        assert stds[0] > stds[1] > stds[2], (seed, stds)


def test_fog_shift_matches_none_at_zero():
    base = Dt.DomainSpec(shift="none")
    fogged = Dt.DomainSpec(shift="fog", fog_strength=0.0)
    a = Dt.generate_scene(base, np.random.default_rng(3), "a")
    b = Dt.generate_scene(fogged, np.random.default_rng(3), "a")
    assert a.image.tobytes() == b.image.tobytes()


def test_color_and_scale_shifts():
    spec = Dt.DomainSpec(shift="color", color_cast=(1.0, 0.5, 0.5))
    sc = Dt.generate_scene(spec, np.random.default_rng(1), "a")
    base = Dt.generate_scene(Dt.DomainSpec(shift="none"), np.random.default_rng(1), "a")
    assert np.allclose(sc.image[..., 0], base.image[..., 0])
    assert np.allclose(sc.image[..., 1], np.clip(base.image[..., 1] * 0.5, 0, 1),
                       atol=1e-6)

    zoomed = Dt.apply_scale(base, 2.0)
    assert zoomed.image.shape == base.image.shape
    if len(zoomed.boxes):
        w_new = zoomed.boxes[:, 2] - zoomed.boxes[:, 0]
        assert (w_new >= 2).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        Dt.DomainSpec(shift="rain")
    with pytest.raises(ValueError):
        Dt.DomainSpec(fog_strength=1.5)
    with pytest.raises(ValueError):
        Dt.DomainSpec(scale_factor=0.0)


@pytest.mark.parametrize("kw,name", [
    (dict(image_size=-8), "image_size"),
    (dict(image_size=0), "image_size"),
    (dict(noise_cells=0), "noise_cells"),
    (dict(min_size=50.0), "min_size"),
    (dict(max_size=0.0), "max_size"),
    (dict(base_color_range=(0.5,)), "base_color_range"),
    (dict(base_color_range=(0.7, 0.3)), "base_color_range"),
    (dict(haze_color=(0.9, 0.9)), "haze_color"),
    (dict(color_cast=(1.0, 0.5)), "color_cast"),
    (dict(min_contrast=0.9), "min_contrast"),
    (dict(min_contrast=1.6, base_color_range=(0.0, 0.1)), "min_contrast"),
], ids=["image-size-negative", "image-size-zero", "noise-cells-zero", "min-above-max",
        "max-size-zero", "base-range-one-value", "base-range-reversed",
        "haze-two-values", "cast-two-values", "contrast-unreachable",
        "contrast-unreachable-dark-base"])
def test_spec_rejects_unrenderable_value(kw, name):
    """Values that make-data cannot render: a resample loop that never ends,
    a shape no array takes, or an empty image."""
    with pytest.raises(ValueError, match=name):
        Dt.DomainSpec(**kw)


@pytest.mark.parametrize("kw", [
    dict(image_size=1),
    dict(min_contrast=0.86),
    dict(min_contrast=1.4, base_color_range=(0.0, 0.1)),
    dict(min_size=30.0, max_size=30.0),
], ids=["one-pixel", "contrast-below-bound", "contrast-dark-base", "one-size"])
def test_spec_accepts_renderable_edge(kw):
    scene = Dt.generate_split(Dt.DomainSpec(**kw), 1, 0, "x")[0]
    assert scene.image.shape == (Dt.DomainSpec(**kw).image_size,) * 2 + (3,)


# ---------------------------------------------------------------------------
# dataset round trips
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    spec = Dt.DomainSpec(shift="fog", fog_strength=0.5)
    scenes = Dt.generate_split(spec, 10, 42, "t")
    Dt.write_dataset(scenes, tmp_path / "ds", spec=spec, seed=42)
    back = Dt.read_dataset(tmp_path / "ds")
    assert len(back) == 10
    for a, b in zip(scenes, back):
        assert a.id == b.id
        assert np.array_equal(a.boxes, b.boxes)        # annotations lossless
        assert np.array_equal(a.labels, b.labels)
        assert b.image.dtype == np.uint8                 # read images keep 8 bits
        assert np.abs(a.image - Dt.float_pixels(b.image)).max() <= 1 / 255  # quantization
    # a second write/read cycle is bit-exact (stable fixed point), and writing
    # the read images reproduces the files byte for byte
    Dt.write_dataset(back, tmp_path / "ds2", spec, 42)
    again = Dt.read_dataset(tmp_path / "ds2")
    for b, c in zip(back, again):
        assert b.image.tobytes() == c.image.tobytes()
        name = f"images/{b.id}.ppm"
        assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "ds2" / name).read_bytes()


def test_float_pixels():
    """8-bit pixels become float32 as q / 255; float images come back as
    they are."""
    q = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    f = Dt.float_pixels(q)
    assert f.dtype == np.float32 and f.shape == q.shape
    assert f.tobytes() == (q.astype(np.float32) / 255.0).tobytes()
    assert f.min() == 0 and f.max() == 1
    for dtype in (np.float32, np.float64):
        x = np.full((2, 2, 3), 0.5, dtype)
        assert Dt.float_pixels(x) is x


def test_read_dataset_holds_8_bit_pixels(tmp_path):
    """64 read 96-px scenes hold under 2 MiB: 27,648 bytes of pixels each,
    where float32 pixels would take 6.8 MiB."""
    spec = Dt.DomainSpec()
    Dt.write_dataset(Dt.generate_split(spec, 64, 0, "m"), tmp_path / "ds", spec, 0)
    tracemalloc.start()
    try:
        scenes = Dt.read_dataset(tmp_path / "ds")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(scenes) == 64 and held < 2 * 2 ** 20


def test_empty_dataset(tmp_path):
    Dt.write_dataset([], tmp_path / "empty", Dt.DomainSpec(), 0)
    assert (tmp_path / "empty" / "manifest.json").exists()
    assert Dt.read_dataset(tmp_path / "empty") == []


def test_interrupted_rewrite_leaves_no_readable_split(tmp_path, monkeypatch):
    """Rewriting a 6-scene seed-0 split as 10 seed-1 scenes fails at the
    seventh image: read_dataset refuses the split (no manifest) instead of
    reading 6 seed-1 scenes under the seed-0 manifest, and no temporary
    file is left. A complete rewrite then reads as the new split."""
    spec = Dt.DomainSpec(image_size=32, min_size=8, max_size=16, min_objects=1,
                         max_objects=2)
    out = tmp_path / "ds"
    Dt.write_dataset(Dt.generate_split(spec, 6, 0, "s"), out, spec, 0)
    new = Dt.generate_split(spec, 10, 1, "s")
    real, written = Dt._write_ppm, []

    def failing(path, image):
        if len(written) == 6:
            raise OSError(28, "No space left on device")
        written.append(path)
        real(path, image)

    monkeypatch.setattr(Dt, "_write_ppm", failing)
    with pytest.raises(OSError):
        Dt.write_dataset(new, out, spec, 1)
    with pytest.raises(Dt.DataError, match="missing manifest"):
        Dt.read_dataset(out)
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    monkeypatch.undo()
    Dt.write_dataset(new, out, spec, 1)
    back = Dt.read_dataset(out)
    assert [(s.id, s.boxes.tobytes()) for s in back] == \
        [(s.id, s.boxes.tobytes()) for s in new]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["seed"], manifest["count"]) == (1, 10)


def test_smaller_rewrite_removes_earlier_images(tmp_path):
    """Writing 6 scenes where 10 were written leaves exactly the 6 new
    images, and the split reads as those 6 scenes."""
    spec = Dt.DomainSpec(image_size=32, min_size=8, max_size=16, min_objects=1,
                         max_objects=2)
    out = tmp_path / "ds"
    Dt.write_dataset(Dt.generate_split(spec, 10, 0, "s"), out, spec, 0)
    new = Dt.generate_split(spec, 6, 1, "s")
    Dt.write_dataset(new, out, spec, 1)
    assert sorted(p.name for p in (out / "images").iterdir()) == \
        [f"{s.id}.ppm" for s in new]
    assert [s.id for s in Dt.read_dataset(out)] == [s.id for s in new]


def test_read_errors(tmp_path):
    with pytest.raises(Dt.DataError):
        Dt.read_dataset(tmp_path / "missing")
    spec = Dt.DomainSpec()
    scenes = Dt.generate_split(spec, 2, 0, "x")
    Dt.write_dataset(scenes, tmp_path / "broken", spec, 0)
    (tmp_path / "broken" / "images" / "x_00000.ppm").write_bytes(b"P5 nonsense")
    with pytest.raises(Dt.DataError) as err:
        Dt.read_dataset(tmp_path / "broken")
    assert "x_00000" in str(err.value)

    # a malformed second annotation record is a DataError naming file:line
    Dt.write_dataset(scenes, tmp_path / "records", spec, 0)
    apath = tmp_path / "records" / "annotations.jsonl"
    first = apath.read_text().splitlines()[0]
    image = "images/x_00001.ppm"
    for record in [{"id": "x_00001", "boxes": [], "labels": []},         # no file
                   [1, 2],                                              # no object
                   {"file": image, "boxes": [[1, 2, 3, 4], [1, 2]], "labels": [0, 1]},
                   {"file": image, "boxes": [[1, 2, 3, 4]], "labels": [0, 1]},
                   {"file": image, "id": [1], "boxes": [], "labels": []},
                   # labels outside the manifest's three classes
                   {"file": image, "boxes": [[1, 2, 3, 4]], "labels": [7]},
                   {"file": image, "boxes": [[1, 2, 3, 4]], "labels": [3]},
                   {"file": image, "boxes": [[1, 2, 3, 4]], "labels": [-1]},
                   # boxes that are not finite or have no area
                   {"file": image, "boxes": [[10, 10, 5, float("nan")]], "labels": [0]},
                   {"file": image, "boxes": [[1, 2, float("inf"), 4]], "labels": [0]},
                   {"file": image, "boxes": [[1, 2, 3, 4], [5, 2, 5, 4]], "labels": [0, 1]},
                   {"file": image, "boxes": [[1, 4, 3, 2]], "labels": [0]},
                   # the scene id of line 1 again
                   {"file": image, "id": "x_00000", "boxes": [], "labels": []},
                   # boxes reaching past an edge of the 96x96 image
                   {"file": image, "boxes": [[-0.5, 2, 3, 4]], "labels": [0]},
                   {"file": image, "boxes": [[1, 2, 3, 97]], "labels": [0]},
                   {"file": image, "boxes": [[1, 2, 96.5, 4]], "labels": [0]},
                   {"file": image, "boxes": [[100, 100, 140, 140]], "labels": [0]}]:
        apath.write_text(f"{first}\n{json.dumps(record)}\n")
        with pytest.raises(Dt.DataError) as err:
            Dt.read_dataset(tmp_path / "records")
        assert f"{apath}:2" in str(err.value), record
    assert "96x96 image" in str(err.value)  # the last record's box
    # boxes reaching the image's bottom and right edges load
    edge = {"file": image, "boxes": [[0, 0, 0.5, 96], [1, 2, 3, 4], [90, 10, 96, 20]],
            "labels": [2, 0, 1]}
    apath.write_text(f"{first}\n{json.dumps(edge)}\n")
    assert Dt.read_dataset(tmp_path / "records")[1].labels.tolist() == [2, 0, 1]


@pytest.mark.parametrize("manifest", ["[1]", '"x"', "{}", '{"classes": 3}'])
def test_manifest_must_be_object_with_classes(tmp_path, manifest):
    Dt.write_dataset(Dt.generate_split(Dt.DomainSpec(), 1, 0, "x"), tmp_path / "ds",
                     Dt.DomainSpec(), 0)
    mpath = tmp_path / "ds" / "manifest.json"
    mpath.write_text(manifest)
    with pytest.raises(Dt.DataError) as err:
        Dt.read_dataset(tmp_path / "ds")
    assert str(mpath) in str(err.value)


def test_manifest_bytes_pinned(tmp_path):
    """manifest.json, spec included, byte for byte: tuples are JSON lists."""
    cases = {
        "fog": (Dt.DomainSpec(shift="fog", fog_strength=0.65),
                "ef4adc55ebf92a080343936ee438783027fc8923ef48e836ec28f6589bd8f2f3"),
        "source": (Dt.DomainSpec(fog_strength=0.65),
                   "be7485c361fa5f4e95434fc9fad45e4c8b6a23f458b123c3881d100449a16c73"),
        "color": (Dt.DomainSpec(shift="color", color_cast=(1.2, 0.9, 0.8),
                                base_color_range=(0.3, 0.7)),
                  "1bb09e84d2bdc07d24751411a0b09aa4c68111a8242c28782f60e1398c48c0bb"),
    }
    for name, (spec, digest) in cases.items():
        Dt.write_dataset([], tmp_path / name, spec=spec, seed=3)
        raw = (tmp_path / name / "manifest.json").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name
    assert b'"haze_color": [\n   0.92,\n   0.92,\n   0.95\n  ]' in raw


def test_split_scene_ids_and_determinism():
    spec = Dt.DomainSpec()
    a = Dt.generate_split(spec, 3, 9, "train")
    b = Dt.generate_split(spec, 3, 9, "train")
    assert [s.id for s in a] == ["train_00000", "train_00001", "train_00002"]
    for x, y in zip(a, b):
        assert x.image.tobytes() == y.image.tobytes()


# ---------------------------------------------------------------------------
# rendering against the full-grid references
# ---------------------------------------------------------------------------

def shape_mask_meshgrid(class_id, x1, y1, x2, y2, region_x, region_y, rw, rh):
    """Reference _shape_mask on two full np.meshgrid coordinate grids."""
    ss = Dt._SS
    ys = (np.arange(rh * ss) + 0.5) / ss + region_y
    xs = (np.arange(rw * ss) + 0.5) / ss + region_x
    gx, gy = np.meshgrid(xs, ys)
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    w, h = x2 - x1, y2 - y1
    if class_id == 0:
        r = w / 2
        inside = (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
    elif class_id == 1:
        inside = (gx >= x1) & (gx <= x2) & (gy >= y1) & (gy <= y2)
    else:
        t = np.clip((gy - y1) / max(h, 1e-6), 0, 1)
        half = t * (w / 2)
        inside = (np.abs(gx - cx) <= half) & (gy >= y1) & (gy <= y2)
    inside = inside.astype(np.float32)
    return inside.reshape(rh, ss, rw, ss).mean(axis=(1, 3))


def background_zoom3d(spec, rng):
    """Reference _background: one 3-D zoom of the coarse noise stack."""
    from scipy.ndimage import zoom

    s = spec.image_size
    lo, hi = spec.base_color_range
    base = rng.uniform(lo, hi, size=3).astype(np.float32)
    coarse = rng.uniform(-1, 1, size=(spec.noise_cells, spec.noise_cells, 3))
    noise = zoom(coarse, (s / spec.noise_cells, s / spec.noise_cells, 1), order=1)
    img = base[None, None, :] + spec.noise_amplitude * noise.astype(np.float32)
    return np.clip(img, 0, 1).astype(np.float32), base


def mask_cases(rng, s=96, n=60):
    """Random boxes, many clipped at the image edge, with the pixel region
    generate_scene would render them into, plus near-degenerate triangles."""
    for _ in range(n):
        size = rng.uniform(2.0, 50.0)
        cx, cy = rng.uniform(-10, s + 10, size=2)
        x1, y1, x2, y2 = cx - size / 2, cy - size / 2, cx + size / 2, cy + size / 2
        vx1, vy1, vx2, vy2 = max(x1, 0.0), max(y1, 0.0), min(x2, s), min(y2, s)
        if vx2 - vx1 < 1 or vy2 - vy1 < 1:
            continue
        rx0, ry0 = int(np.floor(vx1)), int(np.floor(vy1))
        rx1, ry1 = int(np.ceil(vx2)), int(np.ceil(vy2))
        for class_id in range(Dt.NUM_CLASSES):
            yield class_id, x1, y1, x2, y2, rx0, ry0, rx1 - rx0, ry1 - ry0
    for y1, dy in [(10.0, 0.0), (10.25, 1e-9), (3.5, 5e-7), (40.0, 1e-6)]:
        yield 2, 12.3, y1, 30.8, y1 + dy, 12, int(y1), 19, 2
    # edges, apex and disc rim exactly on supersample centres (k + 1/8 + j/4)
    for class_id in range(Dt.NUM_CLASSES):
        yield class_id, 16.125, 16.125, 24.125, 24.125, 16, 16, 9, 9


def test_shape_mask_matches_meshgrid_reference():
    cases = list(mask_cases(np.random.default_rng(5)))
    assert {c[0] for c in cases} == {0, 1, 2} and len(cases) > 100
    for case in cases:
        live, ref = Dt._shape_mask(*case), shape_mask_meshgrid(*case)
        assert live.dtype == ref.dtype and live.shape == ref.shape, case
        assert np.array_equal(live, ref), case


@pytest.mark.parametrize("size,cells", [(96, 12), (64, 8), (96, 7)])
def test_background_matches_3d_zoom_reference(size, cells):
    spec = Dt.DomainSpec(image_size=size, noise_cells=cells)
    for seed in range(40):
        img, base = Dt._background(spec, np.random.default_rng(seed))
        ref_img, ref_base = background_zoom3d(spec, np.random.default_rng(seed))
        assert img.shape == (size, size, 3)
        assert img.tobytes() == ref_img.tobytes() and base.tobytes() == ref_base.tobytes()


@pytest.mark.parametrize("spec", [
    Dt.DomainSpec(shift="fog", fog_strength=0.65),
    Dt.DomainSpec(shift="color", color_cast=(1.1, 0.8, 0.7)),
    Dt.DomainSpec(shift="scale", scale_factor=0.7, image_size=64, noise_cells=8),
], ids=["fog", "color", "scale"])
def test_split_matches_reference_rendering(spec, monkeypatch):
    """The scenes of the meshgrid masks and of scipy.ndimage's zoom and
    gaussian_filter in place of the numpy ones, byte for byte."""
    from scipy.ndimage import gaussian_filter

    live = Dt.generate_split(spec, 6, [3, 2], "t")
    monkeypatch.setattr(Dt, "_shape_mask", shape_mask_meshgrid)
    monkeypatch.setattr(Dt, "_background", background_zoom3d)
    monkeypatch.setattr(Dt, "gaussian_blur", gaussian_filter)
    ref = Dt.generate_split(spec, 6, [3, 2], "t")
    for a, b in zip(live, ref, strict=True):
        assert a.id == b.id
        assert a.image.tobytes() == b.image.tobytes()
        assert a.boxes.tobytes() == b.boxes.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


# ---------------------------------------------------------------------------
# the numpy blur and zoom against scipy.ndimage, their oracle
# ---------------------------------------------------------------------------

def assert_same_array(live, ref, case=None):
    assert live.dtype == ref.dtype and live.shape == ref.shape, case
    assert live.tobytes() == ref.tobytes(), case


def zoom_per_channel(grid, size):
    """Reference _zoom_linear: scipy's order-1 zoom of each channel."""
    from scipy.ndimage import zoom

    f = size / grid.shape[0]
    return np.stack([zoom(grid[..., k], (f, f), order=1) for k in range(grid.shape[2])],
                    axis=-1)


def test_gaussian_blur_matches_scipy_on_random_images():
    """float32 H x W x 3 images, values in and outside [0, 1], sigma in (0, 2]."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(11)
    for _ in range(150):
        h, w = (int(v) for v in rng.integers(8, 100, size=2))
        img = (rng.uniform(-0.5, 1.5) + rng.uniform(0.1, 2.0)
               * rng.random((h, w, 3), dtype=np.float32)).astype(np.float32)
        sigma = 2.0 - rng.uniform(0.0, 2.0)
        assert_same_array(Dt.gaussian_blur(img, (sigma, sigma, 0)),
                          gaussian_filter(img, (sigma, sigma, 0)), (h, w, sigma))


@pytest.mark.parametrize("sigma", [
    (1e-300, 1e-300, 0), (1e-12, 1e-12, 0), (0.1, 0.124, 0), (0.124, 0.125, 0),
    (0.125, 0.126, 0), (0.0, 1.5, 0), (1.5, 0.0, 0), (0.7, 1.3, 0.9),
])
def test_gaussian_blur_matches_scipy_near_zero_sigma(sigma):
    """An axis of radius int(4 sigma + 0.5) = 0 is skipped, as scipy skips
    it; every other axis, the channel axis included, is blurred."""
    from scipy.ndimage import gaussian_filter

    img = np.random.default_rng(3).random((40, 33, 3), dtype=np.float32)
    assert_same_array(Dt.gaussian_blur(img, sigma), gaussian_filter(img, sigma), sigma)


def test_gaussian_blur_leaves_a_zero_sigma_axis_unchanged():
    """With sigma 0 on one axis, each line across it is blurred on its own;
    with sigma 0 on every axis, the image itself comes back, unwritten."""
    img = np.random.default_rng(5).random((20, 17, 3), dtype=np.float32)
    before = img.tobytes()
    rows = Dt.gaussian_blur(img, (0.0, 1.5, 0))
    cols = Dt.gaussian_blur(img, (1.5, 0.0, 0))
    for i in range(17):
        assert_same_array(rows[i], Dt.gaussian_blur(img[i], (1.5, 0)), i)
        assert_same_array(cols[:, i], Dt.gaussian_blur(img[:, i], (1.5, 0)), i)
    assert Dt.gaussian_blur(img, (0.0, 0.0, 0)) is img
    assert img.tobytes() == before


@pytest.mark.parametrize("h,w", [(1, 1), (1, 5), (2, 3), (3, 7), (5, 4)])
def test_gaussian_blur_matches_scipy_when_radius_passes_the_side(h, w):
    """Radius 4 to 12 on sides of 1 to 7 pixels: the reflection repeats."""
    from scipy.ndimage import gaussian_filter

    img = np.random.default_rng(h * 10 + w).random((h, w, 3), dtype=np.float32)
    for sigma in (1.0, 1.7, 3.0):
        assert_same_array(Dt.gaussian_blur(img, (sigma, sigma, 0)),
                          gaussian_filter(img, (sigma, sigma, 0)), sigma)


def test_zoom_linear_matches_scipy():
    """3 to 16 cells to sizes from 32 to 128 px, among them sizes whose last
    coordinate rounds past the last cell (scipy fills it with 0)."""
    rng = np.random.default_rng(12)
    past = 0
    for cells in range(3, 17):
        for size in range(32, 129, 3):
            grid = rng.uniform(-1, 1, size=(cells, cells, 3))
            assert_same_array(Dt._zoom_linear(grid, size), zoom_per_channel(grid, size),
                              (cells, size))
            past += (size - 1) * ((cells - 1) / (size - 1)) > cells - 1
    assert past > 0
