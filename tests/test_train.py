"""Source training: one loss row per step, the bytes of the loop it
replaced and the state a divergent step leaves. Dataset-level evaluation:
one evaluation's traced memory stays bounded, and a model that proposes
nothing scores 0."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sfodlab import detector as D
from sfodlab import train
from sfodlab.adapt import strategy_presets
from sfodlab.augment import weak_augment
from sfodlab.data import DomainSpec, Scene, generate_split
from sfodlab.ops import NumericsError
from conftest import read_back


def small_arch():
    return D.ArchDescriptor(input_size=32, channels=(4, 8), feature_stride=4,
                            anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                            rpn_channels=8, roi_pool_size=3, roi_hidden=16)


def source_scenes(count=6):
    spec = DomainSpec(image_size=32, min_size=8, max_size=16, min_objects=1,
                      max_objects=2)
    return generate_split(spec, count, 0, "src")


def param_bytes(model):
    return {k: v.tobytes() for k, v in model.params.items()}


def train_source(scenes, steps, lr, batch_size, seed):
    """train.train_source of small_arch() with the config the train-source
    command builds: the fixed_sf_pl preset with these options."""
    config = replace(strategy_presets()["fixed_sf_pl"], max_steps=steps, lr=lr,
                     batch_size=batch_size, seed=seed)
    return train.train_source(small_arch(), scenes, config)


def train_source_reference(model, scenes, steps, lr, batch_size, rng):
    """Source training's own loop before it became an adapt() call, kept as
    the oracle of train_source's bytes: yields (step, LossBreakdown) per
    step, trains model in place and raises NumericsError on a non-finite
    loss."""
    n = len(scenes)
    for step in range(1, steps + 1):
        ids = rng.choice(n, size=min(batch_size, n), replace=False)
        batch = [weak_augment(scenes[i], rng) for i in ids]
        yield step, train.train_step(model, batch, rng, lr, include_reg=True)


@pytest.mark.parametrize("count,steps,lr,batch_size,read,diverged_at", [
    (3, 3, 0.01, 5, False, None),
    (6, 3, 0.01, 2, True, None),
    (6, 0, 0.01, 2, False, None),
    (6, 4, 1e30, 2, False, 2),
], ids=["batch-over-count", "read-scenes", "zero-steps", "lr-1e30"])
def test_train_source_matches_reference(tmp_path, count, steps, lr, batch_size, read,
                                        diverged_at):
    """train_source's rows and final parameter bytes are those of the old
    loop on a model initialised from the config's seed; where the old loop
    raised at step N, the run ends with diverged_at N and final holds the
    bytes the old loop left."""
    scenes = source_scenes(count)
    if read:
        scenes, _ = read_back(scenes, tmp_path / "ds")
    want_model, want, raised_at = D.init_model(small_arch(), 3), [], None
    with np.errstate(all="ignore"):
        try:
            for row in train_source_reference(want_model, scenes, steps, lr, batch_size,
                                              np.random.default_rng(3)):
                want.append(row)
        except NumericsError:
            raised_at = len(want) + 1
        result = train_source(scenes, steps, lr, batch_size, 3)
    assert raised_at == result.diverged_at == diverged_at
    assert [(r.step, r.loss) for r in result.rows[1:]] == want
    assert param_bytes(result.final) == param_bytes(want_model)


def test_train_source_returns_one_row_per_step():
    result = train_source(source_scenes(), 3, 0.01, 2, 0)
    assert [r.step for r in result.rows] == [0, 1, 2, 3]
    assert result.diverged_at is None
    for r in result.rows[1:]:
        assert isinstance(r.loss, D.LossBreakdown) and np.isfinite(r.loss.total)


def test_train_source_on_read_scenes_matches_float_decode(tmp_path):
    """Three steps on read scenes (8-bit pixels) give the rows and final
    parameter bytes of three steps on their float32 decode."""
    read, decoded = read_back(source_scenes(), tmp_path / "ds")
    results = [train_source(scenes, 3, 0.01, 2, 0)
               for scenes in (read, decoded)]
    assert results[0].rows == results[1].rows
    assert param_bytes(results[0].final) == param_bytes(results[1].final)


def test_train_source_divergence_keeps_step_1_state(monkeypatch):
    """At lr 1e30 step 1 trains and step 2's loss is not finite: the run
    ends with diverged_at 2 after two forward passes, and every final
    parameter, BN running statistics included, holds what step 1 left."""
    scenes = source_scenes()
    after_step_1 = train_source(scenes, 1, 1e30, 2, 0).final

    calls = []
    real = train.forward_train

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(train, "forward_train", counting)
    with np.errstate(all="ignore"):
        result = train_source(scenes, 4, 1e30, 2, 0)
    assert result.diverged_at == 2 and len(calls) == 2
    assert [r.step for r in result.rows] == [0, 1]
    assert param_bytes(result.final) == param_bytes(after_step_1)


def test_evaluate_model_traced_peak_bound():
    """One evaluation of 16 96-px scenes with the default detector: 4-image
    chunks, the in-place BN and ReLU, a backbone that unbinds each block's
    activations before the next conv, convs that unfold one image at a
    time and a ROI pool that gathers one cell offset at a time keep the
    traced transient at about 3.6 MiB. Unfolding the chunk's four images
    at once peaked at 5.5 MiB in block 0's conv; with the activations
    still bound it peaked in block 1's at 6.1 MiB, an out-of-place BN or
    ReLU adds about 1.1 MiB each, and 8-image chunks with both took
    16.6 MiB."""
    rng = np.random.default_rng(0)
    model = D.init_model(D.ArchDescriptor(), 0)
    scenes = [Scene(rng.random((96, 96, 3)).astype(np.float32),
                    np.array([[10, 12, 50, 60]], np.float32), np.array([i % 3]))
              for i in range(16)]
    train.evaluate_model(model, scenes[:4])  # first-call allocations are not the bound
    tracemalloc.start()
    try:
        train.evaluate_model(model, scenes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_nan_model_detects_nothing(rng):
    """A model whose every parameter is NaN proposes no box: each image gets
    empty Detections and its mAP is 0. A chunk in which no image has a
    proposal reaches the ROI head with zero rows."""
    model = D.init_model(small_arch(), 0)
    for v in model.params.values():
        v[...] = np.nan
    scenes = [Scene(rng.random((32, 32, 3)).astype(np.float32),
                    np.array([[4, 4, 20, 20]], np.float32), np.array([i % 3]))
              for i in range(6)]
    with np.errstate(invalid="ignore"):
        dets = D.forward_inference_batch(model, [s.image for s in scenes])
        res = train.evaluate_model(model, scenes)
    assert [len(d) for d in dets] == [0] * 6
    assert res.map == 0.0
