"""Source training: one loss row per step, the bytes of the loop it
replaced and the state a divergent step leaves. Dataset-level evaluation:
one evaluation's traced memory stays bounded, and a model that proposes
nothing scores 0."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import sfodlab.adapt as adapt_mod
from sfodlab import detector as D
from sfodlab import train
from sfodlab.adapt import strategy_presets
from sfodlab.augment import weak_augment
from sfodlab.data import DomainSpec, Scene, generate_split
from sfodlab.ops import NumericsError
from conftest import needs_argument_handover, read_back, small_arch


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


def scenes_for(arch, count):
    if arch.input_size == 32:
        return source_scenes(count)
    return generate_split(DomainSpec(image_size=arch.input_size), count, 0, "src")


def two_phase_step(model, views, rng, lr, include_reg):
    """train_step as it was: every gradient collected first, then
    w -= lr * g for each."""
    grads = {}
    loss = D.forward_train(model, D.images_to_batch([v.image for v in views]),
                           [(v.boxes, v.labels) for v in views], rng, include_reg,
                           grads.__setitem__)
    for name, g in grads.items():
        model.params[name] -= lr * g
    return loss


@pytest.mark.parametrize("include_reg", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", [small_arch(), D.ArchDescriptor()], ids=["small", "default"])
def test_train_step_matches_two_phase_sgd(arch, dtype, include_reg):
    """Three train_steps, which update each parameter as soon as its
    gradient exists, give the loss and parameter bytes of three steps that
    build every gradient before updating any parameter."""
    scenes = scenes_for(arch, 4)
    live = D.init_model(arch, 0)
    live.params = {k: v.astype(dtype) for k, v in live.params.items()}
    want = live.copy()
    live_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    for step in range(3):
        views = scenes[step:] + scenes[:step]
        loss = train.train_step(live, views, live_rng, 0.01, include_reg)
        assert loss == two_phase_step(want, views, want_rng, 0.01, include_reg), step
        assert (loss.rpn_reg > 0 or loss.roi_reg > 0) == include_reg
        for name, v in live.params.items():
            # BN running statistics are stored as float32 whatever the dtype
            assert v.dtype == (np.float32 if ".running_" in name else dtype), name
            assert v.tobytes() == want.params[name].tobytes(), (step, name)
    assert param_bytes(live) != param_bytes(D.init_model(arch, 0))


def test_train_step_traced_peak_bound():
    """One batch-4 train_step of the default detector on 96-px scenes keeps
    its traced peak under 8 MiB (measured: 7.5 MiB, in fc1's
    linear_backward; 8.8 MiB while the whole gradient dict was built before
    the SGD step and the backbone cached a ReLU mask per block)."""
    rng = np.random.default_rng(0)
    arch = D.ArchDescriptor()
    model = D.init_model(arch, 0)
    views = [Scene(rng.random((96, 96, 3)).astype(np.float32),
                   np.array([[8, 8, 40, 40], [50, 30, 80, 70]], np.float32),
                   np.array([i % 3, (i + 1) % 3]))
             for i in range(4)]
    train.train_step(model, views, np.random.default_rng(0), 1e-3, True)
    tracemalloc.start()
    try:
        train.train_step(model, views, np.random.default_rng(1), 1e-3, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_train_source_returns_one_row_per_step():
    result = train_source(source_scenes(), 3, 0.01, 2, 0)
    assert [r.step for r in result.rows] == [0, 1, 2, 3]
    assert result.diverged_at is None
    for r in result.rows[1:]:
        assert isinstance(r.loss, D.LossBreakdown) and np.isfinite(r.loss.total)


@needs_argument_handover
def test_train_source_frees_the_initial_model(monkeypatch):
    """Nothing reads the initial model once the student copy exists: with
    the ground truth as fixed labels and no evaluation pool it is neither
    labeler nor best, so its arrays are dead in every train_step."""
    real_init, real_step = train.init_model, adapt_mod.train_step
    refs, alive = [], []

    def initialising(arch, seed):
        model = real_init(arch, seed)
        refs.extend(weakref.ref(v) for v in model.params.values())
        return model

    def recording(model, views, rng, lr, include_reg):
        alive.append(any(r() is not None for r in refs))
        return real_step(model, views, rng, lr, include_reg)

    monkeypatch.setattr(train, "init_model", initialising)
    monkeypatch.setattr(adapt_mod, "train_step", recording)
    result = train_source(source_scenes(), 3, 0.01, 2, 0)
    assert len(refs) == len(small_arch().param_shapes())
    assert alive == [False, False, False] and result.best is result.final


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
