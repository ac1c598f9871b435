"""Source training: one loss row per step, the log cadence and the state a
divergent step leaves. Dataset-level evaluation: one evaluation's traced
memory stays bounded, and a model that proposes nothing scores 0."""

import tracemalloc

import numpy as np
import pytest

from sfodlab import detector as D
from sfodlab import train
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


def test_train_source_returns_one_row_per_step():
    model = D.init_model(small_arch(), 0)
    history = train.train_source(model, source_scenes(), 3, 0.01, 2,
                                 np.random.default_rng(0), 0)
    assert [step for step, _ in history] == [1, 2, 3]
    for _, loss in history:
        assert isinstance(loss, D.LossBreakdown) and np.isfinite(loss.total)


@pytest.mark.parametrize("log_every,steps", [(2, [2, 4]), (0, [])], ids=["2", "off"])
def test_train_source_logs_every_nth_step(capsys, log_every, steps):
    model = D.init_model(small_arch(), 0)
    history = dict(train.train_source(model, source_scenes(), 4, 0.01, 2,
                                      np.random.default_rng(0), log_every))
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split()[1]) for line in lines] == steps
    for step, line in zip(steps, lines):
        assert f"total {history[step].total:.4f}" in line


def test_train_source_on_read_scenes_matches_float_decode(tmp_path):
    """Three steps on read scenes (8-bit pixels) give the losses and
    parameter bytes of three steps on their float32 decode."""
    read, decoded = read_back(source_scenes(), tmp_path / "ds")
    models = [D.init_model(small_arch(), 0) for _ in range(2)]
    histories = [train.train_source(m, scenes, 3, 0.01, 2, np.random.default_rng(0), 0)
                 for m, scenes in zip(models, (read, decoded))]
    assert histories[0] == histories[1]
    assert all(models[0].params[k].tobytes() == models[1].params[k].tobytes()
               for k in models[0].params)


def test_train_source_divergence_keeps_step_1_state(monkeypatch):
    """At lr 1e30 step 1 trains and step 2's loss is not finite: the
    NumericsError propagates, and every parameter, BN running statistics
    included, holds what step 1 left."""
    scenes = source_scenes()
    after_step_1 = D.init_model(small_arch(), 0)
    train.train_source(after_step_1, scenes, 1, 1e30, 2, np.random.default_rng(0), 0)

    calls = []
    real = train.forward_train

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(train, "forward_train", counting)
    model = D.init_model(small_arch(), 0)
    with np.errstate(all="ignore"), pytest.raises(NumericsError):
        train.train_source(model, scenes, 4, 1e30, 2, np.random.default_rng(0), 0)
    assert len(calls) == 2
    assert {k: v.tobytes() for k, v in model.params.items()} == \
        {k: v.tobytes() for k, v in after_step_1.params.items()}


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
