"""Adaptation-loop contracts: EMA algebra, pseudo-label filtering, the
alpha=1 / fixed-pseudo-label equivalence, AdaBN initialization, and the
strategy preset grid."""

import inspect
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import sfodlab
import sfodlab.adapt as adapt_mod
from sfodlab import cli, train
from sfodlab.adapt import (
    AdaptConfig,
    AdaptResult,
    TraceRow,
    adapt,
    ema_update,
    generate_pseudo_labels,
    strategy_presets,
)
from sfodlab.augment import mosaic, strong_augment, weak_augment
from sfodlab.batchnorm import collect_target_statistics
from sfodlab.boxes import Detections
from sfodlab.data import DomainSpec, Scene, generate_split
from sfodlab.detector import ArchDescriptor, LossBreakdown, init_model
from sfodlab.ops import NumericsError
from sfodlab.train import evaluate_model, train_step
from conftest import bn_stat_names, read_back


def small_arch():
    return ArchDescriptor(input_size=32, channels=(4, 8), feature_stride=4,
                          anchor_scales=(8.0, 16.0), anchor_aspects=(1.0,),
                          rpn_channels=8, roi_pool_size=3, roi_hidden=16)


def tiny_scenes(count, seed, shift="none"):
    spec = DomainSpec(image_size=32, min_size=8, max_size=16, min_objects=1,
                      max_objects=2, shift=shift, fog_strength=0.5)
    return generate_split(spec, count, seed, f"s{seed}")


def tiny_config(**kw):
    base = dict(lr=0.002, batch_size=2, max_steps=4, eval_period=2, seed=3)
    base.update(kw)
    return AdaptConfig(**base)


def test_package_names_the_module():
    """sfodlab.adapt is the module, which the monkeypatches below rely on,
    not the function of the same name."""
    assert inspect.ismodule(adapt_mod) and sfodlab.adapt is adapt_mod


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------

def test_ema_alpha_one_freezes_teacher():
    m = init_model(small_arch(), 0)
    s = init_model(small_arch(), 1)
    before = {k: v.tobytes() for k, v in m.params.items()}
    out = ema_update(m, s, 1.0)
    assert out is m
    assert all(out.params[k].tobytes() == before[k] for k in before)


def test_ema_alpha_zero_copies_student():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 1)
    out = ema_update(t, s, 0.0)
    assert all(np.array_equal(out.params[k], s.params[k]) for k in s.params)
    out.params["rpn.conv.b"][:] = 5  # a copy, not a reference
    assert not np.array_equal(out.params["rpn.conv.b"], s.params["rpn.conv.b"])


def test_ema_scalar_value():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 1)
    t.params["rpn.conv.b"][:] = 1.0
    s.params["rpn.conv.b"][:] = 0.0
    out = ema_update(t, s, 0.9996)
    assert abs(out.params["rpn.conv.b"][0] - 0.9996) < 1e-7


def test_ema_covers_bn_statistics():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 0)
    t.params["backbone.b0.bn.running_mean"][:] = 2.0
    s.params["backbone.b0.bn.running_mean"][:] = 0.0
    out = ema_update(t, s, 0.5)
    assert np.allclose(out.params["backbone.b0.bn.running_mean"], 1.0)


def test_ema_k_step_closed_form():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 1)
    alpha, k = 0.9, 8
    cur = t
    for _ in range(k):
        cur = ema_update(cur, s, alpha)
    for name in t.params:
        want = alpha ** k * t.params[name] + (1 - alpha ** k) * s.params[name]
        assert np.abs(cur.params[name] - want).max() < 1e-6, name


def test_ema_keeps_float64():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 1)
    for m in (t, s):
        m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
    out = ema_update(t, s, 0.9)
    for name in t.params:
        assert out.params[name].dtype == np.float64, name
        want = 0.9 * t.params[name] + (1.0 - 0.9) * s.params[name]
        assert out.params[name].tobytes() == want.tobytes(), name


def test_ema_name_mismatch():
    t = init_model(small_arch(), 0)
    s = init_model(small_arch(), 0)
    del s.params["rpn.conv.b"]
    with pytest.raises(KeyError):
        ema_update(t, s, 0.5)


# ---------------------------------------------------------------------------
# pseudo-labels
# ---------------------------------------------------------------------------

def test_pseudo_label_threshold_boundary(monkeypatch):
    canned = Detections(np.array([[1, 1, 9, 9], [2, 2, 8, 8], [3, 3, 7, 7.]], np.float32),
                        np.array([0, 1, 2]),
                        np.array([0.9, 0.8, 0.79], np.float32))
    monkeypatch.setattr(adapt_mod, "forward_inference_batch",
                        lambda model, images: [canned] * len(images))
    scenes = tiny_scenes(2, 0)
    out = generate_pseudo_labels(init_model(small_arch(), 0), scenes, 0.8)
    for sc in scenes:
        kept = out[sc.id]
        assert kept.scores.tolist() == [np.float32(0.9), np.float32(0.8)]


def test_pseudo_label_tau_extremes_and_monotone():
    model = init_model(small_arch(), 1)
    scenes = tiny_scenes(4, 1)
    everything = generate_pseudo_labels(model, scenes, 0.0)
    nothing = generate_pseudo_labels(model, scenes, 1.0 - 1e-9)
    assert all(len(v) == 0 for v in nothing.values()) or all(
        (v.scores >= 1.0 - 1e-9).all() for v in nothing.values())
    prev = None
    for tau in (0.0, 0.2, 0.5, 0.8, 0.95):
        labels = generate_pseudo_labels(model, scenes, tau)
        counts = sum(len(v) for v in labels.values())
        if prev is not None:
            assert counts <= prev
        prev = counts
    assert sum(len(v) for v in everything.values()) >= prev


def test_eval_mode_labeling_traced_peak_bound():
    """Eval-mode labeling holds one 4-image chunk's activations at a time:
    labeling 32 96-px scenes with the default detector peaks within
    0.25 MiB of its heaviest chunk labeled alone (3.7 MiB here). A ROI
    pool that gathered each image's whole window took 6.8 MiB, and
    16-image labeling chunks 21.4 MiB."""
    rng = np.random.default_rng(0)
    model = init_model(ArchDescriptor(), 0)
    scenes = [Scene(rng.random((96, 96, 3)).astype(np.float32), np.zeros((0, 4), np.float32),
                    np.zeros(0, np.int64), f"t{i}")
              for i in range(32)]

    def traced_peak(part):
        tracemalloc.start()
        try:
            generate_pseudo_labels(model, part, 0.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    generate_pseudo_labels(model, scenes[:4], 0.5)  # first-call allocations
    chunk_peak = max(traced_peak(scenes[s:s + 4]) for s in range(0, 32, 4))
    peak = traced_peak(scenes)
    assert peak < min(chunk_peak + 0.25 * 2 ** 20, 4.5 * 2 ** 20), \
        f"{peak / 2 ** 20:.1f} MiB against {chunk_peak / 2 ** 20:.1f} MiB for one chunk"


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_grid_complete():
    presets = strategy_presets()
    assert set(presets) == {
        "adabn", "sf_pl", "sf_fm", "fixed_sf_pl", "fixed_sf_fm",
        "adabn_fixed_sf_pl", "adabn_fixed_sf_fm", "mean_teacher", "sf_ut",
        "adabn_fixed_sf_pl_mosaic", "adabn_fixed_sf_fm_mosaic",
    }
    ut = presets["sf_ut"]
    assert ut.alpha == 0.9996 and ut.tau == 0.8
    assert ut.weak_strong and not ut.fixed_pls and ut.include_reg
    assert presets["adabn"].max_steps == 0 and presets["adabn"].adabn_first
    a, b = presets["fixed_sf_fm"], presets["fixed_sf_pl"]
    da = {k: v for k, v in asdict(a).items() if k not in ("strategy", "weak_strong")}
    db = {k: v for k, v in asdict(b).items() if k not in ("strategy", "weak_strong")}
    assert da == db and a.weak_strong and not b.weak_strong
    for name in ("sf_pl", "sf_fm"):
        assert presets[name].alpha == 0.0
    for name in ("fixed_sf_pl", "fixed_sf_fm", "adabn_fixed_sf_pl", "adabn_fixed_sf_fm"):
        assert presets[name].fixed_pls and presets[name].alpha == 1.0
    for name in ("adabn_fixed_sf_pl_mosaic", "adabn_fixed_sf_fm_mosaic"):
        assert presets[name].mosaic and presets[name].adabn_first


def test_config_validation_and_round_trip(tmp_path):
    with pytest.raises(ValueError):
        AdaptConfig(alpha=1.5)
    with pytest.raises(ValueError):
        AdaptConfig(tau=-0.1)
    # every field an `adapt --config` file may set reads back unchanged
    c = AdaptConfig(strategy="sf_ut", alpha=0.25, tau=0.65, weak_strong=False,
                    fixed_pls=True, teacher_batch_stats=False, lr=0.0025,
                    batch_size=3, max_steps=7, eval_subset=2, seed=11)
    path = tmp_path / "adapt.cfg"
    path.write_text("".join(f"{f.name} = {getattr(c, f.name)}\n" for f in fields(c)
                            if f.name not in ("strategy", "strong")))
    args = cli.build_parser().parse_args([
        "adapt", "--source-ckpt", "-", "--data", "-", "--out", "-",
        "--strategy", "sf_ut", "--config", str(path)])
    assert cli._adapt_config(args) == c


# ---------------------------------------------------------------------------
# the adapt loop
# ---------------------------------------------------------------------------

def test_adabn_strategy_changes_only_statistics():
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(8, 5, shift="fog")
    cfg = tiny_config(strategy="adabn", adabn_first=True, max_steps=0)
    res = adapt(source, targets, cfg, targets[:4])
    stats = bn_stat_names(source.arch)
    for name in source.params.keys() - set(stats):
        assert res.final.params[name].tobytes() == source.params[name].tobytes()
    assert any(res.final.params[n].tobytes() != source.params[n].tobytes()
               for n in stats)
    assert len(res.rows) == 1 and res.rows[0].step == 0


def test_fixed_pls_generated_exactly_once(monkeypatch):
    calls = []
    real = adapt_mod.generate_pseudo_labels

    def counting(labeler, scenes, tau):
        calls.append(len(list(scenes)))
        return real(labeler, scenes, tau)

    monkeypatch.setattr(adapt_mod, "generate_pseudo_labels", counting)
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(6, 6)
    adapt(source, targets, tiny_config(fixed_pls=True, alpha=1.0, max_steps=3),
          targets[:3])
    assert len(calls) == 1 and calls[0] == 6

    calls.clear()
    adapt(source, targets, tiny_config(fixed_pls=False, alpha=0.5, max_steps=3),
          targets[:3])
    assert len(calls) == 3  # once per step, on the batch only


@pytest.mark.parametrize("adabn_first", [False, True], ids=["source", "adabn"])
@pytest.mark.parametrize("fixed_pls", [False, True], ids=["per-step", "fixed"])
def test_labeling_uses_batch_statistics_only_through_adabn_first(
        monkeypatch, fixed_pls, adabn_first):
    """Labeling detects with the teacher itself; the only AdaBN sweep is
    adabn_first's, over all target images, and its model labels first."""
    labelers, sweeps = [], []
    real_detect = adapt_mod.forward_inference_batch
    real_collect = adapt_mod.collect_target_statistics

    def detecting(model, images):
        labelers.append(model)
        return real_detect(model, images)

    def collecting(model, images, batch_size):
        sweeps.append((list(images), batch_size, real_collect(model, images, batch_size)))
        return sweeps[-1][2]

    monkeypatch.setattr(adapt_mod, "forward_inference_batch", detecting)
    monkeypatch.setattr(adapt_mod, "collect_target_statistics", collecting)
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(6, 6)
    cfg = tiny_config(fixed_pls=fixed_pls, alpha=1.0 if fixed_pls else 0.5,
                      adabn_first=adabn_first, max_steps=3)
    adapt(source, targets, cfg, targets[:3])
    # one labeling call for the fixed set, else one per step
    assert len(labelers) == (1 if fixed_pls else 3)
    if adabn_first:
        [(images, batch_size, adapted)] = sweeps
        assert len(images) == len(targets) and all(
            a is s.image for a, s in zip(images, targets))
        assert batch_size == cfg.batch_size and labelers[0] is adapted
    else:
        assert sweeps == [] and labelers[0] is source


@pytest.mark.parametrize("strategy", sorted(
    name for name, preset in strategy_presets().items() if preset.fixed_pls))
def test_alpha_one_equals_fixed_pls(strategy):
    """Each fixed-label preset and its alpha = 1 mean-teacher form, which
    relabels every step, produce byte-identical traces and final weights."""
    source = init_model(small_arch(), 1)
    targets = tiny_scenes(8, 7, shift="fog")
    eval_scenes = tiny_scenes(4, 8, shift="fog")
    fixed = replace(strategy_presets()[strategy], tau=0.05, lr=0.002, batch_size=2,
                    max_steps=4, eval_period=2, seed=11)
    assert fixed.alpha == 1.0
    a, b = (adapt(source, targets, cfg, eval_scenes)
            for cfg in (replace(fixed, fixed_pls=False), fixed))
    assert a.rows == b.rows and all(r.num_pls > 0 for r in a.rows[1:])
    for name in a.final.params:
        assert a.final.params[name].tobytes() == b.final.params[name].tobytes()


def test_alpha_zero_teacher_follows_student(monkeypatch):
    seen = []
    real = adapt_mod.ema_update

    def recording(teacher, student, alpha):
        out = real(teacher, student, alpha)
        seen.append(all(np.array_equal(out.params[k], student.params[k])
                        for k in student.params))
        return out

    monkeypatch.setattr(adapt_mod, "ema_update", recording)
    source = init_model(small_arch(), 2)
    targets = tiny_scenes(6, 9)
    adapt(source, targets, tiny_config(alpha=0.0, max_steps=3), targets[:3])
    assert seen and all(seen)


def test_adabn_first_initializes_student_and_labeler(monkeypatch):
    source = init_model(small_arch(), 3)
    targets = tiny_scenes(6, 10, shift="fog")
    expected = collect_target_statistics(source, [s.image for s in targets], 2)

    captured = {}
    real = adapt_mod.generate_pseudo_labels

    def capture(labeler, scenes, tau):
        captured.setdefault("labeler", {k: v.copy() for k, v in labeler.params.items()})
        return real(labeler, scenes, tau)

    monkeypatch.setattr(adapt_mod, "generate_pseudo_labels", capture)
    cfg = tiny_config(strategy="adabn_fixed_sf_fm", adabn_first=True, fixed_pls=True,
                      alpha=1.0, weak_strong=True, max_steps=2)
    adapt(source, targets, cfg, targets[:3])
    for k, v in expected.params.items():
        assert np.array_equal(captured["labeler"][k], v), k


def test_divergence_preserves_trace(monkeypatch):
    source = init_model(small_arch(), 4)
    targets = tiny_scenes(6, 11)
    calls = {"n": 0}
    real = train.forward_train

    def exploding(model, images, tgts, rng, include_reg, update):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericsError("boom")
        return real(model, images, tgts, rng, include_reg, update)

    monkeypatch.setattr(train, "forward_train", exploding)
    res = adapt(source, targets, tiny_config(max_steps=10, eval_period=1), targets[:3])
    assert res.diverged_at == 3
    assert res.rows[-1].step == 2
    assert res.final is not None and res.best is not None


def test_collapse_is_recorded(monkeypatch):
    """A step that turns the student into NaN is evaluated (mAP 0, no
    proposals) and recorded; the next step's NumericsError ends the run, and
    best stays the step-0 teacher."""
    real = train.sgd_step

    def collapsing(params, name, grad, lr):
        real(params, name, grad, lr)
        for v in params.values():
            v[...] = np.nan

    monkeypatch.setattr(train, "sgd_step", collapsing)
    source = init_model(small_arch(), 4)
    targets = tiny_scenes(6, 11)
    with np.errstate(invalid="ignore"):
        res = adapt(source, targets, tiny_config(max_steps=3, eval_period=1),
                    targets[:3])
    assert res.diverged_at == 2
    assert [(r.step, r.evaluated) for r in res.rows] == [(0, True), (1, True)]
    assert res.rows[1].evaluation.map == 0.0 and res.final_map() == 0.0
    assert res.best is source


def test_trace_rows_and_argmax_best():
    source = init_model(small_arch(), 5)
    targets = tiny_scenes(6, 12)
    res = adapt(source, targets, tiny_config(max_steps=4, eval_period=2), targets[:3])
    steps = [r.step for r in res.rows]
    assert steps == [0, 1, 2, 3, 4]
    assert [r.evaluated for r in res.rows] == [True, False, True, False, True]
    assert res.peak_map() >= res.final_map()
    assert evaluate_model(res.best, targets[:3]).map == res.peak_map()
    assert evaluate_model(res.final, targets[:3]).map == res.final_map()


@pytest.mark.parametrize("strategy", ["sf_ut", "mean_teacher", "fixed_sf_pl"])
def test_adapt_leaves_source_untouched(strategy):
    source = init_model(small_arch(), 0)
    before = {k: v.tobytes() for k, v in source.params.items()}
    targets = tiny_scenes(6, 2, shift="fog")
    cfg = replace(strategy_presets()[strategy], tau=0.3, lr=0.002, batch_size=2,
                  max_steps=3, eval_period=2, seed=3)
    res = adapt(source, targets, cfg, targets[:2])
    assert {k: v.tobytes() for k, v in source.params.items()} == before
    assert any(res.final.params[k].tobytes() != before[k] for k in before)


@pytest.mark.parametrize("strategy", sorted(name for name, c in strategy_presets().items()
                                             if c.adabn_first))
def test_adabn_first_leaves_source_bytes(strategy):
    """The AdaBN teacher holds the source's weight arrays, and only a copy
    of it is trained: three steps of each adabn_first preset at a low tau,
    so that the student trains on pseudo-labels, leave the source's bytes
    as they were."""
    source = init_model(small_arch(), 0)
    before = {k: v.tobytes() for k, v in source.params.items()}
    targets = tiny_scenes(6, 2, shift="fog")
    cfg = replace(strategy_presets()[strategy], tau=0.05, lr=0.002, batch_size=2,
                  max_steps=3, eval_period=2, seed=3)
    res = adapt(source, targets, cfg, targets[:2])
    assert len(res.rows) == 4 and sum(r.num_pls for r in res.rows) > 0
    assert {k: v.tobytes() for k, v in source.params.items()} == before
    assert any(res.final.params[k].tobytes() != before[k] for k in before)


@pytest.mark.parametrize("strategy", sorted(strategy_presets()))
def test_adapt_never_writes_source(strategy):
    """The teacher may be source itself, so every preset must only read it:
    with source's arrays read-only, any in-place write would raise."""
    source = init_model(small_arch(), 6)
    before = {k: v.tobytes() for k, v in source.params.items()}
    for v in source.params.values():
        v.flags.writeable = False
    targets = tiny_scenes(6, 4, shift="fog")
    preset = strategy_presets()[strategy]
    cfg = replace(preset, tau=0.3, lr=0.002, batch_size=2,
                  max_steps=min(preset.max_steps, 2), eval_period=1, seed=5)
    adapt(source, targets, cfg, targets[:2])
    assert {k: v.tobytes() for k, v in source.params.items()} == before


@pytest.mark.parametrize("strategy", ["adabn", "fixed_sf_pl"])
def test_no_steps_final_is_best(strategy):
    """With max_steps = 0 the step-0 model is returned once as final and best:
    source's AdaBN adaptation for adabn, source itself otherwise."""
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(6, 5, shift="fog")
    cfg = replace(strategy_presets()[strategy], batch_size=2, max_steps=0, seed=3)
    res = adapt(source, targets, cfg, targets[:3])
    assert res.final is res.best
    assert len(res.rows) == 1
    assert (res.final is source) == (not cfg.adabn_first)


@pytest.mark.parametrize("strategy", ["sf_ut", "fixed_sf_pl"])
def test_no_evaluation_pool_best_is_final(strategy):
    """With an empty evaluation pool nothing selects a best: best is final,
    not the step-0 teacher, and the trace's evaluations of no scene read
    mAP 0."""
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(6, 5, shift="fog")
    cfg = replace(strategy_presets()[strategy], batch_size=2, max_steps=3,
                  eval_period=1, seed=3)
    res = adapt(source, targets, cfg, [])
    assert res.best is res.final and res.best is not source
    assert res.peak_map() == 0.0 and [r.step for r in res.rows] == [0, 1, 2, 3]


@pytest.mark.parametrize("adabn_first", [False, True], ids=["source", "adabn"])
def test_step_zero_best_is_the_initial_teacher(monkeypatch, adabn_first):
    """While no step beats step 0, best holds the bytes of the step-0
    teacher, although the student trained on from it."""
    real = adapt_mod.evaluate_model
    calls = []

    def worse_after_step_0(model, scenes):
        calls.append(real(model, scenes))
        return calls[-1] if len(calls) == 1 else replace(calls[-1], map=-1.0)

    monkeypatch.setattr(adapt_mod, "evaluate_model", worse_after_step_0)
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(6, 5, shift="fog")
    step0 = (collect_target_statistics(source, [s.image for s in targets], 2)
             if adabn_first else source.copy())
    cfg = tiny_config(alpha=0.0, tau=0.3, adabn_first=adabn_first, max_steps=3,
                      eval_period=1)
    res = adapt(source, targets, cfg, targets[:3])
    assert len(calls) == 4 and res.peak_map() == calls[0].map
    assert {k: v.tobytes() for k, v in res.best.params.items()} == \
        {k: v.tobytes() for k, v in step0.params.items()}
    assert any(res.final.params[k].tobytes() != v.tobytes()
               for k, v in step0.params.items())


# ---------------------------------------------------------------------------
# Byte oracle: the step as it read before augmentation became one call
# ---------------------------------------------------------------------------

def adapt_reference(source, target_scenes, config, eval_scenes):
    """adapt() with label attachment, weak/strong augmentation and mosaic
    written inline in the step, kept as the oracle of every preset's bytes."""
    def labeled_scene(scene, pls):
        return replace(scene, boxes=pls.boxes.astype(np.float32),
                       labels=pls.labels.copy())

    rng = np.random.default_rng(config.seed)
    n = len(target_scenes)
    if config.adabn_first:
        teacher = collect_target_statistics(
            source, [s.image for s in target_scenes], config.batch_size)
    else:
        teacher = source
    eval_pool = list(eval_scenes)[: config.eval_subset or None]
    evaluation = evaluate_model(teacher, eval_pool)
    rows = [TraceRow(0, LossBreakdown(0.0, 0.0, 0.0, 0.0), 0, evaluation)]
    if config.max_steps == 0:
        return AdaptResult(teacher, teacher, rows)
    best_map, best_model = evaluation.map, teacher

    student = teacher.copy()
    if config.fixed_pls:
        pl_set = generate_pseudo_labels(teacher, target_scenes, config.tau)

    for step in range(1, config.max_steps + 1):
        if config.mosaic:
            ids = rng.choice(n, size=(config.batch_size, 4), replace=True)
        else:
            ids = rng.choice(n, size=min(config.batch_size, n), replace=False)
        chosen = [target_scenes[int(i)] for i in ids.ravel()]
        pls = pl_set if config.fixed_pls else generate_pseudo_labels(
            teacher, chosen, config.tau)
        labeled = [labeled_scene(s, pls[s.id]) for s in chosen]

        views = []
        for s in labeled:
            v = weak_augment(s, rng)
            if config.weak_strong:
                v = strong_augment(v, config.strong, rng)
            views.append(v)
        if config.mosaic:
            size = views[0].image.shape[0]
            views = [mosaic(views[4 * k:4 * k + 4], size)
                     for k in range(config.batch_size)]

        num_pls = int(sum(len(v.boxes) for v in views))
        try:
            loss = train_step(student, views, rng, config.lr, config.include_reg)
        except NumericsError:
            return AdaptResult(student, best_model, rows, diverged_at=step)
        if not config.fixed_pls:
            teacher = ema_update(teacher, student, config.alpha)

        evaluated = step % config.eval_period == 0 or step == config.max_steps
        if evaluated:
            evaluation = evaluate_model(student, eval_pool)
            if evaluation.map > best_map:
                best_map, best_model = evaluation.map, student.copy()
        rows.append(TraceRow(step, loss, num_pls, evaluation, evaluated))

    return AdaptResult(student, best_model, rows)


@pytest.mark.parametrize("strategy", sorted(strategy_presets()))
def test_adapt_matches_reference(strategy):
    """Every preset gives the reference's rows and final/best bytes. At
    tau = 0.05 every step trains on pseudo-labels, mosaic steps included."""
    source = init_model(small_arch(), 0)
    targets = tiny_scenes(8, 7, shift="fog")
    preset = strategy_presets()[strategy]
    cfg = replace(preset, tau=0.05, lr=0.002, batch_size=2,
                  max_steps=min(preset.max_steps, 4), eval_period=2, seed=3)
    got = adapt(source, targets, cfg, targets[:3])
    want = adapt_reference(source, targets, cfg, targets[:3])
    assert got.rows == want.rows and got.diverged_at == want.diverged_at
    assert cfg.max_steps == 0 or all(r.num_pls > 0 for r in got.rows[1:])
    for model in ("final", "best"):
        a, b = getattr(got, model).params, getattr(want, model).params
        assert a.keys() == b.keys()
        assert all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
                   for k in a)


@pytest.mark.parametrize("strategy", ["adabn", "adabn_fixed_sf_fm_mosaic",
                                      "adabn_fixed_sf_pl_mosaic", "sf_ut"])
def test_adapt_on_read_scenes_matches_float_decode(tmp_path, strategy):
    """Read scenes keep their 8-bit pixels until the batch: adapt() on them
    gives the rows and final bytes of the same scenes decoded to float32
    first. At tau = 0.05 every step trains on pseudo-labels."""
    source = init_model(small_arch(), 0)
    read, decoded = read_back(tiny_scenes(8, 7, shift="fog"), tmp_path / "ds")
    preset = strategy_presets()[strategy]
    cfg = replace(preset, tau=0.05, lr=0.002, batch_size=2,
                  max_steps=min(preset.max_steps, 3), eval_period=2, seed=3)
    got = adapt(source, read, cfg, read[:3])
    want = adapt(source, decoded, cfg, decoded[:3])
    assert got.rows == want.rows and got.diverged_at is want.diverged_at is None
    assert all(r.num_pls > 0 for r in got.rows[1:])
    assert got.final.params.keys() == want.final.params.keys()
    assert all(got.final.params[k].tobytes() == want.final.params[k].tobytes()
               for k in got.final.params)
