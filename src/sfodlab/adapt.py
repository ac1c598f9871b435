"""Source-free self-training adaptation strategies.

Every strategy is one point on four axes: the teacher EMA rate alpha
(0 = teacher follows the student each step, 1 = frozen teacher), whether
the pseudo-label set is fixed at initialization, whether students train on
strongly-augmented views of weakly-augmented inputs, and whether batch
statistics are adapted (AdaBN) before anything else. Mosaic composition of
fixed-pseudo-label scenes is an optional fifth axis.

With ``teacher_batch_stats=False`` (the default), setting ``fixed_pls`` is
semantically identical to alpha = 1: the teacher never changes and labels
in eval mode, so the label set it would regenerate each step is the
initial one. The loop exploits neither; the equivalence is asserted by
tests on byte-identical traces. With ``teacher_batch_stats=True`` it does
not hold: the fixed set is labeled under the statistics of 16-scene chunks
of the target set, each step's labels under those of its mini-batch.

The teacher labels raw (unaugmented) target images in eval mode; the flip
of the weak view is applied jointly to the image and its pseudo-boxes
afterwards, which keeps per-step labeling and fixed label sets exactly
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .augment import StrongAugParams, mosaic, strong_augment, weak_augment
from .batchnorm import collect_target_statistics
from .boxes import Detections
from .detector import (
    ModelState,
    forward_inference_batch,
    forward_train,
    images_to_batch,
)
from .ops import NumericsError, sgd_step
from .train import evaluate_model


@dataclass
class AdaptConfig:
    """Strategy selector: the axes of the self-training configuration grid."""

    strategy: str = "custom"
    alpha: float = 0.9996          # teacher EMA rate
    tau: float = 0.8               # pseudo-label confidence threshold
    weak_strong: bool = True       # train student on strongly-augmented views
    fixed_pls: bool = False        # freeze the initial pseudo-label set
    adabn_first: bool = False      # adapt batch statistics before anything
    mosaic: bool = False           # 4-scene composites (fixed-PL strategies)
    include_reg: bool = True       # box regression losses on pseudo-labels
    teacher_batch_stats: bool = False  # label with per-batch instead of running stats
    lr: float = 0.001
    batch_size: int = 4
    max_steps: int = 4000
    eval_period: int = 100
    eval_subset: int = 0           # trace evaluations use this many eval scenes (0 = all)
    seed: int = 0
    strong: StrongAugParams = field(default_factory=StrongAugParams)

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.tau <= 1:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        for name, low in (("batch_size", 1), ("max_steps", 0), ("eval_period", 1),
                          ("eval_subset", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class TraceRow:
    step: int
    total_loss: float
    rpn_cls: float
    rpn_reg: float
    roi_cls: float
    roi_reg: float
    num_pls: int
    map: float                 # last evaluated mAP, carried between evals
    per_class_ap: dict
    evaluated: bool = True     # whether an evaluation ran at this step


@dataclass
class AdaptTrace:
    rows: list = field(default_factory=list)
    diverged_at: int | None = None

    def steps(self):
        return np.array([r.step for r in self.rows])

    def eval_rows(self):
        """Rows where an evaluation actually ran (mAP not carried forward)."""
        return [r for r in self.rows if r.evaluated]

    def peak_map(self) -> float:
        rows = self.eval_rows()
        return max(r.map for r in rows) if rows else 0.0

    def final_map(self) -> float:
        rows = self.eval_rows()
        return rows[-1].map if rows else 0.0


@dataclass
class AdaptResult:
    final: ModelState
    best: ModelState
    trace: AdaptTrace


def ema_update(teacher: ModelState, student: ModelState, alpha: float) -> ModelState:
    """theta_t <- alpha*theta_t + (1-alpha)*theta_s for every entry,
    BN affine and running statistics included."""
    if teacher.params.keys() != student.params.keys():
        raise KeyError("ema_update: parameter name sets differ")
    if alpha == 1.0:
        return teacher
    if alpha == 0.0:
        return student.copy()
    params = {}
    for name, t in teacher.params.items():
        s = student.params[name]
        if t.shape != s.shape:
            raise KeyError(f"ema_update: shape mismatch for {name}")
        params[name] = (alpha * t + (1.0 - alpha) * s).astype(t.dtype, copy=False)
    return ModelState(teacher.arch, params)


def generate_pseudo_labels(labeler: ModelState, scenes, tau: float,
                           batch_stats: bool = False) -> dict:
    """Run full inference per scene and keep detections scoring >= tau.

    Class confidence is the sole filter. Returns {scene id: Detections}.
    """
    scenes = list(scenes)
    mode = "collect" if batch_stats else "eval"
    out = {}
    for start in range(0, len(scenes), 16):
        chunk = scenes[start:start + 16]
        dets_list = forward_inference_batch(
            labeler, [sc.image for sc in chunk], stats_mode=mode)
        for sc, dets in zip(chunk, dets_list):
            out[sc.id] = dets[dets.scores >= tau]
    return out


def strategy_presets() -> dict:
    """The self-training configuration grid plus the statistics-only baseline."""
    def cfg(name, **kw):
        return AdaptConfig(strategy=name, **kw)

    return {
        "adabn": cfg("adabn", adabn_first=True, max_steps=0,
                     alpha=1.0, fixed_pls=True, weak_strong=False),
        "sf_pl": cfg("sf_pl", alpha=0.0, weak_strong=False),
        "sf_fm": cfg("sf_fm", alpha=0.0, weak_strong=True),
        "fixed_sf_pl": cfg("fixed_sf_pl", alpha=1.0, fixed_pls=True, weak_strong=False),
        "fixed_sf_fm": cfg("fixed_sf_fm", alpha=1.0, fixed_pls=True, weak_strong=True),
        "adabn_fixed_sf_pl": cfg("adabn_fixed_sf_pl", alpha=1.0, fixed_pls=True,
                                 weak_strong=False, adabn_first=True),
        "adabn_fixed_sf_fm": cfg("adabn_fixed_sf_fm", alpha=1.0, fixed_pls=True,
                                 weak_strong=True, adabn_first=True),
        "mean_teacher": cfg("mean_teacher", alpha=0.9996, weak_strong=False),
        "sf_ut": cfg("sf_ut", alpha=0.9996, weak_strong=True),
        "adabn_fixed_sf_pl_mosaic": cfg("adabn_fixed_sf_pl_mosaic", alpha=1.0,
                                        fixed_pls=True, weak_strong=False,
                                        adabn_first=True, mosaic=True),
        "adabn_fixed_sf_fm_mosaic": cfg("adabn_fixed_sf_fm_mosaic", alpha=1.0,
                                        fixed_pls=True, weak_strong=True,
                                        adabn_first=True, mosaic=True),
    }


def _labeled_scene(scene, pls: Detections):
    return replace(scene, boxes=pls.boxes.astype(np.float32),
                   labels=pls.labels.copy())


def adapt(source: ModelState, target_scenes, config: AdaptConfig,
          eval_scenes) -> AdaptResult:
    """Run one self-training configuration against unlabeled target scenes.

    Returns the final student, the best student by trace mAP, and the trace.
    The step-0 model is the initial teacher itself (source, or its AdaBN
    adaptation), not a copy: it is the best model while no step beats it,
    and with max_steps = 0 it is both final and best.
    A divergent step is recorded (trace.diverged_at) and ends the run with
    everything up to that step preserved; collapse is an observable here,
    not a crash.
    """
    rng = np.random.default_rng(config.seed)
    n = len(target_scenes)

    # The teacher is never written in place (ema_update builds new arrays,
    # an alpha = 1 teacher is only read), so it may be source itself and
    # step 0 needs no copy of it; only the student, which training writes,
    # is a copy.
    if config.adabn_first:
        teacher = collect_target_statistics(
            source, [s.image for s in target_scenes], config.batch_size)
    else:
        teacher = source

    trace = AdaptTrace()
    eval_pool = list(eval_scenes)
    if config.eval_subset and config.eval_subset < len(eval_pool):
        eval_pool = eval_pool[: config.eval_subset]

    def run_eval(model):
        res = evaluate_model(model, eval_pool)
        return res.map, dict(res.per_class_ap)

    cur_map, cur_ap = run_eval(teacher)
    best_map, best_model = cur_map, teacher
    trace.rows.append(TraceRow(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, cur_map, cur_ap))

    if config.max_steps == 0:
        return AdaptResult(teacher, teacher, trace)

    student = teacher.copy()
    pl_set = None
    if config.fixed_pls:
        pl_set = generate_pseudo_labels(teacher, target_scenes, config.tau,
                                        config.teacher_batch_stats)

    for step in range(1, config.max_steps + 1):
        if config.mosaic:
            ids = rng.choice(n, size=(config.batch_size, 4), replace=True)
        else:
            ids = rng.choice(n, size=min(config.batch_size, n), replace=False)
        chosen = [target_scenes[int(i)] for i in ids.ravel()]
        if pl_set is not None:
            pls = [pl_set[s.id] for s in chosen]
        else:
            fresh = generate_pseudo_labels(teacher, chosen, config.tau,
                                           config.teacher_batch_stats)
            pls = [fresh[s.id] for s in chosen]
        labeled = [_labeled_scene(s, p) for s, p in zip(chosen, pls)]

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

        images = images_to_batch([v.image for v in views])
        targets = [(v.boxes, v.labels) for v in views]
        num_pls = int(sum(len(v.boxes) for v in views))

        try:
            loss, grads = forward_train(student, images, targets, rng,
                                        config.include_reg)
        except NumericsError:
            trace.diverged_at = step
            break
        sgd_step(student.params, grads, config.lr)
        del grads  # not alive beside the next step's forward caches
        if not config.fixed_pls:
            teacher = ema_update(teacher, student, config.alpha)

        evaluated = step % config.eval_period == 0 or step == config.max_steps
        if evaluated:
            cur_map, cur_ap = run_eval(student)
            if cur_map > best_map:
                best_map, best_model = cur_map, student.copy()
        trace.rows.append(TraceRow(step, loss.total, loss.rpn_cls, loss.rpn_reg,
                                   loss.roi_cls, loss.roi_reg, num_pls,
                                   cur_map, cur_ap, evaluated))

    return AdaptResult(student, best_model, trace)
