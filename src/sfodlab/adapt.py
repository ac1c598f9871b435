"""Source-free self-training adaptation strategies.

Every strategy is one point on the axes of AdaptConfig. After the scenes
are drawn, the step is one call per phase, each governed by its axes:
labeling (``generate_pseudo_labels``) by ``fixed_pls`` (label the target
set once); the training views (``_views``) by ``weak_strong`` (strong
after weak augmentation) and ``mosaic``; ``train_step``; the teacher
update (``ema_update``) by the EMA rate ``alpha`` (0 = teacher follows the
student, 1 = frozen teacher); and ``evaluate_model``. ``adabn_first``
makes the initial teacher source after AdaBN on the target set instead of
source itself; it is the only way batch statistics reach a labeler.

Setting ``fixed_pls`` is semantically identical to alpha = 1 with the
labels computed once: the teacher never changes and labels in eval mode,
so the label set it would regenerate each step is the initial one. The
loop exploits neither; the equivalence is asserted by tests on
byte-identical traces.

A fixed label set (``labels``, {scene id: annotations}) replaces the
teacher's labeling. Source training is the ``fixed_sf_pl`` preset with the
ground truth as that set and no evaluation pool.

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
from .boxes import EvalResult
from .detector import LossBreakdown, ModelState, forward_inference_batch
from .ops import NumericsError
from .train import evaluate_model, train_step


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
    # retired (must stay False): config_hash hashes asdict(config), so
    # deleting the field would change every preset's hash
    teacher_batch_stats: bool = False
    lr: float = 0.001
    batch_size: int = 4
    max_steps: int = 4000
    eval_period: int = 100
    eval_subset: int = 0           # trace evaluations use this many eval scenes (0 = all)
    seed: int = 0
    strong: StrongAugParams = field(default_factory=StrongAugParams)

    def __post_init__(self):
        if self.teacher_batch_stats:
            raise ValueError("teacher_batch_stats is retired; use adabn_first")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.tau <= 1:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name, low in (("batch_size", 1), ("max_steps", 0), ("eval_period", 1),
                          ("eval_subset", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class TraceRow:
    step: int
    loss: LossBreakdown        # all zero at step 0, before any training
    num_pls: int
    evaluation: EvalResult     # the last evaluation, carried between evals
    evaluated: bool = True     # whether an evaluation ran at this step


@dataclass
class AdaptResult:
    """final is the model after the last step; best is the model of the
    highest trace mAP or, with an empty evaluation pool, where nothing
    selects one, final itself."""

    final: ModelState
    best: ModelState
    rows: list                 # one TraceRow per step, step 0 included
    diverged_at: int | None = None

    def peak_map(self) -> float:
        return max((r.evaluation.map for r in self.rows if r.evaluated), default=0.0)

    def final_map(self) -> float:
        return next((r.evaluation.map for r in reversed(self.rows) if r.evaluated), 0.0)


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


def generate_pseudo_labels(labeler: ModelState, scenes, tau: float) -> dict:
    """Detect every scene in eval mode and keep detections scoring >= tau.

    Class confidence is the sole filter. Returns {scene id: Detections}.
    """
    scenes = list(scenes)
    dets = forward_inference_batch(labeler, [sc.image for sc in scenes])
    return {sc.id: d[d.scores >= tau] for sc, d in zip(scenes, dets)}


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


def _views(scenes, pls: dict, config: AdaptConfig, rng) -> list:
    """The drawn scenes with their (pseudo-)labels, weakly and then, with
    weak_strong, strongly augmented; with mosaic, each four become one."""
    views = []
    for s in scenes:
        d = pls[s.id]
        v = weak_augment(replace(s, boxes=d.boxes.astype(np.float32),
                                 labels=d.labels.copy()), rng)
        views.append(strong_augment(v, config.strong, rng) if config.weak_strong else v)
    if config.mosaic:
        size = views[0].image.shape[0]
        views = [mosaic(views[k:k + 4], size) for k in range(0, len(views), 4)]
    return views


def adapt(source: ModelState, target_scenes, config: AdaptConfig,
          eval_scenes, labels: dict | None = None) -> AdaptResult:
    """Run one self-training configuration against unlabeled target scenes.

    Returns the final student, the best student by trace mAP, and one trace
    row per step. A given labels set replaces the pseudo-labels at every step.
    The step-0 model is the initial teacher itself (source, or its AdaBN
    adaptation), not a copy: it is the best model while no step beats it,
    and with max_steps = 0 it is both final and best. With an empty
    evaluation pool nothing selects a best, so best is final.
    No model is kept past the last step that reads it: the source once the
    teacher exists, a fixed-label run's teacher once its labels exist, and
    the step-0 best once a step beats it. The source's arrays are freed
    with the last of these if the caller keeps no reference to it.
    A divergent step is recorded (diverged_at) and ends the run with
    everything up to that step preserved; collapse is an observable here,
    not a crash.
    """
    rng = np.random.default_rng(config.seed)
    n = len(target_scenes)

    # The teacher is never written in place (ema_update builds new arrays,
    # an alpha = 1 teacher is only read), so it may be source itself, or
    # the AdaBN model that holds source's weight arrays, and step 0 needs
    # no copy of it; only the student, which training writes, is a copy.
    if config.adabn_first:
        teacher = collect_target_statistics(
            source, [s.image for s in target_scenes], config.batch_size)
    else:
        teacher = source
    del source

    eval_pool = list(eval_scenes)[: config.eval_subset or None]
    evaluation = evaluate_model(teacher, eval_pool)
    rows = [TraceRow(0, LossBreakdown(0.0, 0.0, 0.0, 0.0), 0, evaluation)]
    if config.max_steps == 0:
        return AdaptResult(teacher, teacher, rows)

    student = teacher.copy()
    # the student is trained in place, so with no pool best stays final
    best_map, best_model = evaluation.map, teacher if eval_pool else student
    if config.fixed_pls:
        if labels is None:
            labels = generate_pseudo_labels(teacher, target_scenes, config.tau)
        del teacher  # fixed labels: no later step reads the teacher

    for step in range(1, config.max_steps + 1):
        if config.mosaic:
            ids = rng.choice(n, size=(config.batch_size, 4), replace=True)
        else:
            ids = rng.choice(n, size=min(config.batch_size, n), replace=False)
        chosen = [target_scenes[int(i)] for i in ids.ravel()]
        pls = labels if labels is not None else generate_pseudo_labels(
            teacher, chosen, config.tau)
        views = _views(chosen, pls, config, rng)
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
