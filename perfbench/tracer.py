"""Outside-in tracing of sfodlab's layer functions.

The tracer wraps module-level functions where they are *called*, not where
they are defined: ``detector`` binds ``conv2d_backward`` by name, so the
attribute ``sfodlab.detector.conv2d_backward`` is the one replaced, while
``boxes`` functions are reached as ``B.nms`` and are replaced on the
``sfodlab.boxes`` module itself (see ``_call_sites``). Every replaced
attribute is restored on exit. Modules come from ``sys.modules`` because
``sfodlab/__init__`` re-exports ``adapt`` (the function) under the name of
the module.

Each wrapper opens a span on one stack; a span's self time is its duration
minus the durations of the spans it directly encloses. Counts are collected
in the same wrappers, after the span closes, and the time spent collecting
them is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# "<module>.<function>" of every traced function; the module is the layer.
TRACED = (
    "ops.conv2d_forward", "ops.conv2d_forward_cols", "ops.conv2d_backward",
    "ops.maxpool2_forward", "ops.maxpool2_with_indices", "ops.maxpool2_scatter",
    "ops.linear_forward", "ops.linear_backward", "ops.softmax_cross_entropy",
    "ops.smooth_l1", "ops.sgd_step",
    "batchnorm.bn_apply", "batchnorm.batch_stats", "batchnorm.bn_backward",
    "batchnorm.collect_target_statistics",
    "detector._backbone_forward", "detector._rpn_forward", "detector._propose",
    "detector._plan_from_outputs", "detector._roi_pool_batch",
    "detector._roi_scatter_batch", "detector._roi_head_forward", "detector._finish",
    "detector.forward_inference_batch", "detector.forward_train",
    "boxes.nms", "boxes.iou_matrix", "boxes.match_anchors", "boxes.decode_deltas",
    "boxes.evaluate_ap50",
    "augment.weak_augment", "augment.strong_augment",
    "adapt.adapt", "adapt.generate_pseudo_labels", "adapt.ema_update",
    "train.train_source", "train.evaluate_model",
    "data.read_dataset",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "report.write_trace_csv", "report.write_run_report",
    "cli.cmd_train_source", "cli.cmd_adapt",
)


def model_digest(model) -> str:
    """Content hash of a ModelState's parameters."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].tobytes())
    return h.hexdigest()


# Count hooks: (tracer, parent span key, bound arguments, result, exception).

def _count_nms(t, parent, a, result, exc):
    t.counts["boxes.nms.boxes_in"] += len(a["dets"])
    if result is not None:
        t.counts["boxes.nms.boxes_kept"] += len(result)


def _count_inference(t, parent, a, result, exc):
    t.counts["detector.forward_inference_batch.images"] += len(a["images"])
    if result is not None and parent == "adapt.generate_pseudo_labels":
        t.counts["adapt.generate_pseudo_labels.teacher_dets"] += sum(map(len, result))


def _count_pseudo_labels(t, parent, a, result, exc):
    t.counts["adapt.generate_pseudo_labels.images"] += len(a["scenes"])
    if result is not None:
        t.counts["adapt.generate_pseudo_labels.kept"] += sum(map(len, result.values()))


def _count_forward_train(t, parent, a, result, exc):
    if isinstance(exc, sys.modules["sfodlab.ops"].NumericsError):
        t.counts["detector.forward_train.errors"] += 1


def _count_evaluate(t, parent, a, result, exc):
    scenes = a["scenes"]
    t.counts["train.evaluate_model.images"] += len(scenes)
    t.evaluations.add((model_digest(a["model"]), tuple(s.id for s in scenes)))


HOOKS = {
    "boxes.nms": _count_nms,
    "detector.forward_inference_batch": _count_inference,
    "adapt.generate_pseudo_labels": _count_pseudo_labels,
    "detector.forward_train": _count_forward_train,
    "train.evaluate_model": _count_evaluate,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _call_sites(original, defining, modules):
    """(module, attribute) pairs through which the layers call `original`.

    These are the names bound to it in other modules. The defining module's
    own name is added only when callers reach the function through the
    module object (``B.nms``) or when no other module binds it (a layer's
    private sub-steps), so calls inside one layer, such as conv2d_backward's
    call of conv2d_forward, stay part of the caller's span.
    """
    def bound(mod):
        return [(mod, attr) for attr, value in vars(mod).items() if value is original]

    sites = [site for mod in modules if mod is not defining for site in bound(mod)]
    via_module = any(value is defining for mod in modules for value in vars(mod).values())
    if via_module or not sites:
        sites += bound(defining)
    return sites


class Tracer:
    """Context manager that traces TRACED while active.

    ``spans`` maps each key to [self seconds, calls]; ``counts`` holds the
    hook counters; ``evaluations`` the distinct (model, scene set) pairs
    passed to evaluate_model.
    """

    def __init__(self):
        self.spans = {key: [0.0, 0] for key in TRACED}
        self.counts = defaultdict(float)
        self.evaluations = set()
        self._stack = []
        self._patched = []

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack
        stat = self.spans[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += dt - frame[1]
                stat[1] += 1
                if hook:
                    h0 = perf_counter()
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(self, parent, bound, result, exc)
                    dt += perf_counter() - h0
                if stack:
                    stack[-1][1] += dt

        return traced

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("sfodlab.") and m is not None]
        try:
            for key in TRACED:
                module, func = key.split(".")
                defining = sys.modules[f"sfodlab.{module}"]
                original = getattr(defining, func)
                wrapper = self._wrap(key, original)
                for mod, attr in _call_sites(original, defining, modules):
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def summary(self) -> dict:
        """Flat {metric name: value}: ``<key>.self_s`` and ``<key>.calls``
        for every traced function, plus the counts and ratios of the hooks."""
        out = {}
        for key, (self_s, calls) in self.spans.items():
            out[f"{key}.self_s"] = self_s
            out[f"{key}.calls"] = calls
        c = self.counts
        out["detector.forward_inference_batch.images"] = c["detector.forward_inference_batch.images"]
        out["detector.forward_train.errors"] = c["detector.forward_train.errors"]
        out["boxes.nms.kept_ratio"] = _ratio(c["boxes.nms.boxes_kept"], c["boxes.nms.boxes_in"])
        out["adapt.generate_pseudo_labels.images"] = c["adapt.generate_pseudo_labels.images"]
        out["adapt.generate_pseudo_labels.kept_ratio"] = _ratio(
            c["adapt.generate_pseudo_labels.kept"],
            c["adapt.generate_pseudo_labels.teacher_dets"])
        out["train.evaluate_model.images"] = c["train.evaluate_model.images"]
        out["train.evaluate_model.unique_ratio"] = _ratio(
            len(self.evaluations), self.spans["train.evaluate_model"][1])
        return out
