"""Experiment harness CLI.

Subcommands: make-data, train-source, adapt, eval, report. Every run is
reproducible from its seed; effective configuration is echoed into the run
report so nothing is silently defaulted.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numerical divergence.
Errors print a single machine-parsable line ``ERROR[<kind>]: <message>``.

Allocator policy: ``main`` tells glibc's malloc to keep freed memory in the
process heap (``mallopt``: blocks under 32 MiB come from the heap, which is
trimmed only when 256 MiB lie free at its top). Every batch frees im2col and
batch-norm temporaries of one to several MB; with glibc's defaults many of
them went back to the operating system and the next batch faulted the same
pages in again. One ``adapt --strategy adabn`` of 32 + 16 images took about 62k
minor page faults and 0.12-0.16 s of kernel time (``getrusage``; 2 vCPU,
numpy 2.4.6, glibc 2.36); with this policy, 4-image inference chunks
(``detector.INFER_CHUNK``) and the backbone's in-place BN and ReLU it takes
about 6-7k faults and 0.02-0.05 s, at a peak RSS (``VmHWM`` of a fresh
interpreter) of about 45 MB.
Without glibc's mallopt nothing is set; results never depend on the policy.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .adapt import AdaptConfig, adapt, strategy_presets
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    CLASS_NAMES,
    DataError,
    DomainSpec,
    generate_split,
    read_dataset,
    write_dataset,
)
from .detector import ArchDescriptor
from .ops import NumericsError
from .report import (
    eval_record,
    read_trace_csv,
    write_comparison_csv,
    write_loss_csv,
    write_run_report,
    write_trace_csv,
    write_trace_svg,
)
from .train import evaluate_model, train_source

DEFAULT_TARGET = DomainSpec(shift="fog", fog_strength=0.65)


@dataclass(frozen=True)
class SplitCounts:
    """Scenes per split written by make-data, in writing order."""

    source_train: int = 500
    source_test: int = 200
    target_train: int = 500
    target_test: int = 200

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0, got {getattr(self, f.name)}")


def parse_config_file(path) -> dict:
    """Flat ``key = value`` UTF-8 file with '#' comments."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read config {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _coerce(value: str, target_type):
    if target_type is bool:
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is tuple:
        return tuple(float(v) for v in value.split(","))
    return value


def _with_entries(obj, what: str, entries: dict, flags=None, exclude=()):
    """The dataclass obj with ``key = value`` entries applied, each value
    coerced to the type of the field it names, and then the already typed
    flags. An unknown or excluded key, a value that does not parse and a
    result the dataclass rejects are DataErrors."""
    names = {f.name for f in fields(obj)} - set(exclude)
    updates = {}
    for key, value in entries.items():
        if key not in names:
            raise DataError(f"unknown {what} key {key!r}")
        try:
            updates[key] = _coerce(value, type(getattr(obj, key)))
        except ValueError as e:
            raise DataError(f"{what}: {key} = {value!r}: {e}") from e
    try:
        return replace(obj, **{**updates, **(flags or {})})
    except ValueError as e:
        raise DataError(f"{what}: {e}") from e


def _config_hash(config_dict: dict) -> str:
    # imported here: OpenSSL's _hashlib adds about 3.6 MB to the RSS of
    # every command, and only adapt hashes
    import hashlib

    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode()).hexdigest()[:16]


def _load_split(data_root, split: str, arch: ArchDescriptor | None = None):
    """(scenes, arch) of a split read for a model of arch, by default the
    architecture _arch_for sizes to the split's images. The split must hold
    at least one scene, every image must be arch's square input size and
    every label below arch.num_classes."""
    path = Path(data_root) / split
    if not path.exists():
        raise DataError(f"missing split directory {path}")
    scenes = read_dataset(path)
    if not scenes:
        raise DataError(f"{path}: the split has no scenes")
    if arch is None:
        arch = _arch_for(scenes, split)
    size = arch.input_size
    for sc in scenes:
        if sc.image.shape[:2] != (size, size):
            h, w = sc.image.shape[:2]
            raise DataError(f"{path}: image {sc.id} is {w}x{h}, the model "
                            f"takes {size}x{size}")
        if sc.labels.size and sc.labels.max() >= arch.num_classes:
            raise DataError(f"{path}: scene {sc.id} has label {sc.labels.max()}, "
                            f"the model has {arch.num_classes} classes")
    return scenes, arch


def _arch_for(scenes, split: str) -> ArchDescriptor:
    """Default architecture sized to the split's images, which must all be
    one square size divisible by the feature stride."""
    sizes = {sc.image.shape[:2] for sc in scenes}
    if len(sizes) != 1:
        raise DataError(f"{split}: need images of one size, found "
                        f"{sorted(sizes) or 'no images'}")
    ((h, w),) = sizes
    stride = ArchDescriptor.feature_stride
    if h != w or h % stride:
        raise DataError(f"{split}: images are {w}x{h}; the detector needs square "
                        f"images whose side is divisible by {stride}")
    return ArchDescriptor(input_size=h)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_make_data(args) -> int:
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    entries = parse_config_file(args.spec) if args.spec else {}
    splits = [f.name for f in fields(SplitCounts)]
    counts = _with_entries(SplitCounts(), "split count",
                           {k: entries.pop(k) for k in splits if k in entries})
    target_spec = _with_entries(DEFAULT_TARGET, "domain spec", entries)
    source_spec = replace(target_spec, shift="none")
    out = Path(args.out)
    for k, (split, count) in enumerate(asdict(counts).items()):
        spec = source_spec if split.startswith("source") else target_spec
        scenes = generate_split(spec, count, [args.seed, k], split)
        write_dataset(scenes, out / split, spec=spec, seed=args.seed)
        print(f"wrote {count:4d} scenes -> {out / split}")
    return 0


def cmd_train_source(args) -> int:
    if args.log_every < 0:
        raise DataError(f"--log-every must be >= 0, got {args.log_every}")
    config = _with_entries(strategy_presets()["fixed_sf_pl"], "train-source", {},
                           {"max_steps": args.steps, "lr": args.lr,
                            "batch_size": args.batch_size, "seed": args.seed})
    scenes, arch = _load_split(args.data, "source_train")
    result = train_source(arch, scenes, config)
    for r in result.rows[1:]:
        if args.log_every and r.step % args.log_every == 0:
            print(f"step {r.step:5d}  total {r.loss.total:.4f}  "
                  f"rpn {r.loss.rpn_cls:.3f}/{r.loss.rpn_reg:.3f}  "
                  f"roi {r.loss.roi_cls:.3f}/{r.loss.roi_reg:.3f}")
    if result.diverged_at is not None:
        raise NumericsError(f"non-finite training loss at step {result.diverged_at}")
    meta = {"kind": "source", "steps": args.steps, "lr": args.lr,
            "seed": args.seed, "batch_size": args.batch_size}
    save_checkpoint(args.out, result.final, meta)
    loss_csv = Path(str(args.out) + ".losses.csv")
    write_loss_csv(result.rows[1:], loss_csv)
    print(f"saved checkpoint -> {args.out}  (loss log: {loss_csv})")
    return 0


def _adapt_config(args) -> AdaptConfig:
    """The preset named by --strategy with the --config entries and then
    the flags applied; an invalid name or value is a DataError."""
    presets = strategy_presets()
    if args.strategy not in presets:
        raise DataError(f"unknown strategy {args.strategy!r}; "
                        f"choose from {sorted(presets)}")
    names = {f.name for f in fields(AdaptConfig)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    entries = parse_config_file(args.config) if args.config else {}
    return _with_entries(presets[args.strategy], "adapt config", entries, flags,
                         exclude=("strategy", "strong"))


def cmd_adapt(args) -> int:
    config = _adapt_config(args)
    # Only this list holds the source model, and it hands the model to
    # adapt(), so adapt() can free it mid-run (see its docstring). CPython
    # >= 3.11 moves call arguments into the callee's frame; 3.10 keeps them
    # on the caller's stack for the whole call, which saves nothing there
    # and costs nothing.
    source = [load_checkpoint(args.source_ckpt)[0]]
    arch = source[0].arch
    target_train, _ = _load_split(args.data, "target_train", arch)
    target_test, _ = _load_split(args.data, "target_test", arch)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's report must not outlive a failure of this one beside
    # the checkpoints this run replaces
    (out / "report.json").unlink(missing_ok=True)
    num_classes = arch.num_classes
    t0 = time.monotonic()
    result = adapt(source.pop(), target_train, config, target_test)
    wall = time.monotonic() - t0
    del target_train  # not alive beside the evaluations below

    cfg_dict = asdict(config)
    meta = {"kind": "adapted", "strategy": config.strategy, "seed": config.seed,
            "config_hash": _config_hash(cfg_dict)}
    save_checkpoint(out / "final.ckpt", result.final, {**meta, "which": "final"})
    save_checkpoint(out / "best.ckpt", result.best, {**meta, "which": "best"})
    write_trace_csv(result.rows, out / "trace.csv", num_classes)

    final_eval = evaluate_model(result.final, target_test)
    best_eval = evaluate_model(result.best, target_test)
    report = {
        "strategy": config.strategy,
        "seed": config.seed,
        "config": cfg_dict,
        "config_hash": meta["config_hash"],
        "final": eval_record(final_eval, num_classes),
        "best": eval_record(best_eval, num_classes),
        "trace": {"final_map": result.final_map(),
                  "peak_map": result.peak_map(),
                  "rows": len(result.rows)},
        "diverged_at": result.diverged_at,
        "wall_clock_sec": round(wall, 3),
        "checkpoints": {"final": "final.ckpt", "best": "best.ckpt"},
    }
    write_run_report(out / "report.json", report)
    print(f"{config.strategy}: final mAP {final_eval.map:.4f}  "
          f"best mAP {best_eval.map:.4f}  ({out})")
    if result.diverged_at is not None:
        print(f"note: run diverged at step {result.diverged_at} "
              "(trace preserved)")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    scenes, _ = _load_split(args.data, args.split, model.arch)
    res = evaluate_model(model, scenes)
    for i in range(model.arch.num_classes):
        name = CLASS_NAMES[i] if i < len(CLASS_NAMES) else f"class{i}"
        print(f"ap[{name}] {res.ap(i):.6f}")
    print(f"map {res.map:.6f}")
    return 0


def _read_run(run_dir):
    """(report dict, trace rows or None) of one adapt run directory; a
    missing, non-JSON or incomplete report.json, or a trace.csv that does
    not parse, is a DataError naming the file."""
    rpath = Path(run_dir) / "report.json"
    if not rpath.exists():
        raise DataError(f"missing run report {rpath}")
    try:
        with open(rpath, encoding="utf-8") as f:
            rep = json.load(f)
    except (ValueError, OSError) as e:
        raise DataError(f"{rpath}: not a JSON run report ({e})") from e
    if not (isinstance(rep, dict) and all(
            isinstance(rep.get(k), dict) and "map" in rep[k] for k in ("final", "best"))):
        raise DataError(f"{rpath}: needs 'final' and 'best' entries with a 'map'")
    # the run's own trace.csv: an older report.json's trace_csv entry is not
    # a path to open
    tpath = Path(run_dir) / "trace.csv"
    if not tpath.exists():
        return rep, None
    try:
        return rep, read_trace_csv(tpath)
    except (ValueError, TypeError, OSError, csv.Error) as e:
        raise DataError(f"{tpath}: unreadable trace ({e})") from e


def cmd_report(args) -> int:
    # keyed by run directory: strategy and seed alone do not name a run
    reports, traces = {}, {}
    for run_dir in args.runs:
        rep, rows = _read_run(run_dir)
        reports[run_dir] = rep
        if rows is not None:
            traces[run_dir] = rows
    out = Path(args.out)
    if out.suffix == ".csv":
        write_comparison_csv(reports, out)
    elif out.suffix == ".svg":
        write_trace_svg(traces, out)
    else:
        raise DataError(f"report output must end in .csv or .svg, got {out.name}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sfodlab",
                                description="source-free detection adaptation lab")
    sub = p.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-data", help="generate the synthetic benchmark")
    mk.add_argument("--spec", default=None, help="domain spec file (key = value)")
    mk.add_argument("--out", required=True)
    mk.add_argument("--seed", type=int, default=0)
    mk.set_defaults(func=cmd_make_data)

    ts = sub.add_parser("train-source", help="supervised training on source_train")
    ts.add_argument("--data", required=True)
    ts.add_argument("--out", required=True)
    ts.add_argument("--steps", type=int, default=1500)
    ts.add_argument("--lr", type=float, default=0.01)
    ts.add_argument("--batch-size", type=int, default=4)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--log-every", type=int, default=0)
    ts.set_defaults(func=cmd_train_source)

    ad = sub.add_parser("adapt", help="source-free adaptation on target_train")
    ad.add_argument("--source-ckpt", required=True)
    ad.add_argument("--data", required=True)
    ad.add_argument("--strategy", required=True)
    ad.add_argument("--out", required=True)
    ad.add_argument("--config", default=None, help="key = value overrides")
    # each flag's dest is the AdaptConfig field it sets; None leaves it unset
    ad.add_argument("--alpha", type=float)
    ad.add_argument("--tau", type=float)
    ad.add_argument("--steps", type=int, dest="max_steps")
    ad.add_argument("--lr", type=float)
    ad.add_argument("--batch-size", type=int)
    ad.add_argument("--eval-period", type=int)
    ad.add_argument("--eval-subset", type=int)
    ad.add_argument("--seed", type=int)
    ad.add_argument("--mosaic", action="store_const", const=True)
    ad.add_argument("--no-reg", dest="include_reg", action="store_const", const=False)
    ad.set_defaults(func=cmd_adapt)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", required=True)
    ev.set_defaults(func=cmd_eval)

    rp = sub.add_parser("report", help="merge run reports into a table or curves")
    rp.add_argument("--runs", nargs="+", required=True)
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_report)
    return p


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Set the allocator policy described in the module docstring; a no-op
    where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, CheckpointError, OSError) as e:
        print(f"ERROR[data]: {e}", file=sys.stderr)
        return 3
    except NumericsError as e:
        print(f"ERROR[numerics]: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
