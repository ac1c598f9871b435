"""Experiment harness CLI.

Subcommands: make-data, train-source, adapt, eval, report. Every run is
reproducible from its seed; effective configuration is echoed into the run
report so nothing is silently defaulted.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numerical divergence.
Errors print a single machine-parsable line ``ERROR[<kind>]: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

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
from .detector import ArchDescriptor, init_model
from .ops import NumericsError
from .report import (
    comparison_table,
    read_run_report,
    read_trace_csv,
    write_comparison_csv,
    write_run_report,
    write_trace_csv,
    write_trace_svg,
)
from .train import evaluate_model, train_source

DEFAULT_COUNTS = {"source_train": 500, "source_test": 200,
                  "target_train": 500, "target_test": 200}
DEFAULT_TARGET = DomainSpec(shift="fog", fog_strength=0.65)


def parse_config_file(path) -> dict:
    """Flat ``key = value`` UTF-8 file with '#' comments."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
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


def _domain_spec_from_entries(entries: dict) -> tuple[DomainSpec, dict]:
    counts = dict(DEFAULT_COUNTS)
    spec_kwargs = {}
    spec_fields = {f.name: f for f in fields(DomainSpec)}
    defaults = DEFAULT_TARGET
    for key, value in entries.items():
        if key in counts:
            counts[key] = int(value)
        elif key in spec_fields:
            current = getattr(defaults, key)
            spec_kwargs[key] = _coerce(value, type(current))
        else:
            raise DataError(f"unknown domain spec key {key!r}")
    return replace(defaults, **spec_kwargs), counts


def _config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode()).hexdigest()[:16]


def _load_split(data_root, split: str):
    path = Path(data_root) / split
    if not path.exists():
        raise DataError(f"missing split directory {path}")
    return read_dataset(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_make_data(args) -> int:
    if args.spec:
        target_spec, counts = _domain_spec_from_entries(parse_config_file(args.spec))
    else:
        target_spec, counts = DEFAULT_TARGET, dict(DEFAULT_COUNTS)
    source_spec = replace(target_spec, shift="none")
    out = Path(args.out)
    plan = [
        ("source_train", source_spec, counts["source_train"]),
        ("source_test", source_spec, counts["source_test"]),
        ("target_train", target_spec, counts["target_train"]),
        ("target_test", target_spec, counts["target_test"]),
    ]
    for k, (split, spec, count) in enumerate(plan):
        scenes = generate_split(spec, count, [args.seed, k], split)
        write_dataset(scenes, out / split, spec=spec, seed=args.seed)
        print(f"wrote {count:4d} scenes -> {out / split}")
    return 0


def cmd_train_source(args) -> int:
    scenes = _load_split(args.data, "source_train")
    arch = ArchDescriptor()
    model = init_model(arch, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    history = train_source(model, scenes, args.steps, args.lr,
                           args.batch_size, rng, log_every=args.log_every)
    meta = {"kind": "source", "steps": args.steps, "lr": args.lr,
            "seed": args.seed, "batch_size": args.batch_size}
    save_checkpoint(args.out, model, meta)
    loss_csv = Path(str(args.out) + ".losses.csv")
    with open(loss_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "total", "rpn_cls", "rpn_reg", "roi_cls", "roi_reg"])
        for step, loss in history:
            w.writerow([step, f"{loss.total:.6f}", f"{loss.rpn_cls:.6f}",
                        f"{loss.rpn_reg:.6f}", f"{loss.roi_cls:.6f}",
                        f"{loss.roi_reg:.6f}"])
    print(f"saved checkpoint -> {args.out}  (loss log: {loss_csv})")
    return 0


def _build_adapt_config(args) -> AdaptConfig:
    presets = strategy_presets()
    if args.strategy not in presets:
        raise DataError(f"unknown strategy {args.strategy!r}; "
                        f"choose from {sorted(presets)}")
    config = presets[args.strategy]
    if args.config:
        entries = parse_config_file(args.config)
        cfg_fields = {f.name: f for f in fields(AdaptConfig)}
        updates = {}
        for key, value in entries.items():
            if key not in cfg_fields or key in ("strategy", "strong"):
                raise DataError(f"unknown adapt config key {key!r}")
            updates[key] = _coerce(value, type(getattr(config, key)))
        config = replace(config, **updates)
    overrides = {}
    for flag, name in [("alpha", "alpha"), ("tau", "tau"), ("steps", "max_steps"),
                       ("lr", "lr"), ("batch_size", "batch_size"),
                       ("eval_period", "eval_period"), ("eval_subset", "eval_subset"),
                       ("seed", "seed")]:
        value = getattr(args, flag)
        if value is not None:
            overrides[name] = value
    if args.mosaic:
        overrides["mosaic"] = True
    if args.no_reg:
        overrides["include_reg"] = False
    return replace(config, **overrides)


def cmd_adapt(args) -> int:
    config = _build_adapt_config(args)
    source, _ = load_checkpoint(args.source_ckpt)
    target_train = _load_split(args.data, "target_train")
    target_test = _load_split(args.data, "target_test")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    result = adapt(source, target_train, config, target_test)
    wall = time.monotonic() - t0

    cfg_dict = config.to_dict()
    meta = {"kind": "adapted", "strategy": config.strategy, "seed": config.seed,
            "config_hash": _config_hash(cfg_dict)}
    save_checkpoint(out / "final.ckpt", result.final, {**meta, "which": "final"})
    save_checkpoint(out / "best.ckpt", result.best, {**meta, "which": "best"})
    num_classes = source.arch.num_classes
    write_trace_csv(result.trace, out / "trace.csv", num_classes)

    final_eval = evaluate_model(result.final, target_test)
    best_eval = evaluate_model(result.best, target_test)
    report = {
        "strategy": config.strategy,
        "seed": config.seed,
        "config": cfg_dict,
        "config_hash": meta["config_hash"],
        "final": {"map": final_eval.map,
                  **{f"ap_class{i}": final_eval.ap(i, 0.0) for i in range(num_classes)}},
        "best": {"map": best_eval.map,
                 **{f"ap_class{i}": best_eval.ap(i, 0.0) for i in range(num_classes)}},
        "trace": {"final_map": result.trace.final_map(),
                  "peak_map": result.trace.peak_map(),
                  "rows": len(result.trace.rows)},
        "diverged_at": result.trace.diverged_at,
        "wall_clock_sec": round(wall, 3),
        "trace_csv": "trace.csv",
        "checkpoints": {"final": "final.ckpt", "best": "best.ckpt"},
    }
    write_run_report(out / "report.json", report)
    print(f"{config.strategy}: final mAP {final_eval.map:.4f}  "
          f"best mAP {best_eval.map:.4f}  ({out})")
    if result.trace.diverged_at is not None:
        print(f"note: run diverged at step {result.trace.diverged_at} "
              "(trace preserved)")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    scenes = _load_split(args.data, args.split)
    res = evaluate_model(model, scenes)
    for i, name in enumerate(CLASS_NAMES):
        print(f"ap[{name}] {res.ap(i, 0.0):.6f}")
    print(f"map {res.map:.6f}")
    return 0


def cmd_report(args) -> int:
    reports, traces = [], {}
    for run_dir in args.runs:
        rpath = Path(run_dir) / "report.json"
        if not rpath.exists():
            raise DataError(f"missing run report {rpath}")
        rep = read_run_report(rpath)
        reports.append(rep)
        tpath = Path(run_dir) / rep.get("trace_csv", "trace.csv")
        if tpath.exists():
            name = f"{rep.get('strategy', Path(run_dir).name)}-s{rep.get('seed', 0)}"
            traces[name] = read_trace_csv(tpath)
    out = Path(args.out)
    if out.suffix == ".csv":
        write_comparison_csv(comparison_table(reports), out)
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
    ad.add_argument("--alpha", type=float, default=None)
    ad.add_argument("--tau", type=float, default=None)
    ad.add_argument("--steps", type=int, default=None)
    ad.add_argument("--lr", type=float, default=None)
    ad.add_argument("--batch-size", type=int, default=None)
    ad.add_argument("--eval-period", type=int, default=None)
    ad.add_argument("--eval-subset", type=int, default=None)
    ad.add_argument("--seed", type=int, default=None)
    ad.add_argument("--mosaic", action="store_true")
    ad.add_argument("--no-reg", action="store_true")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, CheckpointError, FileNotFoundError) as e:
        print(f"ERROR[data]: {e}", file=sys.stderr)
        return 3
    except NumericsError as e:
        print(f"ERROR[numerics]: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
