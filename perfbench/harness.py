"""Workloads, set-up, timed CLI commands and output checks of the benchmark.

Each workload is a closed loop of one real ``sfodlab`` CLI command
(``sfodlab.cli.main([...])``), run again and again until the run's time is
up. Every command runs in a forked copy of this process: imports stay warm,
the child's peak resident memory is its own, and no state a command leaves
in the interpreter reaches the next one. The child writes its result to a
pipe; the parent waits for it, then checks the files the command wrote.

The workload seed only feeds ``make-data``; the timed command gets nothing
but the generated splits and its own CLI defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 5

# Read by numpy and OpenBLAS at import. One BLAS thread gives the least
# run-to-run spread. With numpy's huge-page advice off, peak RSS no longer
# depends on how many huge pages the host has free.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}


def pin_environment():
    """Set PINNED_ENV; must run before numpy is first imported."""
    os.environ.update(PINNED_ENV)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    counts: dict            # make-data split sizes
    steps: int              # training steps per command
    items: int              # what items_per_s counts, per command
    args: tuple             # CLI arguments; {data}, {out}, {fixture} are filled in

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def uses_fixture(self) -> bool:
        return "{fixture}" in self.args

    def argv(self, work: Path) -> list:
        paths = {"data": work / "data", "out": work / "out",
                 "fixture": FIXTURE_DIR / "source.ckpt"}
        return [a.format(**paths) for a in self.args]


def _counts(source_train=0, target_train=0, target_test=0):
    return {"source_train": source_train, "source_test": 0,
            "target_train": target_train, "target_test": target_test}


BATCH = 4                      # the CLI's default batch size
SOURCE_STEPS = 8
SF_UT_STEPS = 16
ADAPT = ("adapt", "--source-ckpt", "{fixture}", "--data", "{data}", "--out", "{out}")

WORKLOADS = {w.name: w for w in (
    Workload(
        "source_train",
        "backward-heavy supervised training on real ground truth; no inference "
        "or AP, so the control for inference-only changes",
        _counts(source_train=64), SOURCE_STEPS, SOURCE_STEPS * BATCH,
        ("train-source", "--data", "{data}", "--out", "{out}/source.ckpt",
         "--steps", str(SOURCE_STEPS))),
    Workload(
        "adapt_sf_ut",
        "mean teacher on fog: per-step eval-mode relabeling, strong augmentation "
        "and full EMA share one loop with training",
        _counts(target_train=64, target_test=8), SF_UT_STEPS, SF_UT_STEPS * BATCH,
        (*ADAPT, "--strategy", "sf_ut", "--tau", "0.8", "--steps", str(SF_UT_STEPS),
         "--eval-period", "8", "--eval-subset", "4")),
    Workload(
        "adapt_adabn",
        "one collect-mode BN sweep then evaluation only; no backward, so the "
        "control for backward-only changes",
        _counts(target_train=32, target_test=16), 0, 32 + 16,
        (*ADAPT, "--strategy", "adabn")),
)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen. On the shared 2-vCPU host, the quartile spread
# of times over ten runs was 0.07 to 0.18 of the median, so time bounds take
# the largest allowed value. Memory spread at most 0.01, success rate 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "items/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "fraction", "higher", 0.05),
)


def _layer_metrics():
    both = ("self_s", "calls")
    spec = [
        ("ops", ("conv2d_forward", "conv2d_forward_cols", "conv2d_backward",
                 "maxpool2_forward", "maxpool2_with_indices", "maxpool2_scatter",
                 "linear_forward", "linear_backward", "softmax_cross_entropy",
                 "smooth_l1", "sgd_step"), both),
        ("batchnorm", ("bn_apply", "batch_stats", "bn_backward",
                       "collect_target_statistics"), ("self_s",)),
        ("detector", ("_backbone_forward", "_rpn_forward", "_propose",
                      "_plan_from_outputs", "_roi_pool_batch", "_roi_scatter_batch",
                      "_roi_head_forward", "_finish"), ("self_s",)),
        ("boxes", ("nms", "iou_matrix"), both),
        ("boxes", ("match_anchors", "decode_deltas", "evaluate_ap50"), ("self_s",)),
        ("augment", ("weak_augment", "strong_augment"), ("self_s",)),
        ("adapt", ("adapt", "generate_pseudo_labels"), ("self_s",)),
        ("adapt", ("ema_update",), both),
        ("train", ("train_source", "evaluate_model"), ("self_s",)),
        ("train", ("evaluate_model",), ("calls",)),
        ("data", ("read_dataset",), ("self_s",)),
        ("checkpoint", ("save_checkpoint", "load_checkpoint"), ("self_s",)),
        ("report", ("write_trace_csv", "write_run_report"), ("self_s",)),
        ("cli", ("cmd_train_source", "cmd_adapt"), ("self_s",)),
    ]
    units = {"self_s": ("s", "lower"), "calls": ("count", "lower")}
    out = [(f"{module}.{func}.{stat}", *units[stat])
           for module, funcs, stats in spec for func in funcs for stat in stats]
    out += [
        ("detector.forward_inference_batch.images", "count", "lower"),
        ("detector.forward_train.errors", "count", "lower"),
        ("boxes.nms.kept_ratio", "ratio", "higher"),
        ("adapt.generate_pseudo_labels.images", "count", "lower"),
        ("adapt.generate_pseudo_labels.kept_ratio", "ratio", "higher"),
        ("adapt.pseudo_labels_per_step", "labels/step", "higher"),
        ("train.evaluate_model.images", "count", "lower"),
        ("train.evaluate_model.unique_ratio", "ratio", "higher"),
        ("quality.map50", "mAP", "higher"),
        ("quality.final_loss", "loss", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(out)


# (name, unit, better)
PER_LAYER = _layer_metrics()


# ---------------------------------------------------------------------------
# environment, fixture, goldens
# ---------------------------------------------------------------------------

def environment() -> dict:
    """What the numbers depend on besides the code; printed with every result."""
    import numpy
    import scipy

    np_cfg = numpy.show_config(mode="dicts")
    sp_cfg = scipy.show_config(mode="dicts")
    return {
        **{var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": np_cfg["Build Dependencies"]["blas"].get("version"),
        "scipy_openblas": sp_cfg["Build Dependencies"]["blas"].get("version"),
        "simd": np_cfg["SIMD Extensions"].get("found", []),
    }


def numeric_environment(env: dict) -> dict:
    """The part of the environment that bit-identical outputs depend on."""
    return {k: env[k] for k in ("numpy", "scipy", "numpy_openblas",
                                "scipy_openblas", "simd")}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fixture_errors() -> list:
    record = json.loads((FIXTURE_DIR / "fixture.json").read_text())
    path = FIXTURE_DIR / record["file"]
    if not path.is_file():
        return [f"missing source fixture {path.name}"]
    digest = file_sha256(path)
    if digest != record["sha256"]:
        return [f"source fixture sha256 {digest} != recorded {record['sha256']}"]
    return []


def output_record(workload: Workload, out: Path) -> dict:
    """The exact outputs that golden.json pins for the golden seed."""
    if workload.command == "train-source":
        return {"loss_csv_sha256": file_sha256(out / "source.ckpt.losses.csv"),
                "checkpoint_sha256": file_sha256(out / "source.ckpt")}
    report = json.loads((out / "report.json").read_text())
    return {key: report[key] for key in ("final", "best", "trace", "diverged_at")} | {
        "trace_csv_sha256": file_sha256(out / "trace.csv"),
        "final_ckpt_sha256": file_sha256(out / "final.ckpt"),
        "best_ckpt_sha256": file_sha256(out / "best.ckpt"),
    }


def load_golden(workload: Workload, seed: int, env: dict):
    """golden.json's record for this workload, or None when the seed is not
    the golden seed or the numeric environment differs from the recorded one
    (bit-identical outputs are only promised within one environment)."""
    if seed != GOLDEN_SEED or not GOLDEN_PATH.is_file():
        return None
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["environment"] != numeric_environment(env):
        print("note: numeric environment differs from golden.json; "
              "checking invariants only", file=sys.stderr)
        return None
    return golden["workloads"][workload.name]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Readings:
    """Quality values read from a command's outputs."""
    map50: float = 0.0
    final_loss: float = 0.0
    pseudo_labels_per_step: float = 0.0
    diverged: bool = False


def _tail_mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    tail = values[-max(1, len(values) // 10):]
    return sum(tail) / len(tail)


def _read_csv(path: Path):
    import csv

    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(workload: Workload, out: Path, golden) -> tuple:
    """Invariants every seed must satisfy, plus the golden record when one
    applies. Returns (list of error strings, Readings)."""
    errors, readings = [], Readings()
    try:
        if workload.command == "train-source":
            from sfodlab.checkpoint import load_checkpoint

            rows = _read_csv(out / "source.ckpt.losses.csv")
            if len(rows) != workload.steps:
                errors.append(f"loss CSV has {len(rows)} rows, expected {workload.steps}")
            if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
                errors.append("non-finite value in loss CSV")
            readings.final_loss = _tail_mean(float(r["total"]) for r in rows)
            load_checkpoint(out / "source.ckpt")
        else:
            report = json.loads((out / "report.json").read_text())
            for which in ("final", "best"):
                if not 0.0 <= report[which]["map"] <= 1.0:
                    errors.append(f"{which} mAP {report[which]['map']} outside [0, 1]")
            readings.map50 = report["final"]["map"]
            readings.diverged = report["diverged_at"] is not None
            if readings.diverged:
                errors.append(f"diverged at step {report['diverged_at']}")
            rows = _read_csv(out / "trace.csv")
            expected = workload.steps + 1
            if report["trace"]["rows"] != expected or len(rows) != expected:
                errors.append(f"trace has {report['trace']['rows']} rows "
                              f"({len(rows)} in CSV), expected {expected}")
            losses = [float(r["total_loss"]) for r in rows[1:]]
            if not all(math.isfinite(v) for v in losses):
                errors.append("non-finite loss in trace CSV")
            readings.final_loss = _tail_mean(losses)
            readings.pseudo_labels_per_step = (
                sum(int(r["num_pls"]) for r in rows[1:]) / len(rows[1:])
                if len(rows) > 1 else 0.0)
            for name in ("final.ckpt", "best.ckpt"):
                if not (out / name).is_file():
                    errors.append(f"missing {name}")
        if golden is not None and not errors:
            record = output_record(workload, out)
            errors += [f"{key} differs from golden.json: {record.get(key)!r} != {value!r}"
                       for key, value in golden.items() if record.get(key) != value]
    except Exception as e:  # any unreadable output is a failed check, not a crash
        errors.append(f"unreadable output: {type(e).__name__}: {e}")
    return errors, readings


# ---------------------------------------------------------------------------
# set-up and timed commands
# ---------------------------------------------------------------------------

def setup(workload: Workload, seed: int, work: Path) -> tuple:
    """Import the CLI in a fresh interpreter, as every sfodlab command does,
    generate the workload's splits with make-data and verify the source
    fixture. Returns (seconds, list of error strings)."""
    from sfodlab import cli

    spec = work / "spec.txt"
    spec.write_text("".join(f"{k} = {v}\n" for k, v in workload.counts.items()))
    data = work / "data"
    shutil.rmtree(data, ignore_errors=True)
    errors = []
    t0 = perf_counter()
    imported = subprocess.run(
        [sys.executable, "-c", "import sfodlab.cli"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")})
    if imported.returncode != 0:
        errors.append(f"import failed: {imported.stderr.strip()[-500:]}")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["make-data", "--spec", str(spec), "--out", str(data),
                       "--seed", str(seed)])
    if rc != 0:
        errors.append(f"make-data exited with {rc}")
    if workload.uses_fixture:
        errors += fixture_errors()
    return perf_counter() - t0, errors


@dataclass
class CommandRun:
    rc: int | None
    wall_s: float
    peak_rss_mb: float
    layers: dict | None = None
    errors: list = field(default_factory=list)
    readings: Readings = field(default_factory=Readings)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.errors


def _child(argv, log: Path, traced: bool, read_fd: int, write_fd: int):
    """Body of the forked child: run the CLI, send the result, exit."""
    status = 1
    try:
        os.close(read_fd)
        log_file = open(log, "w")
        os.dup2(log_file.fileno(), 1)
        os.dup2(log_file.fileno(), 2)
        sys.stdout = sys.stderr = log_file
        from sfodlab import cli
        from perfbench.tracer import Tracer

        tracer = Tracer() if traced else contextlib.nullcontext()
        error = None
        t0 = perf_counter()
        try:
            with tracer:
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc()
        wall = perf_counter() - t0
        record = {"rc": rc, "wall_s": wall, "error": error,
                  "layers": tracer.summary() if traced else None}
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(json.dumps(record).encode())
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def run_command(workload: Workload, work: Path, golden=None,
                traced: bool = False) -> CommandRun:
    """Run the workload's command once in a forked child and check its outputs."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = work / "command.log"
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(workload.argv(work), log, traced, read_fd, write_fd)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    record = json.loads(payload) if payload else {
        "rc": None, "wall_s": 0.0, "layers": None,
        "error": f"child ended with status {os.waitstatus_to_exitcode(status)}"}
    run = CommandRun(record["rc"], record["wall_s"], usage.ru_maxrss / 1024.0,
                     record["layers"])
    if record["error"]:
        run.errors.append(record["error"])
    if run.rc != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.exists() else []
        run.errors.append(f"exit code {run.rc}: {' '.join(tail)}")
    else:
        errors, run.readings = check_outputs(workload, out, golden)
        run.errors += errors
    return run


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed: a set-up, a timed command or a
    training step. A command fails on a non-zero exit or a failed output
    check; a step fails when the command reports divergence."""
    attempted: int = 0
    failed: int = 0

    def add_setup(self, errors):
        self.attempted += 1
        self.failed += bool(errors)

    def add_command(self, workload: Workload, run: CommandRun):
        self.attempted += 1 + workload.steps
        self.failed += (not run.ok) + run.readings.diverged

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def timed_phase(workload: Workload, work: Path, seconds: float, trace: bool,
                golden, tally: Tally):
    """Repeat the command until `seconds` would be exceeded (at least once,
    and with tracing at least once untraced and once traced, alternating).
    Returns (untraced runs, traced runs)."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        use_tracer = trace and len(traced) < len(plain)
        run = run_command(workload, work, golden, traced=use_tracer)
        (traced if use_tracer else plain).append(run)
        tally.add_command(workload, run)
        _log(f"{workload.name} {'traced' if use_tracer else 'plain'} run {len(plain) + len(traced)}: "
             f"rc={run.rc} wall={run.wall_s:.4f}s rss={run.peak_rss_mb:.1f}MB"
             + (f" ERRORS: {run.errors}" if run.errors else ""))
        complete = plain and (traced or not trace)
        if complete and perf_counter() - start + run.wall_s > seconds:
            return plain, traced


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def fastest(runs) -> float:
    """Wall time of the fastest repetition that passed its checks (of any,
    if none did). The host is shared, and other tenants only ever add time,
    in phases of seconds (a fixed 65 ms kernel measured 65 to 109 ms), so
    the fastest repetition is the steadiest estimate of the command's own
    cost."""
    return min(r.wall_s for r in ([r for r in runs if r.ok] or runs))


def layer_metrics(plain, traced) -> dict:
    """Per-layer metrics of the fastest traced run: its self times, counts
    and output readings, and the tracing overhead, its wall time minus the
    fastest untraced one."""
    best = min((r for r in traced if r.layers is not None),
               key=lambda r: r.wall_s, default=None)
    if best is None:
        return {}
    values = {name: best.layers[name] for name, _, _ in PER_LAYER if name in best.layers}
    values.update({
        "adapt.pseudo_labels_per_step": best.readings.pseudo_labels_per_step,
        "quality.map50": best.readings.map50,
        "quality.final_loss": best.readings.final_loss,
        "trace.wall_s": best.wall_s,
        "trace.overhead_s": best.wall_s - fastest(plain),
    })
    return values


def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path):
    """One benchmark run. Returns (result object, environment record)."""
    workload = WORKLOADS[name]
    work = work_root / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        importlib.import_module("sfodlab.cli")  # warm: commands run in forks of this process
        env = environment()
        _log("environment " + json.dumps({"seed": seed, "workload": name, **env}))

        tally = Tally()
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds_taken, errors = setup(workload, seed, work)
            tally.add_setup(errors)
            setups.append(seconds_taken)
            if errors:
                _log(f"setup ERRORS: {errors}")
        setup_s = statistics.median(setups)
        _log(f"setup_s {_quartiles(setups)}")

        golden = load_golden(workload, seed, env)
        plain, traced = timed_phase(workload, work, seconds, trace, golden, tally)
        walls = [r.wall_s for r in plain]
        _log(f"{name} wall_s {_quartiles(walls)}")

        if trace:
            values = layer_metrics(plain, traced)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            wall = fastest(plain)
            values = {
                "setup_s": setup_s,
                "wall_s": wall,
                "items_per_s": workload.items / wall if wall > 0 else 0.0,
                "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
                "success_rate": tally.success_rate,
            }
            units = {n: u for n, u, _, _ in END_TO_END}
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()},
        }, {"seed": seed, "workload": name, **env}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
