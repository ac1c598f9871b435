"""CLI contract on a tiny benchmark: exit codes 0/2/3/4 and the single
``ERROR[<kind>]:`` line printed for data and numerics failures."""

import csv
import ctypes
import inspect
import json
import os
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import sfodlab.adapt as adapt_mod
from sfodlab import cli
from sfodlab.adapt import AdaptConfig, strategy_presets
from sfodlab.augment import StrongAugParams
from sfodlab.checkpoint import load_checkpoint, save_checkpoint
from sfodlab.data import DataError, Scene
from sfodlab.detector import ArchDescriptor, init_model
from conftest import needs_argument_handover, rewrite_header


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """make-data on four scenes per training split, then two source steps."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.txt"
    spec.write_text("source_train = 4\nsource_test = 2\n"
                    "target_train = 4\ntarget_test = 2\nmax_objects = 3\n")
    assert cli.main(["make-data", "--spec", str(spec), "--out", str(root / "data"),
                     "--seed", "0"]) == 0
    assert cli.main(["train-source", "--data", str(root / "data"),
                     "--out", str(root / "source.ckpt"), "--steps", "2",
                     "--batch-size", "2"]) == 0
    return root


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("ERROR[")]


def test_train_source_writes_checkpoint_and_loss_csv(workdir):
    load_checkpoint(workdir / "source.ckpt")
    rows = (workdir / "source.ckpt.losses.csv").read_text().splitlines()
    assert rows[0] == "step,total,rpn_cls,rpn_reg,roi_cls,roi_reg"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]


@pytest.mark.parametrize("log_every,steps", [(2, [2, 4]), (0, [])], ids=["2", "off"])
def test_train_source_logs_every_nth_step(workdir, tmp_path, capsys, log_every, steps):
    """--log-every N prints a line for every Nth step, whose total is the
    one losses.csv records for that step; 0 prints none."""
    out = tmp_path / "source.ckpt"
    assert cli.main(["train-source", "--data", str(workdir / "data"), "--out", str(out),
                     "--steps", "4", "--batch-size", "2",
                     "--log-every", str(log_every)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("step ")]
    assert [int(line.split()[1]) for line in lines] == steps
    with open(f"{out}.losses.csv", newline="") as f:
        totals = {int(r["step"]): float(r["total"]) for r in csv.DictReader(f)}
    for step, line in zip(steps, lines):
        assert line.split()[2] == "total"
        assert float(line.split()[3]) == pytest.approx(totals[step], abs=1e-4)


def test_adapt_command_passes_no_label_set(workdir, tmp_path, monkeypatch):
    """sfodlab adapt calls adapt() without a fixed label set, so target
    ground truth cannot replace the teacher's pseudo-labels from the CLI."""
    real, labels = cli.adapt, []

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        labels.append(bound.arguments["labels"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "adapt", recording)
    assert cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                     "--data", str(workdir / "data"), "--strategy", "adabn_fixed_sf_pl",
                     "--steps", "1", "--batch-size", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert labels == [None]


@needs_argument_handover
def test_adapt_command_frees_the_source_once_nothing_reads_it(workdir, tmp_path,
                                                              monkeypatch):
    """sf_ut adapt keeps the loaded source only while a later step reads it:
    its arrays are alive in step 1, when the source is the teacher and the
    step-0 best, and dead from step 2 on, after step 1's EMA replaced the
    teacher and step 1 became best."""
    real_load, real_eval, real_step = (cli.load_checkpoint, adapt_mod.evaluate_model,
                                       adapt_mod.train_step)
    refs, alive, evaluations = [], [], []

    def loading(path):
        model, meta = real_load(path)
        refs.extend(weakref.ref(v) for v in model.params.values())
        return model, meta

    def step_1_best(model, scenes):
        evaluations.append(real_eval(model, scenes))
        return replace(evaluations[-1], map=2.0) if len(evaluations) == 2 else evaluations[-1]

    def recording(model, views, rng, lr, include_reg):
        alive.append([r() is not None for r in refs])
        return real_step(model, views, rng, lr, include_reg)

    monkeypatch.setattr(cli, "load_checkpoint", loading)
    monkeypatch.setattr(adapt_mod, "evaluate_model", step_1_best)
    monkeypatch.setattr(adapt_mod, "train_step", recording)
    assert cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                     "--data", str(workdir / "data"), "--strategy", "sf_ut",
                     "--steps", "3", "--eval-period", "1", "--batch-size", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert len(refs) == len(ArchDescriptor().param_shapes())
    assert [all(a) for a in alive] == [True, False, False]
    assert [any(a) for a in alive] == [True, False, False]


def test_train_source_command_runs_fixed_sf_pl_preset(workdir, tmp_path, monkeypatch):
    """sfodlab train-source trains with the fixed_sf_pl preset and its
    options applied, the config adapt builds for that preset."""
    real, configs = cli.train_source, []

    def recording(arch, scenes, config):
        configs.append(config)
        return real(arch, scenes, config)

    monkeypatch.setattr(cli, "train_source", recording)
    assert cli.main(["train-source", "--data", str(workdir / "data"),
                     "--out", str(tmp_path / "source.ckpt"), "--steps", "2",
                     "--lr", "0.02", "--batch-size", "3", "--seed", "5"]) == 0
    assert configs == [replace(strategy_presets()["fixed_sf_pl"], max_steps=2, lr=0.02,
                               batch_size=3, seed=5)]


def test_adapt_and_eval_succeed(workdir, capsys):
    data = str(workdir / "data")
    out = workdir / "adabn"
    assert cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                     "--data", data, "--strategy", "adabn", "--out", str(out),
                     "--batch-size", "2"]) == 0
    assert (out / "report.json").exists() and (out / "trace.csv").exists()
    assert cli.main(["eval", "--ckpt", str(out / "final.ckpt"), "--data", data,
                     "--split", "target_test"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("map ")


def test_failed_adapt_leaves_no_stale_report(workdir, tmp_path, monkeypatch):
    """An adapt that fails in a reused --out leaves no report.json of the
    earlier run beside the checkpoints it was writing."""
    out = tmp_path / "out"
    argv = ["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
            "--data", str(workdir / "data"), "--strategy", "adabn", "--out", str(out),
            "--batch-size", "2"]
    assert cli.main(argv) == 0 and (out / "report.json").exists()

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "save_checkpoint", disk_full)
    assert cli.main(argv) == 3
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["make-data", "train-source", "adapt"])
def test_unusable_out_path_exits_3(workdir, tmp_path, capsys, command):
    """An --out the command cannot write (a file where a directory goes, a
    directory where a file goes) is a data error, not a traceback, and
    leaves no temporary file behind."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    spec = tmp_path / "spec.txt"
    spec.write_text("source_train = 1\nsource_test = 0\ntarget_train = 0\ntarget_test = 0\n")
    data, ckpt = str(workdir / "data"), str(workdir / "source.ckpt")
    argv = {"make-data": ["make-data", "--spec", str(spec), "--out", str(blocker)],
            "train-source": ["train-source", "--data", data, "--steps", "0",
                             "--out", str(tmp_path)],
            "adapt": ["adapt", "--source-ckpt", ckpt, "--data", data, "--strategy",
                      "adabn", "--batch-size", "2", "--out", str(blocker)]}[command]
    assert cli.main(argv) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "spec.txt"]
    assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*"))


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--ckpt", "x.ckpt"])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


def test_missing_split_exits_3(workdir, capsys):
    rc = cli.main(["eval", "--ckpt", str(workdir / "source.ckpt"),
                   "--data", str(workdir / "data"), "--split", "no_such_split"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "no_such_split" in line


def test_bad_shape_checkpoint_exits_3(workdir, capsys):
    model, meta = load_checkpoint(workdir / "source.ckpt")
    model.params["roi.fc1.b"] = np.zeros(7, np.float32)
    bad = workdir / "bad_shape.ckpt"
    save_checkpoint(bad, model, meta)
    rc = cli.main(["eval", "--ckpt", str(bad), "--data", str(workdir / "data"),
                   "--split", "target_test"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "roi.fc1.b" in line


def test_diverging_training_exits_4(workdir, capsys):
    out = workdir / "diverged.ckpt"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train-source", "--data", str(workdir / "data"),
                       "--out", str(out), "--steps", "3", "--batch-size", "2",
                       "--lr", "1e30"])
    assert rc == 4
    assert error_lines(capsys) == ["ERROR[numerics]: non-finite training loss at step 2"]
    assert not out.exists() and not Path(f"{out}.losses.csv").exists()


def test_bad_header_checkpoint_exits_3(workdir, capsys):
    bad = workdir / "bad_header.ckpt"
    for key, value in [("bogus", 1), ("feature_stride", 0)]:
        shutil.copyfile(workdir / "source.ckpt", bad)
        rewrite_header(bad, lambda header: header | {"arch": header["arch"] | {key: value}})
        rc = cli.main(["eval", "--ckpt", str(bad), "--data", str(workdir / "data"),
                       "--split", "target_test"])
        assert rc == 3
        (line,) = error_lines(capsys)
        assert line.startswith("ERROR[data]:") and key in line


@pytest.fixture(scope="module")
def data64(tmp_path_factory):
    """make-data at 64 px, then train-source on it."""
    root = tmp_path_factory.mktemp("cli64")
    spec = root / "spec.txt"
    spec.write_text("source_train = 4\nsource_test = 2\ntarget_train = 2\n"
                    "target_test = 2\nmax_objects = 3\nimage_size = 64\n"
                    "noise_cells = 8\n")
    assert cli.main(["make-data", "--spec", str(spec), "--out", str(root / "data"),
                     "--seed", "0"]) == 0
    return root


def test_train_source_takes_image_size_from_data(data64, workdir, capsys):
    out = data64 / "source.ckpt"
    assert cli.main(["train-source", "--data", str(data64 / "data"),
                     "--out", str(out), "--steps", "2", "--batch-size", "2"]) == 0
    model, _ = load_checkpoint(out)
    assert model.arch == ArchDescriptor(input_size=64)
    # the 96-px default arch, and so its checkpoint header, is unchanged
    assert load_checkpoint(workdir / "source.ckpt")[0].arch == ArchDescriptor()
    assert cli.main(["eval", "--ckpt", str(out), "--data", str(data64 / "data"),
                     "--split", "target_test"]) == 0


@pytest.mark.parametrize("command", ["eval", "adapt"])
def test_image_size_mismatch_exits_3(data64, workdir, command, capsys):
    ckpt = str(workdir / "source.ckpt")
    data = str(data64 / "data")
    argv = (["eval", "--ckpt", ckpt, "--data", data, "--split", "target_test"]
            if command == "eval" else
            ["adapt", "--source-ckpt", ckpt, "--data", data, "--strategy", "adabn",
             "--out", str(data64 / "adapted")])
    assert cli.main(argv) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "64x64" in line and "96x96" in line


def scene(h, w):
    return Scene(np.zeros((h, w, 3), np.float32), np.zeros((0, 4), np.float32),
                 np.zeros(0, np.int64))


@pytest.mark.parametrize("scenes", [[], [scene(64, 64), scene(96, 96)],
                                    [scene(64, 96)], [scene(60, 60)]],
                         ids=["empty", "mixed", "not-square", "not-divisible"])
def test_arch_for_rejects_unusable_images(scenes):
    with pytest.raises(DataError, match="source_train"):
        cli._arch_for(scenes, "source_train")


@pytest.mark.parametrize("num_classes,names", [
    (2, ["disc", "square"]),
    (5, ["disc", "square", "triangle", "class3", "class4"]),
])
def test_eval_prints_one_line_per_model_class(workdir, tmp_path, capsys, num_classes,
                                              names):
    """The split keeps only the boxes the model can label: a 2-class model
    rejects the 3-class split itself."""
    ckpt = workdir / f"classes{num_classes}.ckpt"
    save_checkpoint(ckpt, init_model(ArchDescriptor(num_classes=num_classes), seed=0), {})
    data = tmp_path / "data"
    shutil.copytree(workdir / "data" / "target_test", data / "target_test")
    ann = data / "target_test" / "annotations.jsonl"
    records = [json.loads(line) for line in ann.read_text().splitlines()]
    for r in records:
        keep = [i for i, label in enumerate(r["labels"]) if label < num_classes]
        r["boxes"] = [r["boxes"][i] for i in keep]
        r["labels"] = [r["labels"][i] for i in keep]
    ann.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--split", "target_test"]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == [f"ap[{n}]" for n in names] + ["map"]
    expect = 0 if num_classes >= 3 else 3
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "data"),
                     "--split", "target_test"]) == expect


def run_python(code: str, *args) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports this sfodlab."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)


# the commands in a fresh interpreter where any scipy import fails; the
# last line printed is the number of strong-augmentation blurs
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from sfodlab import augment, cli
blurs, blur = [], augment.gaussian_blur
augment.gaussian_blur = lambda *a: blurs.append(1) or blur(*a)
out, spec, ckpt = sys.argv[1:]
assert cli.main(["make-data", "--spec", spec, "--out", out + "/data"]) == 0
assert cli.main(["adapt", "--source-ckpt", ckpt, "--data", out + "/data",
                 "--strategy", "sf_ut", "--steps", "2", "--out", out + "/sf_ut"]) == 0
print(len(blurs))
"""


def test_cli_import_loads_no_scipy(workdir, tmp_path):
    """Nothing in the package imports scipy: the CLI import loads none of it,
    and a fog make-data and a blurring sf_ut adapt run where scipy cannot
    be imported."""
    probe = ("import sys, sfodlab.cli; sys.exit(any(m == 'scipy' or "
             "m.startswith('scipy.') for m in sys.modules))")
    assert run_python(probe).returncode == 0
    spec = tmp_path / "spec.txt"
    spec.write_text("source_train = 0\nsource_test = 0\n"
                    "target_train = 4\ntarget_test = 2\nmax_objects = 3\n")
    done = run_python(WITHOUT_SCIPY, tmp_path, spec, workdir / "source.ckpt")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0
    assert (tmp_path / "sf_ut" / "report.json").exists()


def test_cli_import_loads_no_hashlib():
    """OpenSSL's _hashlib is imported by the one command that hashes."""
    probe = "import sys, sfodlab.cli; sys.exit('_hashlib' in sys.modules)"
    assert run_python(probe).returncode == 0


@pytest.fixture(scope="module")
def empty_target(tmp_path_factory, workdir):
    """make-data with no target_train scenes, next to workdir's checkpoint."""
    root = tmp_path_factory.mktemp("cli_empty")
    spec = root / "spec.txt"
    spec.write_text("source_train = 1\nsource_test = 0\n"
                    "target_train = 0\ntarget_test = 2\nmax_objects = 3\n")
    assert cli.main(["make-data", "--spec", str(spec), "--out", str(root / "data"),
                     "--seed", "0"]) == 0
    return root


@pytest.mark.parametrize("strategy", ["adabn", "sf_ut"])
def test_adapt_on_empty_target_split_exits_3(empty_target, workdir, strategy, capsys):
    rc = cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                   "--data", str(empty_target / "data"), "--strategy", strategy,
                   "--out", str(empty_target / strategy)])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "target_train" in line
    assert "no scenes" in line


def test_eval_on_empty_split_exits_3(empty_target, workdir, capsys):
    rc = cli.main(["eval", "--ckpt", str(workdir / "source.ckpt"),
                   "--data", str(empty_target / "data"), "--split", "source_test"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "source_test" in line
    assert "map" not in capsys.readouterr().out


FAULT_PROBE = """
import json, resource, sys
import numpy as np
from sfodlab import cli

spec, out = sys.argv[1:]
assert cli.main(["make-data", "--spec", spec, "--out", out, "--seed", "0"]) == 0
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(mb << 18, np.float32) for mb in (16, 4, 12)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_allocator_keeps_freed_memory(tmp_path):
    """After cli.main, the memory of freed multi-MB arrays is reused, not
    faulted in again."""
    pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    spec = tmp_path / "spec.txt"
    spec.write_text("source_train = 1\nsource_test = 0\n"
                    "target_train = 0\ntarget_test = 0\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(spec),
                           str(tmp_path / "data")],
                          env=env, capture_output=True, text=True, check=True)
    faults = json.loads(done.stdout.splitlines()[-1])
    # With glibc's default thresholds the heap is trimmed once the 32 MB are
    # freed, and every round faults them in again (about 1,500 faults with
    # numpy's huge-page advice, 8,000 without it).
    assert max(faults[1:]) < 100, faults


@pytest.mark.parametrize("lookup", ["no-library", "no-mallopt"])
def test_cli_runs_without_mallopt(tmp_path, monkeypatch, lookup):
    def no_library(name, *args, **kwargs):
        raise OSError(f"cannot load {name}")

    monkeypatch.setattr(ctypes, "CDLL", no_library if lookup == "no-library"
                        else lambda *args, **kwargs: object())
    spec = tmp_path / "spec.txt"
    spec.write_text("source_train = 1\nsource_test = 0\n"
                    "target_train = 0\ntarget_test = 0\n")
    assert cli.main(["make-data", "--spec", str(spec), "--out", str(tmp_path / "data"),
                     "--seed", "0"]) == 0


@pytest.mark.parametrize("flags,name", [
    (["--alpha", "2"], "alpha"),
    (["--tau", "1.5"], "tau"),
    (["--eval-period", "0"], "eval_period"),
    (["--batch-size", "0"], "batch_size"),
    (["--eval-subset", "-1"], "eval_subset"),
    (["--steps", "-1"], "max_steps"),
    (["--seed", "-1"], "seed"),
    (["--lr", "nan"], "lr"),
    (["--lr", "0"], "lr"),
    (["--lr", "inf"], "lr"),
], ids=["alpha", "tau", "eval-period", "batch-size", "eval-subset", "steps", "seed",
        "lr-nan", "lr-zero", "lr-inf"])
def test_adapt_rejects_invalid_option(workdir, capsys, flags, name):
    out = workdir / f"invalid_{name}"
    rc = cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                   "--data", str(workdir / "data"), "--strategy", "sf_pl",
                   "--out", str(out), "--steps", "1", *flags])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and name in line
    assert not out.exists()


@pytest.mark.parametrize("flags,field,value,entry", [
    (["--alpha", "0.5"], "alpha", 0.5, "0.25"),
    (["--tau", "0.6"], "tau", 0.6, "0.7"),
    (["--steps", "7"], "max_steps", 7, "9"),
    (["--lr", "0.02"], "lr", 0.02, "0.03"),
    (["--batch-size", "3"], "batch_size", 3, "5"),
    (["--eval-period", "6"], "eval_period", 6, "8"),
    (["--eval-subset", "2"], "eval_subset", 2, "4"),
    (["--seed", "11"], "seed", 11, "12"),
    (["--mosaic"], "mosaic", True, "false"),
    (["--no-reg"], "include_reg", False, "true"),
], ids=["alpha", "tau", "steps", "lr", "batch-size", "eval-period", "eval-subset", "seed",
        "mosaic", "no-reg"])
def test_adapt_flag_sets_its_field_over_config(tmp_path, flags, field, value, entry):
    config = tmp_path / "adapt.cfg"
    config.write_text(f"{field} = {entry}\n")
    argv = ["adapt", "--source-ckpt", "source.ckpt", "--data", "data",
            "--strategy", "sf_pl", "--out", "out", "--config", str(config)]
    parser = cli.build_parser()
    from_file = cli._adapt_config(parser.parse_args(argv))
    assert getattr(from_file, field) != value
    assert cli._adapt_config(parser.parse_args(argv + flags)) == replace(
        from_file, **{field: value})


@pytest.mark.parametrize("entry", ["eval_period = 0", "alpha = high", "seed = -1",
                                   "lr = nan", "teacher_batch_stats = true"])
def test_adapt_rejects_invalid_config_entry(workdir, capsys, tmp_path, entry):
    config = tmp_path / "adapt.cfg"
    config.write_text(entry + "\n")
    rc = cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                   "--data", str(workdir / "data"), "--strategy", "sf_pl",
                   "--out", str(tmp_path / "out"), "--steps", "1",
                   "--config", str(config)])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and entry.split(" = ")[0] in line


def test_retired_config_entry_keeps_config_hash(tmp_path):
    """`teacher_batch_stats = false`, the only value the retired field
    accepts, leaves the run's config_hash as without the entry."""
    config = tmp_path / "adapt.cfg"
    config.write_text("teacher_batch_stats = false\n")
    argv = ["adapt", "--source-ckpt", "source.ckpt", "--data", "data",
            "--strategy", "sf_ut", "--out", "out"]
    parser = cli.build_parser()
    hashes = {cli._config_hash(asdict(cli._adapt_config(parser.parse_args(a))))
              for a in (argv, argv + ["--config", str(config)])}
    assert hashes == {PRESET_CONFIG_HASHES["sf_ut"]}


@pytest.mark.parametrize("entry,key", [
    ("source_train = abc", "source_train"),
    ("fog_strength = 2", "fog_strength"),
    ("target_test = -1", "target_test"),
    ("noise_cells = 0", "noise_cells"),
    ("min_objects = -1", "min_objects"),
    ("max_overlap = -0.1", "max_overlap"),
    ("shift = scale\nscale_factor = nan", "scale_factor"),
    ("color_cast = nan,1,1", "color_cast"),
    ("max_overlap = nan", "max_overlap"),
    ("noise_amplitude = inf", "noise_amplitude"),
    ("scale_factor = inf", "scale_factor"),
], ids=["not-an-int", "fog-out-of-range", "negative-count", "noise-cells-zero",
        "negative-min-objects", "negative-max-overlap", "nan-scale-factor",
        "nan-color-cast", "nan-max-overlap", "inf-noise-amplitude", "inf-scale-factor"])
def test_make_data_rejects_invalid_spec_entry(tmp_path, capsys, entry, key):
    spec = tmp_path / "spec.txt"
    # the last entry for a key wins
    spec.write_text("source_train = 1\nsource_test = 0\n"
                    f"target_train = 0\ntarget_test = 0\n{entry}\n")
    rc = cli.main(["make-data", "--spec", str(spec), "--out", str(tmp_path / "data")])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and key in line
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_make_data_rejects_negative_seed(tmp_path, capsys, seed):
    rc = cli.main(["make-data", "--out", str(tmp_path / "data"), "--seed", seed])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "--seed" in line
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("flags,option", [
    (["--batch-size", "0"], "batch_size"),
    (["--steps", "-1"], "max_steps"),
    (["--log-every", "-1"], "--log-every"),
    (["--seed", "-1"], "seed"),
    (["--lr", "nan"], "lr"),
    (["--lr", "0"], "lr"),
    (["--lr", "-0.01"], "lr"),
    (["--lr", "inf"], "lr"),
], ids=["batch-size", "steps", "log-every", "seed", "lr-nan", "lr-zero", "lr-negative",
        "lr-inf"])
def test_train_source_rejects_invalid_option(workdir, capsys, flags, option):
    """An invalid option is one data error naming it: --log-every by its
    flag, every other option by the config field it sets."""
    out = workdir / f"invalid{option}.ckpt"
    rc = cli.main(["train-source", "--data", str(workdir / "data"), "--out", str(out),
                   "--steps", "1", *flags])
    assert rc == 3
    (line,) = error_lines(capsys)
    prefix = "ERROR[data]: " if option.startswith("--") else "ERROR[data]: train-source: "
    assert line.startswith(f"{prefix}{option} must be ")
    assert not out.exists()


def assert_train_source_rejects_line_2(workdir, tmp_path, capsys, edit):
    """train-source on source_train with annotation record 2 replaced by
    edit(record) exits 3 naming that line and writes no checkpoint."""
    data = tmp_path / "data"
    shutil.copytree(workdir / "data" / "source_train", data / "source_train")
    ann = data / "source_train" / "annotations.jsonl"
    lines = ann.read_text().splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    ann.write_text("\n".join(lines) + "\n")
    out = tmp_path / "source.ckpt"
    rc = cli.main(["train-source", "--data", str(data), "--out", str(out), "--steps", "1"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and f"{ann}:2" in line
    assert not out.exists()


def test_train_source_on_malformed_annotation_exits_3(workdir, tmp_path, capsys):
    assert_train_source_rejects_line_2(
        workdir, tmp_path, capsys, lambda _: {"id": "no_file", "boxes": [], "labels": []})


@pytest.mark.parametrize("change", [
    {"boxes": [[10, 10, 20, 20]], "labels": [7]},
    {"boxes": [[10, 10, 5, float("nan")]], "labels": [0]},
    {"id": "source_train_00000"},
    {"boxes": [[100, 100, 140, 140]], "labels": [0]},
], ids=["label", "box", "duplicate_id", "outside"])
def test_train_source_on_invalid_annotation_value_exits_3(workdir, tmp_path, capsys,
                                                          change):
    assert_train_source_rejects_line_2(workdir, tmp_path, capsys,
                                       lambda record: record | change)


def copy_with_label(workdir, tmp_path, split, label):
    """The workdir's split under tmp_path/data, its manifest listing 5
    classes and its second scene relabeled to label; returns the data root
    and that scene's id."""
    data = tmp_path / "data"
    shutil.copytree(workdir / "data" / split, data / split)
    manifest = data / split / "manifest.json"
    meta = json.loads(manifest.read_text())
    meta["classes"] = meta["classes"] + ["class3", "class4"]
    manifest.write_text(json.dumps(meta))
    ann = data / split / "annotations.jsonl"
    lines = ann.read_text().splitlines()
    record = json.loads(lines[1])
    record["labels"] = [label] * len(record["labels"])
    lines[1] = json.dumps(record)
    ann.write_text("\n".join(lines) + "\n")
    return data, record["id"]


@pytest.mark.parametrize("command,split", [
    ("train-source", "source_train"), ("eval", "target_test"),
    ("adapt", "target_train"), ("adapt", "target_test")])
def test_label_past_model_classes_exits_3(workdir, tmp_path, capsys, command, split):
    """A label the manifest allows but the 3-class model cannot predict is a
    data error naming the split and the scene; no output is written."""
    data, scene_id = copy_with_label(workdir, tmp_path, split, 3)
    out = tmp_path / "out"
    ckpt = str(workdir / "source.ckpt")
    if command == "adapt":
        other = "target_test" if split == "target_train" else "target_train"
        shutil.copytree(workdir / "data" / other, data / other)
    argv = {"train-source": ["train-source", "--data", str(data), "--out", str(out),
                             "--steps", "1"],
            "eval": ["eval", "--ckpt", ckpt, "--data", str(data), "--split", split],
            "adapt": ["adapt", "--source-ckpt", ckpt, "--data", str(data),
                      "--strategy", "adabn", "--out", str(out)]}[command]
    assert cli.main(argv) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:")
    assert str(data / split) in line and scene_id in line and "3 classes" in line
    assert not out.exists()


def test_label_below_model_classes_is_accepted(workdir, tmp_path):
    data, _ = copy_with_label(workdir, tmp_path, "target_test", 2)
    assert cli.main(["eval", "--ckpt", str(workdir / "source.ckpt"), "--data", str(data),
                     "--split", "target_test"]) == 0


@pytest.mark.parametrize("command", ["make-data", "adapt"])
def test_config_file_not_utf8_exits_3(workdir, tmp_path, capsys, command):
    """A --spec or --config file that is not UTF-8 is one data error naming
    it, and nothing is written."""
    config = tmp_path / "config.txt"
    config.write_bytes(b"seed = 1\n# caf\xff\n")
    out = tmp_path / "out"
    argv = {"make-data": ["make-data", "--spec", str(config), "--out", str(out)],
            "adapt": ["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                      "--data", str(workdir / "data"), "--strategy", "adabn",
                      "--config", str(config), "--out", str(out)]}[command]
    assert cli.main(argv) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and str(config) in line
    assert not out.exists()


@pytest.mark.parametrize("name, where", [("manifest.json", ""), ("annotations.jsonl", ":2")],
                         ids=["manifest", "annotations"])
def test_eval_on_split_file_not_utf8_exits_3(workdir, tmp_path, capsys, name, where):
    """A \\xff byte on line 1 of a split's manifest or line 2 of its
    annotations is one data error naming the file (and an annotation's line)."""
    shutil.copytree(workdir / "data" / "target_test", tmp_path / "target_test")
    bad = tmp_path / "target_test" / name
    lines = bad.read_bytes().split(b"\n")
    lines[1 if where else 0] += b"\xff"
    bad.write_bytes(b"\n".join(lines))
    rc = cli.main(["eval", "--ckpt", str(workdir / "source.ckpt"), "--data", str(tmp_path),
                   "--split", "target_test"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and f"{bad}{where}" in line


def test_eval_on_manifest_not_an_object_exits_3(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data" / "target_test", data / "target_test")
    manifest = data / "target_test" / "manifest.json"
    manifest.write_text("[1]")
    rc = cli.main(["eval", "--ckpt", str(workdir / "source.ckpt"), "--data", str(data),
                   "--split", "target_test"])
    assert rc == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and str(manifest) in line


# ---------------------------------------------------------------------------
# sfodlab report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def runs(workdir):
    """Two adabn run directories that differ only in the seed."""
    dirs = []
    for seed in (0, 1):
        out = workdir / f"report_run{seed}"
        assert cli.main(["adapt", "--source-ckpt", str(workdir / "source.ckpt"),
                         "--data", str(workdir / "data"), "--strategy", "adabn",
                         "--out", str(out), "--batch-size", "2",
                         "--seed", str(seed)]) == 0
        dirs.append(out)
    return dirs


def test_report_csv_has_one_row_per_run(runs, tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(["report", "--runs", *map(str, runs), "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(runs)
    for row, run in zip(rows, runs):
        rep = json.loads((run / "report.json").read_text())
        assert row["run"] == str(run)
        assert row["seed"] == str(rep["seed"])
        assert float(row["final_map"]) == rep["final"]["map"]
        assert float(row["best_map"]) == rep["best"]["map"]


def test_report_svg_has_one_polyline_per_run(runs, tmp_path):
    out = tmp_path / "curves.svg"
    assert cli.main(["report", "--runs", *map(str, runs), "--out", str(out)]) == 0
    root = ET.parse(out).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == len(runs)


def test_report_tells_apart_runs_of_one_strategy_and_seed(runs, tmp_path):
    twin = tmp_path / "adabn & again"  # also checks the legend is escaped
    shutil.copytree(runs[0], twin)  # a second adabn run at seed 0
    argv = ["report", "--runs", str(runs[0]), str(twin), "--out"]
    svg = tmp_path / "curves.svg"
    assert cli.main([*argv, str(svg)]) == 0
    assert len(ET.parse(svg).getroot().findall("{http://www.w3.org/2000/svg}polyline")) == 2
    table = tmp_path / "table.csv"
    assert cli.main([*argv, str(table)]) == 0
    with open(table, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["run"] for r in rows] == [str(runs[0]), str(twin)]
    assert {(r["strategy"], r["seed"]) for r in rows} == {("adabn", "0")}
    assert len({tuple(r.values()) for r in rows}) == 2


def test_report_other_suffix_exits_3(runs, tmp_path, capsys):
    out = tmp_path / "table.txt"
    assert cli.main(["report", "--runs", str(runs[0]), "--out", str(out)]) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and "table.txt" in line
    assert not out.exists()


def _not_json(run):
    (run / "report.json").write_text("{ not json")
    return "report.json"


def _edit(key, value=None):
    """Damage that drops key from report.json, or sets it to a non-None value."""
    def damage(run):
        rep = json.loads((run / "report.json").read_text())
        if value is None:
            del rep[key]
        else:
            rep[key] = value
        (run / "report.json").write_text(json.dumps(rep))
        return "report.json"
    return damage


def _rename_trace_column(run):
    path = run / "trace.csv"
    head, rest = path.read_text().split("\n", 1)
    path.write_text(head.replace("num_pls", "pseudo_labels") + "\n" + rest)
    return "trace.csv"


@pytest.mark.parametrize("damage", [_not_json, _edit("final"), _edit("best"),
                                    _rename_trace_column],
                         ids=["not-json", "no-final", "no-best", "trace-columns"])
@pytest.mark.parametrize("suffix", [".csv", ".svg"])
def test_report_on_malformed_run_exits_3(runs, tmp_path, capsys, damage, suffix):
    run = tmp_path / "run"
    shutil.copytree(runs[0], run)
    bad_file = damage(run)
    out = tmp_path / f"merged{suffix}"
    assert cli.main(["report", "--runs", str(runs[1]), str(run), "--out", str(out)]) == 3
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[data]:") and str(run / bad_file) in line
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".svg"])
def test_report_reads_each_run_own_trace_csv(runs, tmp_path, suffix):
    """report merges <run>/trace.csv whatever report.json's trace_csv entry
    holds, a path to another file included: the output is the bytes of the
    unedited run's."""
    run = tmp_path / "run"
    shutil.copytree(runs[0], run)
    argv = ["report", "--runs", str(runs[1]), str(run), "--out"]
    want = tmp_path / f"want{suffix}"
    assert cli.main([*argv, str(want)]) == 0
    decoy = tmp_path / "decoy.csv"
    decoy.write_text("not,a,trace\n")
    for value in (str(decoy), 5):
        _edit("trace_csv", value)(run)
        got = tmp_path / f"got{suffix}"
        assert cli.main([*argv, str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()


# config_hash of every preset, as report.json and the checkpoint metadata
# record it; a change here splits runs that used to compare as equal
PRESET_CONFIG_HASHES = {
    "adabn": "f074af9e47d9f8e2",
    "sf_pl": "10c510066a2a3980",
    "sf_fm": "dd2a2eb597e58f0c",
    "fixed_sf_pl": "a78f4be21a24aabc",
    "fixed_sf_fm": "b2dbbde5b9ab1a89",
    "adabn_fixed_sf_pl": "74625a72b54a62fd",
    "adabn_fixed_sf_fm": "c000c688f8747727",
    "mean_teacher": "aa87a2e247ff66e5",
    "sf_ut": "0f4d81c876d28237",
    "adabn_fixed_sf_pl_mosaic": "b7957f2684509bf6",
    "adabn_fixed_sf_fm_mosaic": "ac68c3646b68e970",
}


def test_config_hash_pinned(runs):
    assert {name: cli._config_hash(asdict(config))
            for name, config in strategy_presets().items()} == PRESET_CONFIG_HASHES
    custom = AdaptConfig(tau=0.5, strong=StrongAugParams(blur_sigma=(0.5, 1.0),
                                                         cutout_count=(2, 2)))
    assert cli._config_hash(asdict(custom)) == "6d6e4445e0a6f449"
    # runs[0]: adabn at --batch-size 2 and seed 0
    report = json.loads((runs[0] / "report.json").read_text())
    _, meta = load_checkpoint(runs[0] / "final.ckpt")
    assert report["config_hash"] == meta["config_hash"] == "ac2be00487b33bce"
