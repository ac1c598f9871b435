"""CLI contract on a tiny benchmark: exit codes 0/2/3/4 and the single
``ERROR[<kind>]:`` line printed for data and numerics failures."""

import numpy as np
import pytest

from sfodlab import cli
from sfodlab.checkpoint import load_checkpoint, save_checkpoint


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
    (line,) = error_lines(capsys)
    assert line.startswith("ERROR[numerics]:")
    assert not out.exists()
