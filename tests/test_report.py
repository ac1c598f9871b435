"""Trace CSV and comparison-table contracts for any class count."""

import csv

import pytest

from sfodlab import report as R
from sfodlab.adapt import TraceRow
from sfodlab.boxes import EvalResult
from sfodlab.detector import ArchDescriptor, LossBreakdown


def make_rows(num_classes):
    rows = []
    for step in range(3):
        ap = {i: round(0.1 * (step + i), 6) for i in range(num_classes)}
        evaluation = EvalResult(ap, round(sum(ap.values()) / len(ap), 6))
        rows.append(TraceRow(step, LossBreakdown(0.5 - 0.25 * step, 0.25, 0.5, 0.25),
                             4 * step, evaluation))
    return rows


def test_trace_csv_round_trip_two_classes(tmp_path):
    arch = ArchDescriptor(num_classes=2)
    rows = make_rows(arch.num_classes)
    path = tmp_path / "trace.csv"
    R.write_trace_csv(rows, path, arch.num_classes)
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    assert header[-3:] == ["map", "ap_class0", "ap_class1"]
    assert R.read_trace_csv(path) == rows


def test_trace_csv_default_arch_header(tmp_path):
    k = ArchDescriptor().num_classes
    path = tmp_path / "trace.csv"
    R.write_trace_csv(make_rows(k), path, k)
    assert path.read_text().splitlines()[0] == (
        "step,total_loss,rpn_cls,rpn_reg,roi_cls,roi_reg,num_pls,map,"
        "ap_class0,ap_class1,ap_class2")
    assert len(R.read_trace_csv(path)) == 3


def test_trace_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,total_loss,map,ap_class1\n0,1.0,0.5,0.5\n")
    with pytest.raises(ValueError):
        R.read_trace_csv(path)


def test_comparison_table_two_classes(tmp_path):
    rep = {"strategy": "sf_ut", "seed": 1,
           "final": {"map": 0.5, "ap_class0": 0.4, "ap_class1": 0.6},
           "best": {"map": 0.55, "ap_class0": 0.5, "ap_class1": 0.6}}
    sparse = {"final": {"map": 0.3, "ap_class0": 0.2}, "best": {"map": 0.3}}
    path = tmp_path / "cmp.csv"
    R.write_comparison_csv({"runs/a": rep, "runs/b": sparse}, path)
    assert path.read_text().splitlines() == [
        "run,strategy,seed,final_ap_class0,final_ap_class1,final_map,"
        "best_ap_class0,best_ap_class1,best_map",
        "runs/a,sf_ut,1,0.4,0.6,0.5,0.5,0.6,0.55",
        "runs/b,?,,0.2,,0.3,,,0.3",
    ]


def test_comparison_csv_default_arch_header(tmp_path):
    k = ArchDescriptor().num_classes
    aps = {f"ap_class{i}": 0.5 for i in range(k)}
    rep = {"final": {"map": 0.5, **aps}, "best": {"map": 0.5, **aps}}
    path = tmp_path / "cmp.csv"
    R.write_comparison_csv({"run": rep}, path)
    assert path.read_text().splitlines()[0] == (
        "run,strategy,seed,final_ap_class0,final_ap_class1,final_ap_class2,final_map,"
        "best_ap_class0,best_ap_class1,best_ap_class2,best_map")


def bad_rows():
    """Two trace rows, then a row whose loss is not a LossBreakdown."""
    rows = make_rows(2)
    rows.insert(2, TraceRow(2, None, 0, rows[0].evaluation))
    return rows


def bad_trace(path):
    """Two rows written, then bad_rows' third."""
    R.write_trace_csv(bad_rows(), path, 2)


def bad_loss(path):
    """Two rows written, then bad_rows' third."""
    R.write_loss_csv(bad_rows(), path)


def bad_report(path):
    """json.dump has written the keys before it meets a value JSON cannot hold."""
    R.write_run_report(path, {"a": 1, "b": [0.5] * 100, "z": object()})


@pytest.mark.parametrize("writer", [bad_trace, bad_loss, bad_report])
def test_failed_write_keeps_the_old_file(tmp_path, writer):
    """A writer that raises midway leaves the file already at its path
    byte-identical and no temporary file beside it; with no earlier file
    it leaves nothing at all."""
    path = tmp_path / "out"
    path.write_bytes(b"earlier run\n")
    with pytest.raises((AttributeError, TypeError)):
        writer(path)
    assert path.read_bytes() == b"earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    path.unlink()
    with pytest.raises((AttributeError, TypeError)):
        writer(path)
    assert list(tmp_path.iterdir()) == []
