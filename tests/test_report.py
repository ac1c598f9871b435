"""Trace CSV and comparison-table contracts for any class count."""

import csv

import pytest

from sfodlab import report as R
from sfodlab.adapt import AdaptTrace, TraceRow
from sfodlab.detector import ArchDescriptor


def make_trace(num_classes):
    trace = AdaptTrace()
    for step in range(3):
        ap = {i: round(0.1 * (step + i), 6) for i in range(num_classes)}
        trace.rows.append(TraceRow(step, 1.5 - 0.25 * step, 0.5, 0.25, 0.5, 0.25,
                                   4 * step, round(sum(ap.values()) / len(ap), 6), ap))
    return trace


def test_trace_csv_round_trip_two_classes(tmp_path):
    arch = ArchDescriptor(num_classes=2)
    trace = make_trace(arch.num_classes)
    path = tmp_path / "trace.csv"
    R.write_trace_csv(trace, path, arch.num_classes)
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    assert header[-3:] == ["map", "ap_class0", "ap_class1"]
    assert R.read_trace_csv(path).rows == trace.rows


def test_trace_csv_default_arch_header(tmp_path):
    k = ArchDescriptor().num_classes
    path = tmp_path / "trace.csv"
    R.write_trace_csv(make_trace(k), path, k)
    assert path.read_text().splitlines()[0] == (
        "step,total_loss,rpn_cls,rpn_reg,roi_cls,roi_reg,num_pls,map,"
        "ap_class0,ap_class1,ap_class2")
    assert len(R.read_trace_csv(path).rows) == 3


def test_trace_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,total_loss,map,ap_class1\n0,1.0,0.5,0.5\n")
    with pytest.raises(ValueError):
        R.read_trace_csv(path)


def test_comparison_table_two_classes(tmp_path):
    rep = {"strategy": "sf_ut", "seed": 1,
           "final": {"map": 0.5, "ap_class0": 0.4, "ap_class1": 0.6},
           "best": {"map": 0.55, "ap_class0": 0.5, "ap_class1": 0.6}}
    rows = R.comparison_table({"runs/a": rep})
    assert rows == [{"run": "runs/a", "strategy": "sf_ut", "seed": 1, "final_map": 0.5,
                     "best_map": 0.55, "final_ap_class0": 0.4, "final_ap_class1": 0.6,
                     "best_ap_class0": 0.5, "best_ap_class1": 0.6}]
    path = tmp_path / "cmp.csv"
    R.write_comparison_csv(rows, path)
    assert path.read_text().splitlines() == [
        "run,strategy,seed,final_ap_class0,final_ap_class1,final_map,"
        "best_ap_class0,best_ap_class1,best_map",
        "runs/a,sf_ut,1,0.4,0.6,0.5,0.5,0.6,0.55",
    ]


def test_comparison_csv_default_arch_header(tmp_path):
    k = ArchDescriptor().num_classes
    aps = {f"ap_class{i}": 0.5 for i in range(k)}
    rep = {"final": {"map": 0.5, **aps}, "best": {"map": 0.5, **aps}}
    path = tmp_path / "cmp.csv"
    R.write_comparison_csv(R.comparison_table({"run": rep}), path)
    assert path.read_text().splitlines()[0] == (
        "run,strategy,seed,final_ap_class0,final_ap_class1,final_ap_class2,final_map,"
        "best_ap_class0,best_ap_class1,best_ap_class2,best_map")
