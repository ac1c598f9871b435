"""Loss and trace CSVs, run reports and dependency-free SVG training curves."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .adapt import AdaptTrace, TraceRow

TRACE_COLUMNS = ["step", "total_loss", "rpn_cls", "rpn_reg", "roi_cls", "roi_reg",
                 "num_pls", "map"]


def _ap_columns(num_classes: int, prefix: str = "") -> list:
    return [f"{prefix}ap_class{i}" for i in range(num_classes)]


def _num_ap_columns(names, prefix: str = "") -> int:
    """Count of leading ap_class0, ap_class1, ... among names."""
    k = 0
    while f"{prefix}ap_class{k}" in names:
        k += 1
    return k


def write_loss_csv(history, path):
    """One row per source-training step: the total and the four loss terms.

    history is train_source's list of (step, LossBreakdown) rows.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "total", "rpn_cls", "rpn_reg", "roi_cls", "roi_reg"])
        for step, loss in history:
            w.writerow([step, f"{loss.total:.6f}", f"{loss.rpn_cls:.6f}",
                        f"{loss.rpn_reg:.6f}", f"{loss.roi_cls:.6f}",
                        f"{loss.roi_reg:.6f}"])


def write_trace_csv(trace: AdaptTrace, path, num_classes: int):
    """One row per trace step, with one AP column per class (0.0 where a
    class had no ground truth)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS + _ap_columns(num_classes))
        for r in trace.rows:
            w.writerow([
                r.step, f"{r.total_loss:.6f}", f"{r.rpn_cls:.6f}", f"{r.rpn_reg:.6f}",
                f"{r.roi_cls:.6f}", f"{r.roi_reg:.6f}", r.num_pls, f"{r.map:.6f}",
                *(f"{r.per_class_ap.get(i, 0.0):.6f}" for i in range(num_classes)),
            ])


def read_trace_csv(path) -> AdaptTrace:
    """Inverse of write_trace_csv; the class count comes from the header."""
    trace = AdaptTrace()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        names = reader.fieldnames or []
        k = _num_ap_columns(names)
        if names != TRACE_COLUMNS + _ap_columns(k):
            raise ValueError(f"{path}: unexpected trace columns {reader.fieldnames}")
        for row in reader:
            trace.rows.append(TraceRow(
                step=int(row["step"]),
                total_loss=float(row["total_loss"]),
                rpn_cls=float(row["rpn_cls"]),
                rpn_reg=float(row["rpn_reg"]),
                roi_cls=float(row["roi_cls"]),
                roi_reg=float(row["roi_reg"]),
                num_pls=int(row["num_pls"]),
                map=float(row["map"]),
                per_class_ap={i: float(row[f"ap_class{i}"]) for i in range(k)},
            ))
    return trace


def write_run_report(path, report: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)


def read_run_report(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def comparison_table(reports: dict) -> list:
    """One row per run: its name (the key of reports, a run directory in
    ``sfodlab report``), strategy, seed, per-class AP50 and mAP (final and
    best)."""
    rows = []
    for run, rep in reports.items():
        row = {
            "run": run,
            "strategy": rep.get("strategy", "?"),
            "seed": rep.get("seed", ""),
            "final_map": rep["final"]["map"],
            "best_map": rep["best"]["map"],
        }
        for which in ("final", "best"):
            for col in _ap_columns(_num_ap_columns(rep[which])):
                row[f"{which}_{col}"] = rep[which][col]
        rows.append(row)
    return rows


def write_comparison_csv(rows: list, path):
    k = max((_num_ap_columns(row, "final_") for row in rows), default=0)
    cols = (["run", "strategy", "seed"] + _ap_columns(k, "final_") + ["final_map"]
            + _ap_columns(k, "best_") + ["best_map"])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for row in rows:
            w.writerow([row.get(c, "") for c in cols])


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#333333"]


def write_trace_svg(named_traces: dict, path):
    """Render one mAP-vs-step polyline per run into a 720x420 SVG with axes.

    named_traces maps a run name to an AdaptTrace; every trace row becomes
    one polyline point. Run names are escaped for the legend.
    """
    from html import escape  # only here: keeps the CLI's cold import lean

    width, height, margin = 720, 420, 50
    pw, ph = width - 2 * margin, height - 2 * margin
    max_step = max((max(t.steps(), default=0) for t in named_traces.values()),
                   default=1) or 1
    max_y = 1.0

    def sx(step):
        return margin + pw * step / max_step

    def sy(v):
        return margin + ph * (1 - v / max_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin + ph}" x2="{margin + pw}" y2="{margin + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{margin + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{margin + pw / 2:.0f}" y="{height - 8}" font-size="13" '
        f'text-anchor="middle">training step</text>',
        f'<text x="14" y="{margin + ph / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {margin + ph / 2:.0f})">map</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac * max_y)
        parts.append(f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{frac * max_y:.2f}</text>')
        x = sx(frac * max_step)
        parts.append(f'<line x1="{x:.1f}" y1="{margin + ph}" x2="{x:.1f}" '
                     f'y2="{margin + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin + ph + 18}" font-size="11" '
                     f'text-anchor="middle">{frac * max_step:.0f}</text>')
    for k, (name, trace) in enumerate(sorted(named_traces.items())):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(r.step):.1f},{sy(r.map):.1f}"
                       for r in trace.rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ty = margin + 16 + 14 * k
        parts.append(f'<line x1="{margin + pw - 130}" y1="{ty - 4}" '
                     f'x2="{margin + pw - 110}" y2="{ty - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{margin + pw - 104}" y="{ty}" '
                     f'font-size="11">{escape(name)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
