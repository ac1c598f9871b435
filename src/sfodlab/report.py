"""Loss and trace CSVs, run reports and dependency-free SVG training curves.

Every file is written through data.atomic_write: a writer that fails
midway leaves the file at its path as it was.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields

from .adapt import TraceRow
from .boxes import EvalResult
from .data import atomic_write
from .detector import LossBreakdown

LOSS_TERMS = [f.name for f in fields(LossBreakdown)]


def _loss_cells(loss: LossBreakdown) -> list:
    """The total and then each of LOSS_TERMS, to 6 decimals."""
    return [f"{v:.6f}" for v in (loss.total, *(getattr(loss, t) for t in LOSS_TERMS))]


def eval_record(res: EvalResult, num_classes: int) -> dict:
    """The mAP and then the AP of each class (0.0 for a class without ground
    truth), keyed by the column names of trace.csv and of report.json's
    final and best entries."""
    return {"map": res.map, **{f"ap_class{i}": res.ap(i) for i in range(num_classes)}}


def _record_columns(num_classes: int) -> list:
    return list(eval_record(EvalResult({}, 0.0), num_classes))


def _num_classes(names) -> int:
    """The largest class count whose evaluation columns are all in names."""
    k = 0
    while set(_record_columns(k + 1)) <= set(names):
        k += 1
    return k


def _trace_columns(num_classes: int) -> list:
    return ["step", "total_loss", *LOSS_TERMS, "num_pls", *_record_columns(num_classes)]


def write_loss_csv(rows, path):
    """One row per source-training step: the step, the total and the four
    loss terms of each TraceRow (train_source's rows after step 0)."""
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "total", *LOSS_TERMS])
        for r in rows:
            w.writerow([r.step, *_loss_cells(r.loss)])


def write_trace_csv(rows, path, num_classes: int):
    """One row per TraceRow: the step, the total and each loss term, the
    pseudo-label count and the step's eval_record."""
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_trace_columns(num_classes))
        for r in rows:
            record = eval_record(r.evaluation, num_classes)
            w.writerow([r.step, *_loss_cells(r.loss), r.num_pls,
                        *(f"{v:.6f}" for v in record.values())])


def read_trace_csv(path) -> list:
    """Inverse of write_trace_csv, as a list of TraceRow; the class count
    comes from the header and each total from the loss terms."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        names = reader.fieldnames or []
        k = _num_classes(names)
        if names != _trace_columns(k):
            raise ValueError(f"{path}: unexpected trace columns {reader.fieldnames}")
        map_col, *ap_cols = _record_columns(k)
        for row in reader:
            rows.append(TraceRow(
                step=int(row["step"]),
                loss=LossBreakdown(*(float(row[t]) for t in LOSS_TERMS)),
                num_pls=int(row["num_pls"]),
                evaluation=EvalResult({i: float(row[c]) for i, c in enumerate(ap_cols)},
                                      float(row[map_col])),
            ))
    return rows


def write_run_report(path, report: dict):
    with atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)


def write_comparison_csv(reports: dict, path):
    """One row per run: its name (the key of reports, a run directory in
    ``sfodlab report``), strategy, seed, then per-class AP50 and mAP of the
    final and of the best model. The class columns are those of the run with
    the most final ones; a run that lacks one leaves it empty."""
    k = max((_num_classes(rep["final"]) for rep in reports.values()), default=0)
    map_col, *aps = _record_columns(k)
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "strategy", "seed"]
                   + [f"{which}_{c}" for which in ("final", "best")
                      for c in aps + [map_col]])
        for run, rep in reports.items():
            row = [run, rep.get("strategy", "?"), rep.get("seed", "")]
            for part in (rep["final"], rep["best"]):
                n = _num_classes(part)
                row += [part[c] if i < n else "" for i, c in enumerate(aps)]
                row.append(part[map_col])
            w.writerow(row)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#333333"]


def write_trace_svg(named_rows: dict, path):
    """Render one mAP-vs-step polyline per run into a 720x420 SVG with axes.

    named_rows maps a run name to its list of TraceRow; every row becomes
    one polyline point. Run names are escaped for the legend.
    """
    from html import escape  # only here: keeps the CLI's cold import lean

    width, height, margin = 720, 420, 50
    pw, ph = width - 2 * margin, height - 2 * margin
    max_step = max((r.step for rows in named_rows.values() for r in rows),
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
    for k, (name, rows) in enumerate(sorted(named_rows.items())):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(r.step):.1f},{sy(r.evaluation.map):.1f}" for r in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ty = margin + 16 + 14 * k
        parts.append(f'<line x1="{margin + pw - 130}" y1="{ty - 4}" '
                     f'x2="{margin + pw - 110}" y2="{ty - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{margin + pw - 104}" y="{ty}" '
                     f'font-size="11">{escape(name)}</text>')
    parts.append("</svg>")
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts))
