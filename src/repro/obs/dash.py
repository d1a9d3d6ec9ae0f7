"""Self-contained static HTML dashboard over harness artifacts.

``python -m repro.harness dash litmus.json faults.json BENCH_kernel.json
--out dashboard.html`` folds whatever artifacts it is pointed at into
**one** HTML file: litmus verdict grids, fault matrices, crash-window
coverage heatmaps, per-transaction latency decompositions, the
recovery-cost curves, perf points and history trends, and campaign
fabric telemetry.

The output is deliberately austere infrastructure: no network
references of any kind (no scripts, fonts, images, or stylesheets —
:func:`external_references` is the checkable contract, asserted in CI),
all styling inline, charts rendered server-side as SVG with native
``<title>`` hover tooltips, dark mode via ``prefers-color-scheme`` with
a ``data-theme`` override.  The file is deterministic for equal inputs
(no timestamps), so dashboards diff cleanly across runs.

Artifact kinds are sniffed from payload shape
(:func:`classify_artifact`): the writers now stamp a ``kind`` field,
and artifacts from before the stamp are recognized by their cell
structure.  Chrome-trace files are accepted too — they are folded
through :mod:`repro.obs.analyze` on the fly.
"""

from __future__ import annotations

import html
import json

from repro.harness.report import mean_ci

#: Fixed design -> categorical slot map.  Color follows the entity:
#: a dashboard with only two designs still paints them their own hues.
DESIGN_SLOTS = {"base": 1, "atom": 2, "atom-opt": 3, "redo": 4,
                "non-atomic": 5}

#: Fixed stage -> categorical slot map for the latency decomposition.
STAGE_SLOTS = {"execute": 1, "sq_residency": 2, "log_persist": 3,
               "commit_flush": 4, "redo_commit": 5}

#: Categorical palette (validated; see the repo's chart conventions).
_SERIES_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4",
                 "#008300", "#4a3aa7", "#e34948"]
_SERIES_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500", "#d55181",
                "#008300", "#9085e9", "#e66767"]

#: Sequential blue ramp (100..700) for heatmap magnitude.
_SEQ_RAMP = ["#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
             "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
             "#184f95", "#104281", "#0d366b"]

_STATUS = {"ok": "var(--good)", "detected": "var(--series-1)",
           "contained": "var(--series-2)", "silent": "var(--warning)",
           "vacuous": "var(--warning)", "FAIL": "var(--critical)"}

_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink-1: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
@SERIES_LIGHT@
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
@SERIES_DARK@
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
@SERIES_DARK@
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; font-weight: 600; color: var(--ink-2);
     margin: 16px 0 6px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile {
  border: 1px solid var(--border); border-radius: 6px;
  padding: 8px 14px; min-width: 120px;
}
.tile .v { font-size: 20px; }
.tile .l { color: var(--ink-2); font-size: 12px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td {
  text-align: left; padding: 3px 12px 3px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
td.num, th.num { text-align: right; }
.chip {
  display: inline-flex; align-items: center; gap: 6px;
  white-space: nowrap;
}
.chip .dot {
  width: 8px; height: 8px; border-radius: 50%; display: inline-block;
}
.legend {
  display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0;
  color: var(--ink-2); font-size: 12px;
}
.legend .sw {
  width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; margin-right: 5px; vertical-align: -1px;
}
svg text {
  font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  font-variant-numeric: tabular-nums;
}
.heat td.cell { text-align: right; padding: 3px 10px; }
.note { color: var(--muted); font-size: 12px; }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _num(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return f"{value:,}"


def _series_css(colors) -> str:
    return "\n".join(f"  --series-{i}: {c};"
                     for i, c in enumerate(colors, start=1))


def _slot_for(label: str, taken: dict) -> int:
    """Stable slot for a label: fixed map first, then first free slot."""
    if label in DESIGN_SLOTS:
        return DESIGN_SLOTS[label]
    if label not in taken:
        used = set(taken.values()) | set(DESIGN_SLOTS.values())
        free = next((s for s in range(1, 9) if s not in used), 8)
        taken[label] = free
    return taken[label]


# -- artifact sniffing --------------------------------------------------------

def classify_artifact(payload) -> str | None:
    """Best-effort kind of a loaded artifact payload."""
    if isinstance(payload, list):
        if payload and all(isinstance(e, dict) and "geomean" in e
                           for e in payload):
            return "history"
        return None
    if not isinstance(payload, dict):
        return None
    kind = payload.get("kind")
    if kind in ("litmus", "faults", "crash-sweep", "txn-analysis"):
        return {"txn-analysis": "analysis"}.get(kind, kind)
    if payload.get("benchmark") == "kernel":
        return "perf"
    if "traceEvents" in payload:
        return "trace"
    cells = payload.get("cells")
    if isinstance(cells, list) and cells and isinstance(cells[0], dict):
        first = cells[0]
        if "test" in first:
            return "litmus"
        if "fault" in first:
            return "faults"
        if "workload" in first:
            return "crash-sweep"
    return None


def load_artifact(path) -> tuple[str, str | None, object]:
    """Load ``path`` -> ``(name, kind, payload)``.

    ``.jsonl`` files are read as history ledgers (one JSON object per
    line, corrupt lines skipped); everything else as one JSON value.
    """
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    if str(path).endswith(".jsonl"):
        from repro.harness.perf import load_history

        return (name, "history", load_history(path))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return (name, classify_artifact(payload), payload)


# -- chart primitives ---------------------------------------------------------

def _tiles(entries) -> str:
    cells = [
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="l">{_esc(label)}</div></div>'
        for label, value in entries if value is not None
    ]
    return f'<div class="tiles">{"".join(cells)}</div>'


def _chip(status: str) -> str:
    color = _STATUS.get(status, "var(--muted)")
    return (f'<span class="chip"><span class="dot" '
            f'style="background:{color}"></span>{_esc(status)}</span>')


def _legend(entries) -> str:
    """``entries``: list of (label, css-color)."""
    if len(entries) < 2:
        return ""
    spans = [
        f'<span><span class="sw" style="background:{color}"></span>'
        f'{_esc(label)}</span>'
        for label, color in entries
    ]
    return f'<div class="legend">{"".join(spans)}</div>'


def _line_chart(series, *, width=640, height=240, x_title="",
                y_title="", y_zero=True) -> str:
    """Multi-series SVG line chart with CI whiskers.

    ``series``: list of ``(label, slot, points)`` where points are
    ``(x, y, ci)`` tuples sorted by x.  One axis, recessive grid,
    markers carry native ``<title>`` tooltips.
    """
    pts = [(x, y, ci) for _, _, p in series for x, y, ci in p]
    if not pts:
        return '<p class="note">no data points</p>'
    pad_l, pad_r, pad_t, pad_b = 64, 16, 10, 34
    xs = [p[0] for p in pts]
    x_min, x_max = min(xs), max(xs)
    y_max = max(p[1] + p[2] for p in pts)
    y_min = 0.0 if y_zero else min(p[1] - p[2] for p in pts)
    if x_max == x_min:
        x_min, x_max = x_min - 1, x_max + 1
    if y_max == y_min:
        y_max = y_min + 1
    span_x = x_max - x_min
    span_y = y_max - y_min
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x):
        return pad_l + (x - x_min) / span_x * plot_w

    def sy(y):
        return pad_t + plot_h - (y - y_min) / span_y * plot_h

    out = [f'<svg role="img" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">']
    # Recessive horizontal grid at quarter ticks, labels in muted ink.
    for i in range(5):
        y_val = y_min + span_y * i / 4
        y_px = sy(y_val)
        out.append(f'<line x1="{pad_l}" y1="{y_px:.1f}" '
                   f'x2="{width - pad_r}" y2="{y_px:.1f}" '
                   f'stroke="var(--grid)" stroke-width="1"/>')
        out.append(f'<text x="{pad_l - 6}" y="{y_px + 4:.1f}" '
                   f'text-anchor="end" fill="var(--muted)">'
                   f'{_num(y_val)}</text>')
    # Baseline + x extent labels.
    out.append(f'<line x1="{pad_l}" y1="{pad_t + plot_h}" '
               f'x2="{width - pad_r}" y2="{pad_t + plot_h}" '
               f'stroke="var(--baseline)" stroke-width="1"/>')
    for x_val, anchor in ((x_min, "start"), (x_max, "end")):
        out.append(f'<text x="{sx(x_val):.1f}" '
                   f'y="{pad_t + plot_h + 16}" text-anchor="{anchor}" '
                   f'fill="var(--muted)">{_num(x_val)}</text>')
    if x_title:
        out.append(f'<text x="{pad_l + plot_w / 2:.1f}" '
                   f'y="{height - 4}" text-anchor="middle" '
                   f'fill="var(--ink-2)">{_esc(x_title)}</text>')
    if y_title:
        out.append(f'<text x="14" y="{pad_t + plot_h / 2:.1f}" '
                   f'text-anchor="middle" fill="var(--ink-2)" '
                   f'transform="rotate(-90 14 '
                   f'{pad_t + plot_h / 2:.1f})">{_esc(y_title)}</text>')
    for label, slot, points in series:
        color = f"var(--series-{slot})"
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                        for x, y, _ in points)
        if len(points) > 1:
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="2"/>')
        for x, y, ci in points:
            if ci > 0:
                out.append(f'<line x1="{sx(x):.1f}" '
                           f'y1="{sy(y - ci):.1f}" x2="{sx(x):.1f}" '
                           f'y2="{sy(y + ci):.1f}" stroke="{color}" '
                           f'stroke-width="1" opacity="0.6"/>')
            tip = f"{label}: x={_num(x)}, y={_num(y)}"
            if ci > 0:
                tip += f" ±{_num(ci)}"
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                       f'r="3.5" fill="{color}">'
                       f'<title>{_esc(tip)}</title></circle>')
    out.append("</svg>")
    legend = _legend([(label, f"var(--series-{slot})")
                      for label, slot, _ in series])
    return "".join(out) + legend


def _stacked_rows(rows, stages, *, width=520) -> str:
    """Horizontal stacked bars (one row per label), 2px segment gaps.

    ``rows``: list of ``(label, {stage: value})``; all stages share the
    fixed :data:`STAGE_SLOTS` colors.
    """
    totals = [sum(values.get(s, 0) for s in stages) for _, values in rows]
    scale_max = max(totals) if totals else 0
    if scale_max <= 0:
        return '<p class="note">no stage data</p>'
    out = ["<table>"]
    for (label, values), total in zip(rows, totals):
        bar = [f'<svg width="{width}" height="18" '
               f'viewBox="0 0 {width} 18">']
        x = 0.0
        for stage in stages:
            value = values.get(stage, 0)
            if value <= 0:
                continue
            w = value / scale_max * (width - 2 * len(stages))
            color = f"var(--series-{STAGE_SLOTS.get(stage, 8)})"
            tip = f"{label} {stage}: {_num(value)} cycles"
            bar.append(f'<rect x="{x:.1f}" y="2" width="{max(w, 1):.1f}" '
                       f'height="14" rx="2" fill="{color}">'
                       f'<title>{_esc(tip)}</title></rect>')
            x += max(w, 1) + 2
        bar.append("</svg>")
        out.append(f'<tr><td>{_esc(label)}</td><td>{"".join(bar)}</td>'
                   f'<td class="num">{_num(total)}</td></tr>')
    out.append("</table>")
    legend = _legend([(s, f"var(--series-{STAGE_SLOTS.get(s, 8)})")
                      for s in stages])
    return "".join(out) + legend


def _heat_table(row_labels, col_labels, values) -> str:
    """HTML heatmap: sequential blue ramp, value printed in each cell."""
    peak = max((v for row in values for v in row), default=0)
    out = ['<table class="heat"><tr><th></th>']
    out.extend(f"<th class=\"num\">{_esc(c)}</th>" for c in col_labels)
    out.append("</tr>")
    for label, row in zip(row_labels, values):
        out.append(f"<tr><td>{_esc(label)}</td>")
        for v in row:
            if peak > 0 and v > 0:
                step = min(len(_SEQ_RAMP) - 1,
                           int(v / peak * (len(_SEQ_RAMP) - 1)))
                bg = _SEQ_RAMP[step]
                ink = "#ffffff" if step >= 7 else "#0b0b0b"
                out.append(f'<td class="cell" style="background:{bg};'
                           f'color:{ink}">{_num(v)}</td>')
            else:
                out.append(f'<td class="cell">{_num(v)}</td>')
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


# -- section renderers --------------------------------------------------------

def _recovery_section(figure: dict, origin: str) -> str:
    if not figure:
        return ""
    series = []
    taken: dict = {}
    for design in sorted(figure, key=lambda d: _slot_for(d, taken)):
        entry = figure[design]
        points = [(p["crash_cycle"], p["mean_cycles"], p.get("ci", 0.0))
                  for p in entry.get("series", [])]
        if points:
            series.append((design, _slot_for(design, taken), points))
    if not series:
        return ""
    chart = _line_chart(series, x_title="crash cycle",
                        y_title="mean recovery cycles")
    rows = "".join(
        f"<tr><td>{_esc(d)}</td>"
        f"<td class=\"num\">{_num(figure[d]['mean_cycles'])}"
        f" ±{_num(figure[d].get('ci', 0.0))}</td>"
        f"<td class=\"num\">{_num(figure[d]['points'])}</td></tr>"
        for d in sorted(figure)
    )
    return (f"<h3>Recovery cost vs. crash cycle ({_esc(origin)})</h3>"
            f"{chart}"
            f"<table><tr><th>design</th><th class=\"num\">overall mean"
            f"</th><th class=\"num\">points</th></tr>{rows}</table>")


def _campaign_block(payload: dict) -> str:
    metrics = payload.get("campaign")
    if not isinstance(metrics, dict):
        return ""
    events = metrics.get("events", {})
    tiles = [(name, _num(events[name])) for name in sorted(events)]
    tiles.append(("attempts", _num(metrics.get("attempts_total"))))
    wall = metrics.get("task_wall_s")
    if isinstance(wall, dict):
        tiles.append(("task wall total (s)", _num(wall.get("total"))))
        tiles.append(("task wall max (s)", _num(wall.get("max"))))
    return "<h3>Campaign fabric</h3>" + _tiles(tiles)


def _litmus_section(name: str, payload: dict) -> str:
    cells = payload.get("cells", [])
    summary = payload.get("summary", {})
    out = [f"<h2>Litmus — {_esc(name)}</h2>",
           _tiles([("points", _num(payload.get("points_total"))),
                   ("cells", _num(summary.get("cells"))),
                   ("failures", _num(summary.get("failures"))),
                   ("detected", _num(summary.get("detected"))),
                   ("densify points",
                    _num(payload.get("densify_points")) or None)])]
    designs = sorted({c["design"] for c in cells},
                     key=lambda d: DESIGN_SLOTS.get(d, 9))
    grid: dict[str, dict[str, str]] = {}
    for c in cells:
        row = c["test"] if c.get("fault", "power-loss") == "power-loss" \
            else f"{c['test']} ({c['fault']})"
        grid.setdefault(row, {})[c["design"]] = c.get("status", "?")
    if grid:
        out.append('<h3>Verdict grid</h3><table><tr><th>test</th>')
        out.extend(f"<th>{_esc(d)}</th>" for d in designs)
        out.append("</tr>")
        for row in grid:
            out.append(f"<tr><td>{_esc(row)}</td>")
            out.extend(
                f"<td>{_chip(grid[row][d]) if d in grid[row] else '-'}"
                f"</td>" for d in designs
            )
            out.append("</tr>")
        out.append("</table>")
    coverage = payload.get("coverage")
    window_rows: dict[str, dict[str, int]] = {}
    for c in cells:
        hits = c.get("window_hits") or {}
        row = window_rows.setdefault(c["design"], {})
        for window, n in hits.items():
            row[window] = row.get(window, 0) + n
    windows = sorted({w for row in window_rows.values() for w in row}
                     | set(coverage or {}))
    if windows and window_rows:
        out.append("<h3>Crash-window coverage (hits per design)</h3>")
        row_labels = sorted(window_rows,
                            key=lambda d: DESIGN_SLOTS.get(d, 9))
        out.append(_heat_table(
            row_labels, windows,
            [[window_rows[d].get(w, 0) for w in windows]
             for d in row_labels],
        ))
    out.append(_recovery_section(payload.get("recovery_figure", {}),
                                 name))
    out.append(_campaign_block(payload))
    return f"<section>{''.join(out)}</section>"


def _faults_section(name: str, payload: dict) -> str:
    cells = payload.get("cells", [])
    summary = payload.get("summary", {})
    out = [f"<h2>Faults — {_esc(name)}</h2>",
           _tiles([("points", _num(payload.get("points_total"))),
                   ("cells", _num(summary.get("cells"))),
                   ("failures", _num(summary.get("failures"))),
                   ("detected", _num(summary.get("detected"))),
                   ("contained", _num(summary.get("contained")) or None),
                   ("silent", _num(summary.get("silent")) or None),
                   ("silent lines",
                    _num(summary.get("silent_lines")) or None),
                   ("vacuous", _num(summary.get("vacuous")))])]
    if cells:
        out.append("<h3>Fault matrix</h3>"
                   "<table><tr><th>design</th><th>workload</th>"
                   "<th>fault</th><th class=\"num\">points</th>"
                   "<th class=\"num\">applied</th>"
                   "<th class=\"num\">detections</th>"
                   "<th class=\"num\">silent</th>"
                   "<th class=\"num\">mean rec. cycles</th>"
                   "<th>verdict</th></tr>")
        for c in cells:
            out.append(
                f"<tr><td>{_esc(c.get('design'))}</td>"
                f"<td>{_esc(c.get('workload'))}</td>"
                f"<td>{_esc(c.get('fault'))}</td>"
                f"<td class=\"num\">{_num(c.get('points'))}</td>"
                f"<td class=\"num\">{_num(c.get('applied_points'))}</td>"
                f"<td class=\"num\">{_num(c.get('detections'))}</td>"
                f"<td class=\"num\">{_num(c.get('silent'))}</td>"
                f"<td class=\"num\">"
                f"{_num(c.get('mean_recovery_cycles'))}</td>"
                f"<td>{_chip(c.get('status', '?'))}</td></tr>"
            )
        out.append("</table>")
    out.append(_recovery_section(payload.get("recovery_figure", {}),
                                 name))
    out.append(_campaign_block(payload))
    return f"<section>{''.join(out)}</section>"


def _crash_section(name: str, payload: dict) -> str:
    cells = payload.get("cells", [])
    summary = payload.get("summary", {})
    out = [f"<h2>Crash sweep — {_esc(name)}</h2>",
           _tiles([("points", _num(payload.get("points_total"))),
                   ("cells", _num(summary.get("cells"))),
                   ("failures", _num(summary.get("failures")))])]
    if cells:
        out.append("<h3>Cells</h3><table><tr><th>design</th>"
                   "<th>workload</th><th class=\"num\">points ok</th>"
                   "<th class=\"num\">commits</th>"
                   "<th class=\"num\">rolled back</th></tr>")
        for c in cells:
            out.append(
                f"<tr><td>{_esc(c.get('design'))}</td>"
                f"<td>{_esc(c.get('workload'))}</td>"
                f"<td class=\"num\">{_num(c.get('points_ok'))}/"
                f"{_num(c.get('points'))}</td>"
                f"<td class=\"num\">{_num(c.get('commits'))}</td>"
                f"<td class=\"num\">{_num(c.get('rolled_back'))}</td>"
                f"</tr>"
            )
        out.append("</table>")
    out.append(_recovery_section(payload.get("recovery_figure", {}),
                                 name))
    out.append(_campaign_block(payload))
    return f"<section>{''.join(out)}</section>"


def _analysis_section(name: str, payload: dict) -> str:
    from repro.obs.analyze import STAGES

    designs = payload.get("designs", {})
    out = [f"<h2>Transaction latency — {_esc(name)}</h2>"]
    meta = []
    if payload.get("workload"):
        meta.append(f"workload {payload['workload']}")
    if payload.get("seed") is not None:
        meta.append(f"seed {payload['seed']}")
    if meta:
        out.append(f'<p class="sub">{_esc(", ".join(meta))}</p>')
    rows = []
    for label, agg in designs.items():
        stage_means = {s: agg["stages"].get(s, {}).get("mean", 0.0)
                       for s in STAGES}
        rows.append((label, stage_means))
    if rows:
        out.append("<h3>Mean cycles per transaction, by stage</h3>")
        out.append(_stacked_rows(rows, list(STAGES)))
        out.append("<h3>Stage means ±CI</h3><table><tr><th>stage</th>")
        out.extend(f"<th class=\"num\">{_esc(l)}</th>" for l in designs)
        out.append("</tr>")
        for stage in list(STAGES) + ["duration"]:
            out.append(f"<tr><td>{_esc(stage)}</td>")
            for label in designs:
                agg = designs[label]
                cell = (agg["stages"].get(stage) if stage in agg["stages"]
                        else agg.get("duration"))
                out.append(
                    "<td class=\"num\">-</td>" if not cell else
                    f"<td class=\"num\">{_num(cell['mean'])} "
                    f"±{_num(cell['ci'])}</td>"
                )
            out.append("</tr>")
        extra = [("txns", lambda a: _num(a.get("txns"))),
                 ("ADR drains", lambda a: _num(a["adr"]["drains"])),
                 ("apply lag", lambda a: "-" if not a.get("apply_lag")
                  else f"{_num(a['apply_lag']['mean'])} "
                       f"±{_num(a['apply_lag']['ci'])}")]
        for label_row, fn in extra:
            out.append(f"<tr><td>{_esc(label_row)}</td>")
            out.extend(f"<td class=\"num\">{fn(designs[l])}</td>"
                       for l in designs)
            out.append("</tr>")
        out.append("</table>")
    diff = payload.get("differential")
    if diff and diff.get("deltas"):
        out.append(f"<h3>Δ vs {_esc(diff['reference'])} "
                   f"(± combined CI)</h3><table><tr><th>stage</th>")
        out.extend(f"<th class=\"num\">{_esc(l)}</th>"
                   for l in diff["deltas"])
        out.append("</tr>")
        for stage in list(STAGES) + ["duration"]:
            out.append(f"<tr><td>{_esc(stage)}</td>")
            for label in diff["deltas"]:
                cell = diff["deltas"][label].get(stage)
                out.append(
                    "<td class=\"num\">-</td>" if cell is None else
                    f"<td class=\"num\">{cell['delta']:+,.1f} "
                    f"±{_num(cell['ci'])}</td>"
                )
            out.append("</tr>")
        out.append("</table>")
    return f"<section>{''.join(out)}</section>"


def _perf_section(name: str, payload: dict) -> str:
    agg = payload.get("aggregate", {})
    geo = agg.get("geomean_events_per_sec")
    ci = agg.get("geomean_ci") or 0.0
    geo_text = None if geo is None else (
        f"{geo:,.0f}" + (f" ±{ci:,.0f}" if ci else "")
    )
    out = [f"<h2>Perf — {_esc(name)}</h2>",
           _tiles([("geomean events/sec", geo_text),
                   ("total events", _num(agg.get("total_events"))),
                   ("total wall (s)", _num(agg.get("total_wall_s"))),
                   ("scale", _num(payload.get("scale"))),
                   ("repeats", _num(payload.get("repeats")))])]
    points = payload.get("points", [])
    if points:
        out.append("<h3>Pinned matrix</h3><table><tr><th>design</th>"
                   "<th>workload</th><th class=\"num\">events</th>"
                   "<th class=\"num\">wall (s)</th>"
                   "<th class=\"num\">events/sec</th></tr>")
        for p in points:
            out.append(
                f"<tr><td>{_esc(p.get('design'))}</td>"
                f"<td>{_esc(p.get('workload'))}</td>"
                f"<td class=\"num\">{_num(p.get('events'))}</td>"
                f"<td class=\"num\">{_num(p.get('wall_s'))}</td>"
                f"<td class=\"num\">{_num(p.get('events_per_sec'))}"
                f"</td></tr>"
            )
        out.append("</table>")
    return f"<section>{''.join(out)}</section>"


def _history_section(name: str, entries: list) -> str:
    geos = [(i + 1, e["geomean"], e.get("geomean_ci") or 0.0)
            for i, e in enumerate(entries)
            if isinstance(e.get("geomean"), (int, float))]
    out = [f"<h2>Perf history — {_esc(name)}</h2>"]
    if not geos:
        out.append('<p class="note">empty ledger</p>')
        return f"<section>{''.join(out)}</section>"
    values = [g for _, g, _ in geos]
    mean, ci = mean_ci(values)
    out.append(_tiles([("runs", _num(len(geos))),
                       ("mean geomean", f"{mean:,.0f} ±{ci:,.0f}"),
                       ("latest", _num(values[-1]))]))
    out.append(_line_chart(
        [("geomean events/sec", 1, geos)],
        x_title="run", y_title="events/sec", y_zero=False,
    ))
    return f"<section>{''.join(out)}</section>"


# -- assembly -----------------------------------------------------------------

_RENDERERS = {
    "litmus": _litmus_section,
    "faults": _faults_section,
    "crash-sweep": _crash_section,
    "analysis": _analysis_section,
    "perf": _perf_section,
    "history": _history_section,
}


def build_dashboard(items, title: str = "ATOM repro dashboard") -> str:
    """Render ``items`` (``(name, kind, payload)`` triples) to HTML.

    Unknown kinds are skipped with a visible note rather than an
    error: a dashboard over a mixed artifact directory should render
    everything it understands.  Raw traces are folded through the
    analyzer first.
    """
    sections = []
    skipped = []
    for name, kind, payload in items:
        if kind == "trace":
            from repro.obs.analyze import (aggregate_breakdowns,
                                           decompose_trace)

            breakdowns, cut = decompose_trace(payload)
            payload = {
                "designs": {name: aggregate_breakdowns(breakdowns, cut)},
                "workload": None, "seed": None, "differential": None,
            }
            kind = "analysis"
        renderer = _RENDERERS.get(kind)
        if renderer is None:
            skipped.append(name)
            continue
        sections.append(renderer(name, payload))
    if skipped:
        notes = ", ".join(_esc(s) for s in skipped)
        sections.append(f'<section><p class="note">skipped '
                        f'unrecognized artifact(s): {notes}</p></section>')
    if not sections:
        sections.append('<section><p class="note">no artifacts'
                        '</p></section>')
    css = (_CSS
           .replace("@SERIES_LIGHT@", _series_css(_SERIES_LIGHT))
           .replace("@SERIES_DARK@", _series_css(_SERIES_DARK)))
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" "
        "content=\"width=device-width, initial-scale=1\">\n"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{css}</style>\n</head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f"<p class=\"sub\">{len(sections)} section(s); "
        "self-contained — no scripts, no network references.</p>\n"
        + "\n".join(sections)
        + "\n</body>\n</html>\n"
    )


#: Substrings that would make the file depend on anything beyond
#: itself.  The dashboard uses none of them; CI asserts it stays so.
_EXTERNAL_MARKERS = ("http://", "https://", "<script", "<link",
                     "<img", "src=", "url(", "@import", "href=")


def external_references(document: str) -> list[str]:
    """Every external-dependency marker found in ``document``.

    Empty list == self-contained.  ``href="#...`` fragments would be
    allowed, but the dashboard does not emit links at all.
    """
    lowered = document.lower()
    return [marker for marker in _EXTERNAL_MARKERS if marker in lowered]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness dash",
        description="Build a self-contained HTML dashboard from "
                    "harness artifacts (litmus/faults/crash-sweep "
                    "verdicts, perf reports, history ledgers, "
                    "analyses, traces).",
    )
    parser.add_argument("artifacts", nargs="+",
                        help="artifact JSON/JSONL files")
    parser.add_argument("--out", default="dashboard.html",
                        help="output HTML file (default dashboard.html)")
    parser.add_argument("--title", default="ATOM repro dashboard")
    args = parser.parse_args(argv)

    items = []
    for path in args.artifacts:
        try:
            name, kind, payload = load_artifact(path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read artifact {path!r}: {exc}")
            return 2
        if kind is None:
            print(f"warning: skipping unrecognized artifact {path!r}")
            continue
        items.append((name, kind, payload))
        print(f"  {name}: {kind}")

    document = build_dashboard(items, title=args.title)
    markers = external_references(document)
    if markers:  # defense in depth; the builder never emits these
        print(f"error: dashboard is not self-contained: {markers}")
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    print(f"wrote {args.out} ({len(document):,} bytes, "
          f"{len(items)} artifact(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
