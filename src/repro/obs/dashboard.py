"""A self-contained HTML telemetry dashboard.

One call turns a :class:`~repro.obs.timeseries.TelemetryPipeline` (plus,
optionally, its SLO engine, anomaly detector, and controller) into a
single HTML file with zero external references — no scripts, no
stylesheets, no fonts fetched from anywhere. Every series renders as an
inline SVG sparkline; SLO objectives get a status table with their
current burn rates; alerts and anomalies merge into one timeline ordered
on the simulated clock. The output is deterministic for a deterministic
run: series are sorted by name and every float goes through the same
``%g`` formatting.

The ``bench dashboard`` subcommand and :func:`write_dashboard` are the
two front doors; both funnel into :func:`render_dashboard`.
"""

from __future__ import annotations

from html import escape
from typing import List, Optional, Sequence, Tuple

__all__ = ["render_dashboard", "write_dashboard"]

_SPARK_W = 240.0
_SPARK_H = 44.0
_PAD = 3.0

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 1.5rem; color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; font-size: 0.82rem; }
th, td { padding: 0.25rem 0.6rem; border-bottom: 1px solid #ddd;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef; }
.grid { display: flex; flex-wrap: wrap; gap: 0.8rem; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: 0.5rem 0.7rem; }
.card .name { font-size: 0.78rem; font-weight: 600; }
.card .meta { font-size: 0.7rem; color: #667; }
.sev-critical { color: #b00020; font-weight: 600; }
.sev-warning { color: #b36b00; font-weight: 600; }
.ok { color: #0a7a3d; } .firing { color: #b00020; font-weight: 600; }
svg polyline { fill: none; stroke: #3356c4; stroke-width: 1.3; }
footer { margin-top: 2rem; font-size: 0.7rem; color: #889; }
"""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "–"
    return "%g" % round(float(value), 6)


def _sparkline(points: Sequence[Tuple[float, float]]) -> str:
    """An inline SVG polyline over normalized (t, v) points."""
    if not points:
        return "<svg width='240' height='44'></svg>"
    t0, t1 = points[0][0], points[-1][0]
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    t_span = (t1 - t0) or 1.0
    v_span = (hi - lo) or 1.0
    coords = []
    for t, v in points:
        x = _PAD + (t - t0) / t_span * (_SPARK_W - 2 * _PAD)
        y = _SPARK_H - _PAD - (v - lo) / v_span * (_SPARK_H - 2 * _PAD)
        coords.append("%g,%g" % (round(x, 2), round(y, 2)))
    return (
        "<svg width='%d' height='%d' viewBox='0 0 %d %d'>"
        "<polyline points='%s'/></svg>"
        % (_SPARK_W, _SPARK_H, _SPARK_W, _SPARK_H, " ".join(coords))
    )


def _series_cards(pipeline) -> List[str]:
    cards = []
    for name in sorted(pipeline.names()):
        buf = pipeline.series(name)
        points = buf.points
        last = points[-1][1] if points else None
        values = [v for _, v in points]
        cards.append(
            "<div class='card'><div class='name'>%s</div>%s"
            "<div class='meta'>%s · %d pts · last %s · min %s · max %s</div></div>"
            % (
                escape(name),
                _sparkline(points),
                escape(buf.kind),
                len(points),
                _fmt(last),
                _fmt(min(values) if values else None),
                _fmt(max(values) if values else None),
            )
        )
    return cards


def _slo_table(slo_engine, now: float) -> str:
    rows = []
    for row in slo_engine.status(now):
        state_cls = "firing" if row["state"] == "firing" else "ok"
        rows.append(
            "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td>%s</td><td class='%s'>%s</td></tr>"
            % (
                escape(str(row["slo"])),
                escape(str(row["series"])),
                escape(str(row["objective"])),
                _fmt(row.get("last")),
                _fmt(row.get("burn_long")),
                _fmt(row.get("burn_short")),
                state_cls,
                escape(str(row["state"])),
            )
        )
    return (
        "<table><tr><th>SLO</th><th>series</th><th>objective</th><th>last</th>"
        "<th>burn (long)</th><th>burn (short)</th><th>state</th></tr>%s</table>"
        % "".join(rows)
    )


def _timeline_rows(slo_engine, anomalies) -> List[Tuple[float, str, str, str]]:
    """Merged (time, source, severity, description) rows, clock-ordered."""
    rows: List[Tuple[float, str, str, str]] = []
    if slo_engine is not None:
        for alert in slo_engine.alerts:
            rows.append(
                (
                    alert.at,
                    "slo",
                    alert.severity,
                    "%s burning on %s (burn %s over %ss / %s over %ss)"
                    % (
                        alert.slo,
                        alert.series,
                        _fmt(alert.burn_long),
                        _fmt(alert.long_s),
                        _fmt(alert.burn_short),
                        _fmt(alert.short_s),
                    ),
                )
            )
    if anomalies is not None:
        for anomaly in anomalies.anomalies:
            rows.append(
                (
                    anomaly.at,
                    "anomaly",
                    "warning",
                    "%s on %s (value %s, score %s, baseline %s)"
                    % (
                        anomaly.kind,
                        anomaly.series,
                        _fmt(anomaly.value),
                        _fmt(anomaly.score),
                        _fmt(anomaly.baseline),
                    ),
                )
            )
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    return rows


def _remediation_table(controller) -> str:
    ordered = sorted(
        controller.records,
        key=lambda r: (r.diagnosis.detected_at, r.diagnosis.condition, r.diagnosis.subject),
    )
    rows = []
    for record in ordered:
        rows.append(
            "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td class='%s'>%s</td><td>%s</td></tr>"
            % (
                _fmt(record.diagnosis.detected_at),
                escape(record.diagnosis.condition),
                escape(record.diagnosis.subject or "—"),
                escape(record.action),
                "ok" if record.verified else "firing",
                "verified" if record.verified else "open",
                _fmt(record.mttr_s),
            )
        )
    return (
        "<table><tr><th>detected</th><th>condition</th><th>subject</th>"
        "<th>action</th><th>status</th><th>MTTR (s)</th></tr>%s</table>"
        % "".join(rows)
    )


def render_dashboard(
    pipeline,
    slo_engine=None,
    anomalies=None,
    controller=None,
    title: str = "SR3 telemetry",
) -> str:
    """The complete dashboard as one self-contained HTML string."""
    now = pipeline.sim.now
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>%s</title><style>%s</style></head><body>" % (escape(title), _CSS),
        "<h1>%s</h1>" % escape(title),
        "<p class='meta'>sim clock %s s · %d series</p>"
        % (_fmt(now), len(pipeline.names())),
    ]
    if slo_engine is not None and slo_engine.objectives:
        parts.append("<h2>SLO status</h2>")
        parts.append(_slo_table(slo_engine, now))
    timeline = _timeline_rows(slo_engine, anomalies)
    if timeline:
        parts.append("<h2>Alert timeline</h2><table>")
        parts.append("<tr><th>t (s)</th><th>source</th><th>severity</th><th>what</th></tr>")
        for at, source, severity, text in timeline:
            parts.append(
                "<tr><td>%s</td><td>%s</td><td class='sev-%s'>%s</td><td>%s</td></tr>"
                % (_fmt(at), source, escape(severity), escape(severity), escape(text))
            )
        parts.append("</table>")
    if controller is not None and controller.records:
        parts.append("<h2>Remediations</h2>")
        parts.append(_remediation_table(controller))
    parts.append("<h2>Series</h2><div class='grid'>")
    parts.extend(_series_cards(pipeline))
    parts.append("</div>")
    parts.append("<footer>sr3-dashboard-1 · rendered from the simulated clock</footer>")
    parts.append("</body></html>")
    return "".join(parts)


def write_dashboard(
    path: str,
    pipeline,
    slo_engine=None,
    anomalies=None,
    controller=None,
    title: str = "SR3 telemetry",
) -> str:
    """Render and write the dashboard; returns ``path``."""
    html = render_dashboard(
        pipeline,
        slo_engine=slo_engine,
        anomalies=anomalies,
        controller=controller,
        title=title,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(html)
    return path
