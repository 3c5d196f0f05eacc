"""Rendering experiment results as text and markdown tables."""

from __future__ import annotations

from typing import List

from repro.bench.harness import ExperimentResult


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def format_result(result: ExperimentResult) -> str:
    """A fixed-width text table (for terminal output and logs)."""
    widths = {c: len(c) for c in result.columns}
    rendered_rows: List[List[str]] = []
    for row in result.rows:
        rendered = [_format_value(row[c]) for c in result.columns]
        rendered_rows.append(rendered)
        for column, cell in zip(result.columns, rendered):
            widths[column] = max(widths[column], len(cell))
    header = "  ".join(c.ljust(widths[c]) for c in result.columns)
    divider = "  ".join("-" * widths[c] for c in result.columns)
    lines = [
        f"== {result.experiment_id}: {result.description} ==",
        header,
        divider,
    ]
    for rendered in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[c]) for cell, c in zip(rendered, result.columns))
        )
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def render_markdown(result: ExperimentResult) -> str:
    """A GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    header = "| " + " | ".join(result.columns) + " |"
    divider = "|" + "|".join("---" for _ in result.columns) + "|"
    lines = [header, divider]
    for row in result.rows:
        lines.append(
            "| " + " | ".join(_format_value(row[c]) for c in result.columns) + " |"
        )
    if result.notes:
        lines.append("")
        lines.append(f"*{result.notes}*")
    return "\n".join(lines)
