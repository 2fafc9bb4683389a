"""Render experiment rows as aligned text tables (what the harness prints)."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(rows: Sequence[dict]) -> str:
    """Format a list of row dictionaries as an aligned, pipe-separated table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: list[list[str]] = [columns]
    for row in rows:
        rendered.append([_format_value(row.get(column)) for column in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append(" | ".join(value.ljust(width) for value, width in zip(line, widths)))
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
