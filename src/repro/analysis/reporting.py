"""Plain-text rendering of experiment results.

``trie-hashing run <id>`` prints each reproduced table/figure as an
ASCII table whose rows mirror what the paper reports, so the evaluation
section regenerates in readable form, one experiment at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

__all__ = ["format_table", "format_value"]


def format_value(value: object) -> str:
    """Human formatting: percentages/ratios get sensible precision."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: list[dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    rule = "-" * len(header)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    parts = []
    if title:
        parts.extend([title, "=" * len(title)])
    parts.extend([header, rule, body])
    return "\n".join(parts)
