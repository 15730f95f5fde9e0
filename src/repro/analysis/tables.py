"""Plain-text table rendering for experiment outputs.

Every benchmark prints its table/figure through this one formatter so
outputs look uniform and diff cleanly run against run.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["format_table", "format_series"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Fixed-width table with a header rule, floats at ``precision``."""
    cells: List[List[str]] = [
        [_fmt(v, precision) for v in row] for row in rows
    ]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(str(p).rjust(w) for p, w in zip(parts, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def format_series(
    x_label: str,
    x_values: Sequence[Any],
    series: dict,
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """A figure-as-table: one x column plus one column per series."""
    headers = [x_label] + list(series.keys())
    rows = [
        [x] + [series[name][i] for name in series]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title, precision=precision)
