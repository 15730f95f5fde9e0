"""Analysis layer: battery-lifetime evaluation and table formatting."""

from .lifetime import LifetimeReport, evaluate_lifetime
from .tables import format_series, format_table

__all__ = [
    "evaluate_lifetime",
    "LifetimeReport",
    "format_table",
    "format_series",
]
