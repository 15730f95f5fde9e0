"""Results of the paper's two worked examples.

:func:`~repro.api.plans.fig4` and :func:`~repro.api.plans.fig5` run
two fixed schedules each rather than a sweep, so they have no
:class:`~repro.api.frame.ResultFrame`; these carry their raw numbers
and traces plus a ``format()`` method printing the paper's rows.
Every swept artifact renders from its study's frame instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.tables import format_table

__all__ = ["Fig4Result", "Fig5Result"]


@dataclass(frozen=True)
class Fig4Result:
    """Energy of LTF vs STF on the two-task example, both cases."""

    energies: Dict[str, Dict[str, float]]  # case -> heuristic -> energy
    traces: Dict[str, Dict[str, str]]  # case -> heuristic -> ascii trace

    def winner(self, case: str) -> str:
        e = self.energies[case]
        return min(e, key=e.get)

    def format(self) -> str:
        rows = []
        for case in sorted(self.energies):
            e = self.energies[case]
            rows.append([case, e["LTF"], e["STF"], self.winner(case)])
        return format_table(
            ["case", "E(LTF)", "E(STF)", "winner"],
            rows,
            title="Figure 4 — execution order affects slack recovery",
            precision=4,
        )


@dataclass(frozen=True)
class Fig5Result:
    edf_trace: str
    bas_trace: str
    edf_order: Tuple[str, ...]
    bas_order: Tuple[str, ...]
    edf_misses: int
    bas_misses: int

    def format(self) -> str:
        return (
            "Figure 5(a) — canonical EDF ordering (fref = 0.5 fmax):\n"
            f"{self.edf_trace}\n"
            f"completion order: {', '.join(self.edf_order)}\n\n"
            "Figure 5(b) — pUBS-preferred ordering with feasibility "
            "check:\n"
            f"{self.bas_trace}\n"
            f"completion order: {', '.join(self.bas_order)}\n\n"
            f"deadline misses: EDF={self.edf_misses}, BAS={self.bas_misses}"
        )
