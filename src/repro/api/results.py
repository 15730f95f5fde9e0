"""Typed result objects for the paper's tables and figures.

These are the stable, presentation-ready outcome types the builtin
:mod:`repro.api.plans` adapt their
:class:`~repro.api.frame.ResultFrame` into, plus the results of the
two worked examples (:func:`~repro.api.plans.fig4`,
:func:`~repro.api.plans.fig5`).  Each carries raw numbers plus a
``format()`` method printing the same rows/series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_series, format_table

__all__ = [
    "Table1Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Table2Result",
    "RateCapacityResult",
    "ModelCoherenceResult",
    "AblationResult",
]


@dataclass(frozen=True)
class Table1Result:
    """Energy normalized w.r.t. the optimal schedule, per task count."""

    sizes: Tuple[int, ...]
    random: Tuple[float, ...]
    ltf: Tuple[float, ...]
    pubs: Tuple[float, ...]
    graphs_per_size: int

    def format(self) -> str:
        rows = [
            [n, r, l, p]
            for n, r, l, p in zip(self.sizes, self.random, self.ltf, self.pubs)
        ]
        return format_table(
            ["# of tasks", "Random", "LTF", "pUBS"],
            rows,
            title=(
                "Table 1 — energy normalized w.r.t. optimal "
                f"(avg of {self.graphs_per_size} DAGs per size)"
            ),
        )


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


@dataclass(frozen=True)
class Fig6Result:
    graph_counts: Tuple[int, ...]
    series: Dict[str, Tuple[float, ...]]
    sets_per_point: int

    def format(self) -> str:
        return format_series(
            "# taskgraphs",
            list(self.graph_counts),
            {k: list(v) for k, v in self.series.items()},
            title=(
                "Figure 6 — energy normalized w.r.t. near-optimal "
                f"(precedence relaxed; avg of {self.sets_per_point} sets)"
            ),
        )


@dataclass(frozen=True)
class Table2Result:
    scheme_names: Tuple[str, ...]
    delivered_mah: Tuple[float, ...]
    lifetime_min: Tuple[float, ...]
    n_sets: int

    def format(self) -> str:
        rows = [
            [name, q, t]
            for name, q, t in zip(
                self.scheme_names, self.delivered_mah, self.lifetime_min
            )
        ]
        table = format_table(
            ["Scheme", "Charge (mAh)", "Lifetime (min)"],
            rows,
            title=(
                "Table 2 — battery performance at 70% utilization "
                f"(avg of {self.n_sets} taskgraph sets)"
            ),
            precision=1,
        )
        return table + "\n" + self.headline_claims()

    def ratio(self, a: str, b: str) -> float:
        """Lifetime of scheme ``a`` over scheme ``b``."""
        idx = {n: i for i, n in enumerate(self.scheme_names)}
        return self.lifetime_min[idx[a]] / self.lifetime_min[idx[b]]

    def headline_claims(self) -> str:
        """The §6 improvement percentages, recomputed from this run."""
        lines = []
        for target, label in (
            ("ccEDF", "over ccEDF"),
            ("laEDF", "over laEDF"),
            ("EDF", "over no-DVS EDF"),
        ):
            if target in self.scheme_names and "BAS-2" in self.scheme_names:
                pct = (self.ratio("BAS-2", target) - 1.0) * 100.0
                lines.append(f"BAS-2 lifetime {label}: {pct:+.1f}%")
        return "\n".join(lines)


@dataclass(frozen=True)
class RateCapacityResult:
    currents: Tuple[float, ...]
    delivered_mah: Dict[str, Tuple[float, ...]]
    max_capacity_mah: float
    available_capacity_mah: float

    def format(self) -> str:
        table = format_series(
            "I (A)",
            list(self.currents),
            {k: list(v) for k, v in self.delivered_mah.items()},
            title="Load vs delivered capacity (mAh)",
            precision=1,
        )
        return (
            table
            + f"\nextrapolated maximum capacity:   "
            f"{self.max_capacity_mah:.0f} mAh (paper: 2000)"
            + f"\nextrapolated available capacity: "
            f"{self.available_capacity_mah:.0f} mAh"
        )


@dataclass(frozen=True)
class ModelCoherenceResult:
    """Sustainable load scale per profile shape per model.

    ``margins[model][i]`` is the largest multiplier by which shape
    ``shapes[i]``'s currents can be scaled with the battery still
    completing the whole profile — the model-agnostic measure of how
    battery-friendly an execution order is (guideline 1 says the
    non-increasing permutation sustains the most).
    """

    shapes: Tuple[str, ...]
    margins: Dict[str, Tuple[float, ...]]

    def rankings_agree(self, models: Optional[Sequence[str]] = None) -> bool:
        """Do the (recovery-aware) models order the shapes identically?"""
        names = models if models is not None else [
            m for m in self.margins if m != "Peukert"
        ]
        orders = {
            tuple(np.argsort(self.margins[m])) for m in names
        }
        return len(orders) == 1

    def format(self) -> str:
        table = format_series(
            "profile",
            list(self.shapes),
            {k: list(v) for k, v in self.margins.items()},
            title=(
                "Figures 2-3 — battery models agree on load-shape "
                "friendliness (max sustainable load scale)"
            ),
            precision=4,
        )
        verdict = "yes" if self.rankings_agree() else "NO"
        return (
            table
            + f"\nkinetic/diffusion/stochastic rankings agree: {verdict}"
            + "\n(Peukert is permutation-blind: its column is flat)"
        )


@dataclass(frozen=True)
class AblationResult:
    """Generic one-factor ablation outcome."""

    title: str
    factor: str
    levels: Tuple[str, ...]
    metrics: Dict[str, Tuple[float, ...]]
    notes: str = ""

    def format(self) -> str:
        headers = [self.factor] + list(self.metrics.keys())
        rows = [
            [lvl] + [self.metrics[m][i] for m in self.metrics]
            for i, lvl in enumerate(self.levels)
        ]
        out = format_table(headers, rows, title=self.title, precision=3)
        if self.notes:
            out += "\n" + self.notes
        return out
