#!/usr/bin/env python
"""Battery playground: see the effects the scheduling guidelines exploit.

Three quick demonstrations on the calibrated AAA NiMH cell:

1. **Rate-capacity effect** — the gentler the constant load, the more
   of the 2000 mAh maximum the cell delivers (the curve whose
   extrapolated ends define the paper's maximum and available
   capacity).
2. **Recovery effect** — idle gaps let bound charge migrate back to
   the available well: a pulsed load outlives the equivalent
   continuous one.
3. **Guideline 1** — among permutations of the same workload, the
   non-increasing current order sustains the largest load scaling, and
   KiBaM, the diffusion model and the stochastic model all agree
   (Figures 2-3 of the paper), while Peukert's law — no recovery —
   can't tell the orders apart.

Run:  python examples/battery_playground.py
"""

from repro import CurrentProfile, paper_cell_kibam
from repro.api import Study, plans
from repro.battery import sweep_rate_capacity


def rate_capacity_demo() -> None:
    print("1. rate-capacity effect (constant loads)")
    cell = paper_cell_kibam()
    curve = sweep_rate_capacity(cell, [0.2, 0.5, 1.0, 2.0, 4.0])
    for current, mah, minutes in curve.rows():
        bar = "#" * int(mah / 50)
        print(f"   {current:4.1f} A  {mah:7.1f} mAh  {minutes:7.1f} min  {bar}")
    print()


def recovery_demo() -> None:
    print("2. recovery effect (same 1.4 A average)")
    cell = paper_cell_kibam()
    continuous = cell.run_profile([60.0], [1.4], repeat=None)
    pulsed = cell.run_profile([30.0, 30.0], [2.8, 0.0], repeat=None)
    print(
        f"   continuous 1.4 A          : "
        f"{continuous.delivered_mah:7.1f} mAh in "
        f"{continuous.lifetime_minutes:6.1f} min"
    )
    print(
        f"   pulsed 2.8 A / rest (50%) : "
        f"{pulsed.delivered_mah:7.1f} mAh in "
        f"{pulsed.lifetime_minutes:6.1f} min"
    )
    print("   (the battery recovers during the rest slots)\n")


def guideline_demo() -> None:
    print("3. guideline 1 — non-increasing order sustains the most load")
    # The plan's report: the sustainable-scale table per model plus the
    # ranking verdict (its title line repeats this section's header).
    report = Study(plans.model_coherence_plan()).run().format()
    for line in report.splitlines()[1:]:
        print("   " + line)
    print()


def main() -> None:
    rate_capacity_demo()
    recovery_demo()
    guideline_demo()


if __name__ == "__main__":
    main()
