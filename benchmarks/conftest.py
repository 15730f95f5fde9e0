"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, writes
the formatted output to ``benchmarks/results/<name>.txt`` and prints
it, so `pytest benchmarks/ --benchmark-only -s` reproduces the paper's
evaluation section end to end.  Scales are chosen to finish in tens of
seconds each; the plan builders in :mod:`repro.api.plans` accept
paper-scale arguments when you want the full averaging.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, name: str, text: str) -> None:
    """Persist and display one regenerated table/figure."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
