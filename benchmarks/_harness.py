"""Shared helper for the figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
asserts the claims EXPERIMENTS.md records for it.  The regenerated
artifact is printed (visible with ``pytest -s``) *and* written to
``benchmarks/results/<name>.txt`` so that a plain ``pytest benchmarks -q``
run leaves the full set of reproduced tables on disk for
EXPERIMENTS.md-style comparison.  Timing is perfbench's job (see
``perfbench/README.md``), not this harness's.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.atomic import atomic_write_text

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n{text}")
