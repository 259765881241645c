"""Shared machinery for the reproduction benchmark harness.

Every bench regenerates one paper artifact (Figure 1, Tables 1–5) or
runs one validation experiment (EXP1–EXP16 in DESIGN.md).  Each bench:

* computes its result once (module-level cache — pytest-benchmark's
  timing loop must not re-run multi-second simulations);
* writes the rendered artifact to ``benchmarks/results/<id>.txt``;
* asserts the *shape* of the result (who wins, where the knee falls);
* times the (cheap) rendering/classification path via the ``benchmark``
  fixture so ``--benchmark-only`` has something meaningful to measure.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(artifact_id: str, content: str) -> Path:
    """Persist a rendered artifact under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{artifact_id}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    return path


#: A replicated shape claim is asserted over this many consecutive seeds,
#: starting at the bench's default seed (never a hand-picked set), and
#: counts as holding when it holds in at least ``MAJORITY`` of them.
REPLICATES = 8
MAJORITY = 5


def seed_tally(
    seeds: Sequence[int], claims: Sequence[Tuple[str, Sequence[bool]]]
) -> Tuple[List[int], List[str]]:
    """Count, per claim, the seeds it holds at.

    ``claims`` pairs a claim's text with one flag per seed.  Returns the
    counts in claim order and the ``k/n`` lines for the results file.
    """
    counts = [sum(bool(flag) for flag in flags) for _, flags in claims]
    lines = [f"replicated over seeds {seeds[0]}..{seeds[-1]} (holds in k/{len(seeds)}):"]
    lines += [
        f"  {count}/{len(seeds)}  {text}" for (text, _), count in zip(claims, counts)
    ]
    return counts, lines


@pytest.fixture
def record_artifact():
    """Fixture handing benches the artifact writer."""
    return write_result
