"""repro.parallel is a generic runtime: importing it loads no simulator."""

from __future__ import annotations

import os
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.parallel
print(sorted(m for m in sys.modules
             if m.startswith(("repro.cluster", "repro.scenarios"))))
"""


def test_importing_the_runtime_loads_no_cluster_or_scenario_module():
    # a fresh interpreter: this process has long since imported them all
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "[]"
