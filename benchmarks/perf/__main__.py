"""``python -m benchmarks.perf``: the bench gate (see :mod:`benchmarks.perf.gate`)."""

import sys

from benchmarks.perf.gate import main

if __name__ == "__main__":
    sys.exit(main())
