"""Picklable task runners for the repro.parallel tests.

These live in an importable module (``tests.parallel.helpers``) because
worker processes resolve runners by ``module:function`` path — a lambda
or a test-local closure cannot cross the process boundary.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict


def quick_task(seed: int = 0, **params: object) -> Dict[str, object]:
    """Instant deterministic result: digest of (seed, sorted params)."""
    payload = repr((int(seed), sorted(params.items())))
    return {
        "seed": seed,
        "params": dict(params),
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def always_fail(seed: int = 0, tally: str = "") -> Dict[str, object]:
    """Raise every time; each attempt adds a line to ``tally`` if given."""
    if tally:
        with open(tally, "a") as fh:
            fh.write("attempt\n")
    raise ValueError(f"broken runner (seed {seed})")


def not_a_dict(seed: int = 0) -> int:
    return int(seed)


def unpicklable_result(seed: int = 0) -> Dict[str, object]:
    """A result the worker cannot send back: the whole shard fails."""
    return {"digest": "x", "callback": lambda: seed}


def dies(seed: int = 0) -> Dict[str, object]:
    """Kill the worker process outright (only ever run in a pool)."""
    os._exit(13)
