"""The engine's running set in virtual time (DESIGN.md §7).

Weighted max-min fair sharing (:mod:`repro.engine.resources`) has two
regimes with a closed form, and nearly every instant of every recorded
run is in one of them:

* **one round** — a resource binds first and every active row uses it,
  so each row moves at ``λ·share`` with one common ``λ = headroom /
  Σ share·demand`` of the binding resource;
* **fits** — every row runs at its own speed cap (``λ = 1``).

In either regime a row's progress is an affine function of one scalar,
the virtual clock ``V``, which advances at ``λ`` per simulated second
(generalized processor sharing's virtual time, Parekh and Gallager,
IEEE/ACM ToN 1993).  A row keeps its progress ``base`` at virtual
instant ``since`` and its ``rate`` of progress per unit of ``V``, so its
next milestone is the fixed virtual instant ``finish`` and the engine's
next milestone is the minimum of a heap.  A start, an exit or a change
to one row (weight, throttle, block, wake) updates the growth sums and
the regime test for that row and pushes one heap entry; no other row is
touched.

Any other instant — neither regime holds (a speed cap binds first, or a
row does not use the binding resource) — and any change to every row at
once (machine speed, buffer-pool inflation) takes one **resync**: every
row's progress is materialized, the exact scalar
:func:`~repro.engine.resources.fill_two_resource` runs when no closed
form holds, and ``V`` is rebased to 0.

**The exact-recompute rule.**  Incrementally kept sums drift in floating
point, and so would a ``V`` that only grows.  A resync re-sums every
sum in insertion order and rebases ``V``, and one runs (a) when the
regime test fails or changes, (b) on a machine-wide change, and (c)
once the incremental updates since the last resync outnumber the rows.
When the set empties, every sum is reset to exactly 0 and ``V`` to 0.
Rule (c) costs an O(n) pass per n updates, O(1) amortized, and bounds
both the drift of the sums and the magnitude of ``V``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.resources import fill_two_resource

#: the regimes of the last settle; ``IDLE`` holds no active row
IDLE, ONE_ROUND, FITS, EXACT = range(4)

_INF = float("inf")
#: the share of a capacity the caps may use and still "fit"
_FITS = 1.0 - 1e-9


class Row:
    """One running query.

    ``share`` is the solver's weight (``weight / bottleneck``) and ``cap``
    its speed cap (0 while blocked or paused: the row is then inactive,
    outside every sum).  ``next_lock`` indexes the next lock point the
    row takes at a milestone event: ``len(lock_points)`` once none is
    left, and while the transaction is quiet, which passes its points
    without events.
    """

    __slots__ = (
        "query", "lock_points", "next_lock", "weight", "throttle", "cpu", "io",
        "disk", "bottleneck", "share", "cap", "milestone", "blocked",
        "base", "since", "rate", "finish",
    )

    def __init__(self, query, lock_points: Sequence[float], weight: float) -> None:
        self.query = query
        self.lock_points = lock_points
        self.next_lock = 0
        self.weight = weight
        self.throttle = 1.0
        self.blocked = False
        self.milestone = 1.0
        self.base = query.progress
        self.since = 0.0
        self.rate = 0.0
        self.finish = _INF

    def __repr__(self) -> str:
        return (
            f"Row(q={self.query.query_id}, base={self.base:.6g}, "
            f"rate={self.rate:.6g}, milestone={self.milestone:.6g})"
        )


class RunStore:
    """The running rows in insertion order, their sums and the clock."""

    __slots__ = (
        "rows", "cpu_cap", "disk_cap", "time", "vtime", "t0", "v0", "lam", "regime",
        "dirty", "updates", "heap", "active", "g_cpu", "g_disk", "u_cpu",
        "u_disk", "no_cpu", "no_disk", "ratio_min", "ratio_count", "usage",
    )

    def __init__(self, cpu_cap: float, disk_cap: float) -> None:
        self.rows: Dict[int, Row] = {}
        self.cpu_cap = cpu_cap
        self.disk_cap = disk_cap
        self.time = 0.0
        self._empty()

    def _empty(self) -> None:
        """Every sum exactly 0 and ``V`` rebased: the set is empty."""
        self.vtime = self.v0 = 0.0
        self.t0 = self.time
        self.lam = 1.0
        self.regime = IDLE
        self.dirty = False
        self.updates = 0
        self.heap: List[Tuple[float, int]] = []
        self.active = 0
        self.g_cpu = self.g_disk = self.u_cpu = self.u_disk = 0.0
        self.no_cpu = self.no_disk = 0
        self.ratio_min = _INF
        self.ratio_count = 0
        self.usage = (0.0, 0.0)

    # ------------------------------------------------------------------
    # reading the clock
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Bring ``V`` to ``now``; O(1), every row follows implicitly.

        ``V`` is read off the anchor ``(t0, v0)``, which moves only when
        ``λ`` does, so no rounding accumulates from event to event."""
        if now != self.time:
            self.time = now
            self.vtime = self.v0 + self.lam * (now - self.t0)

    def at(self, vtime: float) -> float:
        """The simulated instant the clock reads ``vtime`` at."""
        return self.t0 + (vtime - self.v0) / self.lam

    def progress(self, row: Row) -> float:
        """The row's progress at the last :meth:`advance`."""
        if row.rate == 0.0:
            return row.base
        progress = row.base + row.rate * (self.vtime - row.since)
        return progress if progress < 1.0 else 1.0

    def speed(self, row: Row) -> float:
        """Progress per simulated second since the last settle."""
        return self.lam * row.rate

    # ------------------------------------------------------------------
    # one row at a time
    # ------------------------------------------------------------------
    def add(self, row: Row) -> None:
        qid = row.query.query_id
        if qid in self.rows:
            raise ValueError(f"query {qid} already stored")
        self.rows[qid] = row
        row.since = self.vtime
        self.attach(row)

    def remove(self, row: Row) -> None:
        """Drop ``row`` (its progress read first, if wanted)."""
        del self.rows[row.query.query_id]
        if not self.rows:
            self._empty()
            return
        self._leave(row)

    def detach(self, row: Row) -> None:
        """Anchor the row at its progress now and take it out of the sums,
        before its weight, cap or demands change; :meth:`attach` after."""
        row.base = self.progress(row)
        row.since = self.vtime
        self._leave(row)

    def retarget(self, row: Row) -> None:
        """The row's milestone moved (a lock point granted or taken)."""
        if row.rate > 0.0:
            row.finish = row.since + (row.milestone - row.base) / row.rate
            heapq.heappush(self.heap, (row.finish, row.query.query_id))

    def attach(self, row: Row) -> None:
        """Put the row (back) into the sums at its anchor, with the rate
        the current regime gives it and one heap entry."""
        self.updates += 1
        if row.cap <= 0.0:
            row.rate, row.finish = 0.0, _INF
            return
        share = row.share
        self.active += 1
        self.g_cpu += share * row.cpu
        self.g_disk += share * row.disk
        self.u_cpu += row.cap * row.cpu
        self.u_disk += row.cap * row.disk
        if row.cpu == 0.0:
            self.no_cpu += 1
        if row.disk == 0.0:
            self.no_disk += 1
        ratio = row.cap / share
        if ratio < self.ratio_min:
            self.ratio_min, self.ratio_count = ratio, 1
        elif ratio == self.ratio_min:
            self.ratio_count += 1
        regime = self.regime
        if regime == IDLE:  # alone in the sums so far: it fits, or the settle resyncs
            regime = self.regime = FITS
        if regime == ONE_ROUND:
            row.rate = share
        elif regime == FITS:
            row.rate = row.cap
        else:  # the rates come from a resync
            row.rate, row.finish = 0.0, _INF
            self.dirty = True
            return
        row.finish = row.since + (row.milestone - row.base) / row.rate
        heapq.heappush(self.heap, (row.finish, row.query.query_id))

    def _leave(self, row: Row) -> None:
        self.updates += 1
        if row.cap <= 0.0:
            return
        share = row.share
        self.active -= 1
        self.g_cpu -= share * row.cpu
        self.g_disk -= share * row.disk
        self.u_cpu -= row.cap * row.cpu
        self.u_disk -= row.cap * row.disk
        if row.cpu == 0.0:
            self.no_cpu -= 1
        if row.disk == 0.0:
            self.no_disk -= 1
        if row.cap / share == self.ratio_min:
            self.ratio_count -= 1
            if self.ratio_count == 0:
                self.ratio_min = -_INF  # stale: re-found at the next settle
        row.rate, row.finish = 0.0, _INF
        if self.regime == EXACT:
            self.dirty = True

    # ------------------------------------------------------------------
    # the end of an instant
    # ------------------------------------------------------------------
    def settle(self, now: float) -> Optional[Tuple[float, Row]]:
        """Fix the regime and ``λ`` for the time after ``now`` and return
        the next milestone ``(time, row)``, or ``None``."""
        self.advance(now)
        if not self.rows:
            return None
        if self.dirty or self.updates > len(self.rows):
            self.resync()
        else:
            regime, lam = self._classify()
            if regime != self.regime:
                self.resync()
            elif lam != self.lam:
                self.t0, self.v0, self.lam = now, self.vtime, lam
        heap, rows = self.heap, self.rows
        while heap:
            finish, qid = heap[0]
            row = rows.get(qid)
            if row is not None and row.finish == finish:
                time = self.at(finish)
                return (time if time > now else now), row
            heapq.heappop(heap)
        return None

    def _classify(self) -> Tuple[int, float]:
        """The regime the sums say, and its ``λ`` (1 but in one round)."""
        if not self.active:
            return IDLE, 1.0
        # Every row at its cap, with a margin: the exact fill binds a
        # resource that ties the last cap (within 1e-15 of its step), and
        # that freezes a row whose demand on it is negligible far below
        # its cap.  Inside the margin the one-round test decides, as the
        # fill's first round would.
        if self.u_cpu <= self.cpu_cap * _FITS and self.u_disk <= self.disk_cap * _FITS:
            return FITS, 1.0
        # the fill's first round: CPU wins ties within 1e-15, then disk,
        # then a speed cap only if it binds strictly first
        lam = self.cpu_cap / self.g_cpu if self.g_cpu > 0.0 else _INF
        unused = self.no_cpu
        if self.g_disk > 0.0:
            disk = self.disk_cap / self.g_disk
            if disk < lam - 1e-15:
                lam, unused = disk, self.no_disk
        if unused:
            return EXACT, 1.0
        if self.ratio_min == -_INF:
            self._find_ratio_min()
        if self.ratio_min < lam - 1e-15:
            return EXACT, 1.0
        return ONE_ROUND, lam

    def _find_ratio_min(self) -> None:
        ratio_min, count = _INF, 0
        for row in self.rows.values():
            if row.cap > 0.0:
                ratio = row.cap / row.share
                if ratio < ratio_min:
                    ratio_min, count = ratio, 1
                elif ratio == ratio_min:
                    count += 1
        self.ratio_min, self.ratio_count = ratio_min, count

    def resync(self) -> None:
        """Materialize every row, re-sum in insertion order, rebase ``V``
        to 0 and set every rate from the regime (the exact fill when no
        closed form holds); rebuilds the heap."""
        vtime = self.vtime
        active: List[Row] = []
        g_cpu = g_disk = u_cpu = u_disk = 0.0
        no_cpu = no_disk = 0
        for row in self.rows.values():
            if row.rate != 0.0:
                progress = row.base + row.rate * (vtime - row.since)
                row.base = progress if progress < 1.0 else 1.0
            row.since = 0.0
            if row.cap > 0.0:
                active.append(row)
                share = row.share
                g_cpu += share * row.cpu
                g_disk += share * row.disk
                u_cpu += row.cap * row.cpu
                u_disk += row.cap * row.disk
                if row.cpu == 0.0:
                    no_cpu += 1
                if row.disk == 0.0:
                    no_disk += 1
            else:
                row.rate, row.finish = 0.0, _INF
        self.vtime = self.v0 = 0.0
        self.t0 = self.time
        self.active = len(active)
        self.g_cpu, self.g_disk, self.u_cpu, self.u_disk = g_cpu, g_disk, u_cpu, u_disk
        self.no_cpu, self.no_disk = no_cpu, no_disk
        self._find_ratio_min()
        self.dirty = False
        self.updates = 0
        regime, self.lam = self._classify()
        self.regime = regime
        if regime == ONE_ROUND:
            for row in active:
                row.rate = row.share
        elif regime == FITS:
            for row in active:
                row.rate = row.cap
        elif regime == EXACT:
            speeds = [0.0] * len(active)
            fill_two_resource(
                [[i, row.share, row.cpu, row.disk, row.cap] for i, row in enumerate(active)],
                speeds,
                self.cpu_cap,
                self.disk_cap,
            )
            usage_cpu = usage_disk = 0.0
            for row, speed in zip(active, speeds):
                row.rate = speed
                usage_cpu += speed * row.cpu
                usage_disk += speed * row.disk
            self.usage = (usage_cpu, usage_disk)
        heap = []
        for row in active:
            if row.rate > 0.0:
                row.finish = (row.milestone - row.base) / row.rate
                heap.append((row.finish, row.query.query_id))
            else:
                row.finish = _INF
        heapq.heapify(heap)
        self.heap = heap

    def current_usage(self) -> Tuple[float, float]:
        """Server-units of CPU and disk in use since the last settle."""
        if self.regime == ONE_ROUND:
            return self.lam * self.g_cpu, self.lam * self.g_disk
        if self.regime == FITS:
            return self.u_cpu, self.u_disk
        if self.regime == EXACT:
            return self.usage
        return 0.0, 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        names = ("idle", "one round", "fits", "exact")
        return f"RunStore(count={len(self.rows)}, {names[self.regime]}, λ={self.lam:.6g})"
