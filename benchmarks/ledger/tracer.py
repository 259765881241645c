"""Outside-in layer tracing: patch the seam table, record spans.

The tracer lives entirely in the benchmark.  For one traced repetition
it replaces every method the seam table names with a wrapper that
records a span ``(seam, start, end, parent)``; it also wraps
``Simulator.schedule_at`` so each fired action becomes a span named by
its label (``milestone:…`` -> ``engine.event.milestone``).  Spans stay
in memory on per-thread stacks and are written out only when the
workload ends.  Every patch is undone afterwards, asserted by identity
of the patched attributes.

A span's *self* time is its duration minus its direct children's
durations, so nested and recursive seams are never counted twice and
the self times of a thread add up to the wall its root spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import types
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import seams as table

Span = Tuple[int, float, float, int]        # seam index, start, end, parent
Site = Tuple[object, str, object]           # owner, attribute, original


def seam_names(seams=table.SEAMS, event_seams=table.EVENT_SEAMS) -> Tuple[str, ...]:
    """Every seam in table order, event seams last."""
    names = [name for name, _ in seams]
    for _, name in event_seams:
        if name not in names:
            names.append(name)
    return tuple(names)


def self_times(
    spans: Sequence[Optional[Span]], since: float = float("-inf")
) -> Dict[int, Tuple[float, int]]:
    """``{seam index: (self seconds, calls)}`` for one thread's spans.

    ``parent`` is an index into the same sequence (-1 for a root).  An
    unfinished span (``None``: the thread was still inside it when the
    spans were read) is skipped, and so is its claim on its parent.
    Only spans starting at or after ``since`` are tallied.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    totals: Dict[int, Tuple[float, int]] = {}
    for index, span in enumerate(spans):
        if span is None or span[1] < since:
            continue
        seam, start, end, _ = span
        self_s, calls = totals.get(seam, (0.0, 0))
        totals[seam] = (self_s + (end - start) - children[index], calls + 1)
    return totals


class _ThreadState(threading.local):
    """One span list + open-span stack per thread."""

    def __init__(self, registry: List[List[Optional[Span]]], lock) -> None:
        # runs once per thread, on the thread's first access
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        with lock:
            registry.append(self.spans)


def _is_ours(module_name: str) -> bool:
    return module_name == "repro" or module_name.startswith("repro.")


def _load_all_of_repro() -> None:
    """Import every ``repro`` submodule, so each concrete subclass of a
    stage interface exists before the ``+`` targets are walked."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # an optional dependency is absent; nothing to patch


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def resolve(target: str) -> List[Site]:
    """The patch sites of one seam-table target (empty = unresolved)."""
    walk = target.endswith("+")
    module_name, _, path = target.rstrip("+").partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, method = path.partition(".")
    owner = getattr(module, owner_name, None)
    if owner is None:
        return []
    if not method:
        # a module-level function: patch every name it is bound to in
        # the program and in this package (``from x import f`` copies)
        if not isinstance(owner, types.FunctionType):
            return []
        package = __package__ or ""
        return [
            (holder, name, owner)
            for holder_name, holder in list(sys.modules.items())
            if holder is not None
            and (_is_ours(holder_name) or (package and holder_name.startswith(package)))
            for name, value in list(vars(holder).items())
            if value is owner
        ]
    if not isinstance(owner, type):
        return []
    classes = [owner]
    if walk:
        classes.extend(c for c in _subclasses(owner) if _is_ours(c.__module__))
    sites: List[Site] = []
    for cls in classes:
        original = cls.__dict__.get(method)
        if isinstance(original, types.FunctionType) and not getattr(
            original, "__isabstractmethod__", False
        ):
            sites.append((cls, method, original))
    return sites


class Tracer:
    """Install the seam table, collect spans, restore the program."""

    def __init__(
        self,
        seams=table.SEAMS,
        event_seams=table.EVENT_SEAMS,
        schedule_at: Optional[str] = table.SCHEDULE_AT,
        clock=perf_counter,
    ) -> None:
        self.seams = tuple(seams)
        self.event_seams = tuple(event_seams)
        self.schedule_at = schedule_at
        self.names = seam_names(self.seams, self.event_seams)
        self.clock = clock
        self.missing: List[str] = []          # seams with no patch site
        self.missing_targets: List[str] = []  # individual unresolved targets
        self.scheduled = 0                    # schedule_at calls seen
        self._patched: List[Tuple[object, str, object, object]] = []
        self._threads: List[List[Optional[Span]]] = []
        self._state = _ThreadState(self._threads, threading.Lock())

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, seam: int):
        """``fn`` recording one span of seam index ``seam`` per call."""
        state, clock = self._state, self.clock

        def traced(*args, **kwargs):
            spans, stack = state.spans, state.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (seam, start, end, parent)

        return traced

    def _wrap_schedule_at(self, original):
        index_of = {name: i for i, name in enumerate(self.names)}
        heads = {
            key[:-1]: index_of[name]
            for key, name in self.event_seams
            if key.endswith(":")
        }
        exact = {
            key: index_of[name]
            for key, name in self.event_seams
            if not key.endswith(":")
        }
        wrap = self.wrap

        def schedule_at(sim, time, action, label=""):
            self.scheduled += 1
            seam = exact.get(label)
            if seam is None:
                head, colon, _ = label.partition(":")
                if colon:
                    seam = heads.get(head)
            if seam is not None:
                action = wrap(action, seam)
            return original(sim, time, action, label)

        return schedule_at

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, site: Site, wrapper) -> None:
        owner, name, original = site
        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original, wrapper))

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        _load_all_of_repro()
        index_of = {name: i for i, name in enumerate(self.names)}
        for name, targets in self.seams:
            resolved = False
            for target in targets:
                sites = resolve(target)
                if not sites:
                    self.missing_targets.append(target)
                for site in sites:
                    self._patch(site, self.wrap(site[2], index_of[name]))
                    resolved = True
            if not resolved:
                self.missing.append(name)
        sites = resolve(self.schedule_at) if self.schedule_at else []
        for site in sites:
            self._patch(site, self._wrap_schedule_at(site[2]))
        if not sites:
            # without schedule_at no fired action can be named
            if self.schedule_at:
                self.missing_targets.append(self.schedule_at)
            self.missing.extend(dict.fromkeys(n for _, n in self.event_seams))
        return self

    def uninstall(self) -> None:
        """Undo every patch; the program must be exactly as it was."""
        for owner, name, original, wrapper in reversed(self._patched):
            if vars(owner).get(name) is not wrapper:
                raise RuntimeError(
                    f"{owner!r}.{name} was re-bound while the tracer was installed"
                )
            setattr(owner, name, original)
            if vars(owner).get(name) is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def threads(self) -> List[List[Optional[Span]]]:
        """Each thread's span list, in thread-creation order."""
        return list(self._threads)

    def totals(self) -> Dict[str, Optional[Tuple[float, int]]]:
        """``{seam: (self seconds, calls)}``; ``None`` for a missing seam."""
        sums: Dict[int, Tuple[float, int]] = {}
        for spans in self.threads():
            for seam, (self_s, calls) in self_times(spans).items():
                have = sums.get(seam, (0.0, 0))
                sums[seam] = (have[0] + self_s, have[1] + calls)
        return {
            name: None if name in self.missing else sums.get(index, (0.0, 0))
            for index, name in enumerate(self.names)
        }

    def write_jsonl(self, path, header: dict) -> int:
        """Dump the spans: one header line, then one line per span.

        A span line is ``[thread, id, parent, seam, start_us, end_us]``
        with ``seam`` indexing the header's ``seams`` list, ``parent``
        the ``id`` of the enclosing span on the same thread (-1 for a
        root) and times in microseconds since the header's ``origin``.
        """
        threads = self.threads()
        origin = min(
            (span[1] for spans in threads for span in spans if span is not None),
            default=0.0,
        )
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            head = dict(header)
            head.update(
                columns=["thread", "id", "parent", "seam", "start_us", "end_us"],
                seams=list(self.names),
                missing_seams=list(self.missing),
                threads=len(threads),
                origin_s=origin,
            )
            out.write(json.dumps(head) + "\n")
            for thread, spans in enumerate(threads):
                for index, span in enumerate(spans):
                    if span is None:
                        continue
                    seam, start, end, parent = span
                    out.write(
                        f"[{thread},{index},{parent},{seam},"
                        f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}]\n"
                    )
                    written += 1
        return written

