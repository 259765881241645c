"""The calibration kernel and the meter that spins it through a repetition.

Raw wall time cannot carry a claim on the shared 2-core sandbox: its
host changes speed at a grain of about a second (the kernel below reads
4.4, 5.6 or 7+ ms, and in turbulent phases anything in between).  A
kernel spun only before and after a ~1 s repetition therefore often
measures another mode than the repetition ran in: over 110-150
back-to-back repetitions the repetition/bracket ratio had a log-sd of
0.13-0.15 whatever the kernel (dict/float loop, mini event loop, pointer
chase, stdlib medley) and whether the bracket's minimum, mean or median
was used.  Spinning the kernel *every ~40 ms inside the repetition* and
normalising each segment by the two spins around it brought that to
0.02-0.03 on ``closed_mpl8`` and held 0.06 with a second process
competing for the same CPU (raw log-sd 0.38).

So a repetition carries a ``Meter`` that spins the kernel at every
phase boundary and every ``SLICE_S`` of wall inside the run, and each
piece of the repetition's work is multiplied by ``CALIB_REF_S /
mean(spin before, spin after)``: the numbers read as seconds on the
reference sandbox, where one spin takes ``CALIB_REF_S``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: What one spin of the kernel takes on the reference sandbox.
CALIB_REF_S = 0.005
CALIB_ITERATIONS = 50_000

#: Wall time after which the event loop lets the meter spin again.  At
#: 40 ms the spins cost ~12 % of a repetition's wall; 100 ms segments
#: read a log-sd of 0.03 where 25-50 ms read 0.023-0.026.
SLICE_S = 0.040

SETUP, RUN, REPORT, END = "setup", "run", "report", "end"


def calibration_kernel(iterations: int = CALIB_ITERATIONS) -> float:
    """A fixed dict/float loop: the kind of interpreter work the
    program is made of (bytecode dispatch, dict reads and stores, float
    arithmetic, small-object allocation)."""
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(iterations):
        key = i & 1023
        acc += table.get(key, 0.5) * 0.5 + i
        table[key] = acc
    return acc


def spin() -> float:
    """Seconds one spin of the kernel takes now."""
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


def normalise(seconds: float, spin_before: float, spin_after: float) -> float:
    """``seconds`` as they would read on the reference sandbox."""
    return seconds * CALIB_REF_S / ((spin_before + spin_after) / 2.0)


class Meter:
    """The marks and pieces of one repetition.

    A *mark* spins the kernel once; a *piece* is a stretch of the
    program's work between two boundaries that fall at the same point of
    the work in every repetition of a seed (a phase boundary, the end of
    one of the event loop's fine slices), so that piece ``k`` of one
    repetition is the same work as piece ``k`` of another.  A piece is
    normalised by the last spin before it began and the first spin after
    it ended.

    ``mark(phase)`` ends the running piece, spins, and opens a piece of
    ``phase``; ``mark(END)`` ends the last one.  ``lap()`` ends a piece
    and opens the next without spinning; ``respin()``, called right
    after a lap, spins again without adding a boundary.  A *quiet*
    meter stamps its marks without spinning — the traced and counted
    repetitions use it, so that no kernel time lands in a seam's self
    time — and its pieces are normalised by one spin time for the whole
    repetition, measured around it.
    """

    def __init__(self, quiet: bool = False) -> None:
        self.quiet = quiet
        self.marks: List[Tuple[str, float, float]] = []   # phase, start, end
        self.pieces: List[Tuple[float, int]] = []   # wall seconds, last mark before
        self._piece_began = 0.0

    def _spin(self, phase: str) -> None:
        start = perf_counter()
        if not self.quiet:
            calibration_kernel()
        self._piece_began = perf_counter()
        self.marks.append((phase, start, self._piece_began))

    def mark(self, phase: str) -> None:
        if self.marks:
            self.lap()
        self._spin(phase)

    def lap(self) -> None:
        now = perf_counter()
        self.pieces.append((now - self._piece_began, len(self.marks) - 1))
        self._piece_began = now

    def respin(self) -> None:
        self._spin(self.marks[-1][0])

    def due(self) -> bool:
        """Has it been ``SLICE_S`` since the last spin?  Never on a
        quiet meter, whose repetition must make the same calls every
        time (the counted repetition counts them)."""
        return not self.quiet and perf_counter() - self.marks[-1][2] >= SLICE_S

    def began(self, phase: str) -> float:
        """When ``phase`` was first marked (the mark's start, so a phase
        ends where the next one begins)."""
        return next(start for name, start, _ in self.marks if name == phase)

    def spins(self) -> List[float]:
        """What each mark's spin took (nothing on a quiet meter)."""
        return [] if self.quiet else [end - start for _, start, end in self.marks]

    def normalised_pieces(
        self, spin_s: Optional[float] = None
    ) -> List[Tuple[str, float]]:
        """``(phase, normalised seconds)`` per piece.  ``spin_s``
        replaces the marks' own spins; a quiet meter needs it."""
        if spin_s is None and self.quiet:
            raise ValueError("a quiet meter has no spins of its own")
        spins = [end - start for _, start, end in self.marks]
        return [
            (
                self.marks[mark][0],
                normalise(wall, spin_s, spin_s)
                if spin_s is not None
                else normalise(wall, spins[mark], spins[mark + 1]),
            )
            for wall, mark in self.pieces
        ]


def phase_seconds(pieces: List[Tuple[str, float]]) -> Dict[str, float]:
    """Normalised seconds per phase of one repetition's pieces."""
    seconds = {SETUP: 0.0, RUN: 0.0, REPORT: 0.0}
    for phase, value in pieces:
        seconds[phase] += value
    return seconds
