"""Attacker-side schedule-ladder inference.

Folds a schedule, which repeats every hyper-period, into rows of the
victim's minimum period so all victim arrivals align in one column, then
derives the columns where a compromised lower-priority task arrives (AAI)
and actually executes (AEI). Columns in AAI but never in AEI are preemption
shadows: candidate victim arrival columns. Columns are 0-indexed.

The fold, which lays the observation window out as the ladder and names the
hyper-period slot observed in each cell, is built once per (row, window,
hyper-period) (``fold``). ``build_ladder`` reads it for one schedule;
``aei_sizes`` applies it to a stack of schedules of one period assignment at
once. The view
depends on the victim only through its row length, so a caller that needs it
for several victims with the same minimum period folds once per row
(``cli.write_ir_csv`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .schedgen import Schedule
from .taskmodel import TrustedTask, UntrustedTask


@dataclass(frozen=True)
class LadderView:
    aai: frozenset[int]
    aei: frozenset[int]


@lru_cache(maxsize=256)
def _arrival_columns(row: int, period: int, window: int) -> frozenset[int]:
    """AAI: the columns of the attacker's arrivals in the first ``window``
    slots."""
    return frozenset(a % row for a in range(0, window, period))


@lru_cache(maxsize=256)
def fold(row: int, window: int, length: int) -> np.ndarray:
    """The first ``window`` observed slots laid out as the ladder: the
    read-only (ceil(window / row), row) array whose entry [m, c] is the slot
    of a hyper-period of ``length`` slots, repeating from slot 0, that is
    observed at t = m * row + c (t mod length), or ``length`` past the
    window. Its size is that of the window, whatever the row."""
    slots = np.arange(-(-window // row) * row) % length
    slots[window:] = length
    slots = slots.reshape(-1, row)
    slots.flags.writeable = False
    return slots


def _executed_columns(stack: np.ndarray, row: int, window: int, attacker_id: int) -> np.ndarray:
    """The (k, row) bool array of the columns the attacker executes in within
    the window, for each schedule of the (k, L) slot array ``stack``."""
    k, length = stack.shape
    runs = np.zeros((k, length + 1), dtype=bool)  # the extra slot stands past the window
    np.equal(stack, attacker_id, out=runs[:, :length])
    return runs[:, fold(row, window, length)].any(axis=1)


def build_ladder(sched: Schedule, victim: TrustedTask, attacker: UntrustedTask) -> LadderView:
    """Fold ``sched`` against the victim's minimum period; slot t of the
    observation is slot t mod L of the hyper-period L.

    The attacker knows its own arrival times (periodic from slot 0) and
    observes only its own executed slots; both are reduced modulo the row
    length. The window covers two repetitions of lcm(row, attacker period).

    The AEI is read from the attacker's slots through ``fold``.
    """
    row = victim.min_period
    window = 2 * math.lcm(row, attacker.period)
    stack = np.array([sched.slots], dtype=np.int64)
    columns = _executed_columns(stack, row, window, attacker.id)[0]
    return LadderView(
        aai=_arrival_columns(row, attacker.period, window),
        aei=frozenset(np.flatnonzero(columns).tolist()),
    )


def aei_sizes(stack: np.ndarray, victim: TrustedTask, attacker: UntrustedTask) -> np.ndarray:
    """|AEI| of the ladder (``build_ladder``) of each schedule of the (k, L)
    slot array ``stack``."""
    row = victim.min_period
    window = 2 * math.lcm(row, attacker.period)
    return np.count_nonzero(_executed_columns(stack, row, window, attacker.id), axis=1)


def inferability_ratio(lv: LadderView) -> Fraction:
    """(|AEI| mod |AAI|) / |AAI|; the modulo resets the ratio to zero when
    the attacker executes in every column it arrives in (no preemptions, so
    nothing is revealed)."""
    n_aai = len(lv.aai)
    if n_aai < 1:
        raise ValueError("attacker never arrives in the observation window")
    return Fraction(len(lv.aei) % n_aai, n_aai)
