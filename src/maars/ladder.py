"""Attacker-side schedule-ladder inference.

Folds a schedule, which repeats every hyper-period, into rows of the
victim's minimum period so all victim arrivals align in one column, then
derives the columns where a compromised lower-priority task arrives (AAI)
and actually executes (AEI). Columns in AAI but never in AEI are preemption
shadows: candidate victim arrival columns. Columns are 0-indexed.

The view depends on the victim only through its row length, so a caller
that needs it for several victims with the same minimum period builds it
once (``cli.write_ir_csv`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .schedgen import Schedule
from .taskmodel import TrustedTask, UntrustedTask


@dataclass(frozen=True)
class LadderView:
    aai: frozenset[int]
    aei: frozenset[int]
    conclusive: bool


@lru_cache(maxsize=256)
def _arrival_columns(row: int, period: int, window: int) -> frozenset[int]:
    """AAI: the columns of the attacker's arrivals in the first ``window``
    slots."""
    return frozenset(a % row for a in range(0, window, period))


def build_ladder(
    sched: Schedule,
    victim: TrustedTask,
    attacker: UntrustedTask,
    observation_slots: int | None = None,
) -> LadderView:
    """Fold ``sched`` against the victim's minimum period; slot t of the
    observation is slot t mod L of the hyper-period L.

    The attacker knows its own arrival times (periodic from slot 0) and
    observes only its own executed slots; both are reduced modulo the row
    length. The default window covers two repetitions of lcm(row, attacker
    period); a window shorter than one is flagged inconclusive.

    Only the attacker's executed slots are visited: they are found in the
    first min(window, L) slots of the hyper-period, and each one at s stands
    for the observed slots s, s + L, s + 2L, ... inside the window.
    """
    row = victim.min_period
    repetition = math.lcm(row, attacker.period)
    if observation_slots is None:
        observation_slots = 2 * repetition
    slots, length = sched.slots, sched.length
    stop = min(observation_slots, length)
    executed = []
    t = -1
    try:
        while True:
            t = slots.index(attacker.id, t + 1, stop)
            executed.append(t)
    except ValueError:  # no executed slot left before ``stop``
        pass
    return LadderView(
        aai=_arrival_columns(row, attacker.period, observation_slots),
        aei=frozenset(
            u % row for s in executed for u in range(s, observation_slots, length)
        ),
        conclusive=observation_slots >= repetition,
    )


def inferability_ratio(lv: LadderView) -> Fraction:
    """(|AEI| mod |AAI|) / |AAI|; the modulo resets the ratio to zero when
    the attacker executes in every column it arrives in (no preemptions, so
    nothing is revealed)."""
    n_aai = len(lv.aai)
    if n_aai < 1:
        raise ValueError("attacker never arrives in the observation window")
    return Fraction(len(lv.aei) % n_aai, n_aai)
