"""Attacker-side schedule-ladder inference.

Folds a schedule, which repeats every hyper-period, into rows of the
victim's minimum period so all victim arrivals align in one column, then
derives the columns where a compromised lower-priority task arrives (AAI)
and actually executes (AEI). Columns in AAI but never in AEI are preemption
shadows: candidate victim arrival columns. Columns are 0-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .schedgen import Schedule
from .taskmodel import TrustedTask, UntrustedTask


@dataclass(frozen=True)
class LadderView:
    aai: frozenset[int]
    aei: frozenset[int]
    conclusive: bool


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
    """
    row = victim.min_period
    repetition = math.lcm(row, attacker.period)
    if observation_slots is None:
        observation_slots = 2 * repetition
    slots, length = sched.slots, sched.length
    aai = {a % row for a in range(0, observation_slots, attacker.period)}
    aei = {
        t % row for t in range(observation_slots) if slots[t % length] == attacker.id
    }
    conclusive = observation_slots >= repetition
    return LadderView(aai=frozenset(aai), aei=frozenset(aei), conclusive=conclusive)


def inferability_ratio(lv: LadderView) -> Fraction:
    """(|AEI| mod |AAI|) / |AAI|; the modulo resets the ratio to zero when
    the attacker executes in every column it arrives in (no preemptions, so
    nothing is revealed)."""
    n_aai = len(lv.aai)
    if n_aai < 1:
        raise ValueError("attacker never arrives in the observation window")
    return Fraction(len(lv.aei) % n_aai, n_aai)
