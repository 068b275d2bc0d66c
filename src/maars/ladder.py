"""Attacker-side schedule-ladder inference.

Folds an observed timeline into rows of the victim's minimum period so all
victim arrivals align in one column, then derives the columns where a
compromised lower-priority task arrives (AAI) and actually executes (AEI).
Columns in AAI but never in AEI are preemption shadows: candidate victim
arrival columns. Columns are 0-indexed.
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


def tile_timeline(sched: Schedule, observation_slots: int) -> list[int]:
    """Repeat the schedule's hyper-period to cover the observation window."""
    reps = -(-observation_slots // sched.length)
    return (list(sched.slots) * reps)[:observation_slots]


def default_observation(row_length: int, attacker_period: int) -> int:
    # 2x the repetition length of the arrival/execution pattern
    return 2 * math.lcm(row_length, attacker_period)


def build_ladder(
    timeline: list[int],
    victim: TrustedTask,
    attacker: UntrustedTask,
    observation_slots: int | None = None,
) -> LadderView:
    """Fold ``timeline`` against the victim's minimum period.

    The attacker knows its own arrival times (periodic from slot 0) and
    observes only its own executed slots; both are reduced modulo the row
    length. Flagged inconclusive when the window is shorter than one full
    repetition lcm(row, attacker period).
    """
    row = victim.min_period
    if observation_slots is None:
        observation_slots = min(len(timeline), default_observation(row, attacker.period))
    if observation_slots > len(timeline):
        raise ValueError("observation window exceeds available timeline")
    aai = {
        (a * attacker.period) % row
        for a in range(-(-observation_slots // attacker.period))
        if a * attacker.period < observation_slots
    }
    aei = {
        t % row for t in range(observation_slots) if timeline[t] == attacker.id
    }
    conclusive = observation_slots >= math.lcm(row, attacker.period)
    return LadderView(aai=frozenset(aai), aei=frozenset(aei), conclusive=conclusive)


def inferability_ratio(lv: LadderView) -> Fraction:
    """(|AEI| mod |AAI|) / |AAI|; the modulo resets the ratio to zero when
    the attacker executes in every column it arrives in (no preemptions, so
    nothing is revealed)."""
    n_aai = len(lv.aai)
    if n_aai < 1:
        raise ValueError("attacker never arrives in the observation window")
    return Fraction(len(lv.aei) % n_aai, n_aai)
