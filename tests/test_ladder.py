"""Ladder inference: folding, AAI/AEI extraction, inferability ratio."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.ladder import LadderView, aei_sizes, build_ladder, inferability_ratio
from maars.schedgen import Schedule, simulate_fixed_priority
from maars.taskmodel import TaskSpec, TrustedTask, UntrustedTask


@pytest.fixture()
def demo(ladder_ts):
    sched = simulate_fixed_priority(ladder_ts, ladder_ts.min_period_spec())
    return ladder_ts, sched


class TestBuildLadder:
    def test_reference_ladder(self, demo):
        ts, sched = demo
        lv = build_ladder(sched, ts.trusted[0], ts.untrusted[0])
        assert sorted(lv.aai) == [0, 1, 2, 3]
        assert sorted(lv.aei) == [2, 3]
        assert lv.aai - lv.aei == frozenset({0, 1})  # preemption shadows

    def test_inferability_ratio(self, demo):
        ts, sched = demo
        lv = build_ladder(sched, ts.trusted[0], ts.untrusted[0])
        assert inferability_ratio(lv) == Fraction(1, 2)

    def test_full_execution_reveals_nothing(self, demo):
        """AEI covering every AAI column gives IR = 0 via the modulo."""
        ts, _ = demo
        row = ts.trusted[0].min_period
        attacker = ts.untrusted[0]
        # synthetic timeline: attacker executes at its release in every column
        timeline = [0] * 40
        for a in range(0, 40, attacker.period):
            timeline[a] = attacker.id
        lv = build_ladder(synthetic(timeline), ts.trusted[0], attacker)
        assert lv.aai == lv.aei
        assert inferability_ratio(lv) == 0


def synthetic(slots) -> Schedule:
    return Schedule(spec=TaskSpec(periods=(len(slots),)), slots=tuple(slots),
                    provenance="synthetic")


# Reference: the ladder over an explicitly tiled timeline. build_ladder,
# which reads the schedule modulo its hyper-period, must equal it on every
# schedule.


def reference_tile_timeline(sched: Schedule, observation_slots: int) -> list[int]:
    """Repeat the schedule's hyper-period to cover the observation window."""
    reps = -(-observation_slots // sched.length)
    return (list(sched.slots) * reps)[:observation_slots]


def reference_default_observation(row_length: int, attacker_period: int) -> int:
    # 2x the repetition length of the arrival/execution pattern
    return 2 * math.lcm(row_length, attacker_period)


def reference_build_ladder(
    timeline: list[int], victim: TrustedTask, attacker: UntrustedTask
) -> LadderView:
    """Fold the first ``reference_default_observation`` slots of ``timeline``
    against the victim's minimum period.

    The attacker knows its own arrival times (periodic from slot 0) and
    observes only its own executed slots; both are reduced modulo the row
    length.
    """
    row = victim.min_period
    observation_slots = reference_default_observation(row, attacker.period)
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
    return LadderView(aai=frozenset(aai), aei=frozenset(aei))


@st.composite
def ladder_cases(draw):
    slots = draw(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    row, period = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return slots, row, period, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(ladder_cases())
def test_folding_matches_tiled_reference(case):
    """Hyper-periods of 1-60 slots lie on both sides of the window of 2 to
    264 slots."""
    slots, row, period, attacker_id = case
    sched = synthetic(slots)
    victim = SimpleNamespace(min_period=row)
    attacker = SimpleNamespace(id=attacker_id, period=period)
    tiled = reference_tile_timeline(sched, 2 * math.lcm(sched.length, row, period))
    expected = reference_build_ladder(tiled, victim, attacker)
    assert build_ladder(sched, victim, attacker) == expected
    # the stack fold, on a stack of this schedule and its reverse
    stack = np.array([slots, slots[::-1]])
    reverse = reference_build_ladder(
        reference_tile_timeline(synthetic(slots[::-1]), len(tiled)), victim, attacker
    )
    assert aei_sizes(stack, victim, attacker).tolist() == [
        len(expected.aei), len(reverse.aei)
    ]
