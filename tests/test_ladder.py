"""Ladder inference: folding, AAI/AEI extraction, inferability ratio."""

from fractions import Fraction

import pytest

from maars.ladder import (
    build_ladder,
    default_observation,
    inferability_ratio,
    tile_timeline,
)
from maars.schedgen import simulate_fixed_priority


@pytest.fixture()
def demo(ladder_ts):
    sched = simulate_fixed_priority(ladder_ts, ladder_ts.min_period_spec())
    timeline = tile_timeline(sched, default_observation(4, 5))
    return ladder_ts, sched, timeline


class TestBuildLadder:
    def test_reference_ladder(self, demo):
        ts, _, timeline = demo
        lv = build_ladder(timeline, ts.trusted[0], ts.untrusted[0])
        assert sorted(lv.aai) == [0, 1, 2, 3]
        assert sorted(lv.aei) == [2, 3]
        assert lv.aai - lv.aei == frozenset({0, 1})  # preemption shadows
        assert lv.conclusive

    def test_inferability_ratio(self, demo):
        ts, _, timeline = demo
        lv = build_ladder(timeline, ts.trusted[0], ts.untrusted[0])
        assert inferability_ratio(lv) == Fraction(1, 2)

    def test_full_execution_reveals_nothing(self, demo):
        """AEI covering every AAI column gives IR = 0 via the modulo."""
        ts, _, _ = demo
        row = ts.trusted[0].min_period
        attacker = ts.untrusted[0]
        # synthetic timeline: attacker executes at its release in every column
        timeline = [0] * 40
        for a in range(0, 40, attacker.period):
            timeline[a] = attacker.id
        lv = build_ladder(timeline, ts.trusted[0], attacker)
        assert lv.aai == lv.aei
        assert inferability_ratio(lv) == 0

    def test_short_window_inconclusive(self, demo):
        ts, _, timeline = demo
        lv = build_ladder(timeline, ts.trusted[0], ts.untrusted[0], observation_slots=10)
        assert not lv.conclusive

    def test_window_exceeding_timeline_rejected(self, demo):
        ts, _, timeline = demo
        with pytest.raises(ValueError):
            build_ladder(timeline, ts.trusted[0], ts.untrusted[0],
                         observation_slots=len(timeline) + 1)


class TestTile:
    def test_tile_repeats_hyper_period(self, demo):
        _, sched, _ = demo
        tiled = tile_timeline(sched, 2 * sched.length + 3)
        assert tiled[: sched.length] == list(sched.slots)
        assert tiled[sched.length : 2 * sched.length] == list(sched.slots)
        assert len(tiled) == 2 * sched.length + 3

    def test_default_observation_covers_two_repetitions(self):
        assert default_observation(4, 5) == 40
