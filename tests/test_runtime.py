"""Runtime schedule selector: mode transitions, draw invariants, logging."""

from fractions import Fraction
from itertools import islice

import pytest

from maars.kernel import splitmix64_stream
from maars.runtime import (
    make_selector,
    resolve_flag,
    run_epoch,
    save_log_csv,
    sched_sel,
)
from maars.taskmodel import Infeasible


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_selector_draws_the_seed_stream(self, minimal_store, seed):
        """The selector draws the SplitMix64 stream of its seed (past a block
        boundary), and its first normal-mode pick is the first output modulo
        the number of candidates."""
        draws = make_selector(minimal_store, seed).draws
        assert list(islice(draws, 300)) == list(islice(splitmix64_stream(seed), 300))
        first = sched_sel(make_selector(minimal_store, seed), 0)
        assert first == next(splitmix64_stream(seed)) % minimal_store.k_threshold


class TestResolveFlag:
    def test_empty_is_normal(self, minimal_store):
        assert resolve_flag(minimal_store.taskset, []) == 0

    def test_highest_criticality_wins(self, minimal_store):
        # task 1 criticality 2 > task 2 criticality 1
        assert resolve_flag(minimal_store.taskset, [2, 1]) == 1

    def test_unknown_id_rejected(self, minimal_store):
        with pytest.raises(ValueError):
            resolve_flag(minimal_store.taskset, [99])


class TestSchedSel:
    def test_normal_mode_respects_svt(self, minimal_store):
        state = make_selector(minimal_store, seed=1)
        for _ in range(200):
            idx = sched_sel(state, 0)
            assert minimal_store.svi_of(idx) < minimal_store.svt

    def test_alert_mode_respects_tap(self, minimal_store):
        state = make_selector(minimal_store, seed=2)
        for t in minimal_store.taskset.trusted:
            tap = Fraction(t.tap).limit_denominator(10**6)
            for _ in range(100):
                idx = sched_sel(state, t.id)
                assert minimal_store.ap_of(idx, t.id) < tap

    def test_no_consecutive_repeat(self, minimal_store):
        assert minimal_store.k_threshold >= 2
        state = make_selector(minimal_store, seed=3)
        prev = sched_sel(state, 0)
        for _ in range(500):
            idx = sched_sel(state, 0)
            assert idx != prev
            prev = idx

    def test_alert_exit_after_clear_streak(self, minimal_store):
        state = make_selector(minimal_store, seed=4)
        sched_sel(state, 1)
        assert state.mode == "alert:1"
        sched_sel(state, 0)
        sched_sel(state, 0)
        assert state.mode == "alert:1"  # streak 2 < 3
        sched_sel(state, 0)
        assert state.mode == "normal"

    def test_realert_resets_streak(self, minimal_store):
        state = make_selector(minimal_store, seed=5)
        sched_sel(state, 1)
        sched_sel(state, 0)
        sched_sel(state, 2)  # new alarm before exit
        assert state.mode == "alert:2"
        assert state.clear_streak == 0

    def test_invalid_flags_rejected(self, minimal_store):
        state = make_selector(minimal_store, seed=6)
        with pytest.raises(ValueError):
            sched_sel(state, -1)
        with pytest.raises(ValueError):
            sched_sel(state, 99)

    def test_deterministic_sequence(self, minimal_store):
        flags = [0, 0, 1, 0, 0, 0, 2, 0, 0, 0]
        runs = []
        for _ in range(2):
            state = make_selector(minimal_store, seed=11)
            runs.append([sched_sel(state, f) for f in flags])
        assert runs[0] == runs[1]

    def test_empty_normal_candidates(self, minimal_store):
        import copy

        store = copy.copy(minimal_store)
        store.k_threshold = 0
        state = make_selector(store, seed=0)
        with pytest.raises(Infeasible,
                           match="no schedule with SVI below the threshold"):
            sched_sel(state, 0)


class _ScriptedWorld:
    """Deterministic co-sim stand-in: alarms on a fixed epoch schedule."""

    def __init__(self, alarm_epochs, flag=1):
        self.alarm_epochs = set(alarm_epochs)
        self.flag = flag
        self.epoch = 0
        self.diverged = False

    def run_hyper_period(self, schedule):
        flag = self.flag if self.epoch in self.alarm_epochs else 0
        self.epoch += 1
        return flag


class TestRunEpoch:
    def test_log_shape_and_modes(self, minimal_store):
        state = make_selector(minimal_store, seed=1)
        entries = run_epoch(state, _ScriptedWorld({3, 4}), epochs=10)
        assert [e.epoch for e in entries] == list(range(10))
        assert entries[0].mode == "normal"
        # the alarm raised in epoch 3 drives epoch 4's deployment into alert
        assert entries[4].mode.startswith("alert")
        assert all(e.flag in (0, 1) for e in entries)

    def test_log_round_trip(self, tmp_path, minimal_store):
        state = make_selector(minimal_store, seed=1)
        entries = run_epoch(state, _ScriptedWorld({2}), epochs=6)
        path = tmp_path / "log.csv"
        save_log_csv(entries, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mode,index,svi,flag,held"
        assert len(lines) == 7
