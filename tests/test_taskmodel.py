"""Task-set model: validation, WCRT fixed point, spec enumeration, I/O."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.schedgen import simulate_fixed_priority
from maars.taskmodel import (
    ConfigError,
    Infeasible,
    TaskSet,
    TaskSpec,
    TrustedTask,
    UntrustedTask,
    enumerate_specs,
    hyper_period,
    is_schedulable,
    load_taskset,
    taskset_from_dict,
    taskset_to_dict,
    wcrt,
)


def make_trusted(tid=1, menu=(4, 8), wcet=1, aew=1, crit=1.0, tap=0.5):
    return TrustedTask(
        id=tid, period_menu=tuple(menu), wcet=wcet, aew=aew, criticality=crit, tap=tap
    )


class TestValidation:
    def test_menu_sorted_and_deduped(self):
        t = make_trusted(menu=(8, 4))
        assert t.period_menu == (4, 8)
        assert t.min_period == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"menu": ()},
            {"menu": (4, 4)},
            {"wcet": 0},
            {"menu": (2,), "wcet": 2},
            {"aew": -1},
            {"aew": 4, "menu": (4, 8)},
            {"crit": 0.0},
            {"tap": 1.5},
        ],
    )
    def test_bad_trusted_task(self, kwargs):
        defaults = dict(tid=1, menu=(4, 8), wcet=1, aew=1, crit=1.0, tap=0.5)
        defaults.update(kwargs)
        with pytest.raises(ConfigError):
            make_trusted(**defaults)

    def test_untrusted_needs_period_above_wcet(self):
        with pytest.raises(ConfigError):
            UntrustedTask(id=2, period=2, wcet=2)

    def test_ids_must_be_contiguous_trusted_first(self):
        with pytest.raises(ConfigError):
            TaskSet(
                trusted=(make_trusted(tid=2),),
                untrusted=(UntrustedTask(id=1, period=8, wcet=1),),
            )

    def test_task_lookup(self, minimal_ts):
        assert minimal_ts.task(1).id == 1
        assert minimal_ts.task(3).period == 4
        with pytest.raises(KeyError):
            minimal_ts.task(9)


class TestWcrt:
    def test_single_task(self):
        ts = TaskSet(trusted=(make_trusted(wcet=1),), untrusted=())
        assert wcrt(ts, ts.min_period_spec(), 1) == 1

    def test_textbook_three_task_set(self):
        # p/e = (4,1), (6,2), (12,3): R1=1, R2=3, R3=4+ceil... fixed points
        ts = TaskSet(
            trusted=(
                make_trusted(tid=1, menu=(4,), wcet=1),
                make_trusted(tid=2, menu=(6,), wcet=2),
                make_trusted(tid=3, menu=(12,), wcet=3),
            ),
            untrusted=(),
        )
        assert wcrt(ts, ts.min_period_spec(), 1) == 1
        assert wcrt(ts, ts.min_period_spec(), 2) == 3
        # R3: 3 + ceil(R/4)*1 + ceil(R/6)*2 -> 3+1+2=6 -> 3+2+2=7 -> 3+2+4=9
        # -> 3+3+4=10 -> 3+3+4=10 fixed
        assert wcrt(ts, ts.min_period_spec(), 3) == 10

    def test_unschedulable_raises(self):
        """Past the deadline ``wcrt`` is None, for the task that misses it."""
        ts = TaskSet(
            trusted=(
                make_trusted(tid=1, menu=(2,), wcet=1),
                make_trusted(tid=2, menu=(3,), wcet=2),
            ),
            untrusted=(),
        )
        assert wcrt(ts, ts.min_period_spec(), 1) == 1
        assert wcrt(ts, ts.min_period_spec(), 2) is None
        assert not is_schedulable(ts, ts.min_period_spec())

    def test_bundled_sets_schedulable(self, minimal_ts, ladder_ts, lu_ts, hu_ts):
        for ts in (minimal_ts, ladder_ts, lu_ts, hu_ts):
            assert is_schedulable(ts, ts.min_period_spec())

    @given(
        extra=st.integers(min_value=1, max_value=3),
        period=st.integers(min_value=6, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_wcrt_monotone_in_interference(self, extra, period):
        """Adding a higher-priority task never lowers a task's WCRT."""
        low = make_trusted(tid=2, menu=(30,), wcet=4, aew=1)
        base = TaskSet(
            trusted=(make_trusted(tid=1, menu=(period,), wcet=1), low),
            untrusted=(),
        )
        more = TaskSet(
            trusted=(
                make_trusted(tid=1, menu=(period,), wcet=1 + extra),
                low,
            ),
            untrusted=(),
        )
        r_more = wcrt(more, more.min_period_spec(), 2)
        if r_more is None:
            return  # increased interference may break schedulability
        assert r_more >= wcrt(base, base.min_period_spec(), 2)

    @given(
        tasks=st.lists(
            st.integers(2, 12).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
            min_size=1, max_size=5,
        ),
        n_trusted=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_fixed_priority_simulation(self, tasks, n_trusted):
        """The response-time test is exact for synchronous periodic tasks with
        implicit deadlines: it passes a spec exactly when the simulated
        fixed-priority schedule misses no deadline."""
        q = min(n_trusted, len(tasks))
        ts = TaskSet(
            trusted=tuple(
                make_trusted(tid=i, menu=(p,), wcet=e, aew=0)
                for i, (p, e) in enumerate(tasks[:q], start=1)
            ),
            untrusted=tuple(
                UntrustedTask(id=i, period=p, wcet=e)
                for i, (p, e) in enumerate(tasks[q:], start=q + 1)
            ),
        )
        spec = ts.min_period_spec()
        try:
            simulate_fixed_priority(ts, spec)
        except Infeasible:
            simulated = False
        else:
            simulated = True
        assert is_schedulable(ts, spec) == simulated


class TestSpecs:
    def test_enumerate_specs_is_menu_product(self, minimal_ts):
        specs = enumerate_specs(minimal_ts)
        assert [s.periods for s in specs] == [(2, 4), (3, 4)]
        assert all(s.untrusted_periods == (4,) for s in specs)

    def test_hyper_period(self):
        spec = TaskSpec(periods=(4, 6), untrusted_periods=(10,))
        assert hyper_period(spec) == 60

    def test_hyper_period_bound(self):
        spec = TaskSpec(periods=(10**5, 10**5 - 1), untrusted_periods=())
        with pytest.raises(ConfigError, match="exceeds bound 1000000000"):
            hyper_period(spec)

    def test_period_of_indexes_by_task_id(self, minimal_ts):
        spec = minimal_ts.min_period_spec()
        assert spec.period_of(1) == 2
        assert spec.period_of(3) == 4


class TestIO:
    def test_round_trip(self, tmp_path, lu_ts):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(taskset_to_dict(lu_ts)))
        assert load_taskset(path) == lu_ts

    def test_dict_round_trip_preserves_hash(self, hu_ts):
        again = taskset_from_dict(taskset_to_dict(hu_ts))
        assert again.content_hash() == hu_ts.content_hash()

    def test_version_check(self, minimal_ts):
        data = taskset_to_dict(minimal_ts)
        data["version"] = 99
        with pytest.raises(ConfigError):
            taskset_from_dict(data)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps({"version": 1, "trusted": [{"id": 1}], "untrusted": []}))
        with pytest.raises(ConfigError):
            load_taskset(path)

    def test_hash_differs_on_content(self, minimal_ts, ladder_ts):
        assert minimal_ts.content_hash() != ladder_ts.content_hash()
