"""Scheduling kernel: SplitMix64 reference values, kernel behaviour, and
equivalence with a forward-EDF-lookahead reference."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maars import data_path, kernel
from maars.kernel import BACKEND, splitmix64_stream
from maars.taskmodel import (
    ConfigError, Infeasible, enumerate_specs, hyper_period, load_taskset,
)


MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One sequential SplitMix64 step; returns (new_state, output). The
    reference of the kernel's blocked stream and of the reference shuffles."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class TestSplitMix64:
    def test_reference_sequence(self):
        # Published SplitMix64 outputs for seed 1234567.
        published = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert list(itertools.islice(splitmix64_stream(1234567), 3)) == published
        state, outputs = 1234567, []
        for _ in range(3):
            state, z = splitmix64(state)
            outputs.append(z)
        assert outputs == published


class TestPureKernel:
    def test_simulate_fp_priority_order(self):
        slots = kernel.simulate_fp([2, 4, 4], [1, 1, 1], 4)
        assert slots == [1, 2, 1, 3]

    def test_simulate_fp_deadline_miss(self):
        with pytest.raises(Infeasible, match="missed a deadline"):
            kernel.simulate_fp([2, 3], [1, 2], 6)

    def test_shuffle_is_deterministic_per_seed(self):
        a = kernel.shuffle([3, 4, 4], [1, 1, 1], 12, 7)
        b = kernel.shuffle([3, 4, 4], [1, 1, 1], 12, 7)
        c = kernel.shuffle([3, 4, 4], [1, 1, 1], 12, 8)
        assert a == b
        assert a != c

    def test_enumerate_includes_fp_schedule(self):
        fp = tuple(kernel.simulate_fp([2, 4, 4], [1, 1, 1], 4))
        assert fp in set(kernel.enumerate_all([2, 4, 4], [1, 1, 1], 4, 1000))

    def test_enumerate_budget(self):
        with pytest.raises(ConfigError, match="enumeration budget exhausted"):
            kernel.enumerate_all([3, 4, 4], [1, 1, 1], 12, 3)

    def test_horizon_must_be_a_multiple_of_every_period(self):
        with pytest.raises(ValueError):
            kernel.shuffle([3, 4], [1, 1], 6, 0)

    @given(seed=st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=20, deadline=None)
    def test_shuffle_work_conserving(self, seed):
        periods, wcets, l = [3, 4, 4], [1, 1, 1], 12
        assert is_valid(periods, wcets, kernel.shuffle(periods, wcets, l, seed))

    def test_enumerate_finds_every_valid_schedule(self):
        # Brute force over every slot list. A DFS that keeps a task's newer
        # deadline after backtracking past its release finds only 12 of 16.
        periods, wcets, l = [2, 3, 6], [1, 1, 1], 6
        valid = [s for s in itertools.product(range(len(periods) + 1), repeat=l)
                 if is_valid(periods, wcets, s)]
        assert len(valid) == 16
        assert sorted(kernel.enumerate_all(periods, wcets, l, 1000)) == valid


def is_valid(periods, wcets, slots) -> bool:
    """Every job gets its units before its deadline, and no slot idles
    while a job is ready."""
    rem = [0] * len(periods)
    for t, s in enumerate(slots):
        for i, p in enumerate(periods):
            if t % p == 0:
                if rem[i]:
                    return False
                rem[i] = wcets[i]
        if s == 0:
            if any(rem):
                return False
        elif rem[s - 1] == 0:
            return False
        else:
            rem[s - 1] -= 1
    return not any(rem)


def test_backend_reports_selection():
    assert BACKEND == "pure"


# ---------------------------------------------------------------------------
# Reference: the kernel as it was before the processor-demand table. Every
# candidate is checked by simulating earliest-deadline-first over the rest
# of the hyper-period, so the table-driven kernel is compared against an
# independent decision procedure. Kept verbatim, except that
# ref_enumerate_all restores a released task's deadline on backtrack:
# without that, a stale deadline misorders the lookahead and valid
# schedules go missing.


def _edf_feasible(periods, wcets, rem, dl, t, l, can_early_exit):
    n = len(periods)
    rem = list(rem)
    dl = list(dl)
    backlog = sum(rem)
    while t < l:
        if backlog == 0 and can_early_exit:
            return True
        for i in range(n):
            if t % periods[i] == 0:
                if rem[i] > 0:
                    return False
                rem[i] = wcets[i]
                dl[i] = t + periods[i]
                backlog += wcets[i]
        best = -1
        best_dl = 0
        for i in range(n):
            if rem[i] > 0 and (best < 0 or dl[i] < best_dl):
                best = i
                best_dl = dl[i]
        if best >= 0:
            rem[best] -= 1
            backlog -= 1
        t += 1
    return backlog == 0


def ref_shuffle(periods, wcets, l, seed):
    n = len(periods)
    util_ok = sum(wcets[i] / periods[i] for i in range(n)) <= 1.0
    rem = [0] * n
    dl = [0] * n
    slots = [0] * l
    state = (seed ^ 0xD6E8FEB86659FD93) & MASK64
    for t in range(l):
        for i in range(n):
            if t % periods[i] == 0:
                if rem[i] > 0:
                    raise Infeasible(f"task {i + 1} missed a deadline at slot {t}")
                rem[i] = wcets[i]
                dl[i] = t + periods[i]
        ready = [i for i in range(n) if rem[i] > 0]
        if not ready:
            continue
        for j in range(len(ready) - 1, 0, -1):
            state, z = splitmix64(state)
            k = z % (j + 1)
            ready[j], ready[k] = ready[k], ready[j]
        chosen = -1
        for i in ready:
            rem[i] -= 1
            if _edf_feasible(periods, wcets, rem, dl, t + 1, l, util_ok):
                chosen = i
                break
            rem[i] += 1
        if chosen < 0:
            raise Infeasible(f"task {ready[0] + 1} missed a deadline at slot {t}")
        slots[t] = chosen + 1
    return slots


def ref_aware_shuffle(periods, wcets, aews, n_trusted, l, seed):
    n = len(periods)
    util_ok = sum(wcets[i] / periods[i] for i in range(n)) <= 1.0
    rem = [0] * n
    dl = [0] * n
    slots = [0] * l
    aew_end = [0] * n_trusted
    state = (seed ^ 0xA3C59AC2ED1097E5) & MASK64
    for t in range(l):
        for i in range(n):
            if t % periods[i] == 0:
                if rem[i] > 0:
                    raise Infeasible(f"task {i + 1} missed a deadline at slot {t}")
                rem[i] = wcets[i]
                dl[i] = t + periods[i]
        ready = [i for i in range(n) if rem[i] > 0]
        if not ready:
            continue
        for j in range(len(ready) - 1, 0, -1):
            state, z = splitmix64(state)
            k = z % (j + 1)
            ready[j], ready[k] = ready[k], ready[j]
        if any(t < e for e in aew_end):
            ready = [i for i in ready if i < n_trusted] + [
                i for i in ready if i >= n_trusted
            ]
        else:
            ready = [i for i in ready if i >= n_trusted] + [
                i for i in ready if i < n_trusted
            ]
        chosen = -1
        for i in ready:
            rem[i] -= 1
            if _edf_feasible(periods, wcets, rem, dl, t + 1, l, util_ok):
                chosen = i
                break
            rem[i] += 1
        if chosen < 0:
            raise Infeasible(f"task {ready[0] + 1} missed a deadline at slot {t}")
        slots[t] = chosen + 1
        if chosen < n_trusted and rem[chosen] == 0:
            aew_end[chosen] = min(t + aews[chosen] + 1, dl[chosen])
    return slots


def ref_enumerate_all(periods, wcets, l, budget):
    n = len(periods)
    util_ok = sum(wcets[i] / periods[i] for i in range(n)) <= 1.0
    results = []
    rem = [0] * n
    dl = [0] * n
    slots = [0] * l
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, l + 200))

    def step(t):
        if t == l:
            if sum(rem) == 0:
                if len(results) >= budget:
                    raise ConfigError(
                        f"enumeration budget exhausted after {len(results)} schedules")
                results.append(tuple(slots))
            return
        released = []
        for i in range(n):
            if t % periods[i] == 0 and rem[i] > 0:
                return
        for i in range(n):
            if t % periods[i] == 0:
                rem[i] = wcets[i]
                dl[i] = t + periods[i]
                released.append(i)
        ready = [i for i in range(n) if rem[i] > 0]
        if not ready:
            slots[t] = 0
            step(t + 1)
        else:
            for i in ready:
                rem[i] -= 1
                if _edf_feasible(periods, wcets, rem, dl, t + 1, l, util_ok):
                    slots[t] = i + 1
                    step(t + 1)
                rem[i] += 1
        for i in released:
            rem[i] = 0
            dl[i] = t

    try:
        step(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return results


def outcome(fn, *args):
    """The slot list, or the name of the exception that ended the call. Only
    the name: for one overload the kernel and the reference may name
    different (task, slot) pairs."""
    try:
        return fn(*args)
    except (Infeasible, ConfigError) as exc:
        return type(exc).__name__


def automotive_specs(names=("automotive_lu", "automotive_hu")):
    """(periods, wcets, aews, n_trusted, l) of every spec of the automotive
    sets, including the HU specs whose utilization exceeds 1."""
    cases = []
    for name in names:
        ts = load_taskset(data_path("tasksets", f"{name}.json"))
        wcets = [t.wcet for t in ts.trusted] + [u.wcet for u in ts.untrusted]
        aews = [t.aew for t in ts.trusted]
        for spec in enumerate_specs(ts):
            cases.append((list(spec.all_periods()), wcets, aews, len(ts.trusted),
                          hyper_period(spec)))
    return cases


@st.composite
def small_task_sets(draw):
    """Random 1-4 task sets with periods 1-8, the hyper-period as horizon,
    and a trusted prefix with random AEWs. WCETs of at most period / n keep
    utilization at most 1 unless a period is below n."""
    n = draw(st.integers(1, 4))
    periods = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    wcets = [draw(st.integers(1, max(1, p // n))) for p in periods]
    n_trusted = draw(st.integers(0, n))
    aews = [draw(st.integers(0, p - 1)) for p in periods[:n_trusted]]
    return periods, wcets, aews, n_trusted, math.lcm(*periods)


SEEDS = st.integers(min_value=0, max_value=MASK64)

# An HU spec with a 2100-slot hyper-period and utilization at most 1: its
# draws take thousands of stream outputs, so many blocks
HU_2100 = next(
    (periods, wcets, aews, n_trusted, l)
    for periods, wcets, aews, n_trusted, l in automotive_specs(["automotive_hu"])
    if l == 2100 and sum(e * (l // p) for p, e in zip(periods, wcets)) <= l
)


@given(case=st.sampled_from(automotive_specs()), seed=SEEDS)
@example(case=HU_2100, seed=MASK64)
@settings(max_examples=40, deadline=None)
def test_automotive_draws_match_reference(case, seed):
    periods, wcets, aews, n_trusted, l = case
    assert outcome(kernel.shuffle, periods, wcets, l, seed) == outcome(
        ref_shuffle, periods, wcets, l, seed)
    args = (periods, wcets, aews, n_trusted, l, seed)
    assert outcome(kernel.aware_shuffle, *args) == outcome(ref_aware_shuffle, *args)


@given(case=small_task_sets(), seed=SEEDS)
@example(case=([2, 4, 4], [1, 1, 1], [1], 1, 4), seed=0)  # U = 1 exactly
@example(case=([3, 6, 2], [1, 2, 1], [2, 0], 2, 6), seed=3)  # U = 1 exactly
@example(case=([2, 3], [1, 2], [], 0, 6), seed=1)  # U > 1
@settings(max_examples=150, deadline=None)
def test_small_sets_match_reference(case, seed):
    periods, wcets, aews, n_trusted, l = case
    assert outcome(kernel.shuffle, periods, wcets, l, seed) == outcome(
        ref_shuffle, periods, wcets, l, seed)
    args = (periods, wcets, aews, n_trusted, l, seed)
    assert outcome(kernel.aware_shuffle, *args) == outcome(ref_aware_shuffle, *args)
    assert outcome(kernel.enumerate_all, periods, wcets, l, 300) == outcome(
        ref_enumerate_all, periods, wcets, l, 300)


@given(case=st.sampled_from(automotive_specs()), seed=SEEDS)
@example(case=HU_2100, seed=MASK64)
@settings(max_examples=10, deadline=None)
def test_seed_is_taken_modulo_2_64(case, seed):
    periods, wcets, aews, n_trusted, l = case
    big = seed + 2**64
    assert outcome(kernel.shuffle, periods, wcets, l, big) == outcome(
        kernel.shuffle, periods, wcets, l, seed) == outcome(ref_shuffle, periods, wcets, l, big)
    args = (periods, wcets, aews, n_trusted, l)
    assert outcome(kernel.aware_shuffle, *args, big) == outcome(
        kernel.aware_shuffle, *args, seed) == outcome(ref_aware_shuffle, *args, big)


@given(seed=SEEDS, boundary=st.integers(1, 3), before=st.integers(1, 4),
       after=st.integers(1, 4))
@example(seed=MASK64, boundary=1, before=1, after=1)  # the state wraps at once
@settings(max_examples=50, deadline=None)
def test_blocked_stream_matches_splitmix64(seed, boundary, before, after):
    """The stream's outputs on both sides of a block boundary are those of
    sequential ``splitmix64`` steps."""
    start = boundary * kernel._BLOCK - before
    stop = boundary * kernel._BLOCK + after
    state, expected = seed, []
    for _ in range(stop):
        state, z = splitmix64(state)
        expected.append(z)
    assert list(itertools.islice(splitmix64_stream(seed), start, stop)) == expected[start:]


def reference_base(periods, wcets, l):
    """The processor-demand bound of a task set from its definition: base[d]
    = d minus the work of every job with deadline <= d."""
    return [d - sum(e * (d // p) for p, e in zip(periods, wcets)) for d in range(l + 1)]


@st.composite
def period_wcet_sets(draw):
    """Random 1-4 periods of 1-12 slots, each with a WCET up to its period,
    so utilization may exceed 1."""
    periods = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    return periods, [draw(st.integers(1, p)) for p in periods]


@given(case=period_wcet_sets())
@example(case=([1], [1]))  # a window of no interval ends
@example(case=([2, 3], [1, 2]))  # utilization above 1
@settings(max_examples=150, deadline=None)
def test_base_and_overload_match_definitions(case):
    """``_base`` is the demand bound, and an overloaded task set's draw
    fails at its first deadline d with base[d] < 0, for the lowest-priority
    task due there."""
    periods, wcets = case
    l = math.lcm(*periods)
    base = reference_base(periods, wcets, l)
    assert kernel._base(tuple(periods), tuple(wcets), l).tolist() == base
    if base[l] < 0:
        d = next(d for d in range(l + 1) if base[d] < 0)
        task = max(i for i, p in enumerate(periods) if d % p == 0) + 1
        with pytest.raises(Infeasible) as miss:
            kernel.shuffles([(periods, l, 0)], wcets)
        assert str(miss.value) == f"task {task} missed a deadline at slot {d}"


@given(case=period_wcet_sets(), done=st.lists(st.integers(0, 12), min_size=4, max_size=4))
@example(case=([1], [1]), done=[1, 0, 0, 0])  # a window of no interval ends
@example(case=([2, 3], [1, 2]), done=[0, 2, 0, 0])  # utilization above 1
@settings(max_examples=150, deadline=None)
def test_no_negative_slack_admits_every_task(case, done):
    """At every slot of ``_demand`` where no slack is negative, ``_admissible``
    admits every task, whatever units (up to its WCET) each current job has
    run: the shuffles and the enumeration skip it there. With no unit run,
    it refuses some task exactly where a slack is negative."""
    periods, wcets = case
    l = math.lcm(*periods)
    table = kernel._demand(tuple(periods), kernel._base(tuple(periods), tuple(wcets), l), 0, l)
    calm = ~(table[:, 2] < 0).any(axis=1)
    done = [min(d, e) for d, e in zip(done, wcets)]
    assert kernel._admissible(table[calm], np.array([done] * int(calm.sum()))).all()
    idle = np.zeros((l, len(periods)), dtype=np.int32)
    assert (kernel._admissible(table, idle).all(axis=1) == calm).all()


# ---------------------------------------------------------------------------
# Lockstep: the shuffles draw many rows at once; each row is the reference's
# draw of its own periods and seed.


def check_rows(rows, wcets, aews, n_trusted):
    """Every row of ``kernel.shuffles`` and ``kernel.aware_shuffles`` is the
    reference's draw; with a row whose utilization exceeds 1, both raise the
    message of the first such row in order, drawn alone."""
    draws = (
        (lambda: kernel.shuffles(rows, wcets), kernel.shuffle, ref_shuffle, ()),
        (lambda: kernel.aware_shuffles(rows, wcets, aews, n_trusted), kernel.aware_shuffle,
         ref_aware_shuffle, (aews, n_trusted)),
    )
    for lockstep, one_row, reference, extra in draws:
        expected = [outcome(reference, periods, wcets, *extra, l, seed)
                    for periods, l, seed in rows]
        overloaded = [row for row, e in zip(rows, expected) if e == "Infeasible"]
        if overloaded:
            periods, l, seed = overloaded[0]
            with pytest.raises(Infeasible) as alone:
                one_row(periods, wcets, *extra, l, seed)
            with pytest.raises(Infeasible) as together:
                lockstep()
            assert str(together.value) == str(alone.value)
        else:
            assert [list(slots) for slots in lockstep()] == expected


@st.composite
def small_groups(draw):
    """Rows of 1-3 period assignments of one random 1-4 task set that share
    a horizon, with 1-3 seeds each. Every period is a divisor of the horizon
    at least ``floor``, and each WCET at most floor / n, so utilization may
    exceed 1 only when floor < n."""
    n = draw(st.integers(1, 4))
    l = draw(st.sampled_from([4, 6, 8, 12]))
    floor = draw(st.sampled_from([d for d in range(1, l + 1) if l % d == 0]))
    periods = st.sampled_from([d for d in range(floor, l + 1) if l % d == 0])
    wcets = [draw(st.integers(1, max(1, floor // n))) for _ in range(n)]
    n_trusted = draw(st.integers(0, n))
    aews = [draw(st.integers(0, floor - 1)) for _ in range(n_trusted)]
    assignments = draw(st.lists(st.lists(periods, min_size=n, max_size=n),
                                min_size=1, max_size=3))
    rows = [(p, l, seed) for p in assignments
            for seed in draw(st.lists(SEEDS, min_size=1, max_size=3))]
    return rows, wcets, aews, n_trusted


@given(group=small_groups())
# U = 1 exactly in both assignments
@example(group=([([2, 4, 4], 4, 0), ([4, 2, 4], 4, 5), ([2, 4, 4], 4, MASK64)],
                [1, 1, 1], [1], 1))
# U > 1 in the second and third assignments, which name different deadlines
@example(group=([([2, 4], 4, 1), ([1, 4], 4, 2), ([4, 1], 4, 3)], [1, 2], [0], 1))
@settings(max_examples=150, deadline=None)
def test_small_groups_match_reference(group):
    check_rows(*group)


def automotive_groups():
    """(wcets, aews, n_trusted, l, every assignment of that hyper-period) for
    each hyper-period of each automotive set."""
    groups = {}
    for periods, wcets, aews, n_trusted, l in automotive_specs():
        groups.setdefault((tuple(wcets), tuple(aews), n_trusted, l), []).append(periods)
    return [(*key, assignments) for key, assignments in groups.items()]


@given(group=st.sampled_from(automotive_groups()), data=st.data())
@settings(max_examples=15, deadline=None)
def test_automotive_groups_match_reference(group, data):
    """Mixed assignments of one hyper-period, several seeds each; HU
    assignments include overloaded ones."""
    wcets, aews, n_trusted, l, assignments = group
    chosen = data.draw(st.lists(st.sampled_from(assignments), min_size=1, max_size=3))
    rows = [(periods, l, seed) for periods in chosen
            for seed in data.draw(st.lists(SEEDS, min_size=1, max_size=2))]
    check_rows(rows, list(wcets), list(aews), n_trusted)


def test_first_overloaded_row_in_order_raises_across_horizons():
    """The overloaded rows of horizon 6 (task 2 misses slot 6) come before
    those of horizon 4 (slot 4) in order, although horizon 4 has the first
    row."""
    rows = [([2, 4], 4, 0), ([2, 3], 6, 1), ([1, 4], 4, 2)]
    with pytest.raises(Infeasible, match="^task 2 missed a deadline at slot 6$"):
        kernel.shuffles(rows, [1, 2])
    with pytest.raises(Infeasible, match="^task 2 missed a deadline at slot 4$"):
        kernel.shuffles(rows[2:], [1, 2])
    feasible = [rows[0], ([3, 6], 6, 4), ([4, 4], 4, 5)]
    assert [list(slots) for slots in kernel.aware_shuffles(feasible, [1, 2], [1], 1)] == [
        ref_aware_shuffle(periods, [1, 2], [1], 1, l, seed) for periods, l, seed in feasible
    ]
