"""Scheduling kernel: SplitMix64 reference values, kernel behaviour, and
equivalence with a forward-EDF-lookahead reference."""

import itertools
import math
import sys

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


def reference_tables(periods, wcets, l):
    """The kernel's per-task-set tables built slot by slot from their
    definitions: the oracle of the linear-time construction in
    ``kernel._tables``."""
    releases = [tuple(i for i, p in enumerate(periods) if t % p == 0) for t in range(l)]
    next_release = [
        next((u for u in range(t + 1, l) if releases[u]), l) for t in range(l)
    ]
    base = [d - sum(e * (d // p) for p, e in zip(periods, wcets)) for d in range(l + 1)]
    reach = max(periods)
    window_min = [min(base[t + 1 : t + reach], default=l) for t in range(l)]
    overload = None
    if base[l] < 0:
        d = next(d for d in range(l + 1) if base[d] < 0)
        overload = (max(i for i, p in enumerate(periods) if d % p == 0) + 1, d)
    return kernel._Tables(
        tuple(periods), tuple(wcets), releases, next_release, base, window_min, overload
    )


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
def test_tables_match_definitions(case):
    periods, wcets = case
    l = math.lcm(*periods)
    assert kernel._tables.__wrapped__(tuple(periods), tuple(wcets), l) == (
        reference_tables(periods, wcets, l)
    )
