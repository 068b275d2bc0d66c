"""Slot-level scheduling kernel: fixed-priority simulation, feasibility-safe
randomized shuffling and exhaustive enumeration.

Tasks are passed as parallel period/wcet lists in priority order (index 0 =
highest priority = task id 1), with integer periods that divide the horizon
``l``. Slot values are 1-based task ids, 0 = idle.

Every randomized or enumerated choice keeps the remaining jobs schedulable.
That is decided by the processor-demand criterion (Baruah, Rosier & Howell,
Real-Time Systems 1990) on a table precomputed per task set, so a choice
costs no lookahead simulation.

The randomized draws (and the runtime selector's) come from a SplitMix64
stream. SplitMix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014):
output k of state s is a mix of s + k * gamma mod 2**64 alone, so the
stream is computed in fixed-size NumPy ``uint64`` blocks, bit for bit the
outputs of sequential SplitMix64 steps.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, count

import numpy as np

from .taskmodel import ConfigError, Infeasible

# The only implementation; summary.txt and benchmark records name it.
BACKEND = "pure"

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The stream is computed this many outputs at a time: bounded, since a
# hyper-period may reach 10**9 slots, and small, since a short one draws a
# few dozen
_BLOCK = 128
_OFFSETS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
# SplitMix64's shifts and multipliers as NumPy scalars (a Python int operand
# is converted again on every operation)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHUFFLE_SALT = 0xD6E8FEB86659FD93
_AWARE_SALT = 0xA3C59AC2ED1097E5


def _deadline_miss(task_id: int, slot: int) -> Infeasible:
    return Infeasible(f"task {task_id} missed a deadline at slot {slot}")


def _stream_block(state: int) -> list[int]:
    """The ``_BLOCK`` SplitMix64 outputs that follow ``state``: output k
    mixes state + k * gamma mod 2**64 alone."""
    z = _OFFSETS + np.uint64(state & MASK64)
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z.tolist()


def splitmix64_stream(state: int):
    """Iterator over the SplitMix64 outputs of ``state`` (taken modulo
    2**64), computed a block at a time when first asked for. A block's
    arrays die inside ``_stream_block``: kept alive while the slot loop
    allocated, they fragmented the heap (+0.5 MB peak RSS over 4000 LU
    schedules)."""
    return chain.from_iterable(map(_stream_block, count(state, _BLOCK * _GAMMA)))


def simulate_fp(periods, wcets, l):
    """Deterministic fixed-priority preemptive schedule, synchronous release.

    Returns the slot array over [0, l). Raises Infeasible if the spec is
    infeasible.
    """
    n = len(periods)
    rem = [0] * n
    slots = [0] * l
    for t in range(l):
        for i in range(n):
            if t % periods[i] == 0:
                if rem[i] > 0:
                    raise _deadline_miss(i + 1, t)
                rem[i] = wcets[i]
        for i in range(n):
            if rem[i] > 0:
                rem[i] -= 1
                slots[t] = i + 1
                break
    for i in range(n):
        if rem[i] > 0:
            raise _deadline_miss(i + 1, l)
    return slots


@dataclass(frozen=True)
class _Tables:
    """A task set's jobs over [0, l), independent of the schedule drawn.

    releases[t]: tasks released at slot t. next_release[t]: the first
    release time after t (l if none). base[d] = d minus the work of every
    job with deadline <= d. window_min[t] = min(base[t+1 : t+max period]),
    the least base over the interval ends a job ready at t can reach.
    overload: (task id, deadline) of the first deadline no schedule meets,
    when total utilization exceeds 1.
    """

    periods: tuple
    wcets: tuple
    releases: list
    next_release: list
    base: list
    window_min: list
    overload: tuple | None


@lru_cache(maxsize=256)
def _tables(periods: tuple, wcets: tuple, l: int) -> _Tables:
    if any(l % p for p in periods):
        raise ValueError(f"horizon {l} is not a multiple of every period {periods}")
    releases = [()] * l
    due = [0] * (l + 1)  # due[d]: work of the jobs with deadline d
    for i, (p, e) in enumerate(zip(periods, wcets)):
        for t in range(0, l, p):
            releases[t] += (i,)
            due[t + p] += e
    next_release = [l] * l
    for t in range(l - 2, -1, -1):
        next_release[t] = t + 1 if releases[t + 1] else next_release[t + 1]
    base = [d - demand for d, demand in enumerate(accumulate(due))]
    # sliding minimum: ``rising`` holds the indices of the window whose base
    # is below every later one in it, so its head is the window's minimum
    reach = max(periods)
    window_min = [l] * l
    rising: deque = deque()
    pushed = 1
    for t in range(l):
        end = min(t + reach, l + 1)
        for d in range(pushed, end):
            while rising and base[rising[-1]] >= base[d]:
                rising.pop()
            rising.append(d)
        pushed = end
        if rising and rising[0] == t:
            rising.popleft()
        if rising:
            window_min[t] = base[rising[0]]
    overload = None
    if base[l] < 0:
        d = next(d for d in range(l + 1) if base[d] < 0)
        overload = (max(i for i, p in enumerate(periods) if d % p == 0) + 1, d)
    return _Tables(periods, wcets, releases, next_release, base, window_min, overload)


def _runnable(tab: _Tables, t: int, rem: list, ready: list) -> list:
    """The tasks of ``ready``, in its order, whose current job can run at
    slot t with every deadline still met; the earliest-deadline job always
    can. ``rem[i]`` is the work left in task i's current job.

    Processor-demand criterion: running a unit of the job with deadline D
    at t keeps every deadline iff each interval [t, d) with t < d < D has
    room for that unit plus all work still due by d, i.e.
    ``base[d] + sum(done_i : deadline_i <= d) >= base[t] + 1`` with
    ``done_i`` the units task i's current job has run. Intervals that start
    later hold only fresh releases, which fit when utilization is at most 1,
    and intervals reaching D or beyond keep the slack the state already had.
    The sum steps only at the current jobs' deadlines, so the latest
    admissible deadline is a scan over them.
    """
    need = tab.base[t] + 1
    if tab.window_min[t] >= need:
        return ready
    base = tab.base
    deadlines = [t - t % p + p for p in tab.periods]
    lo = t + 1
    for d, left, e in sorted(zip(deadlines, rem, tab.wcets)):
        if d > lo and min(base[lo:d]) < need:
            break
        lo = d
        need -= e - left
    return [i for i in ready if deadlines[i] <= lo]


def _draw(periods, wcets, aews, n_trusted, l, state):
    """One randomized feasible schedule: per slot, the ascending list of
    tasks with work left in Fisher-Yates order from the SplitMix64 stream
    of ``state`` (one output per swap), class-partitioned while a trusted
    window is open, then the first job that keeps every deadline.

    The list of tasks with work left is rebuilt only at a release and loses
    a task when its job completes. The processor-demand scan of
    ``_runnable`` runs only for slots whose ``window_min`` leaves no slack
    for a unit of work.
    """
    tab = _tables(tuple(periods), tuple(wcets), l)
    if tab.overload:
        raise _deadline_miss(*tab.overload)
    releases, next_release = tab.releases, tab.next_release
    base, window_min = tab.base, tab.window_min
    n = len(periods)
    draws = splitmix64_stream(state)
    rem = [0] * n
    active: list = []  # ascending: the tasks whose current job has work left
    slots = [0] * l
    window_end = 0
    t = 0
    while t < l:
        if releases[t]:
            for i in releases[t]:
                rem[i] = wcets[i]
            active = [i for i in range(n) if rem[i]]
        if not active:
            t = next_release[t]
            continue
        if len(active) > 1:
            ready = active[:]
            # uniform order: Fisher-Yates over the ascending list; zip stops
            # at the end of the range before taking another output
            for j, z in zip(range(len(ready) - 1, 0, -1), draws):
                k = z % (j + 1)
                ready[j], ready[k] = ready[k], ready[j]
            if n_trusted:
                # stable class partition: trusted first while a window is open
                ready.sort(key=n_trusted.__le__ if t < window_end else n_trusted.__gt__)
            chosen = ready[0] if window_min[t] > base[t] else _runnable(tab, t, rem, ready)[0]
        else:
            chosen = active[0]
        slots[t] = chosen + 1
        rem[chosen] -= 1
        if not rem[chosen]:
            active.remove(chosen)
            if chosen < n_trusted:
                deadline = t - t % periods[chosen] + periods[chosen]
                window_end = max(window_end, min(t + aews[chosen] + 1, deadline))
        t += 1
    return slots


def shuffle(periods, wcets, l, seed):
    """Randomized feasible schedule: per slot, a uniform choice among ready
    jobs whose selection keeps the remainder completable.

    Uniformity comes from testing candidates in Fisher-Yates order and taking
    the first feasible one. Work-conserving: idles only with no job ready.
    Raises Infeasible if total utilization exceeds 1.
    """
    return _draw(periods, wcets, (), 0, l, (seed ^ _SHUFFLE_SALT) & MASK64)


def aware_shuffle(periods, wcets, aews, n_trusted, l, seed):
    """Attack-aware randomized schedule.

    Like ``shuffle`` but with a class bias over the Fisher-Yates order:
    while any trusted task's post-completion window (truncated at its
    deadline) is open, trusted candidates are tried before untrusted ones;
    outside every window the order is reversed so untrusted backlog drains
    early. Within a class the order stays random. Work-conserving and
    deadline-feasible exactly like ``shuffle``.
    """
    return _draw(periods, wcets, aews, n_trusted, l, (seed ^ _AWARE_SALT) & MASK64)


def enumerate_all(periods, wcets, l, budget):
    """Exhaustive DFS over per-slot ready-job choices.

    Returns the list of all feasible work-conserving slot arrays (none when
    total utilization exceeds 1). ``budget`` caps the number of completed
    schedules; raises ConfigError beyond it. Distinct choice sequences
    yield distinct slot arrays, so no dedup pass is needed.
    """
    tab = _tables(tuple(periods), tuple(wcets), l)
    if tab.overload:
        return []
    n = len(periods)
    rem = [0] * n
    slots = [0] * l
    results = []

    def step(t):
        if t == l:
            if len(results) >= budget:
                raise ConfigError(
                    f"enumeration budget exhausted after {len(results)} schedules")
            results.append(tuple(slots))
            return
        for i in tab.releases[t]:
            rem[i] = wcets[i]
        ready = [i for i in range(n) if rem[i]]
        if not ready:
            slots[t] = 0
            step(t + 1)
        for i in _runnable(tab, t, rem, ready):
            slots[t] = i + 1
            rem[i] -= 1
            step(t + 1)
            rem[i] += 1
        for i in tab.releases[t]:
            rem[i] = 0

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, l + 200))
    try:
        step(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return results
