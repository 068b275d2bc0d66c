"""Slot-level scheduling kernel: fixed-priority simulation, feasibility-safe
randomized shuffling and exhaustive enumeration.

Tasks are passed as parallel period/wcet lists in priority order (index 0 =
highest priority = task id 1), with integer periods that divide the horizon
``l``. Slot values are 1-based task ids, 0 = idle.

Every randomized or enumerated choice keeps the remaining jobs schedulable.
That is decided by the processor-demand criterion (Baruah, Rosier & Howell,
Real-Time Systems 1990) on one computation per task set, so a choice costs
no lookahead simulation: its demand bound in closed form (``_base``), and
from it, a chunk of slots at a time, a table per slot (``_demand``). At slot
t the current deadlines depend on t alone, so the tasks in deadline order and
the slack of each interval between consecutive deadlines are looked up, and a
schedule enters only through the units its current jobs have run
(``_admissible``, the one processor-demand rule of the shuffles and of the
enumeration, run only at slots with a negative slack: elsewhere every task
passes).

The randomized draws (and the runtime selector's) come from SplitMix64
streams. SplitMix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014):
output k of state s is a mix of s + k * gamma mod 2**64 alone. So the
selector's stream is computed in fixed-size NumPy ``uint64`` blocks, bit for
bit the outputs of sequential SplitMix64 steps, and the shuffles draw every
schedule of one hyper-period in lockstep: the schedules are the rows of
NumPy arrays that step through the slots together, each row mixing its own
outputs from its own counter (``_draw_group``).
"""

from __future__ import annotations

import sys
from itertools import chain, count

import numpy as np

from .taskmodel import ConfigError, Infeasible

# The only implementation; summary.txt and benchmark records name it.
BACKEND = "pure"

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# A stream is computed this many outputs at a time; the runtime selector
# draws one per epoch
_BLOCK = 128
_G = np.uint64(_GAMMA)
_OFFSETS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _G
# SplitMix64's shifts and multipliers as NumPy scalars (a Python int operand
# is converted again on every operation)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHUFFLE_SALT = 0xD6E8FEB86659FD93
_AWARE_SALT = 0xA3C59AC2ED1097E5
# the slack of a deadline that closes no interval: every row passes it
_NO_INTERVAL = 1 << 30
# the slots whose processor-demand tables a lockstep group holds at once,
# and the slots with swaps whose stream outputs it mixes at once
_CHUNK = 256
_BLOCK_SLOTS = 4


def _deadline_miss(task_id: int, slot: int) -> Infeasible:
    return Infeasible(f"task {task_id} missed a deadline at slot {slot}")


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output of each ``uint64`` state in ``z``, in place."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _stream_block(state: int) -> list[int]:
    """The ``_BLOCK`` SplitMix64 outputs that follow ``state``: output k
    mixes state + k * gamma mod 2**64 alone."""
    return _mix(_OFFSETS + np.uint64(state & MASK64)).tolist()


def splitmix64_stream(state: int):
    """Iterator over the SplitMix64 outputs of ``state`` (taken modulo
    2**64), computed a block at a time when first asked for."""
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


def _base(periods: tuple, wcets: tuple, l: int) -> np.ndarray:
    """The processor-demand bound of a task set over [0, l]: base[d] = d
    minus the work of every job with deadline <= d, d - sum(e_i * (d //
    p_i)), as (l + 1,) int32. No schedule meets every deadline iff base[l]
    < 0, and a miss is then reported at the first d with base[d] < 0."""
    if any(l % p for p in periods):
        raise ValueError(f"horizon {l} is not a multiple of every period {periods}")
    d = np.arange(l + 1, dtype=np.int32)
    return d - sum(e * (d // p) for p, e in zip(periods, wcets))


def _sparse_table(values: np.ndarray, longest: int) -> np.ndarray:
    """Row k holds min(values[i : i + 2**k]) at i, or ``_NO_INTERVAL`` where
    that range runs past the end, for ranges of up to ``longest`` values."""
    minima = np.full((longest.bit_length(), len(values)), _NO_INTERVAL, dtype=np.int32)
    minima[0] = values
    for k in range(1, len(minima)):
        half = 1 << (k - 1)
        np.minimum(minima[k - 1, :-half], minima[k - 1, half:], out=minima[k, :-half])
    return minima


def _range_min(minima: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """min(values[lo : lo + span]) from ``_sparse_table``'s ``minima``, by
    index arrays; a span of 0 gives a value that means nothing."""
    level = np.frexp(np.maximum(span, 1))[1] - 1  # floor(log2(span))
    return np.minimum(minima[level, lo], minima[level, lo + span - (1 << level)])


def _demand(periods: tuple, base: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The processor-demand table of a task set at the slots t of [start,
    stop), from its ``base`` array: (stop - start, 3, n) int32. The current
    deadlines d_i = t - t % p_i + p_i depend on t alone, so ``table[t]``
    stacks three rows of n: the tasks by deadline (stably), the inverse of
    that order, and the slack of each deadline d in that order, min(base[lo:d])
    - base[t] - 1 with lo the deadline before it (t + 1 for the first), or
    ``_NO_INTERVAL`` when d = lo. Range minima come from ``_sparse_table``."""
    t = np.arange(start, stop, dtype=np.int32)[:, None]
    p = np.array(periods, dtype=np.int32)
    deadlines = t - t % p + p
    order = deadlines.argsort(axis=1, kind="stable")
    ends = np.take_along_axis(deadlines, order, axis=1)
    starts = np.concatenate([t + 1, ends[:, :-1]], axis=1)
    # the minima of base over every interval [lo, d) of these slots, at lo - offset
    offset = start + 1
    minima = _sparse_table(base[offset : stop + max(periods)], max(periods))
    span = ends - starts
    lowest = _range_min(minima, starts - offset, span)
    slack = np.where(span > 0, lowest - base[start:stop, None] - 1, _NO_INTERVAL)
    return np.stack([order, order.argsort(axis=1), slack], axis=1).astype(np.int32)


def _admissible(table, done) -> np.ndarray:
    """Per row, whether each task's current job may run a unit now with
    every deadline still met: rows of ``_demand``'s tables at one slot,
    (R, 3, n), for rows whose current jobs have run ``done`` units each.

    Processor-demand criterion: running a unit of the job with deadline D
    at t keeps every deadline iff each interval [t, d) with t < d < D has
    room for that unit plus all work still due by d, i.e. ``base[d] +
    sum(done_i : deadline_i <= d) >= base[t] + 1``. Intervals that start
    later hold only fresh releases, which fit when utilization is at most 1,
    and intervals reaching D or beyond keep the slack the state already had.
    The sum steps only at the current deadlines, so a row passes the g-th
    deadline in order while the units done before it plus its slack are not
    negative, and each task whose deadline it passes may run. Every row
    passes the first deadline, so the earliest-deadline job always may.
    """
    order, rank, slack = table[:, 0], table[:, 1], table[:, 2]
    done = done[np.arange(len(done))[:, None], order]
    before = done.cumsum(axis=1) - done
    passed = np.logical_and.accumulate(before + slack >= 0, axis=1).sum(axis=1)
    return rank < passed[:, None]


def _lockstep(rows, wcets, aews, n_trusted, salt) -> list[tuple[int, ...]]:
    """The slot tuple of the randomized schedule of each (periods, l, seed)
    row, in order. Raises Infeasible for the first row, in order, whose
    utilization exceeds 1; the rows of each horizon are then drawn together
    (``_draw_group``)."""
    wcets = tuple(wcets)
    # each distinct task set's demand bound, built once per call and dropped with it
    bases: dict[tuple, np.ndarray] = {}
    groups: dict[int, list[int]] = {}
    for r, (periods, l, _) in enumerate(rows):
        periods = tuple(periods)
        if (periods, l) not in bases:
            bases[periods, l] = _base(periods, wcets, l)
        groups.setdefault(l, []).append(r)
    for (periods, l), base in bases.items():  # in the order of their first rows
        if base[l] < 0:
            d = int(np.argmax(base < 0))
            raise _deadline_miss(max(i for i, p in enumerate(periods) if d % p == 0) + 1, d)
    drawn: list[tuple[int, ...]] = [()] * len(rows)
    for l, members in groups.items():
        distinct: dict[tuple, int] = {}  # the group's periods -> their index
        spec_of = np.array([distinct.setdefault(tuple(rows[r][0]), len(distinct))
                            for r in members])
        states = np.array([(rows[r][2] ^ salt) & MASK64 for r in members], dtype=np.uint64)
        stack = _draw_group(list(distinct), [bases[periods, l] for periods in distinct],
                            wcets, spec_of, states, l, aews, n_trusted)
        for r, slots in zip(members, stack):
            drawn[r] = tuple(slots.tolist())
    return drawn


def _draw_group(periods, bases, wcets, spec_of, states, l, aews, n_trusted) -> np.ndarray:
    """The (R, l) slots of R randomized feasible schedules drawn in
    lockstep: row r schedules the tasks ``wcets`` with the periods
    ``periods[spec_of[r]]`` (whose demand bound is ``bases[spec_of[r]]``)
    from the SplitMix64 stream of ``states[r]``, and all rows step through
    the slots together.

    Per slot and row: the ascending list of tasks with work left, in
    Fisher-Yates order from the row's stream (one output per swap, none for
    a single task), class-partitioned while a trusted window is open, then
    the first job that keeps every deadline (``_admissible``, only at slots
    where some row's table has a negative slack: elsewhere it admits every
    task). Each row's list is held reversed, so that swap c of every row
    fixes column c; a row's first candidate is then its admissible task of
    the preferred class in the highest column.
    """
    n = len(wcets)
    rows = len(states)
    period_of = np.array(periods, dtype=np.int32)  # (task sets, n)
    # whether some row releases a job at t; every period divides l, so
    # releasing[l] is True, the end of any search for the next release
    releasing = [False] * (l + 1)
    for p in set(chain.from_iterable(periods)):
        releasing[::p] = [True] * (l // p + 1)
    wcets = np.array(wcets, dtype=np.int32)
    columns = np.arange(n)
    descending = columns[::-1]
    row = np.arange(rows)
    # row r's list starts at flat index r * n; swap c exchanges the flat
    # indices pairs[c, 0] (column c) and pairs[c, 1]
    row_start = row * n
    row_last = row_start - 1  # plus a row's count, the flat index of its last task
    pairs = np.empty((n - 1, 2, rows), dtype=np.intp)
    pairs[:, 0] = row_start + columns[:-1, None]
    swapped = [(pairs[c], pairs[c, ::-1]) for c in range(n - 1)]
    # the modulus j + 1 of the swap with column c in a list of `count`
    # tasks, at spans[count, c] (1 where there is no such swap); a slot
    # takes used[count] outputs
    counts = np.arange(n + 1)
    spans = np.maximum(counts[:, None] - columns[:-1], 1).astype(np.uint64)
    used = np.maximum(counts - 1, 0)
    # the stream outputs of _BLOCK_SLOTS slots, mixed a block at a time: the
    # row's next output is stream[next_out[r]], and counter holds the state
    # before the block's first output
    width = _BLOCK_SLOTS * (n - 1)
    stream = np.empty((rows, width), dtype=np.uint64)
    block_start = row * width
    block_offsets = np.arange(1, width + 1, dtype=np.uint64) * _G
    counter = states.copy()
    next_out = block_start.copy()
    fresh = 0  # slots with swaps since the block was mixed
    if n_trusted:
        aew = np.array(aews, dtype=np.int32)
        # column n_trusted of the window ends below, for untrusted tasks
        closes = np.minimum(columns, n_trusted)
        # added to the columns of the preferred class: untrusted tasks while
        # every window is closed (prefer[0]), trusted ones while one is open
        prefer = n * np.array([columns >= n_trusted, columns < n_trusted], dtype=np.intp)
    rem = np.zeros((rows, n), dtype=np.int32)  # work left in each current job
    window_end = np.zeros(rows, dtype=np.int32)
    slots = np.zeros((rows, l), dtype=np.int32)
    row_periods = period_of[spec_of]
    t = stop = 0
    while t < l:
        if t >= stop:
            # the tables of the next slots: bounded memory for any horizon
            start, stop = t, min(t + _CHUNK, l)
            table = np.stack([_demand(p, base, start, stop)
                              for p, base in zip(periods, bases)])
            # a slot with no negative slack admits every task (``_admissible``)
            tight = (table[:, :, 2] < 0).any(axis=(0, 2)).tolist()
            if n_trusted:
                # each trusted task's window end if its job completes at a
                # slot, cut at its deadline; 0 in the last column
                u = np.arange(start, stop, dtype=np.int32)[:, None]
                p = period_of[:, None, :n_trusted]
                closing = np.zeros((len(periods), stop - start, n_trusted + 1), dtype=np.int32)
                closing[:, :, :-1] = np.minimum(u + 1 + aew, u - u % p + p)
        if releasing[t]:
            np.copyto(rem, wcets, where=t % row_periods == 0)
        active = rem > 0
        count = active.sum(axis=1)
        swaps = int(count.max()) - 1
        if swaps < 0:
            t = releasing.index(True, t + 1)
            continue
        busy = count > 0
        if swaps == 0:
            chosen = active.argmax(axis=1)
        else:
            if fresh % _BLOCK_SLOTS == 0:
                counter += (next_out - block_start).astype(np.uint64) * _G
                stream[:] = _mix(counter[:, None] + block_offsets)
                next_out[:] = block_start
            fresh += 1
            z = stream.reshape(-1)[next_out + columns[:swaps, None]]  # (swaps, rows)
            next_out += used[count]
            # column c of a row holds position count - 1 - c of its list
            ready = np.where(active, descending, n).argsort(axis=1)
            k = (z % spans[count].T[:swaps]).view(np.int64)
            np.maximum(row_last + count - k, pairs[:swaps, 0], out=pairs[:swaps, 1])
            flat = ready.reshape(-1)
            for pair, reverse in swapped[:swaps]:
                flat[reverse] = flat[pair]
            key = ready.argsort(axis=1)  # the column of each task
            if n_trusted:
                key += prefer[(t < window_end).view(np.uint8)]
            if tight[t - start]:
                active &= _admissible(table[spec_of, t - start], wcets - rem)
            chosen = np.where(active, key, -1).argmax(axis=1)
        slots[:, t] = (chosen + 1) * busy
        left = rem[row, chosen] - busy
        rem[row, chosen] = left
        if n_trusted:
            np.maximum(window_end, closing[spec_of, t - start, closes[chosen]],
                       out=window_end, where=(left == 0) & busy)
        t += 1
    return slots


def shuffles(rows, wcets) -> list[tuple[int, ...]]:
    """``shuffle`` of each (periods, l, seed) row, drawn in lockstep."""
    return _lockstep(rows, wcets, (), 0, _SHUFFLE_SALT)


def aware_shuffles(rows, wcets, aews, n_trusted) -> list[tuple[int, ...]]:
    """``aware_shuffle`` of each (periods, l, seed) row, drawn in lockstep."""
    return _lockstep(rows, wcets, aews, n_trusted, _AWARE_SALT)


def shuffle(periods, wcets, l, seed):
    """Randomized feasible schedule: per slot, a uniform choice among ready
    jobs whose selection keeps the remainder completable.

    Uniformity comes from testing candidates in Fisher-Yates order and taking
    the first feasible one. Work-conserving: idles only with no job ready.
    Raises Infeasible if total utilization exceeds 1.
    """
    return list(shuffles([(periods, l, seed)], wcets)[0])


def aware_shuffle(periods, wcets, aews, n_trusted, l, seed):
    """Attack-aware randomized schedule.

    Like ``shuffle`` but with a class bias over the Fisher-Yates order:
    while any trusted task's post-completion window (truncated at its
    deadline) is open, trusted candidates are tried before untrusted ones;
    outside every window the order is reversed so untrusted backlog drains
    early. Within a class the order stays random. Work-conserving and
    deadline-feasible exactly like ``shuffle``.
    """
    return list(aware_shuffles([(periods, l, seed)], wcets, aews, n_trusted)[0])


def enumerate_all(periods, wcets, l, budget):
    """Exhaustive DFS over per-slot ready-job choices.

    Returns the list of all feasible work-conserving slot arrays (none when
    total utilization exceeds 1). ``budget`` caps the number of completed
    schedules; raises ConfigError beyond it. Distinct choice sequences
    yield distinct slot arrays, so no dedup pass is needed.
    """
    base = _base(tuple(periods), tuple(wcets), l)
    if base[l] < 0:
        return []
    table = _demand(tuple(periods), base, 0, l)
    # a slot with no negative slack admits every task (``_admissible``)
    tight = (table[:, 2] < 0).any(axis=1).tolist()
    n = len(periods)
    releases = [[i for i, p in enumerate(periods) if t % p == 0] for t in range(l)]
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
        for i in releases[t]:
            rem[i] = wcets[i]
        ready = [i for i in range(n) if rem[i]]
        if not ready:
            slots[t] = 0
            step(t + 1)
        elif tight[t]:
            done = np.array([[e - left for e, left in zip(wcets, rem)]])
            may = _admissible(table[t : t + 1], done)[0]
            ready = [i for i in ready if may[i]]
        for i in ready:
            slots[t] = i + 1
            rem[i] -= 1
            step(t + 1)
            rem[i] += 1
        for i in releases[t]:
            rem[i] = 0

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, l + 200))
    try:
        step(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return results
