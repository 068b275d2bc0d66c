"""Schedule generation: deterministic fixed-priority simulation, randomized
shuffling with an exact feasibility check, and exhaustive enumeration for
desk-scale verification. Thin wrappers around ``maars.kernel`` plus the
one validity check (``checked_stack``, which the store loader runs;
``validate_schedule`` is its one-schedule call).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import kernel
from .taskmodel import TaskSet, TaskSpec, hyper_period

DEFAULT_ENUM_BUDGET = 200_000
# the rows of a stack, or the schedules of a pool, that a pass over them
# (``slot_texts``, the exposure counts of vulnerability analysis, the records
# of ``pool_json``) works on at once: its temporaries grow with the block,
# not with the pool
BLOCK_ROWS = 512


@dataclass(frozen=True)
class Schedule:
    """Slot array over one hyper-period plus the spec that produced it.

    slots[j] is the 1-based priority index of the task running in slot j,
    0 for idle. Schedules from different specs are distinct objects even if
    their slot arrays coincide.
    """

    spec: TaskSpec
    slots: tuple[int, ...]
    provenance: str  # "fixed-priority" | "randomized" | "exhaustive"
    seed: int | None = None

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Identity of the schedule: its periods and its slots."""
        return self.spec.all_periods(), self.slots


def unique(schedules: Iterable[Schedule]) -> list[Schedule]:
    """The first schedule of each key, in order."""
    first: dict[tuple, Schedule] = {}
    for s in schedules:
        first.setdefault(s.key, s)
    return list(first.values())


def group_by_spec(schedules: Iterable[Schedule]) -> dict[TaskSpec, list[int]]:
    """The indices of ``schedules`` per period assignment, in order."""
    groups: dict[TaskSpec, list[int]] = defaultdict(list)
    for i, s in enumerate(schedules):
        groups[s.spec].append(i)
    return dict(groups)


def stacks(schedules: list[Schedule]) -> Iterator[tuple[TaskSpec, list[int], np.ndarray]]:
    """Per period assignment (``group_by_spec``): the spec, the indices of its
    k schedules and their slots as one (k, L) int32 array."""
    for spec, members in group_by_spec(schedules).items():
        yield spec, members, slot_array([schedules[i].slots for i in members],
                                        schedules[members[0]].length)


def row_blocks(n: int) -> Iterator[slice]:
    """The slices of at most ``BLOCK_ROWS`` rows that cover rows 0..n-1, in
    order."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS))


def slot_array(rows: list[tuple[int, ...]], length: int) -> np.ndarray:
    """The (k, length) int32 array of k slot tuples of that length: where
    every stack of schedules is built."""
    flat = chain.from_iterable(rows)
    return np.fromiter(flat, np.int32, len(rows) * length).reshape(len(rows), length)


def simulate_fixed_priority(taskset: TaskSet, spec: TaskSpec) -> Schedule:
    slots = kernel.simulate_fp(spec.all_periods(), taskset.wcets, hyper_period(spec))
    return Schedule(spec=spec, slots=tuple(slots), provenance="fixed-priority")


def draw_schedules(
    taskset: TaskSet, draws: list[tuple[TaskSpec, int]], attack_aware: bool = False
) -> list[Schedule]:
    """The randomized schedule of each (spec, seed) of ``draws``, in order,
    drawn attack-aware when requested: biased against placing untrusted
    executions inside any trusted task's open post-completion window. The
    kernel draws every schedule of one hyper-period in lockstep."""
    rows = [(spec.all_periods(), hyper_period(spec), seed) for spec, seed in draws]
    if attack_aware:
        aews = [t.aew for t in taskset.trusted]
        slots = kernel.aware_shuffles(rows, taskset.wcets, aews, len(taskset.trusted))
    else:
        slots = kernel.shuffles(rows, taskset.wcets)
    provenance = "attack-aware" if attack_aware else "randomized"
    return [Schedule(spec=spec, slots=s, provenance=provenance, seed=seed)
            for (spec, seed), s in zip(draws, slots)]


def enumerate_all(
    taskset: TaskSet, spec: TaskSpec, budget: int = DEFAULT_ENUM_BUDGET
) -> list[Schedule]:
    arrays = kernel.enumerate_all(spec.all_periods(), taskset.wcets, hyper_period(spec), budget)
    return [
        Schedule(spec=spec, slots=tuple(a), provenance="exhaustive") for a in arrays
    ]


def generate_pool(
    taskset: TaskSet,
    specs: list[TaskSpec],
    seeds_per_spec: int = 0,
    exhaustive: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
    seed_base: int = 0,
    attack_aware: bool = False,
) -> list[Schedule]:
    """Deduplicated schedule pool over the given specs.

    exhaustive=True enumerates every spec within ``budget``; otherwise
    ``seeds_per_spec`` shuffled schedules per spec (the deterministic
    fixed-priority schedule when seeds_per_spec == 0), drawn attack-aware
    when requested (``draw_schedules``, every seed of every spec at once).
    Merge order is deterministic: specs in input order, then seeds in order,
    first occurrence kept.
    """
    if exhaustive:
        return unique(chain.from_iterable(enumerate_all(taskset, spec, budget) for spec in specs))
    if seeds_per_spec <= 0:
        return unique(simulate_fixed_priority(taskset, spec) for spec in specs)
    return unique(draw_schedules(taskset, [
        (spec, seed_base + spec_idx * 1_000_003 + k)
        for spec_idx, spec in enumerate(specs) for k in range(seeds_per_spec)
    ], attack_aware))


# ---------------------------------------------------------------------------
# the one validity check (never uses kernel internals)


def validate_schedule(taskset: TaskSet, sched: Schedule) -> list[str]:
    """Every violation of the rules a schedule of ``taskset`` must meet;
    empty means valid. Never raises. The rules:

    - each trusted task's period comes from its menu, and each untrusted
      task keeps its own period;
    - the length is the hyper-period of those periods;
    - every slot is a task id in 0..n_tasks (0 is idle) of type ``int``,
      as JSON and the kernel give it: a bool or a NumPy integer is not one;
    - every job gets exactly its WCET in units inside its frame;
    - no slot is idle while a job has work left (work conservation).

    The last two read the periods and the slots, so a schedule that breaks
    one of the first three is not checked against them.
    """
    return checked_stack(taskset, sched.spec, [sched.slots])[0][0]


def checked_stack(
    taskset: TaskSet, spec: TaskSpec, stack: list[tuple[int, ...]]
) -> tuple[list[list[str]], np.ndarray | None]:
    """``validate_schedule`` of each slot tuple in ``stack`` under ``spec``,
    and the (k, L) slot array of the k tuples that pass its checks of length
    and slot type, in order (None when the periods break the menus). Each
    tuple's slot types and range are tested at once, and only a tuple that
    fails is scanned slot by slot; the frame rules run once, on that array."""
    periods, n = spec.all_periods(), taskset.n_tasks
    if not (
        len(spec.periods) == len(taskset.trusted)
        and all(p in t.period_menu for p, t in zip(spec.periods, taskset.trusted))
        and spec.untrusted_periods == tuple(u.period for u in taskset.untrusted)
    ):
        return [[f"periods {list(periods)}: a trusted period outside its menu or a "
                 "changed untrusted period"] for _ in stack], None
    length = math.lcm(*periods)
    errors = [([] if set(map(type, s)) == {int} and 0 <= min(s) and max(s) <= n
               else [f"slot {t}: {x!r} is not a task id in 0..{n}"
                     for t, x in enumerate(s) if not (type(x) is int and 0 <= x <= n)])
              if len(s) == length else [f"length {len(s)}, not the hyper-period {length}"]
              for s in stack]
    rows = [r for r, e in enumerate(errors) if not e]
    slots = slot_array([stack[r] for r in rows], length)
    pending = np.zeros(slots.shape, dtype=bool)
    for task_id, (p, wcet) in enumerate(zip(periods, taskset.wcets), start=1):
        runs = (slots == task_id).reshape(len(rows), length // p, p)
        done = runs.cumsum(axis=2)  # units of the frame's job up to each slot
        for r, job in zip(*(done[:, :, -1] != wcet).nonzero()):
            errors[rows[r]].append(f"task {task_id} job {job}: {done[r, job, -1]} "
                                   f"slots in its frame, expected {wcet}")
        # at an idle slot, done counts the units before it
        pending |= (done < wcet).reshape(len(rows), length)
    for r, t in zip(*((slots == 0) & pending).nonzero()):
        errors[rows[r]].append(f"slot {t}: idle while jobs are ready")
    return errors, slots


# ---------------------------------------------------------------------------
# pool serialization
#
# A pool document is {"taskset_hash": ..., "schedules": [...]}, one record
# {"periods", "untrusted_periods", "slots", "provenance", "seed"} per
# schedule, in pool order. ``pool_json`` makes it as ``json.dumps`` would,
# byte for byte, a block of records at a time, from each schedule's slot
# text and one cached head per spec and provenance; ``pool_from_dict`` reads
# it back.


def slot_texts(stack: np.ndarray) -> list[str]:
    """The slots of each row of the (k, L) task-id array ``stack`` as text,
    ``"a, b, c"``: the inside of the row's JSON array, and of its tuple's
    repr unless L is 1 (that repr is ``(a,)``). One pass per block of rows
    (``row_blocks``): it indexes a table of fixed-width byte tokens
    (``b"3, "``) with the ids, drops the NUL padding of the shorter tokens
    and cuts the text at the rows' cumulative token lengths, less each row's
    last ``", "``."""
    tokens = np.array([f"{i}, ".encode() for i in range(int(stack.max(initial=0)) + 1)])
    lengths = np.char.str_len(tokens).astype(np.uint8)  # rows summed in 64 bits
    texts: list[str] = []
    for rows in row_blocks(len(stack)):
        block = stack[rows]
        data = tokens[block].view(np.uint8)
        text = data[data != 0].tobytes().decode()
        ends = np.cumsum(lengths[block].sum(axis=1)).tolist()
        texts += [text[a : b - 2] for a, b in zip([0, *ends], ends)]
    return texts


def pool_json(taskset: TaskSet, pool: list[Schedule], texts: Iterable[str]) -> Iterator[str]:
    """The pool document of ``pool`` for ``taskset`` as ``json.dumps`` text,
    in pieces that join to it: its head, the records of each block of
    schedules (``row_blocks``) and its tail, given each schedule's slot text
    (``slot_texts``) in pool order. ``texts`` may be an iterator: each block
    takes its texts from it as its records are made."""
    heads: dict[tuple[TaskSpec, str], tuple[str, str]] = {}
    texts = iter(texts)
    yield f'{{"taskset_hash": {json.dumps(taskset.content_hash())}, "schedules": ['
    for rows in row_blocks(len(pool)):
        records = []
        for s, text in zip(pool[rows], texts):
            if (parts := heads.get((s.spec, s.provenance))) is None:
                periods = json.dumps({"periods": list(s.spec.periods),
                                      "untrusted_periods": list(s.spec.untrusted_periods)})
                provenance = json.dumps(s.provenance)
                parts = heads[s.spec, s.provenance] = (
                    f'{periods[:-1]}, "slots": [', f'], "provenance": {provenance}, "seed": ')
            head, middle = parts
            seed = "null" if s.seed is None else repr(s.seed)  # an int's JSON is its repr
            records.append(f"{head}{text}{middle}{seed}}}")
        yield f'{", " if rows.start else ""}{", ".join(records)}'
    yield "]}"


def pool_from_dict(data: dict) -> list[Schedule]:
    """The schedules of a pool document. Each record's slot list is replaced
    by the schedule's tuple as it is read, so that a parsed document and its
    schedules do not hold every slot twice."""
    pool = []
    for rec in data["schedules"]:
        rec["slots"] = slots = tuple(rec["slots"])
        pool.append(Schedule(
            spec=TaskSpec(
                periods=tuple(rec["periods"]),
                untrusted_periods=tuple(rec["untrusted_periods"]),
            ),
            slots=slots,
            provenance=rec["provenance"],
            seed=rec.get("seed"),
        ))
    return pool


def save_pool(taskset: TaskSet, pool: list[Schedule], path: str | Path) -> None:
    """Write the pool document (``pool_json``) as one JSON line, each piece
    as it is made. A pool has no stacks yet: each command builds them once,
    for its store. Joining the tokens of each slot tuple here costs no more
    than building them would."""
    tokens = [f"{i}, " for i in range(taskset.n_tasks + 1)]
    texts = ("".join(map(tokens.__getitem__, s.slots))[:-2] for s in pool)
    with open(path, "w") as fh:
        for piece in pool_json(taskset, pool, texts):
            fh.write(piece)
        fh.write("\n")
