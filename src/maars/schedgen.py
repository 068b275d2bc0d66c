"""Schedule generation: deterministic fixed-priority simulation, randomized
shuffling with an exact feasibility check, and exhaustive enumeration for
desk-scale verification. Thin wrappers around ``maars.kernel`` plus the
one validity check (``validate_schedule``), which the store loader runs too.
"""

from __future__ import annotations

import hashlib
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

    def content_hash(self) -> str:
        return hashlib.sha256(repr(self.key).encode()).hexdigest()[:16]


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
        length = schedules[members[0]].length
        flat = chain.from_iterable(schedules[i].slots for i in members)
        yield spec, members, np.fromiter(flat, np.int32, len(members) * length).reshape(
            len(members), length)


def simulate_fixed_priority(taskset: TaskSet, spec: TaskSpec) -> Schedule:
    slots = kernel.simulate_fp(spec.all_periods(), taskset.wcets, hyper_period(spec))
    return Schedule(spec=spec, slots=tuple(slots), provenance="fixed-priority")


def shuffle_schedule(taskset: TaskSet, spec: TaskSpec, seed: int) -> Schedule:
    slots = kernel.shuffle(spec.all_periods(), taskset.wcets, hyper_period(spec), seed)
    return Schedule(spec=spec, slots=tuple(slots), provenance="randomized", seed=seed)


def aware_shuffle_schedule(taskset: TaskSet, spec: TaskSpec, seed: int) -> Schedule:
    """Randomized schedule biased against placing untrusted executions
    inside any trusted task's open post-completion window."""
    aews = [t.aew for t in taskset.trusted]
    slots = kernel.aware_shuffle(
        spec.all_periods(), taskset.wcets, aews, len(taskset.trusted), hyper_period(spec), seed
    )
    return Schedule(spec=spec, slots=tuple(slots), provenance="attack-aware", seed=seed)


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
    when requested. Merge order is deterministic: specs in input order,
    first occurrence kept.
    """
    draw = aware_shuffle_schedule if attack_aware else shuffle_schedule

    def draws() -> Iterator[Schedule]:
        for spec_idx, spec in enumerate(specs):
            if exhaustive:
                yield from enumerate_all(taskset, spec, budget)
            elif seeds_per_spec <= 0:
                yield simulate_fixed_priority(taskset, spec)
            else:
                for k in range(seeds_per_spec):
                    yield draw(taskset, spec, seed_base + spec_idx * 1_000_003 + k)

    return unique(draws())


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
    return validate_stack(taskset, sched.spec, [sched.slots])[0]


def validate_stack(
    taskset: TaskSet, spec: TaskSpec, stack: list[tuple[int, ...]]
) -> list[list[str]]:
    """``validate_schedule`` of each slot tuple in ``stack`` under ``spec``.
    Each slot is checked once, and the frame rules run once, on the (k, L)
    array of the k that pass the rest."""
    periods, n = spec.all_periods(), taskset.n_tasks
    if not (
        len(spec.periods) == len(taskset.trusted)
        and all(p in t.period_menu for p, t in zip(spec.periods, taskset.trusted))
        and spec.untrusted_periods == tuple(u.period for u in taskset.untrusted)
    ):
        return [[f"periods {list(periods)}: a trusted period outside its menu or a "
                 "changed untrusted period"] for _ in stack]
    length = math.lcm(*periods)
    errors = [[f"slot {t}: {x!r} is not a task id in 0..{n}"
               for t, x in enumerate(s) if not (type(x) is int and 0 <= x <= n)]
              if len(s) == length else [f"length {len(s)}, not the hyper-period {length}"]
              for s in stack]
    rows = [r for r, e in enumerate(errors) if not e]
    flat = chain.from_iterable(stack[r] for r in rows)
    slots = np.fromiter(flat, np.int32, len(rows) * length).reshape(len(rows), length)
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
    return errors


# ---------------------------------------------------------------------------
# pool serialization


def pool_to_dict(taskset: TaskSet, pool: list[Schedule]) -> dict:
    return {
        "taskset_hash": taskset.content_hash(),
        "schedules": [
            {
                "periods": list(s.spec.periods),
                "untrusted_periods": list(s.spec.untrusted_periods),
                "slots": list(s.slots),
                "provenance": s.provenance,
                "seed": s.seed,
            }
            for s in pool
        ],
    }


def pool_from_dict(data: dict) -> list[Schedule]:
    return [
        Schedule(
            spec=TaskSpec(
                periods=tuple(rec["periods"]),
                untrusted_periods=tuple(rec["untrusted_periods"]),
            ),
            slots=tuple(rec["slots"]),
            provenance=rec["provenance"],
            seed=rec.get("seed"),
        )
        for rec in data["schedules"]
    ]


def save_pool(taskset: TaskSet, pool: list[Schedule], path: str | Path) -> None:
    text = json.dumps(pool_to_dict(taskset, pool))  # json.dump encodes in pure Python
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
