"""Schedule generation: deterministic fixed-priority simulation, randomized
shuffling with an exact feasibility check, and exhaustive enumeration for
desk-scale verification. Thin wrappers around ``maars.kernel`` plus an
independent validity checker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
# independent validity checker (never uses kernel internals)


def validate_schedule(taskset: TaskSet, sched: Schedule) -> list[str]:
    """Check job slot counts, deadline containment and work-conservation.

    Returns a list of violation descriptions; empty means valid.
    """
    periods, wcets = sched.spec.all_periods(), taskset.wcets
    n = len(periods)
    l = sched.length
    errors = []
    for i in range(n):
        p, e = periods[i], wcets[i]
        if l % p != 0:
            errors.append(f"task {i+1}: hyper-period {l} not divisible by period {p}")
            continue
        for job in range(l // p):
            window = sched.slots[job * p : (job + 1) * p]
            got = sum(1 for s in window if s == i + 1)
            if got != e:
                errors.append(
                    f"task {i+1} job {job}: {got} slots in deadline window, expected {e}"
                )
    # work-conservation: replay demand and flag idle slots with pending work
    rem = [0] * n
    for t in range(l):
        for i in range(n):
            if t % periods[i] == 0:
                rem[i] = wcets[i]
        s = sched.slots[t]
        if s == 0:
            if any(r > 0 for r in rem):
                errors.append(f"slot {t}: idle while jobs are ready")
        else:
            if rem[s - 1] <= 0:
                errors.append(f"slot {t}: task {s} runs with no pending job")
            else:
                rem[s - 1] -= 1
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
