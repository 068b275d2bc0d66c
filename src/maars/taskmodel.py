"""Task-set model: trusted/untrusted tasks, schedulability, spec enumeration.

All timing quantities are integer multiples of the unit slot; ``delta``
(real seconds per slot) is carried as metadata and only matters when the
schedule drives a plant simulation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, TypeVar

SCHEMA_VERSION = 1

# Guard against pathological period menus blowing up the hyper-period.
LCM_BOUND = 10**9


class ConfigError(ValueError):
    """Bad input, exit 2: an input file or a record built from one violates
    the schema or an invariant, or a request exceeds a documented bound."""


class Infeasible(Exception):
    """The input is valid but admits no result, exit 3: an unschedulable
    task set, an unstabilizable period, or no schedule to deploy."""


def is_integer(value) -> bool:
    """True for an int; a bool is not a count of slots."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite int or float; a bool is not a number."""
    return (is_integer(value) or isinstance(value, float)) and math.isfinite(value)


def _require_ints(task_id, **fields) -> None:
    """Raise ConfigError unless every field value is an integer."""
    for name, value in fields.items():
        if not is_integer(value):
            raise ConfigError(f"task {task_id}: {name} must be an integer, got {value!r}")


def _on_grid(value: float) -> Fraction:
    """``value`` at the 1e-6 resolution of every TAP and criticality."""
    return Fraction(value).limit_denominator(10**6)


@dataclass(frozen=True)
class TrustedTask:
    """Safety-critical control task with a menu of candidate periods.

    ``id`` doubles as the priority index (1 = highest). ``aew`` is the
    post-completion window (in slots) during which the task's output buffer
    can be tampered with. ``tap`` is the maximum attack probability the
    associated control loop tolerates.
    """

    id: int
    period_menu: tuple[int, ...]
    wcet: int
    aew: int
    criticality: float
    tap: float
    plant: str | None = None

    def __post_init__(self):
        _require_ints(self.id, id=self.id, wcet=self.wcet, aew=self.aew)
        for p in self.period_menu:
            _require_ints(self.id, period=p)
        menu = tuple(sorted(self.period_menu))
        object.__setattr__(self, "period_menu", menu)
        if not menu:
            raise ConfigError(f"task {self.id}: empty period menu")
        if len(set(menu)) != len(menu):
            raise ConfigError(f"task {self.id}: duplicate periods in menu")
        if self.wcet <= 0:
            raise ConfigError(f"task {self.id}: wcet must be positive")
        if menu[0] <= self.wcet:
            raise ConfigError(f"task {self.id}: min period must exceed wcet")
        if self.aew < 0:
            raise ConfigError(f"task {self.id}: aew must be non-negative")
        if self.aew >= menu[0]:
            raise ConfigError(f"task {self.id}: aew must be below min period")
        if not (is_real(self.criticality) and self.criticality > 0):
            raise ConfigError(f"task {self.id}: criticality must be a finite positive number")
        if not (is_real(self.tap) and 0.0 <= self.tap <= 1.0):
            raise ConfigError(f"task {self.id}: tap must be a number in [0,1]")
        if self.plant is not None and not isinstance(self.plant, str):
            raise ConfigError(f"task {self.id}: plant must be a name, got {self.plant!r}")

    @property
    def min_period(self) -> int:
        return self.period_menu[0]


@dataclass(frozen=True)
class UntrustedTask:
    """Lower-priority task that may be compromised by a schedule attacker."""

    id: int
    period: int
    wcet: int

    def __post_init__(self):
        _require_ints(self.id, id=self.id, period=self.period, wcet=self.wcet)
        if self.wcet <= 0 or self.period <= self.wcet:
            raise ConfigError(f"task {self.id}: need period > wcet > 0")


@dataclass(frozen=True)
class TaskSet:
    """Priority-ordered task set: trusted block strictly above untrusted."""

    trusted: tuple[TrustedTask, ...]
    untrusted: tuple[UntrustedTask, ...]
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "trusted", tuple(self.trusted))
        object.__setattr__(self, "untrusted", tuple(self.untrusted))
        ids = [t.id for t in self.trusted] + [u.id for u in self.untrusted]
        if not self.trusted:
            raise ConfigError("a task set needs at least one trusted task")
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError(
                "priority indices must be contiguous 1..N with trusted tasks first"
            )
        if not (is_real(self.delta) and self.delta > 0):
            raise ConfigError("delta must be a finite positive number")
        if not any(_on_grid(t.criticality) for t in self.trusted):
            raise ConfigError("trusted criticalities all round to 0 at resolution 1e-6")

    @property
    def n_tasks(self) -> int:
        return len(self.trusted) + len(self.untrusted)

    def task(self, task_id: int) -> TrustedTask | UntrustedTask:
        q = len(self.trusted)
        if 1 <= task_id <= q:
            return self.trusted[task_id - 1]
        if q < task_id <= self.n_tasks:
            return self.untrusted[task_id - q - 1]
        raise KeyError(task_id)

    @cached_property
    def wcets(self) -> tuple[int, ...]:
        """Every task's WCET, in priority order."""
        return tuple(t.wcet for t in self.trusted) + tuple(u.wcet for u in self.untrusted)

    @cached_property
    def tap_bounds(self) -> Mapping[int, Fraction]:
        """Each trusted task's TAP as a fraction, keyed by task id; computed
        once per task set and read-only."""
        return MappingProxyType({t.id: _on_grid(t.tap) for t in self.trusted})

    @cached_property
    def criticality_levels(self) -> Mapping[int, Fraction]:
        """Criticality values normalized to sum 1, keyed by trusted task id.
        Computed once per task set and read-only, since every caller shares
        it."""
        crit = {t.id: _on_grid(t.criticality) for t in self.trusted}
        total = sum(crit.values())
        return MappingProxyType({i: c / total for i, c in crit.items()})

    def trusted_ids(self) -> list[int]:
        return [t.id for t in self.trusted]

    def untrusted_ids(self) -> list[int]:
        return [u.id for u in self.untrusted]

    def min_period_spec(self) -> "TaskSpec":
        return TaskSpec(
            periods=tuple(t.min_period for t in self.trusted),
            untrusted_periods=tuple(u.period for u in self.untrusted),
        )

    def content_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(taskset_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass(frozen=True)
class TaskSpec:
    """One concrete period assignment: a menu choice per trusted task."""

    periods: tuple[int, ...]
    untrusted_periods: tuple[int, ...] = ()

    def all_periods(self) -> tuple[int, ...]:
        return self.periods + self.untrusted_periods

    def period_of(self, task_id: int) -> int:
        return self.all_periods()[task_id - 1]


# ---------------------------------------------------------------------------
# operations


def wcrt(taskset: TaskSet, spec: TaskSpec, task_id: int) -> int | None:
    """Worst-case response time of ``task_id`` in slots under ``spec``, or
    None once it exceeds the implicit deadline.

    The fixed point of the standard recurrence over the higher-priority
    tasks; for synchronous periodic tasks with implicit deadlines it is
    exact (Joseph & Pandya 1986), so it decides fixed-priority feasibility.
    """
    params = list(zip(spec.all_periods(), taskset.wcets))
    period, wcet_i = params[task_id - 1]
    hp = params[: task_id - 1]
    r = wcet_i
    while True:
        r_next = wcet_i + sum(math.ceil(r / p_j) * e_j for p_j, e_j in hp)
        if r_next > period:
            return None
        if r_next == r:
            return r
        r = r_next


def is_schedulable(taskset: TaskSet, spec: TaskSpec) -> bool:
    """Whether every task meets its deadline under ``spec`` (``wcrt``)."""
    return all(wcrt(taskset, spec, i) is not None for i in range(1, taskset.n_tasks + 1))


def hyper_period(spec: TaskSpec) -> int:
    """LCM over all periods in the spec (trusted choices + untrusted)."""
    result = math.lcm(*spec.all_periods())
    if result > LCM_BOUND:
        raise ConfigError(f"hyper-period {result} exceeds bound {LCM_BOUND}")
    return result


def enumerate_specs(taskset: TaskSet) -> list[TaskSpec]:
    """Cartesian product of the trusted-task period menus."""
    untrusted = tuple(u.period for u in taskset.untrusted)
    return [
        TaskSpec(periods=combo, untrusted_periods=untrusted)
        for combo in itertools.product(*(t.period_menu for t in taskset.trusted))
    ]


# ---------------------------------------------------------------------------
# config file I/O (versioned JSON schema)


def taskset_to_dict(taskset: TaskSet) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "delta": taskset.delta,
        "trusted": [
            {
                "id": t.id,
                "periods": list(t.period_menu),
                "wcet": t.wcet,
                "aew": t.aew,
                "criticality": t.criticality,
                "tap": t.tap,
                **({"plant": t.plant} if t.plant else {}),
            }
            for t in taskset.trusted
        ],
        "untrusted": [
            {"id": u.id, "period": u.period, "wcet": u.wcet}
            for u in taskset.untrusted
        ],
    }


def taskset_from_dict(data: dict) -> TaskSet:
    if data.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported taskset schema version {data.get('version')}")
    trusted = tuple(
        TrustedTask(
            id=t["id"],
            period_menu=tuple(t["periods"]),
            wcet=t["wcet"],
            aew=t["aew"],
            criticality=t["criticality"],
            tap=t["tap"],
            plant=t.get("plant"),
        )
        for t in data["trusted"]
    )
    untrusted = tuple(
        UntrustedTask(id=u["id"], period=u["period"], wcet=u["wcet"])
        for u in data["untrusted"]
    )
    return TaskSet(trusted=trusted, untrusted=untrusted, delta=data.get("delta", 1.0))


T = TypeVar("T")


def load_json(path: str | Path, what: str, parse: Callable[[dict], T]) -> T:
    """``parse`` applied to the JSON object in the UTF-8 file at ``path``.

    The one reader of input files: a file that cannot be read, is not UTF-8
    or not JSON (or nests too deep to decode), holds no object, or whose
    object ``parse`` rejects (a missing key, or a value of the wrong type or
    out of range) raises one ConfigError that names ``what`` and the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("not a JSON object")
        return parse(data)
    except ConfigError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc
    except (OSError, KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"{what} {path}: {type(exc).__name__}: {exc}") from exc


def load_taskset(path: str | Path) -> TaskSet:
    return load_json(path, "taskset", taskset_from_dict)
