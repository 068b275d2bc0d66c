"""Runtime schedule selection at hyper-period granularity.

Normal mode draws uniformly among the store indices with SVI below the
vulnerability threshold; an alarm on task i switches to Alert mode, which
draws from the per-victim lookup table (AP < TAP_i) until the alarm has
stayed clear for ``ALERT_EXIT_AFTER`` hyper-periods. Consecutive
deployments never repeat when at least two candidates exist. A first
selection with no candidate raises Infeasible.
"""

from __future__ import annotations

import csv
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .kernel import splitmix64_stream
from .taskmodel import Infeasible, TaskSet
from .vulnerability import ScheduleStore

log = logging.getLogger(__name__)

# clear hyper-periods after which alert mode returns to normal mode
ALERT_EXIT_AFTER = 3


@dataclass
class LogEntry:
    epoch: int
    mode: str  # "normal" | "alert:<task>"
    index: int
    svi: float
    flag: int
    held: bool = False  # true when no alternative candidate existed


@dataclass
class SelectorState:
    store: ScheduleStore
    draws: Iterator[int]  # the SplitMix64 stream of the selector's seed
    current: int = -1
    alert_task: int = 0  # 0 = normal mode
    clear_streak: int = 0
    deployments: list[LogEntry] = field(default_factory=list)

    @property
    def mode(self) -> str:
        return "normal" if self.alert_task == 0 else f"alert:{self.alert_task}"


def make_selector(store: ScheduleStore, seed: int) -> SelectorState:
    return SelectorState(store=store, draws=splitmix64_stream(seed))


def resolve_flag(taskset: TaskSet, alarmed_ids: list[int]) -> int:
    """Collapse simultaneous alarms to one task id: highest criticality wins."""
    if not alarmed_ids:
        return 0
    trusted = {t.id: t for t in taskset.trusted}
    unknown = [i for i in alarmed_ids if i not in trusted]
    if unknown:
        raise ValueError(f"alarm for unknown trusted task id(s) {unknown}")
    return max(alarmed_ids, key=lambda i: (trusted[i].criticality, -i))


def _draw(state: SelectorState, candidates: list[int]) -> int:
    """Uniform draw from ``candidates`` (the next stream output modulo their
    number; the modulo bias is irrelevant at these candidate counts),
    redrawn while it equals the current index. A single candidate equal to
    the current one is redeployed (the redraw loop would never terminate
    otherwise)."""
    if len(candidates) == 1:
        return candidates[0]
    while True:
        idx = candidates[next(state.draws) % len(candidates)]
        if idx != state.current:
            return idx


def sched_sel(state: SelectorState, atk_flag: int) -> int:
    """One selection decision; updates mode and current index."""
    store = state.store
    if atk_flag < 0:
        raise ValueError("attack flag must be 0 or a trusted task id")
    if atk_flag > 0:
        if atk_flag not in store.lut:
            raise ValueError(f"attack flag {atk_flag} is not a trusted task id")
        state.alert_task = atk_flag
        state.clear_streak = 0
    elif state.alert_task != 0:
        state.clear_streak += 1
        if state.clear_streak >= ALERT_EXIT_AFTER:
            state.alert_task = 0
            state.clear_streak = 0

    if state.alert_task != 0:
        candidates = store.lut[state.alert_task]
        if not candidates:
            if state.current < 0:
                raise Infeasible(f"LUT row {state.alert_task} is empty")
            log.error(
                "alert mode for task %d has no candidate schedules; holding index %d",
                state.alert_task,
                state.current,
            )
            return state.current
    else:
        if store.k_threshold == 0:
            if state.current < 0:
                raise Infeasible("no schedule with SVI below the threshold")
            log.error("normal mode has no candidate schedules; holding index %d", state.current)
            return state.current
        candidates = list(range(store.k_threshold))

    state.current = _draw(state, candidates)
    return state.current


def run_epoch(state: SelectorState, world, epochs: int) -> list[LogEntry]:
    """Deploy/simulate/select loop.

    ``world`` must provide run_hyper_period(schedule) -> flag (0 or the
    alarmed trusted task id) and ``diverged``, which ends the loop after the
    epoch in which it turns true is logged. Selection for the next epoch
    happens at each hyper-period boundary.
    """
    if state.current < 0:
        sched_sel(state, 0)
    for epoch in range(epochs):
        schedule = state.store.schedules[state.current]
        flag = world.run_hyper_period(schedule)
        before = state.current
        state.deployments.append(
            LogEntry(
                epoch=epoch,
                mode=state.mode,
                index=before,
                svi=float(state.store.svi_of(before)),
                flag=flag,
            )
        )
        if world.diverged:
            break
        sched_sel(state, flag)
        if state.current == before:
            state.deployments[-1].held = True
    return state.deployments


def save_log_csv(entries: list[LogEntry], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mode", "index", "svi", "flag", "held"])
        for e in entries:
            writer.writerow([e.epoch, e.mode, e.index, e.svi, e.flag, int(e.held)])
