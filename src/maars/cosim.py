"""Closed-loop co-simulation.

Executes a deployed schedule at the slots where something happens (its
event plan, built once per schedule): each trusted task with an
assigned plant samples its output at job completion, runs its estimator and
chi-square detector, and writes the next control input into an actuation
buffer. A compromised untrusted task executing inside the victim's
post-completion window (before the output is transmitted at the period
boundary) overwrites that buffer. Plant states advance at period
boundaries with the buffer contents, so tampering lands exactly one sample
later, matching the discrete closed-loop model.

A run holds one epoch's trace lines at a time: each hyper-period writes its
finished CSV lines to a text sink that the caller owns (``trace_spool``,
which ``save_trace_csv`` moves into place, or an ``io.StringIO``), and only
the victim's loop records its ``||x||`` trace for the settling and decay
metrics. Memory therefore stays bounded by one epoch's lines, the victim's
norm trace and the deployment log, whatever the number of epochs.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .control import (
    Detector, DiscretizedLoop, PlantModel, calibrate_threshold, design_loop, noise_factor,
)
from .runtime import SelectorState, resolve_flag, run_epoch
from .schedgen import Schedule
from .taskmodel import ConfigError, Infeasible, TaskSet, TrustedTask, is_integer, is_real
from .vulnerability import stack_exposure

DIVERGENCE_BOUND = 1e6


@dataclass(frozen=True)
class AttackScenario:
    """A compromised untrusted task that tampers with a victim's actuation
    buffer; a field of the wrong type or out of range raises ConfigError."""

    compromised_task_id: int
    victim_id: int
    injection: str = "replace"  # "replace" | "bias"
    value: float = 10.0
    start_epoch: int = 0
    duration_epochs: int | None = None  # None = until the run ends

    def __post_init__(self):
        start, duration = self.start_epoch, self.duration_epochs
        requirements = {
            "compromised_task_id": (is_integer(self.compromised_task_id), "an integer"),
            "victim_id": (is_integer(self.victim_id), "an integer"),
            "injection": (self.injection in ("replace", "bias"), '"replace" or "bias"'),
            "value": (is_real(self.value), "a finite number"),
            "start_epoch": (is_integer(start) and start >= 0, "an integer >= 0"),
            "duration_epochs": (
                duration is None or (is_integer(duration) and duration >= 1),
                "an integer >= 1 or null",
            ),
        }
        for name, (ok, requirement) in requirements.items():
            if not ok:
                raise ConfigError(
                    f"scenario {name} must be {requirement}, got {getattr(self, name)!r}"
                )

    def active(self, epoch: int) -> bool:
        if epoch < self.start_epoch:
            return False
        if self.duration_epochs is None:
            return True
        return epoch < self.start_epoch + self.duration_epochs


class ControlLoopSim:
    """Runtime state of one trusted control loop across period switches."""

    def __init__(self, task: TrustedTask, plant: PlantModel, delta: float):
        self.task = task
        self.plant = plant
        try:
            self.loops: dict[int, DiscretizedLoop] = {
                p: design_loop(plant, p, delta) for p in task.period_menu
            }
        except Infeasible as exc:
            raise Infeasible(f"task {task.id}: {exc}") from exc
        # -K per period: ``-K @ xhat`` parses as ``(-K) @ xhat``
        self.neg_gains = {p: -loop.K for p, loop in self.loops.items()}
        n = plant.n_states
        self.x = np.ones(n)
        self.xhat = np.zeros(n)
        p_in = plant.B.shape[1]
        self.u_cmd = np.zeros(p_in)  # controller's believed input
        self.buffer = np.zeros(p_in)  # actuation buffer (attackable)
        self.set_period(task.min_period)
        if plant.detector_threshold is not None:
            threshold = float(plant.detector_threshold)
        else:
            threshold = calibrate_threshold(
                self.loop, plant.detector_window, plant.far_target
            )
        # one detector window spans every period switch; only the residue
        # covariance it normalizes by (the current loop's) changes with the period
        self.detector = Detector(plant.detector_window, threshold)
        # one SVD factor per noise covariance, for every draw of noise_rows
        self.w_factor = noise_factor(plant.W)
        self.v_factor = noise_factor(plant.V)
        # this epoch's process and measurement noise, one row per plant
        # step and per job completion, in order (set by set_noise)
        self.w_noise: Iterator[np.ndarray] = iter(())
        self.v_noise: Iterator[np.ndarray] = iter(())
        self.alarmed = False
        self.norm = math.sqrt(self.x.dot(self.x))  # ||x||, kept current by advance_plant
        # (time s, ||x||) at each plant step; a list for the victim's loop
        # only (CoSimWorld sets it), no trace for any other
        self.norm_trace: list[tuple[float, float]] | None = None

    def set_period(self, period: int):
        self.loop = self.loops[period]
        self.neg_gain = self.neg_gains[period]

    def set_noise(self, z: np.ndarray | None, w_starts: np.ndarray, v_starts: np.ndarray,
                  scale: float):
        """This epoch's noise rows, from its block ``z`` of standard normals."""
        self.w_noise = iter(noise_rows(z, w_starts, self.w_factor, scale))
        self.v_noise = iter(noise_rows(z, v_starts, self.v_factor, scale))

    def advance_plant(self, time_s: float):
        """Period boundary: actuate with the (possibly tampered) buffer."""
        loop = self.loop
        x = loop.A.dot(self.x) + loop.B.dot(self.buffer) + next(self.w_noise)
        self.x = x
        # np.linalg.norm's own formula for a real vector
        self.norm = math.sqrt(x.dot(x))
        if self.norm_trace is not None:
            self.norm_trace.append((time_s, self.norm))

    def job_complete(self):
        """Sample, estimate, detect, and compute the next control input."""
        loop = self.loop
        C = self.plant.C
        y = C.dot(self.x) + next(self.v_noise)
        _, alarm = self.detector.step(y - C.dot(self.xhat), loop.innovation_inv)
        if alarm:
            self.alarmed = True
        self.xhat = loop.estimator.dot(self.xhat) + loop.B.dot(self.u_cmd) + loop.L.dot(y)
        # tamper rebinds the buffer and never writes into it, so both names
        # may hold one array
        self.u_cmd = self.buffer = self.neg_gain.dot(self.xhat)

    def tamper(self, injection: str, value: float):
        if injection == "replace":
            self.buffer = np.full_like(self.buffer, value)
        else:  # "bias", the only other model an AttackScenario admits
            self.buffer = self.buffer + value


def noise_rows(z: np.ndarray | None, starts: np.ndarray, factor: np.ndarray,
               scale: float) -> np.ndarray:
    """Row k is one draw of ``rng.multivariate_normal(zeros(m), cov) * scale``
    (``factor = noise_factor(cov)``), bit for bit, made from the standard
    normals ``z[starts[k]:starts[k] + m]``; zeros at ``scale`` 0, where no
    draw is made and ``z`` may be None.

    NumPy's draw is ``zeros(m) + z_row.reshape(-1, m) @ factor``; the rows
    are stacked as (N, 1, m) matrices so that each one is still its own
    (1, m) @ (m, m) product (a 2-D (N, m) @ (m, m) product sums in another
    order and changes the last bits)."""
    m = factor.shape[0]
    if scale == 0.0:
        return np.zeros((len(starts), m))
    rows = z[starts[:, None] + np.arange(m)]
    return (np.zeros(m) + rows.reshape(-1, 1, m) @ factor)[:, 0] * scale


@dataclass(frozen=True)
class EventPlan:
    """What one hyper-period of a schedule does, slot by slot, for a world.

    ``events`` lists, in slot order, every slot where something happens
    (slot 0 always), with the slot where the next event falls (or the
    hyper-period's end), the loops whose period boundary falls there (in
    world order), the loop whose job completes there, and the victim job
    that a compromised execution there hits. Each event draws its noise in
    that order: ``starts[i]`` holds the offsets of loop i's process draws (one per
    period boundary, slot 0 first) and of its measurement draws (one per
    completion) in the epoch's block of ``total`` standard normals.
    """

    periods: list[int]  # of each loop, in world order
    events: list[tuple[int, int, list[ControlLoopSim], ControlLoopSim | None, int | None]]
    starts: list[tuple[np.ndarray, np.ndarray]]
    total: int
    victim_jobs: int


class CoSimWorld:
    """Slot-level world; exposes run_hyper_period() for the runtime selector,
    which writes each epoch's trace lines to ``sink``."""

    def __init__(
        self,
        taskset: TaskSet,
        plants: dict[str, PlantModel],
        scenario: AttackScenario | None,
        seed: int,
        sink: TextIO,
        noise_scale: float = 1.0,
        divergence_bound: float = DIVERGENCE_BOUND,
    ):
        self.taskset = taskset
        self.scenario = scenario
        if scenario is not None:
            if scenario.victim_id not in taskset.trusted_ids():
                raise ConfigError(f"scenario victim {scenario.victim_id} is not a trusted task")
            if scenario.compromised_task_id not in taskset.untrusted_ids():
                raise ConfigError(
                    f"scenario compromised task {scenario.compromised_task_id}"
                    " is not an untrusted task"
                )
        self.rng = np.random.default_rng(seed)
        self.divergence_bound = divergence_bound
        self.loops: dict[int, ControlLoopSim] = {}
        for t in taskset.trusted:
            if t.plant is not None:
                if t.plant not in plants:
                    raise KeyError(f"task {t.id}: no plant named {t.plant!r}")
                self.loops[t.id] = ControlLoopSim(t, plants[t.plant], taskset.delta)
        if scenario is not None and scenario.victim_id in self.loops:
            self.loops[scenario.victim_id].norm_trace = []
        self.noise_scale = noise_scale
        # id(schedule) -> (schedule, plan); holding the schedule keeps its id unique
        self.plans: dict[int, tuple[Schedule, EventPlan]] = {}
        self.epoch = 0
        self.time_slots = 0
        self.diverged = False
        self.victim_hits = 0
        self.victim_jobs = 0
        self.sink = sink  # one finished CSV line per simulated slot

    def plan(self, sched: Schedule) -> EventPlan:
        """The event plan of ``sched``, built on its first deployment, from
        one one-row ``stack_exposure`` call that counts the compromised
        task's units in each window: the tamper slots are its slots inside
        a hit window of the victim."""
        cached = self.plans.get(id(sched))
        if cached is not None:
            return cached[1]
        slots, l, scenario = sched.slots, sched.length, self.scenario
        periods = [sched.spec.period_of(task_id) for task_id in self.loops]
        boundaries: dict[int, list[ControlLoopSim]] = {0: []}
        for sim, p in zip(self.loops.values(), periods):
            for t in range(0, l, p):
                boundaries.setdefault(t, []).append(sim)
        exposure = stack_exposure(sched.spec, np.array([slots]), self.taskset.trusted,
                                  [] if scenario is None else [scenario.compromised_task_id])
        # the slots where a trusted job with a loop completes, and the slots
        # where the compromised task hits a victim job (slot -> the job)
        done: dict[int, ControlLoopSim] = {}
        hit: dict[int, int] = {}
        for task, (opens, closes, counts) in zip(self.taskset.trusted, exposure):
            if task.id in self.loops:
                done.update((c - 1, self.loops[task.id]) for c in opens[0].tolist())
            if scenario is not None and task.id == scenario.victim_id:
                for job in np.flatnonzero(counts[0]).tolist():
                    hit.update((s, job) for s in range(opens[0, job], closes[0, job])
                               if slots[s] == scenario.compromised_task_id)

        starts: dict[ControlLoopSim, tuple[list[int], list[int]]] = {
            sim: ([], []) for sim in self.loops.values()
        }
        total = 0
        events = []
        event_slots = sorted(boundaries.keys() | done.keys() | hit.keys())
        for t, stop in zip(event_slots, [*event_slots[1:], l]):
            advancing = boundaries.get(t, [])
            for sim in advancing:
                starts[sim][0].append(total)
                total += sim.w_factor.shape[0]
            completing = done.get(t)
            if completing is not None:
                starts[completing][1].append(total)
                total += completing.v_factor.shape[0]
            events.append((t, stop, advancing, completing, hit.get(t)))
        plan = EventPlan(
            periods=periods,
            events=events,
            starts=[(np.array(w, dtype=np.intp), np.array(v, dtype=np.intp))
                    for w, v in starts.values()],
            total=total,
            victim_jobs=0 if scenario is None else l // sched.spec.period_of(scenario.victim_id),
        )
        self.plans[id(sched)] = (sched, plan)
        return plan

    def _draw_noise(self, plan: EventPlan, first: bool):
        """One block of standard normals for the epoch, shared out to the
        loops. The first epoch's slot-0 boundaries step no plant: their draws,
        the first of the plan, are not made."""
        skip = sum(sim.w_factor.shape[0] for sim in self.loops.values()) if first else 0
        z = None if self.noise_scale == 0.0 else self.rng.standard_normal(plan.total - skip)
        for sim, (w, v) in zip(self.loops.values(), plan.starts):
            sim.set_noise(z, (w[1:] if first else w) - skip, v - skip, self.noise_scale)

    def run_hyper_period(self, sched: Schedule) -> int:
        """Execute one hyper-period of ``sched``; returns the attack flag
        (0 or the highest-criticality alarmed trusted task id)."""
        delta = self.taskset.delta
        slots, l = sched.slots, sched.length
        plan = self.plan(sched)
        base = self.time_slots
        attack_on = self.scenario is not None and self.scenario.active(self.epoch)
        for sim, p in zip(self.loops.values(), plan.periods):
            sim.set_period(p)
            sim.alarmed = False
        self._draw_noise(plan, first=base == 0)

        # the victim's trace columns, formatted again only after an event
        # that can change them: the epoch start (alarmed resets), its plant
        # step, its job completion, a tamper. Not by comparing values:
        # -0.0 == 0.0, and nan never equals itself.
        victim = self.loops.get(self.scenario.victim_id) if self.scenario is not None else None
        victim_text, stale = "", victim is not None
        hit_jobs: set[int] = set()
        trace: list[str] = []  # this epoch's lines
        end = l
        for t, stop, advancing, done, job in plan.events:
            # period boundaries (skip the synchronous release at t=0 of the
            # very first epoch: no input computed yet)
            if base + t > 0:
                for sim in advancing:
                    sim.advance_plant((base + t) * delta)
                    stale = stale or sim is victim
                    if sim.norm > self.divergence_bound:
                        self.diverged = True
            if self.diverged:
                end = t
                break
            if done is not None:
                done.job_complete()
                stale = stale or done is victim
            if attack_on and job is not None:
                if victim is not None:
                    victim.tamper(self.scenario.injection, self.scenario.value)
                    stale = True
                hit_jobs.add(job)
            if stale:
                victim_text = victim_columns(
                    victim.norm, float(victim.buffer[0]), victim.detector.g, victim.alarmed
                )
                stale = False
            # this slot and the event-free ones up to the next event
            trace += [trace_line((base + s) * delta, slots[s], victim_text)
                      for s in range(t, stop)]
        # one write per epoch: a write per line costs ten times as much
        self.sink.write("".join(trace))
        self.time_slots = base + end

        self.victim_jobs += plan.victim_jobs
        self.victim_hits += len(hit_jobs)
        self.epoch += 1
        return resolve_flag(self.taskset, [tid for tid, sim in self.loops.items() if sim.alarmed])


def victim_columns(norm: float, u: float, g: float, alarmed: bool) -> str:
    """The victim's four trace columns, as ``csv.writer`` writes them after
    the first two (floats by ``repr``)."""
    return f",{norm!r},{u!r},{g!r},{int(alarmed)}"


def trace_line(time_s: float, running: int, victim_text: str) -> str:
    """One finished trace row: the bytes ``csv.writer`` writes for
    ``(time_s, running, *victim columns)``."""
    return f"{time_s!r},{running}{victim_text}\r\n"


def _fit_metrics(
    norm_trace: list[tuple[float, float]],
    settle_band: float,
) -> tuple[float | None, float | None]:
    """Settling time (first time after which ||x|| stays inside the band)
    and exponential decay rate fitted to log ||x||."""
    if not norm_trace:
        return None, None
    times = np.array([t for t, _ in norm_trace])
    norms = np.array([v for _, v in norm_trace])
    settled = None
    outside = norms > settle_band
    if not outside.any():
        settled = float(times[0])
    else:
        last_out = int(np.max(np.nonzero(outside)))
        if last_out + 1 < len(times):
            settled = float(times[last_out + 1])
    positive = norms > 1e-12
    rate = None
    if positive.sum() >= 2:
        t_fit, y_fit = times[positive], np.log(norms[positive])
        rate = float(np.polyfit(t_fit, y_fit, 1)[0])
    return settled, rate


def run_scenario(
    plants: dict[str, PlantModel],
    scenario: AttackScenario | None,
    selector: SelectorState,
    seed: int,
    epochs: int,
    sink: TextIO,
    noise_scale: float = 1.0,
    settle_band: float = 0.1,
    divergence_bound: float = DIVERGENCE_BOUND,
) -> tuple[dict, CoSimWorld]:
    """Drive ``epochs`` hyper-periods of the task set of ``selector.store``,
    deploying each epoch the schedule the selector draws from its store
    (``runtime.run_epoch``), and writing the trace lines to ``sink``.
    Deterministic for a fixed seed.

    Returns the run's metrics, in their ``metrics.json`` order, and the
    world; the settling time, decay rate and AP are the victim's.
    """
    world = CoSimWorld(
        selector.store.taskset, plants, scenario, seed, sink,
        noise_scale=noise_scale, divergence_bound=divergence_bound,
    )
    # a diverging plant overflows to inf and nan: the divergence bound
    # detects it and ends the run, so NumPy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        deployments = run_epoch(selector, world, epochs)

    victim_id = scenario.victim_id if scenario is not None else None
    settle, rate = None, None
    if victim_id is not None and victim_id in world.loops:
        settle, rate = _fit_metrics(world.loops[victim_id].norm_trace, settle_band)
    deployed_ap = [
        0.0 if victim_id is None else float(selector.store.ap_of(e.index, victim_id))
        for e in deployments
    ]
    hits, jobs = world.victim_hits, world.victim_jobs
    return {
        "settling_time": settle,
        "decay_rate": rate,
        "alarm_epochs": [e.epoch for e in deployments if e.flag],
        "diverged": world.diverged,
        "victim_hits": hits,
        "victim_jobs": jobs,
        "attack_success_rate": hits / jobs if jobs else 0.0,
        "mean_deployed_ap": sum(deployed_ap) / len(deployed_ap) if deployed_ap else 0.0,
    }, world


@contextmanager
def trace_spool(out: Path) -> Iterator[TextIO]:
    """The sink of a run whose ``trace.csv`` goes into the directory ``out``:
    a new file that holds the CSV header, in the nearest of ``out`` and its
    ancestors that exists, so that it lies on the filesystem of ``out``,
    for ``save_trace_csv`` to move. It is closed on exit, and removed unless
    it was moved."""
    home = next(p for p in (out, *out.parents) if p.is_dir())
    path = home / f".trace-{os.urandom(8).hex()}.csv"
    spool = open(path, "x", newline="")
    try:
        with spool:
            spool.write("time_s,running_task,victim_norm,victim_u,g,alarm\r\n")
            yield spool
    finally:
        path.unlink(missing_ok=True)


def save_trace_csv(world: CoSimWorld, path: str | Path) -> None:
    """Put ``trace.csv`` at ``path``: the run's sink, a ``trace_spool``
    holding the header and then every line the run wrote, flushed and moved
    there, so no byte of it is written twice."""
    world.sink.flush()
    os.replace(world.sink.name, path)
