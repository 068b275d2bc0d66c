"""Closed-loop co-simulation.

Executes a deployed schedule slot by slot: each trusted task with an
assigned plant samples its output at job completion, runs its estimator and
chi-square detector, and writes the next control input into an actuation
buffer. A compromised untrusted task executing inside the victim's
post-completion window (before the output is transmitted at the period
boundary) overwrites that buffer. Plant states advance at period
boundaries with the buffer contents, so tampering lands exactly one sample
later, matching the discrete closed-loop model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .control import (
    Detector, DiscretizedLoop, PlantModel, calibrate_threshold, design_loop, noise_factor,
)
from .runtime import SelectorState, make_selector, resolve_flag, run_epoch
from .schedgen import Schedule, simulate_fixed_priority
from .taskmodel import ConfigError, TaskSet, TrustedTask
from .vulnerability import ScheduleStore, analyze, completion_slot, exposure_window, svt

DIVERGENCE_BOUND = 1e6


@dataclass(frozen=True)
class AttackScenario:
    compromised_task_id: int
    victim_id: int
    injection: str = "replace"  # "replace" | "bias"
    value: float = 10.0
    start_epoch: int = 0
    duration_epochs: int | None = None  # None = until the run ends

    def active(self, epoch: int) -> bool:
        if epoch < self.start_epoch:
            return False
        if self.duration_epochs is None:
            return True
        return epoch < self.start_epoch + self.duration_epochs


@dataclass
class RunMetrics:
    settling_time: float | None
    decay_rate: float | None
    alarm_epochs: list[int]
    deployed_ap: list[float]  # per-epoch AP of the deployed schedule (victim)
    diverged: bool
    victim_hits: int
    victim_jobs: int

    @property
    def attack_success_rate(self) -> Fraction:
        if self.victim_jobs == 0:
            return Fraction(0)
        return Fraction(self.victim_hits, self.victim_jobs)


class ControlLoopSim:
    """Runtime state of one trusted control loop across period switches."""

    def __init__(
        self,
        task: TrustedTask,
        plant: PlantModel,
        delta: float,
        rng: np.random.Generator,
        noise_scale: float = 1.0,
        x0: np.ndarray | None = None,
    ):
        self.task = task
        self.plant = plant
        self.rng = rng
        self.noise_scale = noise_scale
        self.loops: dict[int, DiscretizedLoop] = {
            p: design_loop(plant, p, delta) for p in task.period_menu
        }
        n = plant.n_states
        self.x = np.ones(n) if x0 is None else np.asarray(x0, dtype=float)
        self.xhat = np.zeros(n)
        p_in = plant.B.shape[1]
        self.u_cmd = np.zeros(p_in)  # controller's believed input
        self.buffer = np.zeros(p_in)  # actuation buffer (attackable)
        self.period = task.min_period
        base = self.loops[self.period]
        if plant.detector_threshold is not None:
            threshold = float(plant.detector_threshold)
        else:
            threshold = calibrate_threshold(
                base.innovation_cov, plant.detector_window, plant.far_target
            )
        # one detector window spans every period switch; only the residue
        # covariance it normalizes by changes with the period
        self.detector = Detector(base.innovation_cov, plant.detector_window, threshold)
        self.sigma_inv = {
            p: np.linalg.inv(loop.innovation_cov) for p, loop in self.loops.items()
        }
        # the estimator's state transition per period
        self.a_lc = {p: loop.A - loop.L @ plant.C for p, loop in self.loops.items()}
        # one SVD factor per noise covariance, for every draw of _noise
        self.w_factor = noise_factor(plant.W)
        self.v_factor = noise_factor(plant.V)
        self.alarmed = False
        self.norm = float(np.linalg.norm(self.x))  # ||x||, kept current by advance_plant
        self.norm_trace: list[tuple[float, float]] = []  # (time s, ||x||)

    def set_period(self, period: int):
        self.period = period
        self.detector.sigma_inv = self.sigma_inv[period]

    def _noise(self, factor: np.ndarray) -> np.ndarray:
        """One draw of ``rng.multivariate_normal(zeros(m), cov)`` (same RNG
        stream, same bits) from ``factor = noise_factor(cov)``, scaled."""
        m = factor.shape[0]
        if self.noise_scale == 0.0:
            return np.zeros(m)
        draw = np.zeros(m) + self.rng.standard_normal(m).reshape(-1, m) @ factor
        return draw[0] * self.noise_scale

    def advance_plant(self, time_s: float):
        """Period boundary: actuate with the (possibly tampered) buffer."""
        loop = self.loops[self.period]
        self.x = loop.A @ self.x + loop.B @ self.buffer + self._noise(self.w_factor)
        self.norm = float(np.linalg.norm(self.x))
        self.norm_trace.append((time_s, self.norm))

    def job_complete(self):
        """Sample, estimate, detect, and compute the next control input."""
        loop = self.loops[self.period]
        C = self.plant.C
        y = C @ self.x + self._noise(self.v_factor)
        _, alarm = self.detector.step(y - C @ self.xhat)
        if alarm:
            self.alarmed = True
        self.xhat = self.a_lc[self.period] @ self.xhat + loop.B @ self.u_cmd + loop.L @ y
        self.u_cmd = -loop.K @ self.xhat
        self.buffer = self.u_cmd.copy()

    def tamper(self, injection: str, value: float):
        if injection == "replace":
            self.buffer = np.full_like(self.buffer, value)
        elif injection == "bias":
            self.buffer = self.buffer + value
        else:
            raise ValueError(f"unknown injection model {injection!r}")


class CoSimWorld:
    """Slot-level world; exposes run_hyper_period() for the runtime selector."""

    def __init__(
        self,
        taskset: TaskSet,
        plants: dict[str, PlantModel],
        scenario: AttackScenario | None,
        seed: int,
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
                self.loops[t.id] = ControlLoopSim(
                    t, plants[t.plant], taskset.delta, self.rng, noise_scale
                )
        self.epoch = 0
        self.time_slots = 0
        self.diverged = False
        self.victim_hits = 0
        self.victim_jobs = 0
        self.trace: list[tuple] = []
        self.trace_enabled = False

    def run_hyper_period(self, sched: Schedule) -> int:
        """Execute one hyper-period of ``sched``; returns the attack flag
        (0 or the highest-criticality alarmed trusted task id)."""
        ts = self.taskset
        delta = ts.delta
        l = sched.length
        attack_on = self.scenario is not None and self.scenario.active(self.epoch)
        sims: list[tuple[ControlLoopSim, int]] = []  # (loop, its period in this spec)
        for task_id, sim in self.loops.items():
            p = sched.spec.period_of(task_id)
            sim.set_period(p)
            sim.alarmed = False
            sims.append((sim, p))

        # the slots where a trusted job completes, plus the AEW of each victim
        # job (slot -> the job's completion) for the attack predicate
        completions: set[int] = set()
        aew_owner: dict[int, int] = {}
        for t in ts.trusted:
            p = sched.spec.period_of(t.id)
            for job in range(l // p):
                c = completion_slot(sched.slots, t.id, t.wcet, p, job)
                completions.add(c)
                if self.scenario is not None and t.id == self.scenario.victim_id:
                    for slot in exposure_window(c, t.aew, p):
                        aew_owner[slot] = c

        hit_jobs: set[int] = set()
        for t_slot in range(l):
            running = sched.slots[t_slot]
            # period boundaries: actuate every plant whose sampling instant
            # starts at this slot (skip the synchronous release at t=0 of
            # the very first epoch: no input computed yet)
            for sim, p in sims:
                if t_slot % p == 0 and self.time_slots > 0:
                    sim.advance_plant(self.time_slots * delta)
                    if sim.norm > self.divergence_bound:
                        self.diverged = True
            if self.diverged:
                break
            if running in self.loops and t_slot in completions:
                self.loops[running].job_complete()
            if (
                attack_on
                and self.scenario is not None
                and running == self.scenario.compromised_task_id
                and t_slot in aew_owner
            ):
                victim_id = self.scenario.victim_id
                if victim_id in self.loops:
                    self.loops[victim_id].tamper(self.scenario.injection, self.scenario.value)
                hit_jobs.add(aew_owner[t_slot])
            if self.trace_enabled:
                self._record(t_slot, running)
            self.time_slots += 1

        if self.scenario is not None:
            victim = ts.task(self.scenario.victim_id)
            self.victim_jobs += l // sched.spec.period_of(victim.id)
            self.victim_hits += len(hit_jobs)
        self.epoch += 1
        return resolve_flag(ts, [tid for tid, sim in self.loops.items() if sim.alarmed])

    def _record(self, t_slot: int, running: int):
        row: list = [self.time_slots * self.taskset.delta, running]
        if self.scenario is not None and self.scenario.victim_id in self.loops:
            sim = self.loops[self.scenario.victim_id]
            row += [sim.norm, float(sim.buffer[0]), sim.detector.g, int(sim.alarmed)]
        self.trace.append(tuple(row))


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


def _static_store(taskset: TaskSet) -> ScheduleStore:
    """The static policy as a store: the fixed-priority schedule at minimum
    periods, deployable in normal mode (K = 1) and in every alert mode."""
    sched = simulate_fixed_priority(taskset, taskset.min_period_spec())
    return ScheduleStore(
        taskset=taskset,
        schedules=[sched],
        reports=[analyze(sched, taskset)],
        svt=svt(taskset),
        k_threshold=1,
        lut={t.id: [0] for t in taskset.trusted},
    )


def run_scenario(
    taskset: TaskSet,
    plants: dict[str, PlantModel],
    scenario: AttackScenario | None,
    policy: str,
    seed: int,
    epochs: int,
    store: ScheduleStore | None = None,
    selector: SelectorState | None = None,
    noise_scale: float = 1.0,
    settle_band: float = 0.1,
    divergence_bound: float = DIVERGENCE_BOUND,
    trace: bool = False,
) -> tuple[RunMetrics, CoSimWorld]:
    """Drive ``epochs`` hyper-periods under the given deployment policy.

    policy="static": the deterministic fixed-priority schedule at minimum
    periods every epoch (``store`` and ``selector`` are ignored).
    policy="maars": the runtime selector draws from ``store``. Both run
    through ``runtime.run_epoch``. Deterministic for a fixed seed.
    """
    if policy == "static":
        selector = make_selector(_static_store(taskset), seed)
    elif policy != "maars":
        raise ValueError(f"unknown policy {policy!r}")
    elif store is None or selector is None:
        raise ValueError("maars policy needs a schedule store and selector")
    world = CoSimWorld(
        taskset, plants, scenario, seed,
        noise_scale=noise_scale, divergence_bound=divergence_bound,
    )
    world.trace_enabled = trace
    deployments = run_epoch(selector, world, epochs)

    victim_id = scenario.victim_id if scenario is not None else None
    settle, rate = None, None
    if victim_id is not None and victim_id in world.loops:
        settle, rate = _fit_metrics(world.loops[victim_id].norm_trace, settle_band)
    metrics = RunMetrics(
        settling_time=settle,
        decay_rate=rate,
        alarm_epochs=[e.epoch for e in deployments if e.flag],
        deployed_ap=[
            0.0 if victim_id is None else float(selector.store.ap_of(e.index, victim_id))
            for e in deployments
        ],
        diverged=world.diverged,
        victim_hits=world.victim_hits,
        victim_jobs=world.victim_jobs,
    )
    return metrics, world


def save_trace_csv(world: CoSimWorld, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "running_task", "victim_norm", "victim_u", "g", "alarm"])
        writer.writerows(world.trace)
