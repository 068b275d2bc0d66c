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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import (
    Detector, DiscretizedLoop, PlantModel, calibrate_threshold, design_loop, noise_factor,
)
from .runtime import SelectorState, resolve_flag, run_epoch
from .schedgen import Schedule
from .taskmodel import ConfigError, TaskSet, TrustedTask, is_integer, is_real
from .vulnerability import exposure_windows

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

    def __init__(
        self,
        task: TrustedTask,
        plant: PlantModel,
        delta: float,
        rng: np.random.Generator,
        noise_scale: float = 1.0,
    ):
        self.task = task
        self.plant = plant
        self.rng = rng
        self.noise_scale = noise_scale
        self.loops: dict[int, DiscretizedLoop] = {
            p: design_loop(plant, p, delta) for p in task.period_menu
        }
        n = plant.n_states
        self.x = np.ones(n)
        self.xhat = np.zeros(n)
        p_in = plant.B.shape[1]
        self.u_cmd = np.zeros(p_in)  # controller's believed input
        self.buffer = np.zeros(p_in)  # actuation buffer (attackable)
        self.loop = self.loops[task.min_period]  # the loop of the current period
        if plant.detector_threshold is not None:
            threshold = float(plant.detector_threshold)
        else:
            threshold = calibrate_threshold(
                self.loop, plant.detector_window, plant.far_target
            )
        # one detector window spans every period switch; only the residue
        # covariance it normalizes by (the current loop's) changes with the period
        self.detector = Detector(plant.detector_window, threshold)
        # one SVD factor per noise covariance, for every draw of _noise
        self.w_factor = noise_factor(plant.W)
        self.v_factor = noise_factor(plant.V)
        self.alarmed = False
        self.norm = float(np.linalg.norm(self.x))  # ||x||, kept current by advance_plant
        self.norm_trace: list[tuple[float, float]] = []  # (time s, ||x||)

    def set_period(self, period: int):
        self.loop = self.loops[period]

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
        loop = self.loop
        self.x = loop.A @ self.x + loop.B @ self.buffer + self._noise(self.w_factor)
        self.norm = float(np.linalg.norm(self.x))
        self.norm_trace.append((time_s, self.norm))

    def job_complete(self):
        """Sample, estimate, detect, and compute the next control input."""
        loop = self.loop
        C = self.plant.C
        y = C @ self.x + self._noise(self.v_factor)
        _, alarm = self.detector.step(y - C @ self.xhat, loop.innovation_inv)
        if alarm:
            self.alarmed = True
        self.xhat = loop.estimator @ self.xhat + loop.B @ self.u_cmd + loop.L @ y
        self.u_cmd = -loop.K @ self.xhat
        self.buffer = self.u_cmd.copy()

    def tamper(self, injection: str, value: float):
        if injection == "replace":
            self.buffer = np.full_like(self.buffer, value)
        else:  # "bias", the only other model an AttackScenario admits
            self.buffer = self.buffer + value


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
        self.trace: list[str] = []  # one finished CSV line per slot

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
        # job (slot -> the job) for the attack predicate
        completions: set[int] = set()
        aew_owner: dict[int, int] = {}
        for t in ts.trusted:
            windows = exposure_windows(sched.slots, t, sched.spec.period_of(t.id))
            completions.update(w.start - 1 for w in windows)
            if self.scenario is not None and t.id == self.scenario.victim_id:
                aew_owner.update((slot, job) for job, w in enumerate(windows) for slot in w)

        # the victim's trace columns, formatted again only after an event
        # that can change them: the epoch start (alarmed resets), its plant
        # step, its job completion, a tamper. Not by comparing values:
        # -0.0 == 0.0, and nan never equals itself.
        victim = self.loops.get(self.scenario.victim_id) if self.scenario is not None else None
        victim_text, stale = "", victim is not None
        hit_jobs: set[int] = set()
        for t_slot in range(l):
            running = sched.slots[t_slot]
            # period boundaries: actuate every plant whose sampling instant
            # starts at this slot (skip the synchronous release at t=0 of
            # the very first epoch: no input computed yet)
            for sim, p in sims:
                if t_slot % p == 0 and self.time_slots > 0:
                    sim.advance_plant(self.time_slots * delta)
                    stale = stale or sim is victim
                    if sim.norm > self.divergence_bound:
                        self.diverged = True
            if self.diverged:
                break
            if running in self.loops and t_slot in completions:
                done = self.loops[running]
                done.job_complete()
                stale = stale or done is victim
            if (
                attack_on
                and self.scenario is not None
                and running == self.scenario.compromised_task_id
                and t_slot in aew_owner
            ):
                if victim is not None:
                    victim.tamper(self.scenario.injection, self.scenario.value)
                    stale = True
                hit_jobs.add(aew_owner[t_slot])
            if stale:
                victim_text = victim_columns(
                    victim.norm, float(victim.buffer[0]), victim.detector.g, victim.alarmed
                )
                stale = False
            self.trace.append(trace_line(self.time_slots * delta, running, victim_text))
            self.time_slots += 1

        if self.scenario is not None:
            self.victim_jobs += l // sched.spec.period_of(self.scenario.victim_id)
            self.victim_hits += len(hit_jobs)
        self.epoch += 1
        return resolve_flag(ts, [tid for tid, sim in self.loops.items() if sim.alarmed])


def victim_columns(norm: float, u: float, g: float, alarmed: bool) -> str:
    """The victim's four trace columns, as ``csv.writer`` writes them after
    the first two (floats by ``repr``)."""
    return f",{norm!r},{u!r},{g!r},{int(alarmed)}"


def trace_line(time_s: float, running: int, victim_text: str = "") -> str:
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
    noise_scale: float = 1.0,
    settle_band: float = 0.1,
    divergence_bound: float = DIVERGENCE_BOUND,
) -> tuple[dict, CoSimWorld]:
    """Drive ``epochs`` hyper-periods of the task set of ``selector.store``,
    deploying each epoch the schedule the selector draws from its store
    (``runtime.run_epoch``). Deterministic for a fixed seed.

    Returns the run's metrics, in their ``metrics.json`` order, and the
    world; the settling time, decay rate and AP are the victim's.
    """
    world = CoSimWorld(
        selector.store.taskset, plants, scenario, seed,
        noise_scale=noise_scale, divergence_bound=divergence_bound,
    )
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


def save_trace_csv(world: CoSimWorld, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time_s,running_task,victim_norm,victim_u,g,alarm\r\n")
        fh.writelines(world.trace)
