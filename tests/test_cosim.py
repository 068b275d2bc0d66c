"""Closed-loop co-simulation: nominal convergence, tampering, policies."""

import csv
import io
import math
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maars.cosim
from maars.control import noise_factor
from maars.cosim import (
    DIVERGENCE_BOUND,
    AttackScenario,
    ControlLoopSim,
    CoSimWorld,
    _fit_metrics,
    noise_rows,
    run_scenario,
    save_trace_csv,
    trace_line,
    trace_spool,
    victim_columns,
)
from maars.runtime import make_selector, resolve_flag
from maars.schedgen import simulate_fixed_priority
from maars.taskmodel import ConfigError, enumerate_specs
from maars.vulnerability import build_store, stack_exposure

from draws import shuffle_schedule
from oracles import exposure_windows


@pytest.fixture(scope="module")
def lu_bits(lu_ts, plants):
    """Small attack-aware store over the LU minimum-period spec."""
    from maars.schedgen import draw_schedules
    from maars.vulnerability import harden_schedule

    spec = lu_ts.min_period_spec()
    drawn = draw_schedules(lu_ts, [(spec, s) for s in range(12)], attack_aware=True)
    pool = [harden_schedule(s, lu_ts) for s in drawn]
    return build_store(pool, lu_ts)


@pytest.fixture(scope="module")
def long_store(lu_ts):
    """An attack-aware store of three hardened LU schedules that span 2100
    slots, LU's longest hyper-period."""
    from maars.schedgen import draw_schedules
    from maars.taskmodel import TaskSpec
    from maars.vulnerability import harden_schedule

    spec = TaskSpec(periods=(15, 25, 35, 30), untrusted_periods=(10, 30, 20))
    drawn = draw_schedules(lu_ts, [(spec, s) for s in range(3)], attack_aware=True)
    store = build_store([harden_schedule(s, lu_ts) for s in drawn], lu_ts)
    assert {sched.length for sched in store.schedules} == {2100}
    return store


@pytest.fixture(scope="module")
def traced_runs(plants, long_store):
    """Attack runs of N and 4N epochs on ``long_store``, each into a
    temporary file under tracemalloc: (its traced peak, the traced memory it
    holds at its end with its world and selector, the bytes it wrote, its
    victim's plant steps) per run. An untraced run goes first, so that what
    first calls import or cache is held by neither."""
    sc = AttackScenario(5, 2, injection="bias", value=1.0)
    run_scenario(plants, sc, make_selector(long_store, 3), seed=3, epochs=1, sink=io.StringIO())
    runs = []
    for epochs in (5, 20):
        with tempfile.TemporaryFile("w+", newline="") as sink:
            tracemalloc.start()
            try:
                selector = make_selector(long_store, 3)
                _, world = run_scenario(plants, sc, selector, seed=3, epochs=epochs, sink=sink)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            runs.append((peak, held, sink.tell(), len(world.loops[2].norm_trace[0])))
    return runs


def norm_trace(steps):
    """A norm trace, its two arrays, of the (time s, ||x||) of plant steps."""
    return array("d", [t for t, _ in steps]), array("d", [v for _, v in steps])


def decoded_events(world, plan):
    """The events of ``plan`` as (slot, next event slot, advancing loops,
    completing loop or None, hit victim job or None), read through the
    tables of ``world``."""
    advancing = list(world.advancing)
    return [(t, stop, advancing[a], world.loop_at[c], None if job < 0 else job)
            for t, stop, a, c, job in zip(*plan.events)]


@pytest.fixture(scope="module")
def multi_unit(lu_ts):
    """automotive_lu with jobs of three and two units for tasks 1 and 2 and
    an AEW of 0 for task 3, and a cache of its worlds by scenario."""
    changes = {1: {"wcet": 3}, 2: {"wcet": 2}, 3: {"aew": 0}}
    trusted = tuple(replace(t, **changes.get(t.id, {})) for t in lu_ts.trusted)
    return replace(lu_ts, trusted=trusted), {}


class TestScenario:
    def test_activity_window(self):
        sc = AttackScenario(5, 2, start_epoch=3, duration_epochs=2)
        assert [sc.active(e) for e in range(6)] == [False] * 3 + [True, True, False]

    def test_open_ended(self):
        sc = AttackScenario(5, 2)
        assert sc.active(0) and sc.active(10**6)


class TestNominal:
    def test_no_attack_no_noise_converges(self, plants, lu_static_store):
        metrics, world = run_scenario(
            plants, None, make_selector(lu_static_store, 0), seed=0, epochs=50,
            sink=io.StringIO(), noise_scale=0.0,
        )
        assert not metrics["diverged"]
        for sim in world.loops.values():
            # regulation: every state decays from its unit-vector start
            assert np.linalg.norm(sim.x) < 0.1

    def test_deterministic_per_seed(self, plants, lu_static_store):
        sc = AttackScenario(5, 2, injection="bias", value=5.0)
        runs = []
        for _ in range(2):
            m, w = run_scenario(
                plants, sc, make_selector(lu_static_store, 9), seed=9, epochs=4,
                sink=io.StringIO(),
            )
            runs.append((m["victim_hits"], tuple(w.loops[2].norm_trace), w.sink.getvalue()))
        assert runs[0] == runs[1]


class TestTampering:
    def test_hits_match_vulnerability_count(self, lu_ts, plants, lu_static_store):
        """Every AEW hit of the compromised task lands exactly once per job."""
        from maars.vulnerability import attack_count

        sc = AttackScenario(5, 2, injection="bias", value=1.0)
        sched = simulate_fixed_priority(lu_ts, lu_ts.min_period_spec())
        metrics, _ = run_scenario(
            plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=3,
            sink=io.StringIO(), noise_scale=0.0,
        )
        per_epoch = attack_count(sched, lu_ts.task(2), {5})
        assert metrics["victim_hits"] == 3 * per_epoch
        assert metrics["victim_jobs"] == 3 * (sched.length // 10)
        assert metrics["attack_success_rate"] == float(
            Fraction(3 * per_epoch, metrics["victim_jobs"])
        )

    def test_attack_raises_detector_statistic(self, plants, lu_static_store):
        sc = AttackScenario(5, 2, injection="bias", value=50.0)
        metrics, _ = run_scenario(
            plants, sc, make_selector(lu_static_store, 1), seed=1, epochs=6, sink=io.StringIO()
        )
        assert metrics["alarm_epochs"]  # persistent tampering must trip the alarm

    def test_replace_overwrites_every_buffer_entry(self, lu_ts, plants):
        t = lu_ts.trusted[0]
        sim = ControlLoopSim(t, plants[t.plant], lu_ts.delta)
        sim.buffer = np.arange(1.0, sim.buffer.size + 1)
        sim.tamper("replace", 7.5)
        np.testing.assert_array_equal(sim.buffer, np.full(sim.buffer.size, 7.5))

    def test_unknown_injection_rejected(self, plants, lu_static_store):
        with pytest.raises(ConfigError):
            sc = AttackScenario(5, 2, injection="melt", value=1.0)
            run_scenario(plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=2,
                         sink=io.StringIO())


class TestPolicies:
    def test_maars_deploys_from_store(self, plants, lu_bits):
        sc = AttackScenario(5, 2, injection="bias", value=20.0)
        selector = make_selector(lu_bits, seed=5)
        metrics, _ = run_scenario(plants, sc, selector, seed=5, epochs=8, sink=io.StringIO())
        assert len(selector.deployments) == 8
        assert not metrics["diverged"]
        aps = [float(lu_bits.ap_of(e.index, 2)) for e in selector.deployments]
        assert metrics["mean_deployed_ap"] == sum(aps) / 8

    def test_divergence_stops_run(self, plants, lu_static_store):
        sc = AttackScenario(5, 2, injection="bias", value=200.0)
        metrics, world = run_scenario(
            plants, sc, make_selector(lu_static_store, 2), seed=2, epochs=50,
            sink=io.StringIO(), divergence_bound=50.0,
        )
        assert metrics["diverged"]
        assert world.epoch < 50  # stopped early
        # one written line per simulated slot
        assert world.sink.getvalue().count("\r\n") == world.time_slots


class TestMetrics:
    def test_fit_metrics_settling(self):
        trace = norm_trace([(0.0, 5.0), (1.0, 2.0), (2.0, 0.05), (3.0, 0.04)])
        settled, rate = _fit_metrics(trace, settle_band=0.1)
        assert settled == 2.0
        assert rate < 0

    def test_fit_metrics_never_settles(self):
        trace = norm_trace([(0.0, 5.0), (1.0, 5.0)])
        settled, _ = _fit_metrics(trace, settle_band=0.1)
        assert settled is None

    def test_empty_trace(self):
        assert _fit_metrics(norm_trace([]), 0.1) == (None, None)


class TestTrace:
    def test_trace_csv(self, tmp_path, plants, lu_static_store):
        """The run's ``trace_spool``, moved into place, is the header and the
        lines the same run writes to any other sink; no spool is left."""
        sc = AttackScenario(5, 2, injection="bias", value=5.0)
        sink = io.StringIO()
        run_scenario(plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=2, sink=sink)
        path = tmp_path / "out" / "trace.csv"
        with trace_spool(path.parent) as spool:
            _, world = run_scenario(
                plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=2, sink=spool
            )
            path.parent.mkdir()
            save_trace_csv(world, path)
        assert list(tmp_path.iterdir()) == [path.parent]
        assert list(path.parent.iterdir()) == [path]
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,running_task")
        assert len(lines) == 1 + 2 * 60  # two hyper-periods of 60 slots
        header = io.StringIO()
        csv.writer(header).writerow(
            ["time_s", "running_task", "victim_norm", "victim_u", "g", "alarm"]
        )
        assert path.read_bytes().startswith(header.getvalue().encode())
        # the file is the header and every line the run wrote to its sink
        assert path.read_bytes() == (header.getvalue() + sink.getvalue()).encode()

    def test_memory_does_not_grow_with_the_lines(self, traced_runs):
        """A run holds one epoch's lines at a time: running 4N epochs instead
        of N raises its traced peak by less than the extra epochs' lines take
        in the file, let alone as str objects (the victim's norm trace, the
        deployment log and the plans of newly deployed schedules still grow,
        by far less: ``test_records_are_compact``). The schedules span 2100
        slots, LU's longest hyper-period, so that N epochs' lines alone
        outweigh the detector calibration's transient peak."""
        (peak, _, written, _), (peak_4n, _, written_4n, _) = traced_runs
        assert peak_4n - peak < written_4n - written

    def test_records_are_compact(self, lu_ts, plants, long_store, traced_runs):
        """The records that grow with a run are typed arrays. The plan of a
        2100-slot schedule holds under 32 bytes an event (five small
        integers and the noise offsets; as tuples and lists it took 205),
        and 4N epochs instead of N raise the memory a run holds at its end
        by under 24 bytes per extra plant step of the victim (its norm trace
        takes two doubles a step, the deployment log 3 bytes more; as tuples
        of floats it took 73 in all). Not the peak: the detector
        calibration's transient sets it, and without that, which epoch's
        lines take the most room varies by more than the trace adds."""
        world = CoSimWorld(lu_ts, plants, AttackScenario(5, 2), seed=0, sink=io.StringIO())
        world.plan(long_store.schedules[1])  # first calls allocate what they cache
        tracemalloc.start()
        try:
            plan = world.plan(long_store.schedules[0])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 32 * len(plan.events[0])
        (_, held, _, steps), (_, held_4n, _, steps_4n) = traced_runs
        assert held_4n - held < 24 * (steps_4n - steps)


# floats of every kind, with -0.0, nan, +-inf and subnormals always in reach
ANY_FLOAT = st.floats() | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e308]
)


class TestTraceLine:
    """The co-simulation formats each trace row once, when it records it;
    ``csv.writer`` is the reference for the bytes of every line."""

    @given(
        time_s=ANY_FLOAT | st.integers(-(2**100), 2**100),
        running=st.integers(0, 2**70),
        victim=st.none() | st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, st.booleans()),
    )
    @settings(max_examples=300, deadline=None)
    def test_line_matches_csv_writer(self, time_s, running, victim):
        row, text = [time_s, running], ""
        if victim is not None:  # no victim: the two-column row
            norm, u, g, alarmed = victim
            row += [norm, u, g, int(alarmed)]
            text = victim_columns(norm, u, g, alarmed)
        ref = io.StringIO()
        csv.writer(ref).writerow(row)
        assert trace_line(time_s, running, text) == ref.getvalue()


@st.composite
def psd_covariances(draw):
    """G @ G.T for an n x r G: dimension 1-4, rank 0-n (rank-deficient
    and zero included), entries up to 10^-3 .. 10 in size."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    scale = 10.0 ** draw(st.integers(-3, 1))
    g = draw(st.lists(st.floats(-1, 1), min_size=n * r, max_size=n * r))
    g = np.array(g).reshape(n, r) * scale
    return g @ g.T


def reference_noise(rng, cov, scale):
    """One noise draw as NumPy makes it: ``multivariate_normal``, which
    factors ``cov`` again on every draw; no draw at all at scale 0."""
    if scale == 0.0:
        return np.zeros(cov.shape[0])
    return rng.multivariate_normal(np.zeros(cov.shape[0]), cov) * scale


class TestNoise:
    """The co-simulation draws an epoch's noise as one block of standard
    normals, shared out by ``noise_rows`` with a factor cached per
    covariance; sequential ``multivariate_normal`` draws are the reference."""

    @pytest.fixture(scope="class")
    def factors(self, lu_ts, plants):
        """The W and V factors of each bundled plant, as its LU loop holds them."""
        out = {}
        for t in lu_ts.trusted:
            sim = ControlLoopSim(t, plants[t.plant], lu_ts.delta)
            out[t.plant, "W"] = (sim.plant.W, sim.w_factor)
            out[t.plant, "V"] = (sim.plant.V, sim.v_factor)
        return out

    @given(
        sources=st.lists(
            st.sampled_from([(p, x) for p in ("esp", "ttc", "cc", "sc") for x in "WV"])
            | psd_covariances(),
            min_size=1, max_size=2,
        ),
        order=st.lists(st.integers(0, 1), max_size=60),
        seed=st.integers(0, 2**63),
        scale=st.sampled_from([1.0, 0.37, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_draws_match_multivariate_normal(self, factors, sources, order, seed, scale):
        """Draws of one or two covariances (rank-deficient ones included),
        interleaved in ``order``, cut from one block in that order."""
        covs = [factors[s] if isinstance(s, tuple) else (s, noise_factor(s)) for s in sources]
        order = [i % len(covs) for i in order]
        starts, total = [[] for _ in covs], 0
        for i in order:
            starts[i].append(total)
            total += covs[i][0].shape[0]
        rng = np.random.default_rng(seed)
        z = None if scale == 0.0 else rng.standard_normal(total)
        rows = [iter(noise_rows(z, np.array(offsets, dtype=np.intp), factor, scale))
                for offsets, (_, factor) in zip(starts, covs)]
        ref = np.random.default_rng(seed)
        for i in order:
            want = reference_noise(ref, covs[i][0], scale)
            assert next(rows[i]).tobytes() == want.tobytes()
        assert all(next(r, None) is None for r in rows)
        # the block consumed the stream exactly as the sequential draws did
        assert rng.bit_generator.state == ref.bit_generator.state


def reference_hyper_period(world, sched, rng, noise_scale):
    """One hyper-period slot by slot, as the co-simulation is specified:
    every slot checks every period boundary, completion and tamper, and
    each plant step or sample draws its own noise from ``rng``."""
    ts, scenario, delta = world.taskset, world.scenario, world.taskset.delta
    attack_on = scenario is not None and scenario.active(world.epoch)
    sims = []
    for task_id, sim in world.loops.items():
        p = sched.spec.period_of(task_id)
        sim.set_period(p)
        sim.alarmed = False
        sims.append((sim, p))
    completions, aew_owner = set(), {}
    for t in ts.trusted:
        windows = exposure_windows(sched.slots, t, sched.spec.period_of(t.id))
        completions.update(w.start - 1 for w in windows)
        if scenario is not None and t.id == scenario.victim_id:
            aew_owner.update((slot, job) for job, w in enumerate(windows) for slot in w)
    victim = world.loops.get(scenario.victim_id) if scenario is not None else None
    hit_jobs = set()
    for t_slot, running in enumerate(sched.slots):
        for sim, p in sims:
            if t_slot % p == 0 and world.time_slots > 0:
                sim.w_noise = iter([reference_noise(rng, sim.plant.W, noise_scale)])
                sim.advance_plant(world.time_slots * delta)
                if sim.norm > world.divergence_bound:
                    world.diverged = True
        if world.diverged:
            break
        if running in world.loops and t_slot in completions:
            done = world.loops[running]
            done.v_noise = iter([reference_noise(rng, done.plant.V, noise_scale)])
            done.job_complete()
        if attack_on and running == scenario.compromised_task_id and t_slot in aew_owner:
            if victim is not None:
                victim.tamper(scenario.injection, scenario.value)
            hit_jobs.add(aew_owner[t_slot])
        text = "" if victim is None else victim_columns(
            victim.norm, float(victim.buffer[0]), victim.detector.g, victim.alarmed
        )
        world.sink.write(trace_line(world.time_slots * delta, running, text))
        world.time_slots += 1
    if scenario is not None:
        world.victim_jobs += sched.length // sched.spec.period_of(scenario.victim_id)
        world.victim_hits += len(hit_jobs)
    world.epoch += 1
    return resolve_flag(ts, [tid for tid, sim in world.loops.items() if sim.alarmed])


class TestEventPlan:
    """``run_hyper_period`` visits only the event slots of a plan built once
    per deployed schedule, and draws each epoch's noise in one block."""

    @pytest.mark.parametrize("scenario, noise_scale, bound", [
        (None, 1.0, DIVERGENCE_BOUND),
        (AttackScenario(5, 2, injection="bias", value=5.0, start_epoch=2,
                        duration_epochs=3), 0.37, DIVERGENCE_BOUND),
        (AttackScenario(5, 2, injection="replace", value=-3.0), 0.0, DIVERGENCE_BOUND),
        # diverges in the middle of its sixth epoch
        (AttackScenario(6, 2, injection="replace", value=1e4), 1.0, 60.0),
    ], ids=["nominal", "bias-window", "replace-noiseless", "diverges"])
    def test_matches_slot_by_slot_reference(self, lu_ts, plants, lu_bits, scenario,
                                            noise_scale, bound):
        worlds = [CoSimWorld(lu_ts, plants, scenario, seed=4, sink=io.StringIO(),
                             noise_scale=noise_scale, divergence_bound=bound)
                  for _ in range(2)]
        rng = np.random.default_rng(4)
        order = [0, 3, 0, 7, 3, 11, 0, 5]  # repeats reuse a cached plan
        for index in order:
            sched = lu_bits.schedules[index]
            flags = (worlds[0].run_hyper_period(sched),
                     reference_hyper_period(worlds[1], sched, rng, noise_scale))
            assert flags[0] == flags[1]
            if worlds[1].diverged:
                break
        got, want = worlds
        # the streamed text, every epoch's lines in order
        assert got.sink.getvalue() == want.sink.getvalue()
        assert got.sink.getvalue().count("\r\n") == got.time_slots
        assert (got.time_slots, got.epoch, got.diverged) == (want.time_slots, want.epoch,
                                                             want.diverged)
        assert (got.victim_hits, got.victim_jobs) == (want.victim_hits, want.victim_jobs)
        for task_id, sim in got.loops.items():
            other = want.loops[task_id]
            # only the victim's loop keeps a norm trace
            is_victim = scenario is not None and task_id == scenario.victim_id
            assert (sim.norm_trace is not None) == is_victim
            assert sim.norm_trace == other.norm_trace
            assert sim.x.tobytes() == other.x.tobytes()
            assert sim.detector.g == other.detector.g
        if bound < DIVERGENCE_BOUND:
            assert got.diverged and got.time_slots % 60 != 0

    def test_one_plan_per_deployed_schedule(self, plants, lu_bits, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return stack_exposure(*args)

        monkeypatch.setattr(maars.cosim, "stack_exposure", counted)
        sc = AttackScenario(5, 2, injection="bias", value=1.0)
        selector = make_selector(lu_bits, seed=3)
        _, world = run_scenario(plants, sc, selector, seed=3, epochs=40, sink=io.StringIO())
        deployed = {e.index for e in selector.deployments}
        assert len(deployed) < 40  # some schedule was deployed again
        assert len(world.plans) == len(deployed)
        assert len(calls) == len(deployed)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_plan_matches_oracle_on_multi_unit_victims(self, plants, multi_unit, data):
        """On the LU task set with WCETs 3 and 2 for tasks 1 and 2 and task 3's
        AEW at 0, the plan's completion events and its tamper slot -> job
        map are those built from ``oracles.exposure_windows``."""
        ts, worlds = multi_unit
        spec = data.draw(st.sampled_from(enumerate_specs(ts)))
        sched = shuffle_schedule(ts, spec, data.draw(st.integers(0, 2**62)))
        # each victim, each attacker: one world apiece
        scenario = AttackScenario(*data.draw(st.sampled_from([(5, 1), (6, 2), (7, 3)])))
        if scenario not in worlds:
            # a fixed detector threshold: the plan does not read it, and
            # calibrating one per loop and period is most of a world's set-up
            fixed = {name: replace(plant, detector_threshold=1.0)
                     for name, plant in plants.items()}
            worlds[scenario] = CoSimWorld(ts, fixed, scenario, seed=0, sink=io.StringIO())
        world = worlds[scenario]
        completions, owner = {}, {}
        for t in ts.trusted:
            windows = exposure_windows(sched.slots, t, spec.period_of(t.id))
            completions.update((w.start - 1, world.loops[t.id]) for w in windows)
            if t.id == scenario.victim_id:
                owner.update((slot, job) for job, w in enumerate(windows) for slot in w)
        tamper = {slot: job for slot, job in owner.items()
                  if sched.slots[slot] == scenario.compromised_task_id}
        events = decoded_events(world, world.plan(sched))
        assert {t: done for t, _, _, done, _ in events if done is not None} == completions
        assert {t: job for t, _, _, _, job in events if job is not None} == tamper

    def test_noiseless_run_draws_nothing(self, plants, lu_static_store):
        _, world = run_scenario(
            plants, None, make_selector(lu_static_store, 0), seed=6, epochs=3,
            sink=io.StringIO(), noise_scale=0.0,
        )
        assert world.rng.bit_generator.state == np.random.default_rng(6).bit_generator.state
