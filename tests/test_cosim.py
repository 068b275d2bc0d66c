"""Closed-loop co-simulation: nominal convergence, tampering, policies."""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.control import noise_factor
from maars.cosim import (
    AttackScenario,
    ControlLoopSim,
    _fit_metrics,
    run_scenario,
    save_trace_csv,
    trace_line,
    victim_columns,
)
from maars.runtime import make_selector
from maars.schedgen import simulate_fixed_priority
from maars.taskmodel import ConfigError
from maars.vulnerability import build_store


@pytest.fixture(scope="module")
def lu_bits(lu_ts, plants):
    """Small attack-aware store over the LU minimum-period spec."""
    from maars.schedgen import aware_shuffle_schedule
    from maars.vulnerability import harden_schedule

    spec = lu_ts.min_period_spec()
    pool = [
        harden_schedule(aware_shuffle_schedule(lu_ts, spec, s), lu_ts)
        for s in range(12)
    ]
    return build_store(pool, lu_ts)


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
            noise_scale=0.0,
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
                plants, sc, make_selector(lu_static_store, 9), seed=9, epochs=4
            )
            runs.append((m["victim_hits"], tuple(w.loops[2].norm_trace)))
        assert runs[0] == runs[1]


class TestTampering:
    def test_hits_match_vulnerability_count(self, lu_ts, plants, lu_static_store):
        """Every AEW hit of the compromised task lands exactly once per job."""
        from maars.vulnerability import attack_count

        sc = AttackScenario(5, 2, injection="bias", value=1.0)
        sched = simulate_fixed_priority(lu_ts, lu_ts.min_period_spec())
        metrics, _ = run_scenario(
            plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=3,
            noise_scale=0.0,
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
            plants, sc, make_selector(lu_static_store, 1), seed=1, epochs=6
        )
        assert metrics["alarm_epochs"]  # persistent tampering must trip the alarm

    def test_replace_overwrites_every_buffer_entry(self, lu_ts, plants):
        t = lu_ts.trusted[0]
        sim = ControlLoopSim(t, plants[t.plant], lu_ts.delta, np.random.default_rng(0))
        sim.buffer = np.arange(1.0, sim.buffer.size + 1)
        sim.tamper("replace", 7.5)
        np.testing.assert_array_equal(sim.buffer, np.full(sim.buffer.size, 7.5))

    def test_unknown_injection_rejected(self, plants, lu_static_store):
        with pytest.raises(ConfigError):
            sc = AttackScenario(5, 2, injection="melt", value=1.0)
            run_scenario(plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=2)


class TestPolicies:
    def test_maars_deploys_from_store(self, plants, lu_bits):
        sc = AttackScenario(5, 2, injection="bias", value=20.0)
        selector = make_selector(lu_bits, seed=5)
        metrics, _ = run_scenario(plants, sc, selector, seed=5, epochs=8)
        assert len(selector.deployments) == 8
        assert not metrics["diverged"]
        aps = [float(lu_bits.ap_of(e.index, 2)) for e in selector.deployments]
        assert metrics["mean_deployed_ap"] == sum(aps) / 8

    def test_divergence_stops_run(self, plants, lu_static_store):
        sc = AttackScenario(5, 2, injection="bias", value=200.0)
        metrics, world = run_scenario(
            plants, sc, make_selector(lu_static_store, 2), seed=2, epochs=50,
            divergence_bound=50.0,
        )
        assert metrics["diverged"]
        assert world.epoch < 50  # stopped early
        assert len(world.trace) == world.time_slots  # one line per simulated slot


class TestMetrics:
    def test_fit_metrics_settling(self):
        trace = [(0.0, 5.0), (1.0, 2.0), (2.0, 0.05), (3.0, 0.04)]
        settled, rate = _fit_metrics(trace, settle_band=0.1)
        assert settled == 2.0
        assert rate < 0

    def test_fit_metrics_never_settles(self):
        trace = [(0.0, 5.0), (1.0, 5.0)]
        settled, _ = _fit_metrics(trace, settle_band=0.1)
        assert settled is None

    def test_empty_trace(self):
        assert _fit_metrics([], 0.1) == (None, None)


class TestTrace:
    def test_trace_csv(self, tmp_path, plants, lu_static_store):
        sc = AttackScenario(5, 2, injection="bias", value=5.0)
        _, world = run_scenario(
            plants, sc, make_selector(lu_static_store, 0), seed=0, epochs=2
        )
        path = tmp_path / "trace.csv"
        save_trace_csv(world, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,running_task")
        assert len(lines) == 1 + 2 * 60  # two hyper-periods of 60 slots
        header = io.StringIO()
        csv.writer(header).writerow(
            ["time_s", "running_task", "victim_norm", "victim_u", "g", "alarm"]
        )
        assert path.read_bytes().startswith(header.getvalue().encode())


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


class TestNoise:
    """The co-simulation draws its noise from a factor cached per
    covariance; NumPy's ``multivariate_normal``, which factors the
    covariance again on every draw, is the reference."""

    @staticmethod
    def reference_noise(rng, cov, scale):
        if scale == 0.0:
            return np.zeros(cov.shape[0])
        return rng.multivariate_normal(np.zeros(cov.shape[0]), cov) * scale

    @pytest.fixture(scope="class")
    def sims(self, lu_ts, plants):
        """One loop per bundled plant (the LU task that drives it)."""
        rng = np.random.default_rng(0)
        return {t.plant: ControlLoopSim(t, plants[t.plant], lu_ts.delta, rng)
                for t in lu_ts.trusted}

    @given(
        source=st.sampled_from([(p, x) for p in ("esp", "ttc", "cc", "sc") for x in "WV"])
        | psd_covariances(),
        seed=st.integers(0, 2**63),
        scale=st.sampled_from([1.0, 0.37, 0.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_draws_match_multivariate_normal(self, sims, source, seed, scale):
        if isinstance(source, tuple):  # a bundled plant's W or V, as its loop holds it
            name, x = source
            sim = sims[name]
            cov, factor = getattr(sim.plant, x), {"W": sim.w_factor, "V": sim.v_factor}[x]
        else:
            sim, cov, factor = sims["esp"], source, noise_factor(source)
        sim.rng, sim.noise_scale = np.random.default_rng(seed), scale
        ref = np.random.default_rng(seed)
        for _ in range(200):
            assert sim._noise(factor).tobytes() == self.reference_noise(ref, cov, scale).tobytes()
