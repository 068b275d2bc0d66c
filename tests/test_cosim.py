"""Closed-loop co-simulation: nominal convergence, tampering, policies."""

from fractions import Fraction

import numpy as np
import pytest

from maars.cosim import (
    AttackScenario,
    _fit_metrics,
    run_scenario,
    save_trace_csv,
)
from maars.runtime import make_selector
from maars.schedgen import simulate_fixed_priority
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
    def test_no_attack_no_noise_converges(self, lu_ts, plants):
        metrics, world = run_scenario(
            lu_ts, plants, scenario=None, policy="static", seed=0, epochs=50,
            noise_scale=0.0,
        )
        assert not metrics.diverged
        for sim in world.loops.values():
            # regulation: every state decays from its unit-vector start
            assert np.linalg.norm(sim.x) < 0.1

    def test_deterministic_per_seed(self, lu_ts, plants):
        sc = AttackScenario(5, 2, injection="bias", value=5.0)
        runs = []
        for _ in range(2):
            m, w = run_scenario(
                lu_ts, plants, sc, policy="static", seed=9, epochs=4
            )
            runs.append((m.victim_hits, tuple(w.loops[2].norm_trace)))
        assert runs[0] == runs[1]


class TestTampering:
    def test_hits_match_vulnerability_count(self, lu_ts, plants):
        """Every AEW hit of the compromised task lands exactly once per job."""
        from maars.vulnerability import attack_count

        sc = AttackScenario(5, 2, injection="bias", value=1.0)
        sched = simulate_fixed_priority(lu_ts, lu_ts.min_period_spec())
        metrics, _ = run_scenario(
            lu_ts, plants, sc, policy="static", seed=0, epochs=3, noise_scale=0.0
        )
        per_epoch = attack_count(sched, lu_ts.task(2), {5})
        assert metrics.victim_hits == 3 * per_epoch
        assert metrics.victim_jobs == 3 * (sched.length // 10)
        assert metrics.attack_success_rate == Fraction(3 * per_epoch, metrics.victim_jobs)

    def test_attack_raises_detector_statistic(self, lu_ts, plants):
        sc = AttackScenario(5, 2, injection="bias", value=50.0)
        metrics, _ = run_scenario(
            lu_ts, plants, sc, policy="static", seed=1, epochs=6
        )
        assert metrics.alarm_epochs  # persistent tampering must trip the alarm

    def test_unknown_injection_rejected(self, lu_ts, plants):
        sc = AttackScenario(5, 2, injection="melt", value=1.0)
        with pytest.raises(ValueError):
            run_scenario(lu_ts, plants, sc, policy="static", seed=0, epochs=2)


class TestPolicies:
    def test_maars_requires_store(self, lu_ts, plants):
        with pytest.raises(ValueError):
            run_scenario(lu_ts, plants, None, policy="maars", seed=0, epochs=1)

    def test_unknown_policy(self, lu_ts, plants):
        with pytest.raises(ValueError):
            run_scenario(lu_ts, plants, None, policy="edf", seed=0, epochs=1)

    def test_maars_deploys_from_store(self, lu_ts, plants, lu_bits):
        sc = AttackScenario(5, 2, injection="bias", value=20.0)
        selector = make_selector(lu_bits, seed=5)
        metrics, _ = run_scenario(
            lu_ts, plants, sc, policy="maars", seed=5, epochs=8,
            store=lu_bits, selector=selector,
        )
        assert len(selector.deployments) == 8
        assert not metrics.diverged
        assert len(metrics.deployed_ap) == 8

    def test_divergence_stops_run(self, lu_ts, plants):
        sc = AttackScenario(5, 2, injection="bias", value=200.0)
        metrics, world = run_scenario(
            lu_ts, plants, sc, policy="static", seed=2, epochs=50,
            divergence_bound=50.0,
        )
        assert metrics.diverged
        assert world.epoch < 50  # stopped early


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
    def test_trace_csv(self, tmp_path, lu_ts, plants):
        sc = AttackScenario(5, 2, injection="bias", value=5.0)
        _, world = run_scenario(
            lu_ts, plants, sc, policy="static", seed=0, epochs=2, trace=True
        )
        path = tmp_path / "trace.csv"
        save_trace_csv(world, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,running_task")
        assert len(lines) == 1 + 2 * 60  # two hyper-periods of 60 slots
