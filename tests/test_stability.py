"""Switched-stability certification: CQLF search, verification, pruning."""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.control import design_loop
from maars.stability import (
    _unstable_product_witness,
    decay_alpha,
    find_cqlf,
    prune_performance,
    verify_certificate,
)
from maars.taskmodel import ConfigError


def reference_witness(matrices, max_len=4):
    """The unstable-product search one product at a time: the first product,
    in ``itertools.product`` order, with spectral radius above 1 + 1e-12."""
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(len(matrices)), repeat=length):
            prod = np.eye(matrices[0].shape[0])
            for i in combo:
                prod = matrices[i] @ prod
            rho = float(np.max(np.abs(np.linalg.eigvals(prod))))
            if rho > 1.0 + 1e-12:
                return f"switching product {combo} has spectral radius {rho:.6f}"
    return None


def rotation_pair(scale=0.9):
    th1, th2 = 0.3, 1.1
    mats = []
    for th in (th1, th2):
        c, s = math.cos(th), math.sin(th)
        mats.append(scale * np.array([[c, -s], [s, c]]))
    return tuple(mats)


class TestDecayAlpha:
    def test_value(self):
        assert decay_alpha(-0.5, 1.0) == pytest.approx(math.exp(-1.0) - 1.0)

    def test_faster_sampling_decays_less_per_step(self):
        assert decay_alpha(-0.5, 0.01) > decay_alpha(-0.5, 0.02)

    def test_rejects_nonnegative_gamma(self):
        with pytest.raises(ValueError):
            decay_alpha(0.0, 1.0)


def no_cqlf_reason(caplog) -> str:
    """The one DEBUG reason ``find_cqlf`` logged for returning None."""
    reasons = [r.getMessage() for r in caplog.records if r.name == "maars.stability"]
    assert len(reasons) == 1 and reasons[0].startswith("no CQLF: ")
    return reasons[0]


class TestProblemValidation:
    def test_alpha_range(self):
        """A per-step decay factor that rounds to 0 (gamma -1000) or to 1
        (gamma -5e-324) at the 35 ms period leaves alpha outside (-1, 0)."""
        for gamma in (-1000.0, -5e-324):
            with pytest.raises(ConfigError, match=f"gamma {gamma} at period 0.035 s"):
                decay_alpha(gamma, 0.035)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            find_cqlf((np.eye(2), np.eye(3)), (-0.1, -0.1))


class TestFindCqlf:
    def test_commuting_pair_certified(self):
        """Scaled rotations commute and share V(x) = |x|^2."""
        mats, alphas = rotation_pair(0.9), (-0.1, -0.1)
        P = find_cqlf(mats, alphas)
        assert P is not None
        min_eig, residual = verify_certificate(mats, alphas, P)
        assert min_eig > 1e-8
        assert residual <= 1e-8

    def test_bundled_plants_certified(self, plants, lu_ts):
        for t in lu_ts.trusted:
            plant = plants[t.plant]
            mats = tuple(
                design_loop(plant, p, lu_ts.delta).closed_loop for p in t.period_menu
            )
            alphas = tuple(decay_alpha(-0.5, p * lu_ts.delta) for p in t.period_menu)
            P = find_cqlf(mats, alphas)
            assert P is not None, t.plant
            min_eig, residual = verify_certificate(mats, alphas, P)
            assert min_eig > 0 and residual <= 1e-8

    def test_unstable_subsystem_certified_infeasible(self, caplog):
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf((np.eye(2) * 0.5, np.eye(2) * 1.2), (-0.1, -0.1)) is None
        reason = no_cqlf_reason(caplog)
        assert "subsystem 1 is not Schur stable" in reason and "exhausted" not in reason

    def test_stable_pair_unstable_product_certified_infeasible(self, caplog):
        # Both nilpotent (spectral radius 0) but A1 @ A2 has spectral radius 4.
        a1 = np.array([[0.0, 2.0], [0.0, 0.0]])
        a2 = np.array([[0.0, 0.0], [2.0, 0.0]])
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf((a1, a2), (-0.1, -0.1), max_sweeps=300) is None
        reason = no_cqlf_reason(caplog)
        assert "switching product" in reason and "exhausted" not in reason

    def test_unstable_at_required_decay_certified_infeasible(self, caplog):
        """Schur stable, but 0.9 / sqrt(1 - 0.5) > 1: no P decays at alpha."""
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf((np.eye(2) * 0.5, np.eye(2) * 0.9), (-0.5, -0.5)) is None
        reason = no_cqlf_reason(caplog)
        assert "subsystem 1 is not Schur stable at the required decay" in reason
        assert "exhausted" not in reason

    def test_unstable_product_at_required_decay_certified_infeasible(self, caplog):
        """Every product of the nilpotent pair has spectral radius <= 0.81,
        but scaled by 1 / sqrt(1 - 0.5), A1 @ A2 has 1.62."""
        a1 = np.array([[0.0, 0.9], [0.0, 0.0]])
        a2 = np.array([[0.0, 0.0], [0.9, 0.0]])
        assert _unstable_product_witness((a1, a2)) is None
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf((a1, a2), (-0.5, -0.5), max_sweeps=300) is None
        reason = no_cqlf_reason(caplog)
        assert "switching product (0, 1) has spectral radius 1.620000 at the required decay" \
            in reason
        assert "exhausted" not in reason

    def test_exhausted_sweeps_are_not_a_witness(self, caplog):
        """A pair with a certificate, given no sweep to find it, returns None
        and says the budget ran out, not that no certificate exists."""
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf(rotation_pair(0.9), (-0.1, -0.1), max_sweeps=0) is None
        reason = no_cqlf_reason(caplog)
        assert "0 sweeps exhausted" in reason
        assert "Schur" not in reason and "product" not in reason

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_batched_witness_matches_per_product_search(self, seed, n, dim):
        """One eigenvalue call per product length finds the witness, and
        prints its spectral radius, as one call per product does."""
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n):
            a = rng.standard_normal((dim, dim))
            # spectral radii around 1, so witnesses of every length occur
            mats.append(a * rng.uniform(0.6, 1.1) / max(np.abs(np.linalg.eigvals(a))))
        assert _unstable_product_witness(mats) == reference_witness(mats)

    def test_batched_witness_on_bundled_menus(self, plants, lu_ts, hu_ts):
        for ts in (lu_ts, hu_ts):
            for t in ts.trusted:
                mats = [
                    design_loop(plants[t.plant], p, ts.delta).closed_loop
                    for p in t.period_menu
                ]
                assert _unstable_product_witness(mats) == reference_witness(mats)
        nilpotent = [np.array([[0.0, 2.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [2.0, 0.0]])]
        assert _unstable_product_witness(nilpotent) == reference_witness(nilpotent)
        assert _unstable_product_witness(nilpotent) is not None

    def test_lyapunov_decrease_along_random_switching(self):
        mats, alphas = rotation_pair(0.85), (-0.05, -0.05)
        P = find_cqlf(mats, alphas)
        assert P is not None
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=2)
            j = rng.integers(0, 2)
            a = alphas[j]
            v_before = x @ P @ x
            x_next = mats[j] @ x
            v_after = x_next @ P @ x_next
            # slack: the LMI residual tolerance scaled by |x|^2
            assert v_after <= (1.0 + a) * v_before + 1e-6 * float(x @ x)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_certificate_invariant_under_similarity(self, seed):
        """T^-1 A T admits the transformed certificate T' P T."""
        mats, alphas = rotation_pair(0.9), (-0.1, -0.1)
        P = find_cqlf(mats, alphas)
        assert P is not None
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(2, 2))
        while abs(np.linalg.det(T)) < 0.3:
            T = rng.normal(size=(2, 2))
        Tinv = np.linalg.inv(T)
        transformed = [Tinv @ A @ T for A in mats]
        P_t = T.T @ P @ T
        min_eig, residual = verify_certificate(transformed, alphas, P_t)
        assert min_eig > 0
        assert residual <= 1e-6 * max(1.0, float(np.linalg.norm(P_t)))


# each loop is stable, but 2 and 3 switched together are the nilpotent pair
# whose product has spectral radius 4
GREEDY_MENU = {
    1: 0.5 * np.eye(2),
    2: np.array([[0.0, 2.0], [0.0, 0.0]]),
    3: np.array([[0.0, 0.0], [2.0, 0.0]]),
}


class TestPrunePerformance:
    def test_keeps_full_stable_menu(self, plants, lu_ts):
        t = lu_ts.trusted[0]
        plant = plants[t.plant]
        kept = prune_performance(
            build_matrix=lambda p: design_loop(plant, p, lu_ts.delta).closed_loop,
            candidate_periods=list(t.period_menu),
            alpha_of=lambda p: decay_alpha(-0.5, p * lu_ts.delta),
        )
        assert kept == sorted(t.period_menu)

    def test_drops_unstable_period(self):
        def build(p):
            return np.eye(2) * (0.5 if p == 1 else 1.5)

        kept = prune_performance(
            build_matrix=build,
            candidate_periods=[1, 2],
            alpha_of=lambda p: -0.1,
        )
        assert kept == [1]

    def test_greedy_drop_breaks_unstable_product(self, caplog):
        # each loop is stable, but 2 and 3 switched together have the
        # product witness of the certified-infeasible pair above; one of
        # them is dropped and the rest is certified
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        assert find_cqlf(list(GREEDY_MENU.values()), (-0.1,) * 3, max_sweeps=300) is None
        assert "switching product" in no_cqlf_reason(caplog)
        kept = prune_performance(
            build_matrix=GREEDY_MENU.__getitem__,
            candidate_periods=[1, 2, 3],
            alpha_of=lambda p: -0.1,
        )
        assert kept == [1, 3]

    def test_greedy_drop_is_logged(self, caplog):
        """``maars -v`` shows which period a menu lost and the residual that
        chose it."""
        caplog.set_level(logging.DEBUG, logger="maars.stability")
        prune_performance(
            build_matrix=GREEDY_MENU.__getitem__,
            candidate_periods=[1, 2, 3],
            alpha_of=lambda p: -0.1,
        )
        drops = [r.getMessage() for r in caplog.records if "dropping" in r.getMessage()]
        assert drops == ["dropping period 2 from [1, 2, 3]: the rest is certified"]

    def test_unstable_base_infeasible(self):
        kept = prune_performance(
            build_matrix=lambda p: np.eye(2) * 1.5,
            candidate_periods=[1, 2],
            alpha_of=lambda p: -0.1,
        )
        assert kept == []
