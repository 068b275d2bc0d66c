"""Switched-stability certification: CQLF search, verification, pruning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.control import design_loop
from maars.stability import (
    CqlfCertificate,
    CqlfProblem,
    Infeasible,
    _unstable_product_witness,
    decay_alpha,
    find_cqlf,
    prune_performance,
    verify_certificate,
)


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


class TestProblemValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            CqlfProblem(matrices=(np.eye(2) * 0.5,), alphas=(0.1,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CqlfProblem(matrices=(np.eye(2), np.eye(3)), alphas=(-0.1, -0.1))


class TestFindCqlf:
    def test_commuting_pair_certified(self):
        """Scaled rotations commute and share V(x) = |x|^2."""
        problem = CqlfProblem(matrices=rotation_pair(0.9), alphas=(-0.1, -0.1))
        result = find_cqlf(problem)
        assert isinstance(result, CqlfCertificate)
        min_eig, residual = verify_certificate(problem, result.P)
        assert min_eig > 1e-8
        assert residual <= 1e-8

    def test_bundled_plants_certified(self, plants, lu_ts):
        for t in lu_ts.trusted:
            plant = plants[t.plant]
            mats = tuple(
                design_loop(plant, p, lu_ts.delta).closed_loop for p in t.period_menu
            )
            alphas = tuple(decay_alpha(-0.5, p * lu_ts.delta) for p in t.period_menu)
            result = find_cqlf(CqlfProblem(matrices=mats, alphas=alphas))
            assert isinstance(result, CqlfCertificate), t.plant
            min_eig, residual = verify_certificate(
                CqlfProblem(matrices=mats, alphas=alphas), result.P
            )
            assert min_eig > 0 and residual <= 1e-8

    def test_unstable_subsystem_certified_infeasible(self):
        problem = CqlfProblem(
            matrices=(np.eye(2) * 0.5, np.eye(2) * 1.2), alphas=(-0.1, -0.1)
        )
        result = find_cqlf(problem)
        assert isinstance(result, Infeasible)
        assert result.certified
        assert "Schur" in result.reason

    def test_stable_pair_unstable_product_certified_infeasible(self):
        # Both nilpotent (spectral radius 0) but A1 @ A2 has spectral radius 4.
        a1 = np.array([[0.0, 2.0], [0.0, 0.0]])
        a2 = np.array([[0.0, 0.0], [2.0, 0.0]])
        problem = CqlfProblem(matrices=(a1, a2), alphas=(-0.1, -0.1))
        result = find_cqlf(problem, max_sweeps=300)
        assert isinstance(result, Infeasible)
        assert result.certified
        assert "product" in result.reason

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
        problem = CqlfProblem(matrices=rotation_pair(0.85), alphas=(-0.05, -0.05))
        cert = find_cqlf(problem)
        assert isinstance(cert, CqlfCertificate)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=2)
            j = rng.integers(0, 2)
            a = problem.alphas[j]
            v_before = x @ cert.P @ x
            x_next = problem.matrices[j] @ x
            v_after = x_next @ cert.P @ x_next
            # slack: the LMI residual tolerance scaled by |x|^2
            assert v_after <= (1.0 + a) * v_before + 1e-6 * float(x @ x)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_certificate_invariant_under_similarity(self, seed):
        """T^-1 A T admits the transformed certificate T' P T."""
        problem = CqlfProblem(matrices=rotation_pair(0.9), alphas=(-0.1, -0.1))
        cert = find_cqlf(problem)
        assert isinstance(cert, CqlfCertificate)
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(2, 2))
        while abs(np.linalg.det(T)) < 0.3:
            T = rng.normal(size=(2, 2))
        Tinv = np.linalg.inv(T)
        transformed = CqlfProblem(
            matrices=tuple(Tinv @ A @ T for A in problem.matrices),
            alphas=problem.alphas,
        )
        P_t = T.T @ cert.P @ T
        min_eig, residual = verify_certificate(transformed, P_t)
        assert min_eig > 0
        assert residual <= 1e-6 * max(1.0, float(np.linalg.norm(P_t)))


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

    def test_greedy_drop_breaks_unstable_product(self):
        # each loop is stable, but 2 and 3 switched together have the
        # product witness of the certified-infeasible pair above; one of
        # them is dropped and the rest is certified
        mats = {
            1: 0.5 * np.eye(2),
            2: np.array([[0.0, 2.0], [0.0, 0.0]]),
            3: np.array([[0.0, 0.0], [2.0, 0.0]]),
        }
        full = find_cqlf(
            CqlfProblem(matrices=tuple(mats.values()), alphas=(-0.1,) * 3), max_sweeps=300
        )
        assert isinstance(full, Infeasible) and "product" in full.reason
        kept = prune_performance(
            build_matrix=mats.__getitem__,
            candidate_periods=[1, 2, 3],
            alpha_of=lambda p: -0.1,
        )
        assert kept == [1, 3]

    def test_unstable_base_infeasible(self):
        kept = prune_performance(
            build_matrix=lambda p: np.eye(2) * 1.5,
            candidate_periods=[1, 2],
            alpha_of=lambda p: -0.1,
        )
        assert kept == []
