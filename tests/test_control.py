"""Control synthesis: ZOH discretization, DARE, gains, detector calibration,
and the per-step products against their ``@`` forms."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars import control
from maars.control import (
    Detector,
    PlantModel,
    _dare,
    augment,
    calibrate_threshold,
    design_loop,
    discretize,
    kalman_gain,
    lqr_gain,
)
from maars.cosim import ControlLoopSim
from maars.taskmodel import Infeasible
from oracles import (
    dare_residual,
    matmul_advance_plant,
    matmul_dare,
    matmul_detector_step,
    matmul_job_complete,
    measure_far,
)


def double_integrator():
    return PlantModel(
        name="di",
        A=[[0.0, 1.0], [0.0, 0.0]],
        B=[[0.0], [1.0]],
        C=[[1.0, 0.0]],
        W=np.eye(2) * 1e-6,
        V=[[1e-4]],
        Q=np.diag([10.0, 1.0]),
        R=[[1.0]],
    )


class TestDiscretize:
    def test_double_integrator_closed_form(self):
        # ZOH of the double integrator: A_h = [[1,h],[0,1]], B_h = [h^2/2, h]
        plant = double_integrator()
        h = 0.3
        A_h, B_h = discretize(plant, h)
        np.testing.assert_allclose(A_h, [[1.0, h], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(B_h, [[h * h / 2], [h]], atol=1e-12)

    def test_semigroup_property(self, plants):
        """Discretizing over h1+h2 equals composing the h1 and h2 steps."""
        for plant in plants.values():
            h1, h2 = 0.011, 0.019
            A1, B1 = discretize(plant, h1)
            A2, B2 = discretize(plant, h2)
            A12, B12 = discretize(plant, h1 + h2)
            np.testing.assert_allclose(A12, A2 @ A1, atol=1e-7)
            np.testing.assert_allclose(B12, A2 @ B1 + B2, atol=1e-7)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            discretize(double_integrator(), 0.0)

    @given(h=st.floats(min_value=1e-3, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_semigroup_random_splits(self, h):
        plant = double_integrator()
        A1, B1 = discretize(plant, h)
        A2, B2 = discretize(plant, h / 2)
        np.testing.assert_allclose(A1, A2 @ A2, atol=1e-7)
        np.testing.assert_allclose(B1, A2 @ B2 + B2, atol=1e-7)


class TestDare:
    def test_residual_below_tolerance(self, plants):
        for plant in plants.values():
            A_h, B_h = discretize(plant, 0.01)
            P = _dare(A_h, B_h, plant.Q, plant.R)
            assert dare_residual(A_h, B_h, plant.Q, plant.R, P) <= 1e-8

    def test_scalar_closed_form(self):
        # x+ = a x + u, Q = q, R = r: P solves P = q + a^2 P - a^2 P^2/(r+P)
        a, q, r = 0.9, 1.0, 1.0
        P = _dare(np.array([[a]]), np.array([[1.0]]), np.array([[q]]), np.array([[r]]))
        p = float(P[0, 0])
        assert abs(p - (q + a * a * p - a * a * p * p / (r + p))) < 1e-9

    def test_divergence_rejected(self):
        # Uncontrollable unstable mode: B = 0 on the unstable direction
        A = np.array([[2.0, 0.0], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(Infeasible, match="Riccati iteration diverged"):
            _dare(A, B, np.eye(2), np.array([[1.0]]))


class TestGains:
    def test_lqr_stabilizes(self, plants):
        for plant in plants.values():
            A_h, B_h = discretize(plant, 0.01)
            K = lqr_gain(plant, A_h, B_h)
            rho = np.max(np.abs(np.linalg.eigvals(A_h - B_h @ K)))
            assert rho < 1.0

    def test_kalman_stabilizes_estimator(self, plants):
        for plant in plants.values():
            A_h, _ = discretize(plant, 0.01)
            L, innovation, _ = kalman_gain(plant, A_h)
            rho = np.max(np.abs(np.linalg.eigvals(A_h - L @ plant.C)))
            assert rho < 1.0
            assert np.all(np.linalg.eigvalsh(innovation) > 0)

    def test_loop_record_holds_estimator_and_inverse(self, plants, lu_ts, hu_ts):
        """For every bundled plant and menu period, the loop record's
        estimator and inverse innovation covariance are, bit for bit,
        A - L C and the inverse of its innovation covariance."""
        for ts in (lu_ts, hu_ts):
            for t in ts.trusted:
                plant = plants[t.plant]
                for p in t.period_menu:
                    loop = design_loop(plant, p, ts.delta)
                    assert np.array_equal(loop.estimator, loop.A - loop.L @ plant.C)
                    assert np.array_equal(
                        loop.innovation_inv, np.linalg.inv(loop.innovation_cov)
                    )

    def test_zero_input_rejected(self):
        plant = double_integrator()
        with pytest.raises(Infeasible, match="input matrix is zero"):
            lqr_gain(plant, np.eye(2), np.zeros((2, 1)))

    def test_augmented_loop_stable(self, plants, lu_ts):
        for t in lu_ts.trusted:
            plant = plants[t.plant]
            for p in t.period_menu:
                loop = design_loop(plant, p, lu_ts.delta)
                assert loop.closed_loop.shape == (2 * plant.n_states,) * 2
                assert np.max(np.abs(np.linalg.eigvals(loop.closed_loop))) < 1.0

    def test_augment_block_structure(self):
        A = np.array([[0.5]])
        B = np.array([[1.0]])
        K = np.array([[0.2]])
        L = np.array([[0.3]])
        C = np.array([[1.0]])
        M = augment(A, B, K, L, C)
        np.testing.assert_allclose(M, [[0.5, -0.2], [0.3, 0.0]])


def loop_of(sigma: np.ndarray) -> SimpleNamespace:
    """The two fields of a loop record that detector calibration reads."""
    return SimpleNamespace(innovation_cov=sigma, innovation_inv=np.linalg.inv(sigma))


class TestDetector:
    def test_strict_threshold(self):
        det = Detector(window=1, threshold=4.0)
        g, alarm = det.step(np.array([2.0]), np.array([[1.0]]))
        assert g == 4.0 and not alarm  # strictly-greater comparison
        g, alarm = det.step(np.array([2.1]), np.array([[1.0]]))
        assert alarm

    def test_windowed_mean(self):
        det = Detector(window=2, threshold=100.0)
        det.step(np.array([2.0]), np.array([[1.0]]))
        g, _ = det.step(np.array([4.0]), np.array([[1.0]]))
        assert g == pytest.approx((4.0 + 16.0) / 2)

    def test_calibration_hits_far_target(self):
        sigma = np.array([[2.0]])
        th = calibrate_threshold(loop_of(sigma), window=1, far_target=0.02)
        far = measure_far(sigma, window=1, threshold=th)
        assert abs(far - 0.02) <= 0.005

    @pytest.mark.parametrize("window", [2, 4])
    def test_windowed_calibration_hits_far_target(self, window):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        th = calibrate_threshold(loop_of(sigma), window=window, far_target=0.02)
        far = measure_far(sigma, window=window, threshold=th)
        assert abs(far - 0.02) <= 0.005

    def test_singular_covariance_rejected(self):
        """A residue covariance singular to working precision (no measurement,
        near-zero measurement noise) rejects the period where it is built."""
        plant = PlantModel(
            name="blind", A=[[-1.0]], B=[[1.0]], C=[[0.0]],
            W=[[1e-4]], V=[[1e-301]], Q=[[1.0]], R=[[1.0]],
        )
        with pytest.raises(Infeasible, match="period 3: singular residue covariance"):
            design_loop(plant, 3, 0.1)


class TestPlantIO:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            PlantModel(
                name="bad", A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)),
                W=np.eye(2), V=[[1.0]], Q=np.eye(2), R=[[1.0]],
            )

    def test_r_must_be_pd(self):
        with pytest.raises(ValueError):
            PlantModel(
                name="bad", A=np.eye(1), B=np.eye(1), C=np.eye(1),
                W=np.eye(1), V=[[1.0]], Q=np.eye(1), R=[[0.0]],
            )

    @pytest.mark.parametrize("W, V", [
        ([[-1e-6, 0.0], [0.0, 1e-6]], [[1e-4]]),  # indefinite
        ([[1e-6, 1e-6], [0.0, 1e-6]], [[1e-4]]),  # not symmetric
        (np.eye(2) * 1e-6, [[-1e-4]]),
    ], ids=["W-indefinite", "W-not-symmetric", "V-negative"])
    def test_noise_covariances_must_be_psd(self, W, V):
        with pytest.raises(ValueError, match="positive-semidefinite"):
            PlantModel(
                name="bad", A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                W=W, V=V, Q=np.eye(2), R=[[1.0]],
            )


# ---------------------------------------------------------------------------
# The per-step products are ``ndarray.dot`` calls; each must give the bits of
# its ``@`` form (tests/oracles.py), in the same grouping and sum order, on
# every operand layout the package passes: C order, views into a larger
# array (``discretize``'s blocks of the exponential) and Fortran order (the
# transpose of a C-order array, not C-contiguous, as C.T in the Kalman DARE,
# and the Fortran-order copy of A.T that ``kalman_gain`` passes it).


def stored(M: np.ndarray, layout: str) -> np.ndarray:
    """``M`` in C order, in Fortran order, or as a view into a larger array."""
    if layout == "view":
        rows, cols = M.shape
        block = np.zeros((rows + 2, cols + 3))
        block[:rows, :cols] = M
        return block[:rows, :cols]
    return np.ascontiguousarray(M) if layout == "C" else np.asfortranarray(M)


@st.composite
def plant_arrays(draw):
    """Random plant-shaped arrays, n 1-6 states, 1-3 inputs and 1-3 outputs,
    each matrix's entries scaled by its own power of ten and the matrix
    ``stored`` in a drawn layout; Q, W positive-semidefinite, R, V
    definite."""
    n, m, q = (draw(st.integers(1, hi)) for hi in (6, 3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def held(M):
        return stored(M, draw(st.sampled_from(["C", "F", "view"])))

    def matrix(rows, cols):
        return held(rng.standard_normal((rows, cols)) * 10.0 ** draw(st.integers(-3, 3)))

    def covariance(k, floor):
        F = rng.standard_normal((k, k))
        return held(F @ F.T + floor * np.eye(k))

    return SimpleNamespace(
        n=n, m=m, q=q, rng=rng,
        A=matrix(n, n), B=matrix(n, m), C=matrix(q, n), K=matrix(m, n), L=matrix(n, q),
        estimator=matrix(n, n), Q=covariance(n, 0.0), R=covariance(m, 0.1),
        W=covariance(n, 0.0), V=covariance(q, 0.1), sigma_inv=covariance(q, 0.1),
    )


def outcome(call, dare=_dare, max_iter=200):
    """The bytes of the arrays ``call()`` returns, or its error message, and
    the number of solves it made (one per DARE iteration), with ``dare`` as
    the DARE and at most ``max_iter`` iterations."""
    solve, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(None)
        return solve(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", counted)
        mp.setattr(control, "DARE_MAX_ITER", max_iter)
        mp.setattr(control, "_dare", dare)
        try:
            arrays = call()
            result = [a.tobytes() for a in (arrays if isinstance(arrays, tuple) else [arrays])]
        except (Infeasible, np.linalg.LinAlgError) as exc:
            result = str(exc)
    return result, len(solves)


def sim_state(sim) -> tuple:
    """The bytes of every number a plant step or a job completion writes."""
    floats = [sim.norm, *(v for step in sim.norm_trace for v in step), sim.detector.g,
              *sim.detector.buffer]
    return (sim.x.tobytes(), sim.xhat.tobytes(), sim.u_cmd.tobytes(), sim.buffer.tobytes(),
            np.array(floats).tobytes(), sim.alarmed)


class TestDotProducts:
    @given(case=plant_arrays())
    @settings(max_examples=150, deadline=None)
    def test_gains_match_matmul(self, case):
        """``lqr_gain`` and ``kalman_gain`` (the dual DARE) on the drawn
        A_h and B_h, with the package's DARE and with the ``@`` one: the same
        gains, or the same failure after the same number of iterations."""
        plant = PlantModel(name="drawn", A=case.A, B=case.B, C=case.C, W=case.W, V=case.V,
                           Q=case.Q, R=case.R)
        for call in (lambda: lqr_gain(plant, case.A, case.B),
                     lambda: kalman_gain(plant, case.A)):
            assert outcome(call) == outcome(call, dare=matmul_dare)

    @pytest.mark.parametrize("A, B, message", [
        # an unstable mode that B cannot reach: P overflows
        (np.diag([10.0, 0.5]), np.array([[0.0], [1.0]]), "Riccati iteration diverged"),
        # a marginal mode with little authority: P climbs for thousands of steps
        (np.array([[1.0]]), np.array([[1e-3]]), "Riccati iteration did not converge"),
    ])
    def test_dare_failures_match_matmul(self, A, B, message):
        n, m = B.shape
        args = (A, B, np.eye(n), np.eye(m))
        result = outcome(lambda: control._dare(*args))
        assert result[0] == message
        assert result == outcome(lambda: control._dare(*args), dare=matmul_dare)

    @given(case=plant_arrays(), window=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_detector_matches_matmul(self, case, window):
        dot, matmul = Detector(window, 1.0), Detector(window, 1.0)
        for _ in range(4):
            residue = case.rng.standard_normal(case.q)
            (g, alarm), (g_ref, alarm_ref) = (
                dot.step(residue, case.sigma_inv),
                matmul_detector_step(matmul, residue, case.sigma_inv))
            assert (np.float64(g).tobytes(), alarm) == (np.float64(g_ref).tobytes(), alarm_ref)

    @given(case=plant_arrays())
    @settings(max_examples=150, deadline=None)
    def test_plant_steps_match_matmul(self, case):
        """Plant steps and job completions, alternating, from one state and
        one noise sequence."""
        rng = case.rng
        sim = ControlLoopSim.__new__(ControlLoopSim)  # the state the two steps read
        sim.loop = SimpleNamespace(A=case.A, B=case.B, L=case.L, estimator=case.estimator,
                                   innovation_inv=case.sigma_inv)
        sim.plant = SimpleNamespace(C=case.C)
        sim.neg_gain = case.K
        sim.x, sim.xhat = rng.standard_normal(case.n), rng.standard_normal(case.n)
        sim.u_cmd = sim.buffer = rng.standard_normal(case.m)
        sim.detector = Detector(2, 1.0)
        sim.w_noise = iter(rng.standard_normal((4, case.n)))
        sim.v_noise = iter(rng.standard_normal((4, case.q)))
        sim.norm, sim.norm_trace, sim.alarmed = 0.0, [], False
        reference = copy.deepcopy(sim)
        for k in range(4):
            sim.advance_plant(k)
            matmul_advance_plant(reference, k)
            assert sim_state(sim) == sim_state(reference)
            sim.job_complete()
            matmul_job_complete(reference)
            assert sim_state(sim) == sim_state(reference)
