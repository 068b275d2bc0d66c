"""Control synthesis: ZOH discretization, DARE, gains, detector calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars.control import (
    Detector,
    PeriodRejected,
    PlantModel,
    _dare,
    augment,
    calibrate_threshold,
    dare_residual,
    design_loop,
    discretize,
    kalman_gain,
    lqr_gain,
    measure_far,
    plant_from_dict,
    plant_to_dict,
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
        with pytest.raises(PeriodRejected):
            _dare(A, B, np.eye(2), np.array([[1.0]]), max_iter=2000)


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
            L, innovation = kalman_gain(plant, A_h)
            rho = np.max(np.abs(np.linalg.eigvals(A_h - L @ plant.C)))
            assert rho < 1.0
            assert np.all(np.linalg.eigvalsh(innovation) > 0)

    def test_zero_input_rejected(self):
        plant = double_integrator()
        with pytest.raises(PeriodRejected):
            lqr_gain(plant, np.eye(2), np.zeros((2, 1)))

    def test_augmented_loop_stable(self, plants, lu_ts):
        for t in lu_ts.trusted:
            plant = plants[t.plant]
            for p in t.period_menu:
                loop = design_loop(plant, p, lu_ts.delta)
                assert loop.closed_loop.shape == (2 * plant.n_states,) * 2
                assert loop.spectral_radius < 1.0

    def test_augment_block_structure(self):
        A = np.array([[0.5]])
        B = np.array([[1.0]])
        K = np.array([[0.2]])
        L = np.array([[0.3]])
        C = np.array([[1.0]])
        M = augment(A, B, K, L, C)
        np.testing.assert_allclose(M, [[0.5, -0.2], [0.3, 0.0]])


class TestDetector:
    def test_strict_threshold(self):
        det = Detector(np.array([[1.0]]), window=1, threshold=4.0)
        g, alarm = det.step(np.array([2.0]))
        assert g == 4.0 and not alarm  # strictly-greater comparison
        g, alarm = det.step(np.array([2.1]))
        assert alarm

    def test_windowed_mean(self):
        det = Detector(np.array([[1.0]]), window=2, threshold=100.0)
        det.step(np.array([2.0]))
        g, _ = det.step(np.array([4.0]))
        assert g == pytest.approx((4.0 + 16.0) / 2)

    def test_reset(self):
        det = Detector(np.array([[1.0]]), window=3, threshold=1.0)
        det.step(np.array([5.0]))
        det.reset()
        assert det.g == 0.0 and len(det.buffer) == 0

    def test_calibration_hits_far_target(self):
        sigma = np.array([[2.0]])
        th = calibrate_threshold(sigma, window=1, far_target=0.02, seed=0)
        far = measure_far(sigma, window=1, threshold=th, n_steps=100_000, seed=1)
        assert abs(far - 0.02) <= 0.005

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError):
            Detector(np.zeros((2, 2)), window=1, threshold=1.0)


class TestPlantIO:
    def test_round_trip(self, tmp_path, plants):
        for plant in plants.values():
            again = plant_from_dict(plant_to_dict(plant))
            np.testing.assert_array_equal(again.A, plant.A)
            np.testing.assert_array_equal(again.Q, plant.Q)
            assert again.detector_window == plant.detector_window
            assert again.far_target == plant.far_target

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
