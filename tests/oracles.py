"""Independent re-computations that the tests check the control synthesis
against: the DARE residual of a solution, and the false-alarm rate of a
calibrated detector threshold on fresh noise."""

import numpy as np

from maars.control import CALIBRATION_DRAWS


def dare_residual(A, B, Q, R, P) -> float:
    """Largest absolute entry of the DARE's residual at ``P``."""
    BtP = B.T @ P
    res = A.T @ P @ A - P - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A) + Q
    return float(np.max(np.abs(res)))


def measure_far(sigma_res: np.ndarray, window: int, threshold: float) -> float:
    """Empirical false-alarm rate of the windowed detector over
    CALIBRATION_DRAWS nominal residues drawn with seed 1 (calibration draws
    with seed 0), inverting ``sigma_res`` itself."""
    rng = np.random.default_rng(1)
    res = rng.multivariate_normal(np.zeros(len(sigma_res)), sigma_res, size=CALIBRATION_DRAWS)
    z = np.einsum("ij,jk,ik->i", res, np.linalg.inv(sigma_res), res)
    statistic = np.convolve(z, np.ones(window) / window, mode="valid")
    return float(np.mean(statistic > threshold))
