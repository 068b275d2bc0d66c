"""Continuous LTI plant handling: per-period discretization, LQR/Kalman
synthesis, augmented closed-loop assembly, and the windowed chi-square
residue detector.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .taskmodel import ConfigError, is_integer

DARE_TOL = 1e-10
DARE_MAX_ITER = 100_000


class NumericsError(RuntimeError):
    pass


class PeriodRejected(NumericsError):
    """Riccati iteration failed to converge or the gain is not stabilizing."""


def _is_real(value) -> bool:
    return (is_integer(value) or isinstance(value, float)) and math.isfinite(value)


@dataclass
class PlantModel:
    """Continuous plant x' = A x + B u, y = C x + v, with synthesis weights.

    W and V are process/measurement noise covariances (symmetric positive-
    semidefinite); Q, R the LQR weights.
    """

    name: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    detector_window: int = 1
    detector_threshold: float | None = None
    far_target: float = 0.02

    def __post_init__(self):
        for x in "ABCWVQR":
            setattr(self, x, np.atleast_2d(np.asarray(getattr(self, x), dtype=float)))
        n, m, k = self.A.shape[0], self.B.shape[-1], self.C.shape[0]
        shapes = {"A": (n, n), "B": (n, m), "C": (k, n), "W": (n, n), "V": (k, k),
                  "Q": (n, n), "R": (m, m)}
        if any(getattr(self, x).shape != s for x, s in shapes.items()):
            raise ValueError(f"plant {self.name}: inconsistent matrix dimensions")
        if np.any(np.linalg.eigvalsh((self.R + self.R.T) / 2) <= 0):
            raise ValueError(f"plant {self.name}: R must be positive definite")
        for x in "WV":
            try:
                noise_factor(getattr(self, x))
            except ValueError as exc:
                raise ValueError(f"plant {self.name}: {x}: {exc}") from exc
        window, threshold, far = self.detector_window, self.detector_threshold, self.far_target
        if not is_integer(window) or window < 1:
            raise ValueError(f"detector window must be a positive integer, got {window!r}")
        if threshold is not None and not _is_real(threshold):
            raise ValueError(f"detector threshold must be a number or null, got {threshold!r}")
        if not _is_real(far) or not 0 < far < 1:
            raise ValueError(f"detector far_target must be in (0, 1), got {far!r}")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


def noise_factor(cov: np.ndarray) -> np.ndarray:
    """The factor F that ``Generator.multivariate_normal`` (SVD method)
    applies to a row z of standard normal draws: ``mean + z @ F`` is its
    draw, bit for bit. ValueError where NumPy would warn that ``cov`` is
    not symmetric positive-semidefinite (its SVD reconstruction is not
    close at 1e-8)."""
    u, s, vh = np.linalg.svd(cov)
    if not np.allclose(np.dot(vh.T * s, vh), cov, rtol=1e-8, atol=1e-8):
        raise ValueError("covariance is not symmetric positive-semidefinite")
    return (u * np.sqrt(s)).T


def discretize(plant: PlantModel, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization over period ``h`` seconds.

    Uses the augmented-exponential identity: expm([[A, B], [0, 0]] h) has
    the discrete A in the top-left block and the input integral in the
    top-right.
    """
    if h <= 0:
        raise ValueError("sampling period must be positive")
    n, p = plant.B.shape
    M = np.zeros((n + p, n + p))
    M[:n, :n] = plant.A
    M[:n, n:] = plant.B
    E = expm(M * h)
    A_h, B_h = E[:n, :n], E[:n, n:]
    if not (np.all(np.isfinite(A_h)) and np.all(np.isfinite(B_h))):
        raise NumericsError("non-finite entries in discretized matrices")
    return A_h, B_h


def _dare(A, B, Q, R, tol=DARE_TOL, max_iter=DARE_MAX_ITER):
    """Fixed-point iteration for the discrete algebraic Riccati equation."""
    P = Q.copy()
    # overflow on the divergent path is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            BtP = B.T @ P
            gain_term = np.linalg.solve(R + BtP @ B, BtP @ A)
            P_next = Q + A.T @ P @ A - A.T @ P @ B @ gain_term
            P_next = (P_next + P_next.T) / 2
            if np.max(np.abs(P_next - P)) < tol:
                return P_next
            if not np.all(np.isfinite(P_next)):
                raise PeriodRejected("Riccati iteration diverged")
            P = P_next
    raise PeriodRejected("Riccati iteration did not converge")


def dare_residual(A, B, Q, R, P) -> float:
    BtP = B.T @ P
    res = A.T @ P @ A - P - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A) + Q
    return float(np.max(np.abs(res)))


def lqr_gain(plant: PlantModel, A_h: np.ndarray, B_h: np.ndarray) -> np.ndarray:
    """Steady-state LQR gain K with u = -K x for the discretized pair."""
    if not np.any(B_h):
        raise PeriodRejected("input matrix is zero: no actuation authority")
    P = _dare(A_h, B_h, plant.Q, plant.R)
    K = np.linalg.solve(plant.R + B_h.T @ P @ B_h, B_h.T @ P @ A_h)
    if np.max(np.abs(np.linalg.eigvals(A_h - B_h @ K))) >= 1.0:
        raise PeriodRejected("LQR closed loop is not Schur stable")
    return K


def kalman_gain(plant: PlantModel, A_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state Kalman gain and innovation covariance via the dual DARE."""
    S = _dare(A_h.T, plant.C.T, plant.W, plant.V)
    innovation = plant.C @ S @ plant.C.T + plant.V
    L = A_h @ S @ plant.C.T @ np.linalg.inv(innovation)
    return L, innovation


def augment(A_h, B_h, K_h, L_h, C) -> np.ndarray:
    """Closed-loop transition matrix of the stacked [plant; estimator] state:

        [[A,    -B K     ],
         [L C,  A - LC - BK]]
    """
    top = np.hstack([A_h, -B_h @ K_h])
    bottom = np.hstack([L_h @ C, A_h - L_h @ C - B_h @ K_h])
    return np.vstack([top, bottom])


@dataclass
class DiscretizedLoop:
    """All period-dependent matrices for one control loop at period h."""

    period_slots: int
    h: float
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    L: np.ndarray
    closed_loop: np.ndarray  # augmented 2n x 2n matrix
    innovation_cov: np.ndarray

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.closed_loop))))


def design_loop(plant: PlantModel, period_slots: int, delta: float) -> DiscretizedLoop:
    h = period_slots * delta
    A_h, B_h = discretize(plant, h)
    K = lqr_gain(plant, A_h, B_h)
    L, innovation = kalman_gain(plant, A_h)
    return DiscretizedLoop(
        period_slots=period_slots,
        h=h,
        A=A_h,
        B=B_h,
        K=K,
        L=L,
        closed_loop=augment(A_h, B_h, K, L, plant.C),
        innovation_cov=innovation,
    )


# ---------------------------------------------------------------------------
# windowed chi-square detector


class Detector:
    """Windowed chi-square test on the estimator residue.

    z[k] = res^T Sigma^-1 res; the alarm fires when the mean of the last N
    values strictly exceeds the threshold.
    """

    def __init__(self, sigma_res: np.ndarray, window: int, threshold: float):
        sigma_res = np.atleast_2d(np.asarray(sigma_res, dtype=float))
        if abs(np.linalg.det(sigma_res)) < 1e-300:
            raise ValueError("singular residue covariance")
        self.sigma_inv = np.linalg.inv(sigma_res)
        self.window = int(window)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self.threshold = float(threshold)
        self.buffer: deque[float] = deque(maxlen=self.window)
        self.g = 0.0

    def step(self, residue: np.ndarray) -> tuple[float, bool]:
        r = np.asarray(residue, dtype=float).reshape(-1)
        z = float(r @ self.sigma_inv @ r)
        self.buffer.append(z)
        self.g = sum(self.buffer) / len(self.buffer)
        return self.g, self.g > self.threshold

    def reset(self):
        self.buffer.clear()
        self.g = 0.0


def calibrate_threshold(
    sigma_res: np.ndarray,
    window: int,
    far_target: float,
    n_steps: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo threshold for a desired false-alarm rate under nominal
    Gaussian residues: the (1 - far) quantile of the windowed statistic."""
    sigma_res = np.atleast_2d(np.asarray(sigma_res, dtype=float))
    m = sigma_res.shape[0]
    rng = np.random.default_rng(seed)
    res = rng.multivariate_normal(np.zeros(m), sigma_res, size=n_steps)
    z = np.einsum("ij,jk,ik->i", res, np.linalg.inv(sigma_res), res)
    if window > 1:
        kernel = np.ones(window) / window
        g = np.convolve(z, kernel, mode="valid")
    else:
        g = z
    return float(np.quantile(g, 1.0 - far_target))


def measure_far(
    sigma_res: np.ndarray,
    window: int,
    threshold: float,
    n_steps: int = 100_000,
    seed: int = 1,
) -> float:
    """Empirical false-alarm rate of the windowed detector on fresh noise."""
    sigma_res = np.atleast_2d(np.asarray(sigma_res, dtype=float))
    m = sigma_res.shape[0]
    rng = np.random.default_rng(seed)
    res = rng.multivariate_normal(np.zeros(m), sigma_res, size=n_steps)
    z = np.einsum("ij,jk,ik->i", res, np.linalg.inv(sigma_res), res)
    if window > 1:
        g = np.convolve(z, np.ones(window) / window, mode="valid")
    else:
        g = z
    return float(np.mean(g > threshold))


# ---------------------------------------------------------------------------
# plant config I/O


def plant_to_dict(plant: PlantModel) -> dict:
    d = {
        "name": plant.name,
        "A": plant.A.tolist(),
        "B": plant.B.tolist(),
        "C": plant.C.tolist(),
        "W": plant.W.tolist(),
        "V": plant.V.tolist(),
        "Q": plant.Q.tolist(),
        "R": plant.R.tolist(),
        "detector": {"window": plant.detector_window, "far_target": plant.far_target},
    }
    if plant.detector_threshold is not None:
        d["detector"]["threshold"] = plant.detector_threshold
    return d


def plant_from_dict(data: dict) -> PlantModel:
    """Parse a plant config; a missing key, a value of the wrong type or
    matrices of inconsistent size raise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("plant config is not a JSON object")
    try:
        det = data.get("detector", {})
        return PlantModel(
            name=data["name"],
            A=np.array(data["A"]),
            B=np.array(data["B"]),
            C=np.array(data["C"]),
            W=np.array(data["W"]),
            V=np.array(data["V"]),
            Q=np.array(data["Q"]),
            R=np.array(data["R"]),
            detector_window=det.get("window", 1),
            detector_threshold=det.get("threshold"),
            far_target=det.get("far_target", 0.02),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed plant config ({type(exc).__name__}: {exc})") from exc


def load_plant(path: str | Path) -> PlantModel:
    with open(path) as fh:
        return plant_from_dict(json.load(fh))
