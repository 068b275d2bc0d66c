"""Continuous LTI plant handling: per-period discretization, LQR/Kalman
synthesis, augmented closed-loop assembly, and the windowed chi-square
residue detector. A period whose discretization or gain synthesis fails
raises Infeasible.

SciPy is imported by ``discretize``, on the first loop designed, not with
the module: a command that designs no loop (``maars baseline``) never loads
it. The per-step products of the DARE and of the detector are
``ndarray.dot`` calls, which cost half of ``@`` on these small arrays and
give its bits on every operand layout the package passes them
(``tests/test_control.py`` checks them against the ``@`` forms).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .taskmodel import Infeasible, is_integer, is_real, load_json

DARE_TOL = 1e-10
DARE_MAX_ITER = 100_000
# nominal residues drawn to calibrate a detector threshold; a window longer
# than this would average fewer windows than it spans
CALIBRATION_DRAWS = 100_000


@dataclass
class PlantModel:
    """Continuous plant x' = A x + B u, y = C x + v, with synthesis weights.

    W and V are process/measurement noise covariances and Q the LQR state
    weight, each symmetric positive-semidefinite; R, the LQR input weight, is
    positive definite. Every entry is finite.
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
        if not all(np.isfinite(getattr(self, x)).all() for x in "ABCWVQR"):
            raise ValueError(f"plant {self.name}: matrix entries must be finite")
        if np.any(np.linalg.eigvalsh((self.R + self.R.T) / 2) <= 0):
            raise ValueError(f"plant {self.name}: R must be positive definite")
        for x in "WVQ":
            try:
                noise_factor(getattr(self, x))
            except ValueError as exc:
                raise ValueError(f"plant {self.name}: {x}: {exc}") from exc
        window, threshold, far = self.detector_window, self.detector_threshold, self.far_target
        if not (is_integer(window) and 1 <= window <= CALIBRATION_DRAWS):
            raise ValueError(
                f"detector window must be an integer in [1, {CALIBRATION_DRAWS}], got {window!r}"
            )
        if threshold is not None and not is_real(threshold):
            raise ValueError(f"detector threshold must be a number or null, got {threshold!r}")
        if not is_real(far) or not 0 < far < 1:
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
        raise ValueError("not symmetric positive-semidefinite")
    return (u * np.sqrt(s)).T


def discretize(plant: PlantModel, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization over period ``h`` seconds.

    Uses the augmented-exponential identity: expm([[A, B], [0, 0]] h) has
    the discrete A in the top-left block and the input integral in the
    top-right.
    """
    from scipy.linalg import expm

    if h <= 0:
        raise ValueError("sampling period must be positive")
    n, p = plant.B.shape
    M = np.zeros((n + p, n + p))
    M[:n, :n] = plant.A
    M[:n, n:] = plant.B
    E = expm(M * h)
    A_h, B_h = E[:n, :n], E[:n, n:]
    if not (np.all(np.isfinite(A_h)) and np.all(np.isfinite(B_h))):
        raise Infeasible("non-finite entries in discretized matrices")
    return A_h, B_h


def _dare(A, B, Q, R):
    """Fixed-point iteration for the discrete algebraic Riccati equation;
    raises Infeasible when it diverges or does not converge."""
    P = Q.copy()
    At, Bt, solve = A.T, B.T, np.linalg.solve
    # overflow on the divergent path is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            BtP = Bt.dot(P)
            gain_term = solve(R + BtP.dot(B), BtP.dot(A))
            AtP = At.dot(P)  # A.T @ P @ A groups as (A.T @ P) @ A
            P_next = Q + AtP.dot(A) - AtP.dot(B).dot(gain_term)
            P_next = (P_next + P_next.T) / 2
            change = abs(P_next - P).max()
            if change < DARE_TOL:
                return P_next
            # an infinite or NaN entry of P_next makes the change one too
            if not math.isfinite(change) and not np.isfinite(P_next).all():
                raise Infeasible("Riccati iteration diverged")
            P = P_next
    raise Infeasible("Riccati iteration did not converge")


def lqr_gain(plant: PlantModel, A_h: np.ndarray, B_h: np.ndarray) -> np.ndarray:
    """Steady-state LQR gain K with u = -K x for the discretized pair."""
    if not np.any(B_h):
        raise Infeasible("input matrix is zero: no actuation authority")
    P = _dare(A_h, B_h, plant.Q, plant.R)
    K = np.linalg.solve(plant.R + B_h.T @ P @ B_h, B_h.T @ P @ A_h)
    if np.max(np.abs(np.linalg.eigvals(A_h - B_h @ K))) >= 1.0:
        raise Infeasible("LQR closed loop is not Schur stable")
    return K


def kalman_gain(plant: PlantModel, A_h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Steady-state Kalman gain, innovation covariance and its inverse via
    the dual DARE. A covariance singular to working precision (|det| below
    1e-300) raises LinAlgError, as a singular solve does."""
    # A_h is a view into the exponential, and ndarray.dot would copy its
    # transpose to C order, where @ multiplies it as it is, and sum in
    # another order; a Fortran-order copy is the layout @ reads
    S = _dare(np.asfortranarray(A_h.T), plant.C.T, plant.W, plant.V)
    innovation = plant.C @ S @ plant.C.T + plant.V
    if abs(np.linalg.det(innovation)) < 1e-300:
        raise np.linalg.LinAlgError("singular residue covariance")
    innovation_inv = np.linalg.inv(innovation)
    return A_h @ S @ plant.C.T @ innovation_inv, innovation, innovation_inv


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
    """All period-dependent matrices for one control loop at one period."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    L: np.ndarray
    closed_loop: np.ndarray  # augmented 2n x 2n matrix
    estimator: np.ndarray  # A - L C, the estimator's state transition
    innovation_cov: np.ndarray
    innovation_inv: np.ndarray  # what the detector normalizes residues by


def design_loop(plant: PlantModel, period_slots: int, delta: float) -> DiscretizedLoop:
    """The loop of ``plant`` at ``period_slots`` slots; a failed step (also a
    singular solve or covariance) raises Infeasible naming plant and period."""
    try:
        A_h, B_h = discretize(plant, period_slots * delta)
        K = lqr_gain(plant, A_h, B_h)
        L, innovation, innovation_inv = kalman_gain(plant, A_h)
    except (Infeasible, np.linalg.LinAlgError) as exc:
        raise Infeasible(f"plant {plant.name}, period {period_slots}: {exc}") from exc
    return DiscretizedLoop(
        A=A_h,
        B=B_h,
        K=K,
        L=L,
        closed_loop=augment(A_h, B_h, K, L, plant.C),
        estimator=A_h - L @ plant.C,
        innovation_cov=innovation,
        innovation_inv=innovation_inv,
    )


# ---------------------------------------------------------------------------
# windowed chi-square detector


class Detector:
    """Windowed chi-square test on the estimator residue.

    z[k] = res^T Sigma^-1 res, Sigma^-1 given with each residue by its loop;
    the alarm fires when the mean of the last N values strictly exceeds the
    threshold.
    """

    def __init__(self, window: int, threshold: float):
        self.window = int(window)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self.threshold = float(threshold)
        self.buffer: deque[float] = deque(maxlen=self.window)
        self.g = 0.0

    def step(self, residue: np.ndarray, sigma_inv: np.ndarray) -> tuple[float, bool]:
        z = float(residue.dot(sigma_inv).dot(residue))  # (r @ S) @ r
        self.buffer.append(z)
        self.g = sum(self.buffer) / len(self.buffer)
        return self.g, self.g > self.threshold


def calibrate_threshold(loop: DiscretizedLoop, window: int, far_target: float) -> float:
    """Monte-Carlo threshold for a desired false-alarm rate under nominal
    Gaussian residues of ``loop``: the (1 - far) quantile of the windowed
    statistic over CALIBRATION_DRAWS residues drawn with seed 0."""
    rng, cov = np.random.default_rng(0), loop.innovation_cov
    res = rng.multivariate_normal(np.zeros(len(cov)), cov, size=CALIBRATION_DRAWS)
    z = np.einsum("ij,jk,ik->i", res, loop.innovation_inv, res)
    statistic = np.convolve(z, np.ones(window) / window, mode="valid")
    return float(np.quantile(statistic, 1.0 - far_target))


# ---------------------------------------------------------------------------
# plant config I/O


def plant_from_dict(data: dict) -> PlantModel:
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


def load_plant(path: str | Path) -> PlantModel:
    return load_json(path, "plant", plant_from_dict)
