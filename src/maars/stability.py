"""Common quadratic Lyapunov function search for switched closed loops.

Certifies that one quadratic function V(X) = X' P X decays by at least a
per-subsystem factor under every switching choice, which licenses arbitrary
period switching at a target exponential rate. Solved by alternating
projections: eigenvalue clipping onto the PD cone interleaved with
half-space cuts derived from the worst-violating eigenvector of each
Lyapunov inequality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

FEAS_TOL = 1e-8
PD_MARGIN = 1e-6
DEFAULT_SWEEPS = 20_000


@dataclass(frozen=True)
class CqlfProblem:
    """Subsystem matrices with per-subsystem decay parameters alpha in (-1, 0):
    require A_j' P A_j - (1 + alpha_j) P <= 0 for a single P > 0."""

    matrices: tuple[np.ndarray, ...]
    alphas: tuple[float, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.alphas):
            raise ValueError("one alpha per subsystem required")
        dim = self.matrices[0].shape[0]
        for m in self.matrices:
            if m.shape != (dim, dim):
                raise ValueError("all subsystem matrices must share one dimension")
        for a in self.alphas:
            if not -1.0 < a < 0.0:
                raise ValueError(f"alpha {a} outside (-1, 0)")

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class CqlfCertificate:
    P: np.ndarray


@dataclass(frozen=True)
class Infeasible:
    """No certificate found. ``certified`` is True when a witness proves no
    CQLF can exist (an unstable subsystem or unstable switching product);
    False means the iteration budget ran out with feasibility undecided."""

    certified: bool
    reason: str


def decay_alpha(gamma: float, h: float) -> float:
    """Per-step decay parameter from a continuous-time rate gamma < 0 sampled
    at period h: V shrinks by e^{2 gamma h} per step."""
    if gamma >= 0:
        raise ValueError("target decay rate must be negative")
    return math.exp(2.0 * gamma * h) - 1.0


def verify_certificate(problem: CqlfProblem, P: np.ndarray):
    """Independent eigenvalue re-check of both LMI families."""
    P = (P + P.T) / 2
    min_eig = float(np.min(np.linalg.eigvalsh(P)))
    residual = max(
        float(np.max(np.linalg.eigvalsh(A.T @ P @ A - (1.0 + a) * P)))
        for A, a in zip(problem.matrices, problem.alphas)
    )
    return min_eig, residual


def _unstable_product_witness(matrices, max_len=4) -> str | None:
    """Search short switching sequences for a product with spectral radius
    > 1: such a sequence defeats any common Lyapunov function. The products
    of one length share one batched eigenvalue call; the witness is the first
    in ``itertools.product`` order."""
    n = len(matrices)
    for length in range(1, max_len + 1):
        combos = list(itertools.product(range(n), repeat=length))
        prods = []
        for combo in combos:
            prod = np.eye(matrices[0].shape[0])
            for i in combo:
                prod = matrices[i] @ prod
            prods.append(prod)
        rhos = np.max(np.abs(np.linalg.eigvals(np.stack(prods))), axis=1)
        for combo, rho in zip(combos, rhos):
            if rho > 1.0 + 1e-12:
                return f"switching product {combo} has spectral radius {rho:.6f}"
    return None


def find_cqlf(
    problem: CqlfProblem, max_sweeps: int = DEFAULT_SWEEPS
) -> CqlfCertificate | Infeasible:
    """Alternating-projection search for a common Lyapunov matrix.

    Each sweep: for every subsystem, cut along the half-space violated by
    the top eigenvector of its Lyapunov inequality; then clip P back onto
    the PD cone and renormalize trace(P) = dim. Subsystem instability or an
    unstable short switching product, both checked before any sweep, yields
    a certified Infeasible.
    """
    d = problem.dim
    for idx, A in enumerate(problem.matrices):
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 1.0:
            return Infeasible(
                certified=True,
                reason=f"subsystem {idx} is not Schur stable (rho={rho:.6f})",
            )
    # an unstable switching product rules out every common Lyapunov
    # function, so no sweep can succeed where the witness exists
    witness = _unstable_product_witness(problem.matrices)
    if witness is not None:
        return Infeasible(certified=True, reason=witness)

    # Warm start: sum of the per-subsystem Lyapunov solutions of
    # (A/sqrt(1+alpha))' P (A/sqrt(1+alpha)) - P = -I. Each term solves its
    # own inequality exactly, so the sum is usually close to a common P and
    # far better conditioned than the identity for stiff loops.
    P = np.zeros((d, d))
    for A, a in zip(problem.matrices, problem.alphas):
        scaled = A / math.sqrt(1.0 + a)
        if float(np.max(np.abs(np.linalg.eigvals(scaled)))) >= 1.0:
            continue
        P = P + scipy.linalg.solve_discrete_lyapunov(scaled.T, np.eye(d))
    P = (P + P.T) / 2
    if np.trace(P) <= 0:
        P = np.eye(d)
    P *= d / np.trace(P)
    for _ in range(max_sweeps):
        worst = 0.0
        for A, a in zip(problem.matrices, problem.alphas):
            M = A.T @ P @ A - (1.0 + a) * P
            M = (M + M.T) / 2
            eigvals, eigvecs = np.linalg.eigh(M)
            lam = float(eigvals[-1])
            if lam <= FEAS_TOL * 0.1:
                continue
            worst = max(worst, lam)
            v = eigvecs[:, -1]
            # violated scalar constraint <G, P> <= 0 with G the gradient of
            # v' (A'PA - (1+a)P) v in P; project onto its boundary
            w = A @ v
            G = np.outer(w, w) - (1.0 + a) * np.outer(v, v)
            G = (G + G.T) / 2
            gnorm2 = float(np.sum(G * G))
            if gnorm2 > 0:
                P = P - (lam / gnorm2) * G
        # back onto the PD cone, keep scale fixed
        P = (P + P.T) / 2
        eigvals, eigvecs = np.linalg.eigh(P)
        eigvals = np.clip(eigvals, PD_MARGIN, None)
        P = (eigvecs * eigvals) @ eigvecs.T
        P *= d / np.trace(P)
        if worst == 0.0:
            min_eig, residual = verify_certificate(problem, P)
            if min_eig > FEAS_TOL and residual <= FEAS_TOL:
                return CqlfCertificate(P=P)

    return Infeasible(certified=False, reason="iteration budget exhausted")


def prune_performance(build_matrix, candidate_periods: list[int], alpha_of) -> list[int]:
    """Largest subset of ``candidate_periods`` (always containing the
    minimum) whose closed loops admit a CQLF; empty when none does.

    ``build_matrix(period)`` returns the augmented closed-loop matrix;
    ``alpha_of(period)`` its decay parameter. Greedy: when the full set is
    infeasible, drop the non-minimum period whose removal leaves the lowest
    residual violation, and retry.
    """
    periods = sorted(candidate_periods)
    base = periods[0]
    mats = {p: build_matrix(p) for p in periods}

    # periods whose loop is individually unstable can never be kept
    current = [
        p for p in periods if float(np.max(np.abs(np.linalg.eigvals(mats[p])))) < 1.0
    ]
    if base not in current:
        return []

    while True:
        problem = CqlfProblem(
            matrices=tuple(mats[p] for p in current),
            alphas=tuple(alpha_of(p) for p in current),
        )
        if isinstance(find_cqlf(problem), CqlfCertificate):
            return current
        if len(current) == 1:
            return []
        # score each droppable period by the violation left without it
        best_drop, best_score = None, None
        for p in current:
            if p == base:
                continue
            rest = [q for q in current if q != p]
            sub = CqlfProblem(
                matrices=tuple(mats[q] for q in rest),
                alphas=tuple(alpha_of(q) for q in rest),
            )
            probe = find_cqlf(sub, max_sweeps=DEFAULT_SWEEPS // 20)
            if isinstance(probe, CqlfCertificate):
                score = -1.0  # immediately feasible
            else:
                _, residual = verify_certificate(sub, np.eye(problem.dim))
                score = residual
            if best_score is None or score < best_score:
                best_drop, best_score = p, score
        current.remove(best_drop)
