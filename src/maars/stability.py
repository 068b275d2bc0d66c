"""Common quadratic Lyapunov function search for switched closed loops.

Certifies that one quadratic function V(X) = X' P X decays by at least a
per-subsystem factor under every switching choice, which licenses arbitrary
period switching at a target exponential rate. Solved by alternating
projections: eigenvalue clipping onto the PD cone interleaved with
half-space cuts derived from the worst-violating eigenvector of each
Lyapunov inequality. SciPy, for the warm start's Lyapunov solves, is
imported by ``find_cqlf`` on its first search, not with the module, so that
a command that certifies nothing does not load it.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .taskmodel import ConfigError

log = logging.getLogger(__name__)

FEAS_TOL = 1e-8
PD_MARGIN = 1e-6
DEFAULT_SWEEPS = 20_000
# longest switching sequence searched for an unstable product
WITNESS_LENGTH = 4


def decay_alpha(gamma: float, h: float) -> float:
    """Per-step decay parameter alpha in (-1, 0) from a continuous-time rate
    gamma < 0 sampled at period h seconds: V shrinks by e^{2 gamma h} per
    step. ConfigError when that factor is not in (0, 1), as when it rounds
    to 0 or 1."""
    alpha = math.exp(2.0 * gamma * h) - 1.0
    if not -1.0 < alpha < 0.0:
        raise ConfigError(
            f"gamma {gamma} at period {h:g} s gives per-step decay factor"
            f" {alpha + 1.0!r}, outside (0, 1)"
        )
    return alpha


def verify_certificate(matrices, alphas, P: np.ndarray):
    """Independent eigenvalue re-check of both LMI families
    A_j' P A_j - (1 + alpha_j) P <= 0 and P > 0."""
    P = (P + P.T) / 2
    min_eig = float(np.min(np.linalg.eigvalsh(P)))
    residual = max(
        float(np.max(np.linalg.eigvalsh(A.T @ P @ A - (1.0 + a) * P)))
        for A, a in zip(matrices, alphas)
    )
    return min_eig, residual


def _unstable_product_witness(matrices, margin=1e-12) -> str | None:
    """Search switching sequences of up to WITNESS_LENGTH matrices for a
    product with spectral radius > 1 + ``margin``: such a sequence defeats
    any common Lyapunov function.
    The products of one length share one batched eigenvalue call; the witness
    is the first in ``itertools.product`` order."""
    n = len(matrices)
    for length in range(1, WITNESS_LENGTH + 1):
        combos = list(itertools.product(range(n), repeat=length))
        prods = []
        for combo in combos:
            prod = np.eye(matrices[0].shape[0])
            for i in combo:
                prod = matrices[i] @ prod
            prods.append(prod)
        rhos = np.max(np.abs(np.linalg.eigvals(np.stack(prods))), axis=1)
        for combo, rho in zip(combos, rhos):
            if rho > 1.0 + margin:
                return f"switching product {combo} has spectral radius {rho:.6f}"
    return None


def find_cqlf(matrices, alphas, max_sweeps: int = DEFAULT_SWEEPS) -> np.ndarray | None:
    """A common Lyapunov matrix P > 0 with A_j' P A_j - (1 + alpha_j) P <= 0
    for every subsystem matrix A_j and its alpha_j in (-1, 0), or None.

    Alternating projections: each sweep cuts, for every subsystem, along the
    half-space violated by the top eigenvector of its Lyapunov inequality;
    then clips P back onto the PD cone and renormalizes trace(P) = dim. An
    unstable subsystem or an unstable short switching product, both checked
    before any sweep, is a witness that no P exists; so is either one among
    the scaled matrices A_j / sqrt(1 + alpha_j), since a P for the decay
    gives (A_j / sqrt(1 + alpha_j))' P (A_j / sqrt(1 + alpha_j)) <= P, and
    hence spectral radius <= 1 for them and for their products. The scaled
    product witness allows a margin of FEAS_TOL, the residual at which a
    certificate is accepted. Why the answer is None (the witness, or sweeps
    exhausted) is logged at DEBUG.
    """
    d = matrices[0].shape[0]
    if len(alphas) != len(matrices) or any(A.shape != (d, d) for A in matrices):
        raise ValueError("one alpha per subsystem, and one square dimension for all")
    # an unstable subsystem or switching product rules out every common
    # Lyapunov function, so no sweep can succeed where a witness exists; the
    # unscaled checks go first, so theirs is the reason logged where both hold
    scaled = [A / math.sqrt(1.0 + a) for A, a in zip(matrices, alphas)]
    for mats, margin, where in ((matrices, 1e-12, ""),
                                (scaled, FEAS_TOL, " at the required decay")):
        for idx, A in enumerate(mats):
            rho = float(np.max(np.abs(np.linalg.eigvals(A))))
            if rho >= 1.0:
                log.debug("no CQLF: subsystem %d is not Schur stable%s (rho=%.6f)",
                          idx, where, rho)
                return None
        witness = _unstable_product_witness(mats, margin=margin)
        if witness is not None:
            log.debug("no CQLF: %s%s", witness, where)
            return None

    # Warm start: sum of the per-subsystem Lyapunov solutions of
    # (A/sqrt(1+alpha))' P (A/sqrt(1+alpha)) - P = -I. Each term solves its
    # own inequality exactly, so the sum is usually close to a common P and
    # far better conditioned than the identity for stiff loops.
    import scipy.linalg

    P = np.zeros((d, d))
    for A in scaled:
        P = P + scipy.linalg.solve_discrete_lyapunov(A.T, np.eye(d))
    P = (P + P.T) / 2
    if np.trace(P) <= 0:
        P = np.eye(d)
    P *= d / np.trace(P)
    for _ in range(max_sweeps):
        worst = 0.0
        for A, a in zip(matrices, alphas):
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
            min_eig, residual = verify_certificate(matrices, alphas, P)
            if min_eig > FEAS_TOL and residual <= FEAS_TOL:
                return P

    log.debug("no CQLF: %d sweeps exhausted, feasibility undecided", max_sweeps)
    return None


def prune_performance(build_matrix, candidate_periods: list[int], alpha_of) -> list[int]:
    """Largest subset of ``candidate_periods`` (always containing the
    minimum) whose closed loops admit a CQLF; empty when none does.

    ``build_matrix(period)`` returns the augmented closed-loop matrix;
    ``alpha_of(period)`` its decay parameter. Greedy: when the full set is
    infeasible, drop the non-minimum period whose removal leaves the lowest
    residual violation, and retry. Each drop is logged at DEBUG.
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
    alphas = {p: alpha_of(p) for p in current}

    def loops(kept):
        return [mats[p] for p in kept], [alphas[p] for p in kept]

    while True:
        if find_cqlf(*loops(current)) is not None:
            return current
        if len(current) == 1:
            return []
        # score each droppable period by the violation left without it
        best_drop, best_score = None, None
        for p in current:
            if p == base:
                continue
            rest = loops([q for q in current if q != p])
            if find_cqlf(*rest, max_sweeps=DEFAULT_SWEEPS // 20) is not None:
                score = -1.0  # immediately feasible
            else:
                _, score = verify_certificate(*rest, np.eye(mats[base].shape[0]))
            if best_score is None or score < best_score:
                best_drop, best_score = p, score
        log.debug(
            "dropping period %d from %s: %s", best_drop, list(current),
            "the rest is certified" if best_score < 0
            else f"residual {best_score:.6g} without it, the lowest",
        )
        current.remove(best_drop)
