"""Independent re-computations that the tests check the package against:
the DARE residual of a solution, the false-alarm rate of a calibrated
detector threshold on fresh noise, the ``@`` forms of the per-step products
(the DARE iteration, the detector statistic, a plant step and a job
completion), every job's exposure window found one job at a time, and the
schedule hash and the pool and store documents, as ``repr`` and
``json.dumps`` make them, that the store's tie-break and its writers must
reproduce byte for byte."""

import hashlib
import math

import numpy as np

from maars import control
from maars.control import CALIBRATION_DRAWS
from maars.taskmodel import Infeasible, taskset_to_dict
from maars.vulnerability import completion_slot, exposure_window


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


def matmul_dare(A, B, Q, R):
    """``control._dare`` with every product written with ``@``, in the same
    grouping and sum order."""
    P = Q.copy()
    At, Bt, solve = A.T, B.T, np.linalg.solve
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(control.DARE_MAX_ITER):
            BtP = Bt @ P
            gain_term = solve(R + BtP @ B, BtP @ A)
            AtP = At @ P
            P_next = Q + AtP @ A - AtP @ B @ gain_term
            P_next = (P_next + P_next.T) / 2
            change = abs(P_next - P).max()
            if change < control.DARE_TOL:
                return P_next
            if not math.isfinite(change) and not np.isfinite(P_next).all():
                raise Infeasible("Riccati iteration diverged")
            P = P_next
    raise Infeasible("Riccati iteration did not converge")


def matmul_detector_step(detector, residue, sigma_inv):
    """``control.Detector.step`` with its statistic written with ``@``."""
    z = float(residue @ sigma_inv @ residue)
    detector.buffer.append(z)
    detector.g = sum(detector.buffer) / len(detector.buffer)
    return detector.g, detector.g > detector.threshold


def matmul_advance_plant(sim, time_s: float):
    """``cosim.ControlLoopSim.advance_plant`` written with ``@``."""
    loop = sim.loop
    x = loop.A @ sim.x + loop.B @ sim.buffer + next(sim.w_noise)
    sim.x = x
    sim.norm = math.sqrt(x.dot(x))
    if sim.norm_trace is not None:
        times, norms = sim.norm_trace
        times.append(time_s)
        norms.append(sim.norm)


def matmul_job_complete(sim):
    """``cosim.ControlLoopSim.job_complete`` written with ``@``."""
    loop = sim.loop
    C = sim.plant.C
    y = C @ sim.x + next(sim.v_noise)
    _, alarm = matmul_detector_step(sim.detector, y - C @ sim.xhat, loop.innovation_inv)
    if alarm:
        sim.alarmed = True
    sim.xhat = loop.estimator @ sim.xhat + loop.B @ sim.u_cmd + loop.L @ y
    sim.u_cmd = sim.buffer = sim.neg_gain @ sim.xhat


def exposure_windows(slots, task, period: int) -> list[range]:
    """The AEW of every job of ``task`` in ``slots``, in job order, one
    ``completion_slot`` scan per job; job j completes at
    ``windows[j].start - 1``."""
    completions = (
        completion_slot(slots, task.id, task.wcet, period, job)
        for job in range(len(slots) // period)
    )
    return [exposure_window(c, task.aew, period) for c in completions]


def content_hash(sched) -> str:
    """The tie-break hash of a schedule: the first 16 hex digits of the
    sha256 of the repr of its key, (periods, slots)."""
    return hashlib.sha256(repr(sched.key).encode()).hexdigest()[:16]


def pool_to_dict(taskset, pool) -> dict:
    """The pool document of ``pool`` for ``taskset``, whose ``json.dumps`` is
    the text of ``save_pool``."""
    return {
        "taskset_hash": taskset.content_hash(),
        "schedules": [
            {
                "periods": list(s.spec.periods),
                "untrusted_periods": list(s.spec.untrusted_periods),
                "slots": s.slots,  # a tuple encodes as the same JSON array
                "provenance": s.provenance,
                "seed": s.seed,
            }
            for s in pool
        ],
    }


def store_to_dict(store) -> dict:
    """The store document, whose ``json.dumps`` is the text of ``save_store``:
    the task set the store was built for and its schedules in SVI order."""
    return {
        "taskset": taskset_to_dict(store.taskset),
        "pool": pool_to_dict(store.taskset, store.schedules),
    }
