"""In-memory span recorder for the traced benchmark rounds.

Spans are recorded around calls into each ``maars`` layer by replacing the
function at the attribute its caller resolves (for example
``maars.cli.harden_schedule`` rather than ``maars.vulnerability.harden_schedule``,
because the CLI imported the name). Nothing under ``src/`` changes; the
original attributes are restored by :meth:`Tracer.uninstall`.

A span is ``(id, parent, name, start, end)``; spans of one round share a run
id. A layer's self time is its span's duration minus the time its direct
child spans cover (calls are nested, never concurrent, in one thread).
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

ROOT = "cli.main"

# (module, attribute path, span name). The attribute is the one the caller
# resolves at call time; the span name is the layer plus the function.
TARGETS = [
    ("maars.cli", "prune_menus", "cli.prune_menus"),
    ("maars.cli", "design_loop", "control.design_loop"),
    ("maars.cli", "prune_performance", "stability.prune_performance"),
    ("maars.cli", "prune_security", "secureperiods.prune_security"),
    ("maars.cli", "feasible_specs", "cli.feasible_specs"),
    ("maars.cli", "enumerate_specs", "taskmodel.enumerate_specs"),
    ("maars.cli", "generate_pool", "schedgen.generate_pool"),
    ("maars.cli", "harden_schedule", "vulnerability.harden_schedule"),
    ("maars.cli", "save_pool", "schedgen.save_pool"),
    ("maars.cli", "build_store", "vulnerability.build_store"),
    ("maars.cli", "save_store", "vulnerability.save_store"),
    ("maars.cli", "export_reports_csv", "vulnerability.export_reports_csv"),
    ("maars.cli", "write_ir_csv", "cli.write_ir_csv"),
    ("maars.cli", "build_ladder", "ladder.build_ladder"),
    ("maars.cli", "write_summary", "cli.write_summary"),
    ("maars.cli", "load_store", "vulnerability.load_store"),
    ("maars.cli", "run_scenario", "cosim.run_scenario"),
    ("maars.cli", "save_trace_csv", "cosim.save_trace_csv"),
    ("maars.cli", "save_log_csv", "runtime.save_log_csv"),
    ("maars.kernel", "simulate_fp", "kernel.simulate_fp"),
    ("maars.kernel", "shuffle", "kernel.shuffle"),
    ("maars.kernel", "aware_shuffle", "kernel.aware_shuffle"),
    ("maars.vulnerability", "analyze", "vulnerability.analyze"),
    ("maars.cosim", "design_loop", "control.design_loop"),
    ("maars.cosim", "calibrate_threshold", "control.calibrate_threshold"),
    ("maars.cosim", "CoSimWorld.run_hyper_period", "cosim.run_hyper_period"),
    ("maars.cosim", "ControlLoopSim.job_complete", "cosim.job_complete"),
    ("maars.cosim", "ControlLoopSim.advance_plant", "cosim.advance_plant"),
    ("maars.runtime", "sched_sel", "runtime.sched_sel"),
]


class Tracer:
    """Records nested spans and, for a few spans, their arguments and result
    (``observe``), which the per-layer ratios are computed from."""

    def __init__(self, run_id: str, observe: tuple[str, ...] = ()):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.observed: dict[str, list[tuple]] = defaultdict(list)
        self._observe = set(observe)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn):
        keep = name in self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if keep:
                self.observed[name].append((args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for module, attr, name in TARGETS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, self.span(name, original))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,id,parent,name,start,end\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{self.run_id},{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def layer_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, total self time, and every duration."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for sid, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += (end - start) - child_time[sid]
        durations[name].append(end - start)
    return calls, busy, durations


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (0 when there are no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def covered(spans: list[list]) -> float:
    """Time covered by the top-level spans, the direct children of the root."""
    roots = {sid for sid, parent, name, _, _ in spans if parent < 0 and name == ROOT}
    return sum(end - start for _, parent, _, start, end in spans if parent in roots)
