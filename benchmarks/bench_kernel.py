#!/usr/bin/env python3
"""Benchmark the compiled scheduling kernel against the pure-Python fallback.

Runs the three hot loops (fixed-priority simulation, randomized shuffle with
EDF lookahead, attack-aware shuffle) on the bundled automotive task sets and
exhaustive enumeration on the desk-scale set, then prints per-call timings
and speedups. Also asserts that both backends produce identical outputs.
Without the compiled extension it prints the pure-backend timings alone.

Usage: python benchmarks/bench_kernel.py [--repeat N]
"""

import argparse
import time

from maars import data_path
from maars.kernel import _pure
from maars.taskmodel import hyper_period, load_taskset

try:
    from maars.kernel import _fast
except ImportError:
    _fast = None


def args_for(name, spec_index=0):
    ts = load_taskset(data_path("tasksets", f"{name}.json"))
    from maars.taskmodel import enumerate_specs

    spec = enumerate_specs(ts)[spec_index]
    periods = list(spec.all_periods())
    wcets = [t.wcet for t in ts.trusted] + [u.wcet for u in ts.untrusted]
    aews = [t.aew for t in ts.trusted]
    return periods, wcets, aews, len(ts.trusted), hyper_period(spec)


def bench(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    opts = parser.parse_args()

    backends = {"pure": _pure}
    if _fast is not None:
        backends["compiled"] = _fast
    else:
        print("compiled kernel not available; pure-backend timings only")

    rows = []
    for name, spec_index in (("automotive_lu", 0), ("automotive_lu", 40),
                             ("automotive_hu", 40)):
        periods, wcets, aews, n_trusted, l = args_for(name, spec_index)
        label = f"{name}[{spec_index}] l={l}"
        cases = {
            "simulate_fp": lambda k: k.simulate_fp(periods, wcets, l),
            "shuffle": lambda k: k.shuffle(periods, wcets, l, 7),
            "aware_shuffle": lambda k: k.aware_shuffle(
                periods, wcets, aews, n_trusted, l, 7
            ),
        }
        for op, fn in cases.items():
            timed = [bench(lambda: fn(k), opts.repeat) for k in backends.values()]
            assert all(r == timed[0][1] for _, r in timed), \
                f"backend mismatch for {op} on {label}"
            rows.append((label, op, [t for t, _ in timed]))

    periods, wcets, aews, n_trusted, l = args_for("minimal", 1)
    timed = [bench(lambda: k.enumerate_all(periods, wcets, l, 10**6), opts.repeat)
             for k in backends.values()]
    as_tuples = [[tuple(s) for s in r] for _, r in timed]
    assert all(r == as_tuples[0] for r in as_tuples)
    rows.append((f"minimal[1] l={l} ({len(timed[0][1])} schedules)", "enumerate_all",
                 [t for t, _ in timed]))

    width = max(len(r[0]) for r in rows)
    header = "".join(f" {b:>10}" for b in backends)
    print(f"{'case':<{width}}  {'op':<14}{header}"
          + (f" {'speedup':>8}" if len(backends) == 2 else ""))
    for label, op, times in rows:
        line = f"{label:<{width}}  {op:<14}" + "".join(f" {t*1e3:>8.2f}ms" for t in times)
        if len(times) == 2:
            line += f" {times[0]/times[1]:>7.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
