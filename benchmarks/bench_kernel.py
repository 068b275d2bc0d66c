#!/usr/bin/env python3
"""Time the scheduling kernel's hot loops.

Runs fixed-priority simulation, randomized shuffle and attack-aware shuffle
on the bundled automotive task sets, and exhaustive enumeration on the
desk-scale set, then prints the best per-call time over ``--repeat`` runs
(the first call of each case also builds the task set's cached tables).

Usage: python benchmarks/bench_kernel.py [--repeat N]
"""

import argparse
import time

from maars import data_path, kernel
from maars.taskmodel import enumerate_specs, hyper_period, load_taskset


def args_for(name, spec_index=0):
    ts = load_taskset(data_path("tasksets", f"{name}.json"))
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

    rows = []
    for name, spec_index in (("automotive_lu", 0), ("automotive_lu", 40),
                             ("automotive_hu", 40)):
        periods, wcets, aews, n_trusted, l = args_for(name, spec_index)
        label = f"{name}[{spec_index}] l={l}"
        cases = {
            "simulate_fp": lambda: kernel.simulate_fp(periods, wcets, l),
            "shuffle": lambda: kernel.shuffle(periods, wcets, l, 7),
            "aware_shuffle": lambda: kernel.aware_shuffle(
                periods, wcets, aews, n_trusted, l, 7
            ),
        }
        for op, fn in cases.items():
            rows.append((label, op, bench(fn, opts.repeat)[0]))

    periods, wcets, aews, n_trusted, l = args_for("minimal", 1)
    elapsed, schedules = bench(
        lambda: kernel.enumerate_all(periods, wcets, l, 10**6), opts.repeat
    )
    rows.append((f"minimal[1] l={l} ({len(schedules)} schedules)", "enumerate_all",
                 elapsed))

    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  {'op':<14} {'time':>10}")
    for label, op, elapsed in rows:
        print(f"{label:<{width}}  {op:<14} {elapsed * 1e3:>8.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
