#!/usr/bin/env python3
"""Pipeline benchmark for ``maars``: analyze-hu, baseline-lu, simulate-lu.

    python3 perfbench/run.py --workload analyze-hu --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: it needs ``src/maars`` and builds or
installs nothing. The load is closed-loop: one client issues one command at a
time and waits for it. Every step is a fresh single-threaded Python process
(BLAS/OpenMP pinned to one thread), and successive processes alternate between
the CPUs. Set-up (process start, ``import maars``, task-set and plant load,
and for simulate-lu the ``maars analyze`` that builds its store) is timed in
at least three processes of its own. Then rounds run the workload's ``maars``
commands through ``maars.cli.main`` on the same inputs, made from ``--seed``,
while their set-up and commands fit in ``--seconds`` (at least one round; two
with ``--trace 1``).

The first round also checks the outputs and measures the exposure of the
store: every schedule validates, every record matches a recomputed analysis,
the store is SVI-sorted with K at the SVT bisect, every LUT entry has
AP < TAP, the attack arm's ``metrics.json`` has victim_hits <= victim_jobs,
and the fingerprint (sha256 of ``store.json``, or for simulate-lu of the
attack arm's ``metrics.json``) repeats across rounds and across earlier runs
of the same code in this checkout (``.perfbench/fingerprints.json``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (timings
are medians over rounds); ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics, derived from spans that it writes to
``.perfbench/spans/``. The last line of standard output is the JSON result;
the line before it holds the environment, the fingerprints, the operations,
and the quartiles and sample counts of the timings. Both are also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS

SETUP_SAMPLES = 3
SETUP_MAX = 9
SETUP_EXTRA_S = 2.0
TIME_LIMIT_S = 170  # the whole run, including set-up and checks
# One BLAS/OpenMP thread per process, and a fixed str hash seed
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def code_id(root: Path) -> str:
    """Hash of the package sources and this benchmark: fingerprints are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    files = [p for d in (root / "src" / "maars", HERE) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def spawn(spec: dict, root: Path, deadline: float) -> dict:
    """Run one worker; returns its result plus its set-up time, measured from
    process start to its ``ready`` line."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log = Path(spec["out"]).with_suffix(".log")
    Path(spec["out"]).parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        # kill the worker at the run deadline; reading then hits end of file
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s run limit")
    lines = out.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        tail = log.read_text()[-2000:]
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values), "values": values}


def check_fingerprints(root: Path, key: str, rounds: list[dict], setups: list[dict]) -> str | None:
    """None when every round's output fingerprint (and set-up store) agrees
    and matches the one recorded by an earlier run of the same code."""
    seen = {r.get("fingerprint") for r in rounds}
    setup_seen = {r["setup_fingerprint"] for r in setups if "setup_fingerprint" in r}
    if len(seen) != 1 or None in seen or len(setup_seen) > 1:
        return f"fingerprints differ between rounds: {sorted(map(str, seen | setup_seen))}"
    fp = seen.pop()
    path = root / ".perfbench" / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, fp) != fp:
        return f"fingerprint {fp} differs from the earlier run's {known[key]}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return None


def run(opts, root: Path) -> tuple[dict, dict, dict]:
    deadline = time.perf_counter() + TIME_LIMIT_S
    tag = f"{opts.workload}-s{opts.seed}-t{opts.trace}"
    work = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    spans_dir = root / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    # Each CPU's speed drifts independently of the other's, so successive
    # processes alternate between the CPUs.
    cpus = sorted(os.sched_getaffinity(0))
    base = {"workload": opts.workload, "seed": opts.seed,
            "store": str(work / "setup0" / "store" / "store.json")}
    setups: list[dict] = []
    rounds: list[dict] = []
    try:
        # at least SETUP_SAMPLES set-ups, more (up to SETUP_MAX) while they are cheap
        while len(setups) < SETUP_MAX and (
                len(setups) < SETUP_SAMPLES or sum(r["setup_s"] for r in setups) < SETUP_EXTRA_S):
            i = len(setups)
            spec = dict(base, mode="setup", cpu=cpus[i % len(cpus)], out=str(work / f"setup{i}"),
                        trace=False, check=False, run_id="", spans="")
            setups.append(spawn(spec, root, deadline))
        measured = 0.0  # set-up plus timed commands of the rounds so far
        while True:
            i = len(rounds)
            spec = dict(base, mode="round", cpu=cpus[i % len(cpus)], out=str(work / f"round{i}"),
                        trace=bool(opts.trace) and i % 2 == 1, check=i == 0,
                        run_id=f"{tag}-r{i}", spans=str(spans_dir / f"{tag}-r{i}.csv"))
            rounds.append(spawn(spec, root, deadline))
            shutil.rmtree(work / f"round{i}", ignore_errors=True)
            # stop when the next round would take the rounds past --seconds
            took = rounds[-1]["setup_s"] + rounds[-1]["wall_s"]
            measured += took
            if len(rounds) >= (2 if opts.trace else 1) and measured + took > opts.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds + setups for op in r["ops"]]
    key = f"{opts.workload}:{opts.seed}:{code_id(root)}"
    problem = check_fingerprints(root, key, rounds, setups)
    ops.append(["check fingerprint repeats", problem is None, problem])
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    plain = [r for r in rounds if "layers" not in r]
    samples = {
        "setup_s": quartiles([r["setup_s"] for r in setups]),
        "wall_s": quartiles([r["wall_s"] for r in plain]),
        "peak_rss_mb": quartiles([r["rss_mb"] for r in plain]),
        "artifact_mb": quartiles([r["artifact_bytes"] / 1e6 for r in plain]),
    }
    values = {name: q["median"] for name, q in samples.items()}
    values["ok_share"] = 1 - len(failed) / len(ops)
    values.update(rounds[0].get("exposure", {}))
    if opts.trace:
        traced = [r["layers"] for r in rounds if "layers" in r]
        values.update({name: statistics.median(t[name] for t in traced) for name in traced[0]})
        values["trace.overhead_s"] = values.pop("trace.traced_wall_s") - values["wall_s"]

    info = {
        "workload": opts.workload,
        "seed": opts.seed,
        "env": dict(rounds[0]["env"], seed=opts.seed),
        "fingerprint": rounds[0].get("fingerprint"),
        "setup_fingerprint": setups[0].get("setup_fingerprint"),
        "samples": samples,
        "rounds": len(rounds),
        "operations": ops,
    }
    return info, {"correct": not failed, "attempted": len(ops), "failed": len(failed)}, values


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "maars" / "__init__.py").is_file():
        print(f"perfbench: {root} is not a maars checkout (no src/maars)", file=sys.stderr)
        return 2
    try:
        info, result, values = run(opts, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    listed = json.loads((root / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if opts.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in listed}
    out = root / ".perfbench" / "results" / f"{opts.workload}-s{opts.seed}-t{opts.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
