"""One benchmark round in a fresh process: set up, run the timed ``maars``
commands through ``maars.cli.main``, then (optionally) check the outputs.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to
one thread. Protocol on standard output: the line ``ready`` once set-up is
done, then one JSON object as the last line. Everything ``maars`` prints goes
to /dev/null; its log goes to standard error.

    python3 perfbench/worker.py '<json spec>'

The spec holds ``workload``, ``seed``, ``out`` (a fresh directory), ``mode``
(``setup`` stops after set-up, ``round`` runs the commands), ``cpu`` (the one
CPU the process runs on), ``store`` (for simulate-lu rounds: the store built
by the first set-up), ``trace``, ``check``, ``run_id`` and ``spans`` (where a
traced round writes its spans).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import resource
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

# The attack scenario: the compromised untrusted task 5 biases the actuation
# of trusted task 2.
SCENARIO = {"compromised_task_id": 5, "victim_id": 2, "injection": "bias", "value": 50.0}

# Sizes. analyze-hu: hardening dominates (long hyper-periods, 81 specs x 3
# seeds; its cost per schedule is heavy-tailed, so with 1 seed per spec the
# time of one command varied by 15% between seeds). baseline-lu: thousands of
# short (L = 60) unhardened schedules, so generation, store building and
# artifact IO dominate and hardening is absent.
# simulate-lu: co-simulation and runtime selection on a store built in set-up.
# Its store is a fixture built from seed 0, and the benchmark seed drives the
# simulations (noise and selector): with a store per seed, simulate-lu's
# artifact size and attack success rate spread by 15-17% over five seeds, set
# by how many 2100-slot hyper-periods the 81-schedule store happens to hold.
# Every workload runs an attack arm and a no-attack (control) arm of `maars
# simulate` on its store: timed for simulate-lu, an untimed probe of the built
# store for the others.
WORKLOADS = {
    "analyze-hu": {"command": "analyze", "taskset": "automotive_hu", "seeds": 3,
                   "attack_epochs": 50, "control_epochs": 100},
    "baseline-lu": {"command": "baseline", "taskset": "automotive_lu", "seeds": 4000,
                    "attack_epochs": 100, "control_epochs": 1000},
    "simulate-lu": {"command": "simulate", "taskset": "automotive_lu", "seeds": 1,
                    "store_seed_base": 0, "attack_epochs": 500, "control_epochs": 80},
}


# maars seeds schedule k of spec i with seed_base + i * 1000003 + k, so
# neighbouring seed bases share almost every schedule. The benchmark seed is
# spread out to seed_base = seed * SEED_STRIDE, which keeps the schedules of
# different seeds disjoint (81 specs x 1000003 < SEED_STRIDE).
SEED_STRIDE = 100_000_000


def share(k: int, n: int) -> float:
    """Add-one share (k + 1) / (n + 1): equal to k / n up to 1 / n, but never
    0, so that the relative change of an exposure share is always defined."""
    return (k + 1) / (n + 1)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*") if p.is_file())


class Round:
    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.seed = str(spec["seed"] * SEED_STRIDE)
        self.out = Path(spec["out"])
        self.ops: list[list] = []  # [operation, ok, detail]

    # -- operations --------------------------------------------------------

    def cli(self, argv: list[str]) -> bool:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                rc = self.maars_cli.main(argv)
            except Exception as exc:  # a traceback is a failed command
                rc = f"{type(exc).__name__}: {exc}"
        self.ops.append([f"maars {argv[0]}", rc == 0, None if rc == 0 else str(rc)])
        return rc == 0

    def check(self, name: str, fn) -> None:
        try:
            detail = fn()
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        self.ops.append([f"check {name}", detail is None, detail])

    def args(self, command: str, out: Path, *extra: str, seed: str | None = None) -> list[str]:
        return [command, "--taskset", self.workload["taskset"],
                "--seed-base", seed or self.seed, "--out", str(out), *extra]

    def arms(self, attack: Path, control: Path) -> list[list[str]]:
        """The attack and the no-attack ``simulate`` arms on this workload's store."""
        w = self.workload
        policy = "shuffle" if w["command"] == "baseline" else "maars"
        common = ["--policy", policy, "--store", str(self.store)]
        return [
            self.args("simulate", attack, *common, "--epochs", str(w["attack_epochs"]),
                      "--scenario", str(self.out / "scenario.json")),
            self.args("simulate", control, *common, "--epochs", str(w["control_epochs"])),
        ]

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        import maars
        import maars.cli

        src = (Path.cwd() / "src").resolve()
        if src not in Path(maars.__file__).resolve().parents:
            raise SystemExit(f"maars imported from {maars.__file__}, not from {src}")
        self.maars_cli = maars.cli
        self.taskset = maars.cli.resolve_taskset(self.workload["taskset"])
        self.plants = maars.cli.resolve_plants(self.taskset, None)
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "scenario.json").write_text(json.dumps(SCENARIO))
        if self.workload["command"] != "simulate":
            self.store = self.out / self.workload["command"] / "store.json"
        elif self.spec["mode"] == "setup":
            self.store = self.out / "store" / "store.json"
            self.cli(self.args("analyze", self.store.parent,
                               "--seeds", str(self.workload["seeds"]),
                               seed=str(self.workload["store_seed_base"])))
        else:  # a round deploys the store that the first set-up built
            self.store = Path(self.spec["store"])

    def timed_commands(self) -> tuple[list[list[str]], list[Path]]:
        w = self.workload
        if w["command"] == "simulate":
            outs = [self.out / "attack", self.out / "control"]
            return self.arms(*outs), outs
        out = self.store.parent
        return [self.args(w["command"], out, "--seeds", str(w["seeds"]))], [out]

    def run(self) -> dict:
        commands, outs = self.timed_commands()
        tracer = None
        if self.spec["trace"]:
            import layertrace

            tracer = layertrace.Tracer(self.spec["run_id"], observe=OBSERVED)
            tracer.install(sys.modules)
            main = self.maars_cli.main
            self.maars_cli.main = tracer.span(layertrace.ROOT, main)
        try:
            t0 = time.perf_counter()
            for argv in commands:
                self.cli(argv)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                self.maars_cli.main = main
                tracer.uninstall()
        result = {
            "wall_s": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "artifact_bytes": tree_bytes(*outs),
        }
        fp = self.out / "attack" / "metrics.json" if self.workload["command"] == "simulate" \
            else self.store
        if fp.exists():
            result["fingerprint"] = sha256(fp)
        if tracer is not None:
            tracer.write(self.spec["spans"])
            result["layers"] = layer_metrics(tracer, wall)
        if self.spec["check"]:
            result["exposure"] = self.check_outputs()
        return result

    # -- output checks -----------------------------------------------------

    def check_outputs(self) -> dict:
        from maars import DEFAULT_DECAY_RATE
        from maars.schedgen import validate_schedule
        from maars.vulnerability import analyze, attack_count, load_store

        exposure: dict = {}
        if self.workload["command"] == "baseline":
            taskset = self.taskset
        else:
            taskset, _ = self.maars_cli.prune_menus(self.taskset, self.plants,
                                                    DEFAULT_DECAY_RATE)
        store = load_store(self.store, taskset)

        def valid():
            bad = [i for i, s in enumerate(store.schedules) if validate_schedule(taskset, s)]
            return f"invalid schedules at {bad[:5]}" if bad else None

        def records():
            for i, (s, rec) in enumerate(zip(store.schedules, store.reports)):
                r = analyze(s, taskset)
                if (r.counts, r.aps, r.svi) != (rec.counts, rec.aps, rec.svi):
                    return f"record {i} differs from a recomputed analysis"
            return None

        def ordered():
            svis = [r.svi for r in store.reports]
            if svis != sorted(svis):
                return "store not sorted by SVI"
            k = bisect_left(svis, store.svt)
            return None if k == store.k_threshold else f"K={store.k_threshold}, bisect={k}"

        def lut():
            for t in taskset.trusted:
                tap = Fraction(t.tap).limit_denominator(10**6)
                over = [i for i in store.lut[t.id] if not store.ap_of(i, t.id) < tap]
                if over:
                    return f"LUT row {t.id} holds AP >= TAP at {over[:5]}"
            return None

        self.check("schedules valid", valid)
        self.check("records recomputed", records)
        self.check("sorted and K", ordered)
        self.check("LUT below TAP", lut)

        n = len(store.schedules)
        exposure["svi_mean_ratio"] = float(sum(r.svi for r in store.reports) / n / store.svt)
        exposure["vulnerability.below_svt_share"] = sum(r.svi < store.svt for r in store.reports) / n
        rows = [len(store.lut[t.id]) for t in taskset.trusted]
        exposure["vulnerability.lut_mean_coverage"] = sum(rows) / len(rows) / n
        exposure["vulnerability.lut_min_coverage"] = min(rows) / n
        exposure["vulnerability.lut_empty_rows"] = rows.count(0)

        if self.workload["command"] == "simulate":
            attack, control = self.out / "attack", self.out / "control"
        else:
            attack, control = self.out / "probe-attack", self.out / "probe-control"
            for argv in self.arms(attack, control):
                self.cli(argv)

        def metrics_json():
            m = json.loads((attack / "metrics.json").read_text())
            hits, jobs = m["victim_hits"], m["victim_jobs"]
            if not 0 <= hits <= jobs or jobs == 0:
                return f"victim_hits={hits}, victim_jobs={jobs}"
            if self.workload["command"] == "simulate":
                exposure["attack_success_rate"] = share(hits, jobs)
            return None

        if self.workload["command"] != "simulate":
            # Exact attack success of the scenario with every stored schedule
            # deployed once. A 200-epoch probe's rate spread by 25% between
            # seeds on a 162-schedule HU store: the few 2100-slot schedules
            # drawn carry most victim jobs.
            victim = taskset.task(SCENARIO["victim_id"])
            attacker = {SCENARIO["compromised_task_id"]}
            hits = sum(attack_count(s, victim, attacker) for s in store.schedules)
            jobs = sum(s.length // s.spec.period_of(victim.id) for s in store.schedules)
            exposure["attack_success_rate"] = share(hits, jobs)

        def deployments():
            with open(control / "deployments.csv", newline="") as fh:
                modes = [row["mode"] for row in csv.DictReader(fh)]
            exposure["nominal_alert_share"] = share(sum(m != "normal" for m in modes),
                                                    len(modes))

        self.check("metrics.json", metrics_json)
        self.check("deployments.csv", deployments)
        return exposure


# Spans whose arguments/results feed the per-layer ratios and byte counts.
OBSERVED = (
    "vulnerability.harden_schedule", "schedgen.generate_pool", "cli.feasible_specs",
    "taskmodel.enumerate_specs", "runtime.save_log_csv", "schedgen.save_pool",
    "vulnerability.save_store", "cosim.save_trace_csv",
)


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer numbers of one traced round, from its spans."""
    import layertrace
    from maars.vulnerability import svi

    calls, busy, durations = layertrace.layer_times(tracer.spans)
    obs = tracer.observed
    m: dict[str, float] = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name, qs in (("vulnerability.harden_schedule", (50, 90)),
                     ("cosim.run_hyper_period", (50, 95))):
        for q in qs:
            m[f"{name}.p{q}_ms"] = layertrace.percentile_ms(durations.get(name, []), q)

    def ratio(k, n):
        return k / n if n else 0.0

    hardened = obs["vulnerability.harden_schedule"]
    improved = sum(svi(res, a[1]) < svi(a[0], a[1]) for a, _, res in hardened)
    unique = {(res.spec.all_periods(), res.slots) for _, _, res in hardened}
    m["vulnerability.harden_improved_share"] = ratio(improved, len(hardened))
    m["vulnerability.harden_unique_share"] = ratio(len(unique), len(hardened))
    drawn = calls.get("kernel.shuffle", 0) + calls.get("kernel.aware_shuffle", 0)
    pooled = sum(len(res) for _, _, res in obs["schedgen.generate_pool"])
    m["schedgen.unique_share"] = ratio(pooled, drawn)
    m["cli.feasible_share"] = ratio(
        sum(len(res) for _, _, res in obs["cli.feasible_specs"]),
        sum(len(res) for _, _, res in obs["taskmodel.enumerate_specs"]))
    entries = [e for a, _, _ in obs["runtime.save_log_csv"] for e in a[0]]
    m["runtime.held_share"] = ratio(sum(e.held for e in entries), len(entries))
    for name, arg in (("schedgen.save_pool", 2), ("vulnerability.save_store", 1),
                      ("cosim.save_trace_csv", 1)):
        m[f"{name}.bytes"] = sum(os.path.getsize(a[arg]) for a, _, _ in obs[name])

    covered = layertrace.covered(tracer.spans)
    m["cli.self_s"] = wall - covered
    m["trace.coverage"] = ratio(covered, wall)
    m["trace.traced_wall_s"] = wall
    return m


# Spans reported with .calls and .busy_s.
LAYER_SPANS = (
    "vulnerability.harden_schedule", "kernel.aware_shuffle", "kernel.shuffle",
    "kernel.simulate_fp", "schedgen.generate_pool", "schedgen.save_pool",
    "vulnerability.save_store", "vulnerability.export_reports_csv",
    "vulnerability.load_store", "vulnerability.build_store", "vulnerability.analyze",
    "cli.write_ir_csv", "ladder.build_ladder", "stability.prune_performance",
    "control.design_loop", "secureperiods.prune_security", "cli.feasible_specs",
    "control.calibrate_threshold", "cosim.run_hyper_period", "cosim.job_complete",
    "cosim.advance_plant", "cosim.save_trace_csv", "runtime.sched_sel",
)


def environment() -> dict:
    import numpy

    import maars.kernel

    return {
        "kernel.backend": maars.kernel.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    rnd = Round(spec)
    rnd.setup()
    print("ready", flush=True)
    result = {}
    if spec["mode"] == "setup" and rnd.store.exists():
        result["setup_fingerprint"] = sha256(rnd.store)
    if spec["mode"] == "round":
        result.update(rnd.run())
    result["ops"] = rnd.ops
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
