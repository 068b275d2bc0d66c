"""Command-line pipeline driver.

Three commands; each accepts only the flags it uses (a flag another command
takes is a usage error, exit 2):

* ``analyze``  — prune period menus (performance + security), generate a
  schedule pool, quantify vulnerability, build the runtime store, and emit
  reports (periods.json, pool.json, store.json, vuln.csv, ir.csv,
  summary.txt).
* ``baseline`` — the attack-unaware comparison: minimum rates only, no
  security pruning, same reports (with ``--seeds 0``, the fixed-priority
  schedule alone).
* ``simulate`` — closed-loop co-simulation of a deployment policy against a
  scripted attack scenario (deployment log, trace CSV, metrics JSON); it
  deploys the store of ``analyze`` or ``baseline`` as it was built.

Exit codes: 0 success, 2 configuration error (also a malformed task-set,
plant or scenario file, a store that belongs to another task set or fails
its load checks, a scenario whose roles do not match the task set, or an
exhaustive enumeration over its budget),
3 infeasible (unschedulable task set, no stabilizable period menu, or an
empty schedule store).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import DEFAULT_DECAY_RATE, __version__, data_path
from .control import NumericsError, PlantModel, design_loop, load_plant
from .cosim import AttackScenario, run_scenario, save_trace_csv
from .kernel import BACKEND, BudgetExceeded, DeadlineMiss
from .ladder import build_ladder, inferability_ratio, tile_timeline
from .runtime import make_selector, save_log_csv
from .schedgen import generate_pool, save_pool, simulate_fixed_priority
from .secureperiods import prune_security
from .stability import decay_alpha, prune_performance
from .taskmodel import (
    ConfigError,
    TaskSet,
    TaskSpec,
    Unschedulable,
    enumerate_specs,
    is_schedulable,
    load_taskset,
)
from .vulnerability import (
    build_store,
    export_reports_csv,
    harden_schedule,
    load_store,
    save_store,
    store_memory_cost,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class Infeasible(Exception):
    """Pipeline cannot proceed: unschedulable, unstable, or empty results."""


# ---------------------------------------------------------------------------
# config resolution


def resolve_taskset(name_or_path: str) -> TaskSet:
    path = Path(name_or_path)
    if not path.exists():
        bundled = data_path("tasksets", f"{name_or_path}.json")
        if bundled.exists():
            path = bundled
        else:
            raise ConfigError(f"taskset {name_or_path!r} not found")
    return load_taskset(path)


def resolve_plants(taskset: TaskSet, plants_dir: str | None) -> dict[str, PlantModel]:
    base = Path(plants_dir) if plants_dir else data_path("plants")
    plants: dict[str, PlantModel] = {}
    for t in taskset.trusted:
        if t.plant is None or t.plant in plants:
            continue
        path = base / f"{t.plant}.json"
        if not path.exists():
            raise ConfigError(f"plant config {path} not found")
        plants[t.plant] = load_plant(path)
    return plants


def load_scenario(path: str | None) -> AttackScenario | None:
    """Read an attack scenario; a field of the wrong type or an unknown
    injection model raises ConfigError."""
    if path is None:
        return None
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"scenario {path} is not a JSON object")
    try:
        scenario = AttackScenario(
            compromised_task_id=data["compromised_task_id"],
            victim_id=data["victim_id"],
            injection=data.get("injection", "replace"),
            value=data.get("value", 10.0),
            start_epoch=data.get("start_epoch", 0),
            duration_epochs=data.get("duration_epochs"),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario file missing field {exc}") from exc
    fields = {
        "compromised_task_id": (int,),
        "victim_id": (int,),
        "value": (int, float),
        "start_epoch": (int,),
        "duration_epochs": (int, type(None)),
    }
    for name, types in fields.items():
        value = getattr(scenario, name)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"scenario field {name!r} has the wrong type: {value!r}")
    if scenario.injection not in ("replace", "bias"):
        raise ConfigError(f"unknown injection model {scenario.injection!r}")
    return scenario


# ---------------------------------------------------------------------------
# pipeline stages


def prune_menus(
    taskset: TaskSet,
    plants: dict[str, PlantModel],
    gamma: float,
    security: bool = True,
) -> tuple[TaskSet, dict]:
    """Performance (CQLF) then security pruning of every trusted menu.

    Returns the pruned task set plus a provenance record per task.
    """
    provenance: dict[str, dict] = {}
    new_trusted = []
    for t in taskset.trusted:
        menu = list(t.period_menu)
        record: dict = {"input": menu}
        if t.plant is not None:
            plant = plants[t.plant]
            kept, _ = prune_performance(
                build_matrix=lambda p: design_loop(plant, p, taskset.delta).closed_loop,
                candidate_periods=menu,
                alpha_of=lambda p: decay_alpha(gamma, p * taskset.delta),
            )
            if not kept:
                raise Infeasible(
                    f"task {t.id}: no stabilizable period subset (plant {t.plant})"
                )
            record["after_performance"] = kept
            menu = kept
        else:
            record["after_performance"] = menu
        if security:
            menu = prune_security(t, menu, list(taskset.untrusted))
        record["after_security"] = menu
        provenance[str(t.id)] = record
        new_trusted.append(
            type(t)(
                id=t.id,
                period_menu=tuple(menu),
                wcet=t.wcet,
                aew=t.aew,
                criticality=t.criticality,
                tap=t.tap,
                plant=t.plant,
            )
        )
    pruned = TaskSet(
        trusted=tuple(new_trusted), untrusted=taskset.untrusted, delta=taskset.delta
    )
    return pruned, provenance


def feasible_specs(taskset: TaskSet) -> list[TaskSpec]:
    """Menu combinations whose fixed-priority schedule meets every deadline."""
    specs = []
    for spec in enumerate_specs(taskset):
        try:
            simulate_fixed_priority(taskset, spec)
        except DeadlineMiss:
            continue
        specs.append(spec)
    return specs


def write_ir_csv(store, path: Path) -> None:
    """Inferability ratio of every stored schedule for every victim/attacker
    pair, computed on the attacker's folded ladder view."""
    ts = store.taskset
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "victim", "attacker", "aai", "aei", "ir"])
        for idx, sched in enumerate(store.schedules):
            for victim in ts.trusted:
                for u in ts.untrusted:
                    timeline = tile_timeline(
                        sched, 2 * math.lcm(sched.length, victim.min_period, u.period)
                    )
                    lv = build_ladder(timeline, victim, u)
                    writer.writerow(
                        [idx, victim.id, u.id, len(lv.aai), len(lv.aei),
                         float(inferability_ratio(lv))]
                    )


def write_summary(
    path: Path,
    taskset: TaskSet,
    store,
    serialized_bytes: int,
    provenance: dict | None,
    n_specs: int,
    label: str,
) -> None:
    below = sum(1 for r in store.reports if r.svi < store.svt)
    lines = [
        f"maars {__version__} ({BACKEND} kernel) — {label}",
        f"taskset hash: {taskset.content_hash()}",
        f"feasible period assignments: {n_specs}",
        f"schedules in store: {len(store.schedules)}",
        f"SVT: {float(store.svt):.6f}",
        f"K (first index with SVI >= SVT): {store.k_threshold}",
        f"schedules below SVT: {below} ({below / len(store.schedules):.1%})",
    ]
    for t in taskset.trusted:
        aps = [float(r.aps[t.id]) for r in store.reports]
        lines.append(
            f"task {t.id}: avg AP {sum(aps) / len(aps):.4f}, "
            f"max AP {max(aps):.4f}, TAP {t.tap}"
        )
    cost = store_memory_cost(store, serialized_bytes)
    lines.append(
        f"memory model: {cost['model_bytes']} B "
        f"({cost['lut_elements']} LUT + {cost['slot_elements']} slot elements), "
        f"serialized {cost['serialized_bytes']} B"
    )
    if provenance is not None:
        for tid, rec in provenance.items():
            lines.append(
                f"task {tid} menu: {rec['input']} -> perf {rec['after_performance']}"
                f" -> secure {rec['after_security']}"
            )
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    """``analyze`` runs MAARS: pruned menus, attack-aware schedules, each
    hardened. ``baseline`` runs the attack-unaware comparison: minimum rates,
    no pruning, shuffled schedules (fixed-priority ones with --seeds 0)."""
    taskset = resolve_taskset(args.taskset)
    plants = resolve_plants(taskset, args.plants)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if not is_schedulable(taskset):
        raise Infeasible("task set unschedulable at minimum periods")

    maars = args.command == "analyze"
    if maars:
        pruned, provenance = prune_menus(taskset, plants, args.gamma)
        specs = feasible_specs(pruned)
        if not specs:
            raise Infeasible("no feasible period assignment after pruning")
        (out / "periods.json").write_text(json.dumps(provenance, indent=2) + "\n")
    else:
        pruned, provenance = taskset, None
        specs = [taskset.min_period_spec()]

    if args.exhaustive:
        pool = generate_pool(
            pruned, specs, exhaustive=True, budget=args.exhaustive_budget
        )
    else:
        pool = generate_pool(
            pruned,
            specs,
            seeds_per_spec=args.seeds,
            seed_base=args.seed_base,
            attack_aware=maars,
        )
        if maars:
            unique: dict = {}  # (periods, slots) -> first hardened schedule
            for s in pool:
                h = harden_schedule(s, pruned)
                unique.setdefault((h.spec.all_periods(), h.slots), h)
            pool = list(unique.values())
    if not pool:
        raise Infeasible("empty schedule pool")
    save_pool(pruned, pool, out / "pool.json")

    store = build_store(pool, pruned)
    serialized_bytes = save_store(store, out / "store.json")
    export_reports_csv(store, out / "vuln.csv")
    write_ir_csv(store, out / "ir.csv")
    write_summary(
        out / "summary.txt", pruned, store, serialized_bytes, provenance, len(specs),
        args.command,
    )
    print((out / "summary.txt").read_text(), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    taskset = resolve_taskset(args.taskset)
    plants = resolve_plants(taskset, args.plants)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = load_scenario(args.scenario)

    store = None
    selector = None
    if args.policy in ("maars", "shuffle"):
        store_path = Path(args.store) if args.store else out / "store.json"
        if not store_path.exists():
            raise ConfigError(
                f"store {store_path} not found; run `maars analyze` first"
            )
        store = load_store(store_path, taskset)
        if args.policy == "shuffle":
            # deploy from the whole pool regardless of the vulnerability
            # threshold, as an attack-unaware system would
            store.k_threshold = len(store.schedules)
        selector = make_selector(store, seed=args.seed_base)

    policy = "static" if args.policy == "static" else "maars"
    metrics, world = run_scenario(
        taskset=store.taskset if store is not None else taskset,
        plants=plants,
        scenario=scenario,
        policy=policy,
        seed=args.seed_base,
        epochs=args.epochs,
        store=store,
        selector=selector,
        noise_scale=args.noise_scale,
        trace=True,
    )
    save_trace_csv(world, out / "trace.csv")
    if selector is not None:
        save_log_csv(selector.deployments, out / "deployments.csv")
    payload = {
        "version": __version__,
        "taskset_hash": taskset.content_hash(),
        "policy": args.policy,
        "seed": args.seed_base,
        "epochs": args.epochs,
        "scenario": asdict(scenario) if scenario is not None else None,
        "settling_time": metrics.settling_time,
        "decay_rate": metrics.decay_rate,
        "alarm_epochs": metrics.alarm_epochs,
        "diverged": metrics.diverged,
        "victim_hits": metrics.victim_hits,
        "victim_jobs": metrics.victim_jobs,
        "attack_success_rate": float(metrics.attack_success_rate),
        "mean_deployed_ap": (
            sum(metrics.deployed_ap) / len(metrics.deployed_ap)
            if metrics.deployed_ap
            else 0.0
        ),
    }
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maars",
        description="Attack-aware multi-rate schedule synthesis and runtime selection",
    )
    parser.add_argument("--version", action="version", version=f"maars {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--taskset": dict(required=True,
                          help="bundled taskset name or path to a JSON config"),
        "--plants": dict(default=None,
                         help="directory of plant JSON configs (default: bundled)"),
        "--seed-base": dict(type=int, default=0),
        "--out": dict(default=os.environ.get("MAARS_OUT", "maars-out")),
        "--policy": dict(choices=["static", "shuffle", "maars"], default="maars"),
        "--seeds": dict(type=int, default=100,
                        help="randomized schedules per period assignment"),
        "--exhaustive": dict(action="store_true",
                             help="enumerate every feasible schedule instead of sampling"),
        "--exhaustive-budget": dict(type=int, default=200_000),
        "--gamma": dict(type=float, default=DEFAULT_DECAY_RATE,
                        help="target continuous-time decay rate (negative)"),
        "--epochs": dict(type=int, default=50, help="hyper-periods to simulate"),
        "--scenario": dict(default=None, help="attack scenario JSON file"),
        "--store": dict(default=None, help="path to a prebuilt store.json"),
        "--noise-scale": dict(type=float, default=1.0),
    }
    shared = ["--taskset", "--plants", "--seed-base", "--out"]
    sampling = ["--seeds", "--exhaustive", "--exhaustive-budget"]
    commands = [
        ("analyze", "full pruning + vulnerability pipeline", cmd_analyze,
         [*sampling, "--gamma"]),
        ("baseline", "attack-unaware single-rate baseline", cmd_analyze, sampling),
        ("simulate", "closed-loop co-simulation", cmd_simulate,
         ["--policy", "--epochs", "--scenario", "--store", "--noise-scale"]),
    ]
    for name, summary, func, own in commands:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in shared + own:
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (Infeasible, Unschedulable, DeadlineMiss, NumericsError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
