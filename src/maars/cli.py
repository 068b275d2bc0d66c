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

Exit codes: 0 success; 2 configuration error, raised as ``ConfigError``
or ``OSError`` (a task-set, plant, scenario or store file that is missing,
a directory, not UTF-8 JSON, not an object, or fails its checks, such as a
store that belongs to another task set, a task set with no trusted task or
whose criticalities all round to 0, or a detector window over the
calibration draws; a scenario whose roles do not match the task set, a
``--store`` given to ``simulate --policy static``, a hyper-period over its
bound, an exhaustive enumeration over its budget, a ``--gamma`` whose
per-step decay factor at some period rounds to 0 or 1, or an ``--out``
that cannot be written); 3 infeasible, raised as ``Infeasible``
(unschedulable task set, no stabilizable period menu, a period whose gain
synthesis meets a singular matrix or a singular residue covariance, an
empty schedule store, or a store with no schedule to deploy first).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import DEFAULT_DECAY_RATE, __version__, data_path
from .control import PlantModel, design_loop, load_plant
from .cosim import AttackScenario, run_scenario, save_trace_csv, trace_spool
from .kernel import BACKEND
from .ladder import aei_sizes, build_ladder, inferability_ratio
from .runtime import make_selector, save_log_csv
from .schedgen import (
    DEFAULT_ENUM_BUDGET, generate_pool, row_blocks, save_pool, simulate_fixed_priority,
    unique,
)
from .secureperiods import prune_security
from .stability import decay_alpha, prune_performance
from .taskmodel import (
    ConfigError,
    Infeasible,
    TaskSet,
    TaskSpec,
    TrustedTask,
    enumerate_specs,
    is_schedulable,
    load_json,
    load_taskset,
)
from .vulnerability import (
    ScheduleStore,
    build_store,
    export_reports_csv,
    harden_schedule,
    load_store,
    save_store,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def require_schedulable(taskset: TaskSet) -> None:
    """Infeasible unless ``taskset`` is fixed-priority schedulable at its
    minimum periods, the assignment every command can fall back to."""
    if not is_schedulable(taskset, taskset.min_period_spec()):
        raise Infeasible("task set unschedulable at minimum periods")


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
        plants[t.plant] = load_plant(base / f"{t.plant}.json")
    return plants


def load_scenario(path: str | None) -> AttackScenario | None:
    """Read an attack scenario; a key that names no field is ignored."""
    if path is None:
        return None
    names = {f.name for f in fields(AttackScenario)}
    return load_json(
        path, "scenario",
        lambda data: AttackScenario(**{k: v for k, v in data.items() if k in names}),
    )


# ---------------------------------------------------------------------------
# pipeline stages


def prune_menus(
    taskset: TaskSet,
    plants: dict[str, PlantModel],
    gamma: float,
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
            try:
                kept = prune_performance(
                    build_matrix=lambda p: design_loop(plant, p, taskset.delta).closed_loop,
                    candidate_periods=menu,
                    alpha_of=lambda p: decay_alpha(gamma, p * taskset.delta),
                )
            except Infeasible as exc:
                raise Infeasible(f"task {t.id}: {exc}") from exc
            if not kept:
                raise Infeasible(
                    f"task {t.id}: no stabilizable period subset (plant {t.plant})"
                )
            record["after_performance"] = kept
            menu = kept
        else:
            record["after_performance"] = menu
        menu = prune_security(t, menu, list(taskset.untrusted))
        record["after_security"] = menu
        provenance[str(t.id)] = record
        new_trusted.append(replace(t, period_menu=tuple(menu)))
    pruned = TaskSet(
        trusted=tuple(new_trusted), untrusted=taskset.untrusted, delta=taskset.delta
    )
    return pruned, provenance


def feasible_specs(taskset: TaskSet) -> list[TaskSpec]:
    """Menu combinations whose fixed-priority schedule meets every deadline."""
    return [spec for spec in enumerate_specs(taskset) if is_schedulable(taskset, spec)]


def write_ir_csv(store, path: Path) -> None:
    """Inferability ratio of every stored schedule for every victim/attacker
    pair, computed on the attacker's folded ladder view.

    A ladder depends on the victim only through its row (its minimum
    period), so |AEI| is computed once per distinct row and attacker, for a
    block of rows (``schedgen.row_blocks``) of each period-assignment stack
    of the store (``ScheduleStore.stacks``) at a time (``aei_sizes``). Each
    distinct (row, attacker, |AEI|) cell is formatted once, from the ladder
    of the first schedule that has it, and so is each distinct set of a
    schedule's lines, with its index left to fill in.
    """
    ts = store.taskset
    row_victims: dict[int, TrustedTask] = {}
    for victim in ts.trusted:
        row_victims.setdefault(victim.min_period, victim)
    pairs = [(victim, u) for victim in row_victims.values() for u in ts.untrusted]
    sizes = np.empty((len(store.schedules), len(pairs)), dtype=np.int64)
    for _, members, stack in store.stacks:
        for rows in row_blocks(len(members)):
            for j, (victim, u) in enumerate(pairs):
                sizes[members[rows], j] = aei_sizes(stack[rows], victim, u)
    # each line of a schedule: its text after the index, and its column of sizes
    lines = [(f",{v.id},{u.id},", pairs.index((row_victims[v.min_period], u)))
             for v in ts.trusted for u in ts.untrusted]
    cells: list[dict[int, str]] = [{} for _ in pairs]  # per column: |AEI| -> cell text
    blocks: dict[tuple[int, ...], list[str]] = {}  # sizes -> lines, to join by the index
    with open(path, "w", newline="") as fh:
        fh.write("index,victim,attacker,aai,aei,ir\r\n")
        for idx, key in enumerate(map(tuple, sizes.tolist())):
            if key not in blocks:
                for (victim, u), n, texts in zip(pairs, key, cells):
                    if n not in texts:
                        lv = build_ladder(store.schedules[idx], victim, u)
                        ratio = float(inferability_ratio(lv))
                        texts[n] = f"{len(lv.aai)},{len(lv.aei)},{ratio!r}\r\n"
                blocks[key] = ["", *(text + cells[j][key[j]] for text, j in lines)]
            fh.write(str(idx).join(blocks[key]))


def write_summary(
    path: Path,
    taskset: TaskSet,
    store,
    serialized_bytes: int,
    provenance: dict | None,
    n_specs: int,
    label: str,
) -> None:
    below = store.k_threshold  # the store is in SVI order
    lines = [
        f"maars {__version__} ({BACKEND} kernel) — {label}",
        f"taskset hash: {taskset.content_hash()}",
        f"feasible period assignments: {n_specs}",
        f"schedules in store: {len(store.schedules)}",
        f"SVT: {float(store.svt):.6f}",
        f"K (first index with SVI >= SVT): {store.k_threshold}",
        f"schedules below SVT: {below} ({below / len(store.schedules):.1%})",
    ]
    # schedules with equal counts share one report: convert its APs once
    distinct = {id(r): r for r in store.reports}
    floats = {key: {tid: float(ap) for tid, ap in r.aps.items()} for key, r in distinct.items()}
    for t in taskset.trusted:
        aps = [floats[id(r)][t.id] for r in store.reports]
        lines.append(
            f"task {t.id}: avg AP {sum(aps) / len(aps):.4f}, "
            f"max AP {max(aps):.4f}, TAP {t.tap}"
        )
    # one byte per element: a LUT entry per trusted task and schedule, and
    # every slot of every schedule
    lut = len(taskset.trusted) * len(store.schedules)
    slots = sum(s.length for s in store.schedules)
    lines.append(
        f"memory model: {lut + slots} B ({lut} LUT + {slots} slot elements), "
        f"serialized {serialized_bytes} B"
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

    require_schedulable(taskset)

    maars = args.command == "analyze"
    if maars:
        pruned, provenance = prune_menus(taskset, plants, args.gamma)
        specs = feasible_specs(pruned)
        if not specs:
            raise Infeasible("no feasible period assignment after pruning")
    else:
        pruned, provenance = taskset, None
        specs = [taskset.min_period_spec()]

    pool = generate_pool(
        pruned, specs, seeds_per_spec=args.seeds, exhaustive=args.exhaustive,
        budget=args.exhaustive_budget, seed_base=args.seed_base, attack_aware=maars,
    )
    if maars and not args.exhaustive:
        # in place: each drawn schedule is dropped once it is hardened
        for i in range(len(pool)):
            pool[i] = harden_schedule(pool[i], pruned)
        pool = unique(pool)
    if not pool:
        raise Infeasible("empty schedule pool")
    # made only now, so a run that fails its input checks leaves no --out behind
    out.mkdir(parents=True, exist_ok=True)
    if provenance is not None:
        (out / "periods.json").write_text(json.dumps(provenance, indent=2) + "\n")
    save_pool(pruned, pool, out / "pool.json")

    store = build_store(pool, pruned)
    if store.k_threshold == 0:
        log.warning("no schedule below SVT=%s: normal mode has no candidates", store.svt)
    for tid, row in store.lut.items():
        if not row:
            log.warning("LUT row for task %d is empty: alert mode unavailable", tid)
    serialized_bytes = save_store(store, out / "store.json")
    export_reports_csv(store, out / "vuln.csv")
    write_ir_csv(store, out / "ir.csv")
    write_summary(
        out / "summary.txt", pruned, store, serialized_bytes, provenance, len(specs),
        args.command,
    )
    print((out / "summary.txt").read_text(), end="")
    return EXIT_OK


def _static_store(taskset: TaskSet) -> ScheduleStore:
    """The static policy as a store: the fixed-priority schedule at minimum
    periods, deployable in normal mode (K = 1) and in every alert mode."""
    require_schedulable(taskset)
    sched = simulate_fixed_priority(taskset, taskset.min_period_spec())
    return replace(build_store([sched], taskset), k_threshold=1,
                   lut={t.id: [0] for t in taskset.trusted})


def cmd_simulate(args) -> int:
    """Deploy the store of ``--policy`` through the runtime selector: the
    static schedule's store, or the loaded store (``shuffle`` with K over
    every index)."""
    taskset = resolve_taskset(args.taskset)
    plants = resolve_plants(taskset, args.plants)
    out = Path(args.out)
    scenario = load_scenario(args.scenario)

    if args.policy == "static":
        if args.store is not None:
            raise ConfigError("--store cannot be used with --policy static")
        store = _static_store(taskset)
    else:
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

    # the trace lines go to a spool file beside --out as each epoch ends;
    # --out is made only once the run is over, and the spool moved into it
    with trace_spool(out) as spool:
        metrics, world = run_scenario(
            plants, scenario, selector,
            seed=args.seed_base, epochs=args.epochs, sink=spool,
            noise_scale=args.noise_scale,
        )
        out.mkdir(parents=True, exist_ok=True)
        save_trace_csv(world, out / "trace.csv")
    if args.policy != "static":
        save_log_csv(selector.deployments, out / "deployments.csv")
    payload = {
        "version": __version__,
        "taskset_hash": taskset.content_hash(),
        "policy": args.policy,
        "seed": args.seed_base,
        "epochs": args.epochs,
        "scenario": asdict(scenario) if scenario is not None else None,
        **metrics,
    }
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _ranged(convert, ok, what: str):
    """An argparse ``type`` that makes text ``convert`` cannot read, or a
    value ``ok`` refuses, a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_COUNT = _ranged(int, lambda v: v >= 0, "a non-negative integer")
_NEGATIVE = _ranged(float, lambda v: math.isfinite(v) and v < 0, "a finite negative number")
_NON_NEGATIVE = _ranged(float, lambda v: math.isfinite(v) and v >= 0,
                       "a finite non-negative number")


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
        "--seed-base": dict(type=_COUNT, default=0),
        "--out": dict(default="maars-out"),
        "--policy": dict(choices=["static", "shuffle", "maars"], default="maars"),
        "--seeds": dict(type=_COUNT, default=100,
                        help="randomized schedules per period assignment"),
        "--exhaustive": dict(action="store_true",
                             help="enumerate every feasible schedule instead of sampling"),
        "--exhaustive-budget": dict(type=_COUNT, default=DEFAULT_ENUM_BUDGET),
        "--gamma": dict(type=_NEGATIVE, default=DEFAULT_DECAY_RATE,
                        help="target continuous-time decay rate, a negative number"
                             " (such as -0.5 or -1e-3)"),
        "--epochs": dict(type=_COUNT, default=50, help="hyper-periods to simulate"),
        "--scenario": dict(default=None, help="attack scenario JSON file"),
        "--store": dict(default=None, help="path to a prebuilt store.json"),
        "--noise-scale": dict(type=_NON_NEGATIVE, default=1.0),
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


def _attach_gamma(argv: list[str]) -> list[str]:
    """``--gamma X`` as ``--gamma=X`` for a negative number X: argparse would
    read one in exponent form, such as ``-1e-3``, as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--gamma" and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                joined[-1] = f"--gamma={arg}"
                continue
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_gamma(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
