"""Command-line pipeline: artifacts, exit codes, policy wiring."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maars.cli
import maars.schedgen
from maars import data_path
from maars.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    feasible_specs,
    main,
    prune_menus,
    write_ir_csv,
)
from maars.cosim import CoSimWorld
from maars.ladder import aei_sizes, build_ladder, inferability_ratio
from maars.schedgen import simulate_fixed_priority
from maars.taskmodel import Infeasible, taskset_to_dict
from maars.vulnerability import export_reports_csv, load_store


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """One exhaustive analyze run over the minimal task set, shared."""
    out = tmp_path_factory.mktemp("analyzed")
    code = main(
        ["analyze", "--taskset", "minimal", "--exhaustive", "--out", str(out)]
    )
    assert code == EXIT_OK
    return out


class TestAnalyze:
    def test_artifacts_exist(self, analyzed):
        for name in ("pool.json", "store.json", "vuln.csv", "ir.csv", "summary.txt"):
            assert (analyzed / name).exists(), name

    def test_summary_contents(self, analyzed):
        text = (analyzed / "summary.txt").read_text()
        assert "schedules in store: 56" in text
        assert "taskset hash:" in text
        assert "SVT: 0.500000" in text

    def test_store_parses_back(self, analyzed, minimal_ts):
        from maars.vulnerability import load_store

        store = load_store(analyzed / "store.json", minimal_ts)
        assert len(store.schedules) == 56

    def test_vuln_csv_rows(self, analyzed):
        lines = (analyzed / "vuln.csv").read_text().strip().splitlines()
        assert len(lines) == 57
        assert lines[0].startswith("index,svi")

    def test_maars_policy_writes_period_provenance(self, tmp_path):
        code = main(
            ["analyze", "--taskset", "minimal", "--seeds", "4", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        provenance = json.loads((tmp_path / "periods.json").read_text())
        assert set(provenance) == {"1", "2"}
        assert provenance["1"]["input"] == [2, 3]


class TestBaseline:
    def test_single_rate_no_pruning(self, tmp_path):
        code = main(["baseline", "--taskset", "minimal", "--seeds", "6",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert not (tmp_path / "periods.json").exists()
        pool = json.loads((tmp_path / "pool.json").read_text())
        periods = {tuple(rec["periods"]) for rec in pool["schedules"]}
        assert periods == {(2, 4)}  # minimum rates only

    def test_zero_seeds_stores_the_fixed_priority_schedule(self, tmp_path, minimal_ts):
        code = main(["baseline", "--taskset", "minimal", "--seeds", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        store = load_store(tmp_path / "store.json", minimal_ts)
        fp = simulate_fixed_priority(minimal_ts, minimal_ts.min_period_spec())
        assert store.schedules == [fp]

    def test_seed_base_beyond_64_bits(self, tmp_path):
        code = main(["baseline", "--taskset", "minimal", "--seeds", "3",
                     "--seed-base", str(2**70), "--out", str(tmp_path)])
        assert code == EXIT_OK


# Run in a fresh interpreter: whether SciPy is loaded after importing the
# command, after a baseline run and after an analyze run
SCIPY_PROBE = """
import contextlib, io, json, sys
import maars.cli

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

out, loaded, codes = sys.argv[1], [scipy_loaded()], []
with contextlib.redirect_stdout(io.StringIO()):
    for command, taskset, seeds in (("baseline", "minimal", "2"),
                                    ("analyze", "automotive_lu", "1")):
        codes.append(maars.cli.main([command, "--taskset", taskset, "--seeds", seeds,
                                     "--out", f"{out}/{command}"]))
        loaded.append(scipy_loaded())
print(json.dumps([codes, loaded]))
"""


def test_scipy_loads_only_where_a_loop_is_designed(tmp_path):
    """SciPy serves loop design and CQLF search alone: importing the command
    and a baseline run, which designs no loop, load none of it; analyze on
    a task set with plants, which prunes periods on their loops, does."""
    src = Path(maars.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [EXIT_OK, EXIT_OK]
    assert loaded == [False, False, True]


class TestSimulate:
    def test_static_policy(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"compromised_task_id": 5, "victim_id": 2, "injection": "bias",
             "value": 5.0}
        ))
        code = main(
            ["simulate", "--taskset", "automotive_lu", "--policy", "static",
             "--epochs", "3", "--scenario", str(scenario), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["policy"] == "static"
        assert metrics["epochs"] == 3
        assert not metrics["diverged"]
        assert (tmp_path / "trace.csv").exists()

    def test_maars_policy_needs_store(self, tmp_path):
        code = main(
            ["simulate", "--taskset", "minimal", "--policy", "maars",
             "--epochs", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_maars_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["analyze", "--taskset", "minimal", "--seeds", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        code = main(
            ["simulate", "--taskset", "minimal", "--policy", "maars",
             "--epochs", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "deployments.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["policy"] == "maars"


def break_a_job(store: dict) -> None:
    """Replace one unit of task 2 by idle in every schedule of the store."""
    for rec in store["pool"]["schedules"]:
        rec["slots"][rec["slots"].index(2)] = 0


def move_task_1_to_period_20(store: dict) -> None:
    """Give task 1 of a period-10 schedule period 20, which is not in its
    menu, and drop every second unit of it, so the slots still fit."""
    rec = next(r for r in store["pool"]["schedules"] if r["periods"][0] == 10)
    rec["periods"][0] = 20
    units = [j for j, task in enumerate(rec["slots"]) if task == 1]
    for j in units[1::2]:
        rec["slots"][j] = 0


def idle_earlier(store: dict) -> None:
    """Move an idle slot of the first schedule one slot earlier, past a unit
    of a task whose frame holds both slots: every frame keeps its units, but
    the schedule now idles while that unit's job has work left."""
    rec = store["pool"]["schedules"][0]
    periods, slots = rec["periods"] + rec["untrusted_periods"], rec["slots"]
    t = next(
        t for t in range(1, len(slots))
        if slots[t] == 0 and slots[t - 1] and t % periods[slots[t - 1] - 1]
    )
    slots[t - 1], slots[t] = 0, slots[t - 1]


CORRUPT_STORE = {
    "store-missing-taskset": lambda d: d.pop("taskset"),
    "store-missing-pool": lambda d: d.pop("pool"),
    "store-changed-tap": lambda d: d["taskset"]["trusted"][0].update(tap=0.3),
    "store-widened-menu": lambda d: d["taskset"]["trusted"][0]["periods"].append(40),
    "store-bad-svt": lambda d: d.update(svt="abc"),
    "store-broken-job": break_a_job,
    "store-period-outside-menu": move_task_1_to_period_20,
    "store-idle-while-ready": idle_earlier,
    "store-stale-taskset-hash": lambda d: d["pool"].update(taskset_hash="0" * 16),
    # JSON true in place of task 1, which NumPy would read as 1
    "store-bool-slot": lambda d: (slots := d["pool"]["schedules"][0]["slots"]).__setitem__(
        slots.index(1), True
    ),
}
# A JSON number too large for a float: ``to_json`` writes this string as the
# bare literal 1e400, which reads back as inf.
OVERFLOW = "<1e400>"


def to_json(doc) -> str:
    return json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400")


DROP = object()
DIRECTORY = object()  # the document's file replaced by a directory

BAD_SCENARIO = {
    "scenario-bad-injection": {"injection": "flip"},
    "scenario-value-not-number": {"injection": "bias", "value": "x"},
    "scenario-value-nan": {"injection": "bias", "value": float("nan")},
    "scenario-value-overflow": {"injection": "bias", "value": OVERFLOW},
    "scenario-start-epoch-string": {"start_epoch": "1"},
    "scenario-start-epoch-negative": {"start_epoch": -3},
    "scenario-duration-negative": {"duration_epochs": -1},
    "scenario-duration-zero": {"duration_epochs": 0},
}
BAD_TASKSET = {
    "taskset-float-period": lambda d: d["trusted"][0].update(periods=[2.5, 3]),
    "taskset-bool-wcet": lambda d: d["untrusted"][0].update(wcet=True),
    "taskset-infinite-criticality": lambda d: d["trusted"][0].update(
        criticality=float("inf")
    ),
    "taskset-nan-delta": lambda d: d.update(delta=float("nan")),
    "taskset-bool-delta": lambda d: d.update(delta=True),
    "taskset-bool-criticality": lambda d: d["trusted"][0].update(criticality=True),
    "taskset-bool-tap": lambda d: d["trusted"][0].update(tap=True),
    # both criticalities round to 0 at the 1e-6 resolution of the levels
    "taskset-criticality-underflow": lambda d: [t.update(criticality=1e-300)
                                                for t in d["trusted"]],
    # lcm(99991, 4, 99989) is about 4e10, over the 1e9 hyper-period bound
    "taskset-hyper-period-over-bound": lambda d: (
        d["trusted"][0].update(periods=[99991]), d["untrusted"][0].update(period=99989)
    ),
    "taskset-no-tasks": lambda d: d.update(trusted=[], untrusted=[]),
    "taskset-untrusted-only": lambda d: d.update(
        trusted=[], untrusted=[{"id": 1, "period": 4, "wcet": 1}]
    ),
}
# finite negative rates whose per-step decay factor e^(2 gamma h) rounds to 0
# or to 1 at a period of automotive_lu
BAD_GAMMA = {"gamma-factor-rounds-to-0": "-1000", "gamma-factor-rounds-to-1": "-5e-324"}
# a directory given where a file is expected
DIRECTORY_FLAG = {
    "taskset-directory": "--taskset",
    "store-directory": "--store",
    "scenario-directory": "--scenario",
}
BAD_PLANT = {
    "plant-missing-A": lambda d: d.pop("A"),
    "plant-window-string": lambda d: d["detector"].update(window="x"),
    "plant-W-not-psd": lambda d: d.update(W=[[-w for w in row] for row in d["W"]]),
    "plant-V-not-symmetric": lambda d: d.update(
        C=[d["C"][0]] * 2, V=[[1e-4, 1e-5], [0.0, 1e-4]]
    ),
    "plant-Q-negative": lambda d: d.update(Q=[[-q for q in row] for row in d["Q"]]),
    "plant-R-infinite": lambda d: d.update(R=[[float("inf")]]),
    "plant-A-nan": lambda d: d["A"][0].__setitem__(0, float("nan")),
    # windows over the 100 000 calibration draws; never calibrate or build a
    # detector with one (it allocates, or convolves 10^10 terms)
    "plant-window-over-draws": lambda d: d["detector"].update(window=100_001),
    "plant-window-huge": lambda d: d["detector"].update(window=10**30),
}
# an input file that is no JSON object, by kind: its bytes, DIRECTORY, or
# None for a file that does not exist
BAD_FILE = {
    "not-utf8": b"\xff\xfe",
    "not-json": b"{not json",
    "too-deep": b"[" * 100_000,
    "not-object": b"[1, 2]",
    "directory": DIRECTORY,
    "missing": None,
}
FILE_FLAG = {"--taskset": "taskset", "--scenario": "scenario", "--store": "store",
             "--plants": "plant"}
BAD_FILE_CASES = {
    f"{name}-file-{kind}": (flag, kind) for flag, name in FILE_FLAG.items() for kind in BAD_FILE
}


def bad_file_path(flag: str, tmp_path) -> Path:
    """The file of ``flag`` that ``bad_file_argv`` spoils: for ``--plants``,
    the cc plant in a copy of the bundled plants."""
    return tmp_path / "plants" / "cc.json" if flag == "--plants" else tmp_path / "bad.json"


def bad_file_argv(flag: str, content, stores, tmp_path) -> list[str]:
    """argv of a simulate run whose ``flag`` file holds ``content`` (a value
    of BAD_FILE, or any bytes), writing to ``tmp_path / "out"``."""
    plants = tmp_path / "plants"
    plants.mkdir()
    for src in data_path("plants").glob("*.json"):
        (plants / src.name).write_bytes(src.read_bytes())
    files = {"--taskset": str(data_path("tasksets", "automotive_lu.json")),
             "--plants": str(plants),
             "--store": str(stores / "analyze" / "store.json"),
             "--scenario": str(stores / "scenario.json")}
    bad = bad_file_path(flag, tmp_path)
    bad.unlink(missing_ok=True)
    if content is DIRECTORY:
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    if flag != "--plants":
        files[flag] = str(bad)
    return ["simulate", "--policy", "maars", "--epochs", "1", "--out", str(tmp_path / "out"),
            *(arg for pair in files.items() for arg in pair)]


def bad_input_argv(case: str, stores, tmp_path) -> list[str]:
    """argv of a command that must end in a configuration error, writing
    to ``tmp_path / "out"``."""
    lu_store = stores / "analyze" / "store.json"
    out = str(tmp_path / "out")
    if case == "exhaustive-budget":
        return ["analyze", "--taskset", "minimal", "--exhaustive",
                "--exhaustive-budget", "10", "--out", out]
    if case == "static-with-store":
        return ["simulate", "--taskset", "minimal", "--policy", "static",
                "--store", "/nonexistent/store.json", "--epochs", "1",
                "--out", out]
    if case in BAD_GAMMA:
        return ["analyze", "--taskset", "automotive_lu", f"--gamma={BAD_GAMMA[case]}",
                "--out", out]
    if case == "missing-store":  # no --store: looked for in --out
        return ["simulate", "--taskset", "minimal", "--policy", "maars",
                "--epochs", "1", "--out", out]
    if case == "foreign-store":
        return ["simulate", "--taskset", "minimal", "--policy", "maars",
                "--store", str(lu_store), "--out", out]
    if case in BAD_FILE_CASES:
        flag, kind = BAD_FILE_CASES[case]
        return bad_file_argv(flag, BAD_FILE[kind], stores, tmp_path)
    if case in DIRECTORY_FLAG:
        files = {"--taskset": "automotive_lu", "--store": str(lu_store),
                 "--scenario": str(stores / "scenario.json"),
                 DIRECTORY_FLAG[case]: str(stores)}
        return ["simulate", "--policy", "maars", "--epochs", "1", "--out", out,
                *(arg for pair in files.items() for arg in pair)]
    if case == "truncated-store":
        text = lu_store.read_text()
        path = tmp_path / "truncated.json"
        path.write_text(text[: len(text) // 2])
        return ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
                "--store", str(path), "--epochs", "1", "--out", out]
    if case in CORRUPT_STORE:
        data = json.loads(lu_store.read_text())
        CORRUPT_STORE[case](data)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(data))
        return ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
                "--store", str(path), "--epochs", "1", "--out", out]
    static = ["simulate", "--policy", "static", "--epochs", "1", "--out", out]
    if case == "taskset-not-object":
        path = tmp_path / "taskset.json"
        path.write_text("[1, 2]")
        return [*static, "--taskset", str(path)]
    if case in BAD_TASKSET:
        data = json.loads(data_path("tasksets", "minimal.json").read_text())
        BAD_TASKSET[case](data)
        path = tmp_path / "taskset.json"
        path.write_text(json.dumps(data))
        return ["baseline", "--taskset", str(path), "--out", out]
    static += ["--taskset", "automotive_lu"]
    if case in BAD_PLANT:
        for src in data_path("plants").glob("*.json"):
            plant = json.loads(src.read_text())
            BAD_PLANT[case](plant)
            (tmp_path / src.name).write_text(json.dumps(plant))
        return [*static, "--plants", str(tmp_path)]
    scenario = tmp_path / "scenario.json"
    if case == "scenario-not-object":
        scenario.write_text("[1, 2]")
    elif case in BAD_SCENARIO:
        scenario.write_text(to_json(
            {"compromised_task_id": 5, "victim_id": 2, **BAD_SCENARIO[case]}
        ))
    else:
        roles = {"untrusted-victim": (5, 6), "trusted-attacker": (1, 2)}[case]
        scenario.write_text(json.dumps(
            {"compromised_task_id": roles[0], "victim_id": roles[1]}
        ))
    return [*static, "--scenario", str(scenario)]


# the commands that design the control loops of automotive_lu
LOOP_DESIGN_COMMANDS = pytest.mark.parametrize("argv", [
    ["analyze", "--seeds", "1"], ["simulate", "--policy", "static", "--epochs", "1"],
], ids=lambda argv: argv[0])


def loop_design_error(argv: list[str], tmp_path, capsys, **cc) -> str:
    """Standard error of ``argv`` on automotive_lu with the bundled plants,
    the cc plant's matrices replaced by ``cc``; asserts exit 3 and no
    output directory."""
    plants, out = tmp_path / "plants", tmp_path / "out"
    plants.mkdir()
    for src in data_path("plants").glob("*.json"):
        plant = json.loads(src.read_text())
        if plant["name"] == "cc":
            plant.update(cc)
        (plants / src.name).write_text(json.dumps(plant))
    argv = [*argv, "--taskset", "automotive_lu", "--plants", str(plants), "--out", str(out)]
    assert main(argv) == EXIT_INFEASIBLE
    assert not out.exists()
    return capsys.readouterr().err


class TestExitCodes:
    """Every exit 2 or 3 also leaves no --out directory behind."""

    def test_missing_taskset_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--taskset", "nope", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_malformed_taskset_is_config_error(self, tmp_path):
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_text("{not json")
        assert main(["analyze", "--taskset", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unschedulable_is_infeasible(self, tmp_path, minimal_ts, capsys):
        data = taskset_to_dict(minimal_ts)
        # saturate the untrusted task so the set cannot meet deadlines
        data["untrusted"][0] = {"id": 3, "period": 4, "wcet": 3}
        path, out = tmp_path / "overload.json", tmp_path / "out"
        path.write_text(json.dumps(data))
        for command in (["analyze"], ["baseline"],
                        ["simulate", "--policy", "static", "--epochs", "1"]):
            argv = [*command, "--taskset", str(path), "--out", str(out)]
            assert main(argv) == EXIT_INFEASIBLE
            assert capsys.readouterr().err == (
                "infeasible: task set unschedulable at minimum periods\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["simulate", "--policy", "static", "--epochs", "1"],
    ], ids=lambda argv: argv[0])
    def test_out_that_is_a_file_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main([*argv, "--taskset", "minimal", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        "exhaustive-budget", "static-with-store", "missing-store", "foreign-store",
        "truncated-store",
        "untrusted-victim", "trusted-attacker",
        "scenario-not-object", *CORRUPT_STORE, *BAD_SCENARIO, "taskset-not-object",
        *BAD_GAMMA,
        *BAD_TASKSET, *BAD_PLANT, *DIRECTORY_FLAG, *BAD_FILE_CASES,
    ])
    def test_bad_input_is_config_error(self, case, golden_stores, tmp_path, capsys):
        assert main(bad_input_argv(case, golden_stores, tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        if case in BAD_FILE_CASES:  # the error names the file
            assert str(bad_file_path(BAD_FILE_CASES[case][0], tmp_path)) in err

    def test_out_store_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        """A write to --out that fails is a configuration error."""
        out = tmp_path / "out"
        (out / "store.json").mkdir(parents=True)
        argv = ["analyze", "--taskset", "minimal", "--exhaustive", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    def test_criticality_underflow_is_config_error(self, command, tmp_path, capsys):
        """A task set whose criticalities cannot be normalized is rejected
        when it is read, by every command that reads it."""
        data = json.loads(data_path("tasksets", "minimal.json").read_text())
        BAD_TASKSET["taskset-criticality-underflow"](data)
        path, out = tmp_path / "taskset.json", tmp_path / "out"
        path.write_text(json.dumps(data))
        argv = [command, "--taskset", str(path), "--seeds", "2", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: taskset {path}: ") and err.count("\n") == 1
        assert "criticalities all round to 0" in err
        assert not out.exists()

    @LOOP_DESIGN_COMMANDS
    def test_singular_synthesis_is_infeasible(self, argv, tmp_path, capsys):
        """A plant whose Kalman synthesis solves a singular system (no
        measurement and no measurement noise) rejects the period: exit 3."""
        assert loop_design_error(argv, tmp_path, capsys, C=[[0.0]], V=[[0.0]]) == (
            "infeasible: task 3: plant cc, period 10: Singular matrix\n"
        )

    @LOOP_DESIGN_COMMANDS
    def test_singular_residue_covariance_is_infeasible(self, argv, tmp_path, capsys):
        """A plant with no measurement and measurement noise below working
        precision has a singular residue covariance: the period is rejected
        where its loop is designed, exit 3."""
        assert loop_design_error(argv, tmp_path, capsys, C=[[0.0]], V=[[1e-301]]) == (
            "infeasible: task 3: plant cc, period 10: singular residue covariance\n"
        )

    @LOOP_DESIGN_COMMANDS
    def test_zero_input_names_task_plant_and_period(self, argv, tmp_path, capsys):
        """A plant with no actuation fails its loop design at the task's
        first period: exit 3, with the task, the plant and the period."""
        assert loop_design_error(argv, tmp_path, capsys, B=[[0.0]]) == (
            "infeasible: task 3: plant cc, period 10: "
            "input matrix is zero: no actuation authority\n"
        )

    @pytest.mark.parametrize("argv", [
        ["analyze", "--scenario", "/nonexistent"],
        ["analyze", "--store", "/nonexistent"],
        ["analyze", "--epochs", "9"],
        ["baseline", "--policy", "maars"],
        ["baseline", "--gamma", "-1"],
        ["simulate", "--seeds", "5"],
        ["simulate", "--exhaustive"],
        ["simulate", "--gamma", "-0.5"],
        pytest.param(["analyze", "--policy", "maars"], id="analyze --policy maars"),
        pytest.param(["analyze", "--policy", "shuffle"], id="analyze --policy shuffle"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_of_another_command_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--taskset", "minimal", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed-base", "-1"],
        ["analyze", "--seeds", "-1"],
        ["baseline", "--seeds", "1.5"],
        ["baseline", "--exhaustive-budget", "-1"],
        ["simulate", "--epochs", "-1"],
        ["analyze", "--gamma", "0.5"],
        ["analyze", "--gamma", "0"],
        ["analyze", "--gamma", "nan"],
        ["analyze", "--gamma=-inf"],
        ["simulate", "--noise-scale", "nan"],
        ["simulate", "--noise-scale", "inf"],
        ["simulate", "--noise-scale", "-0.5"],
        ["simulate", "--policy", "edf"],
    ], ids=" ".join)
    def test_out_of_range_flag_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--taskset", "minimal", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        flag = argv[1].split("=")[0]
        assert f"argument {flag}: " in capsys.readouterr().err


def value_paths(doc, path=()):
    """Paths to the values of a JSON document: the document itself, every
    value of an object, and the first two items of an array."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc[:2]) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield from value_paths(value, (*path, key))


def mutated(doc, path, replacement):
    """A copy of ``doc`` with the value at ``path`` dropped (DROP) or replaced."""
    if not path:
        return replacement
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@pytest.fixture(scope="module")
def minimal_documents(tmp_path_factory):
    """The documents of a simulate run, by file name: the minimal task set
    with task 1 driving the cc plant, that plant, a store built for them
    and an attack scenario."""
    out = tmp_path_factory.mktemp("minimal")
    taskset = json.loads(data_path("tasksets", "minimal.json").read_text())
    taskset["trusted"][0]["plant"] = "cc"
    docs = {
        "taskset.json": taskset,
        "plants/cc.json": json.loads(data_path("plants", "cc.json").read_text()),
        "scenario.json": {"compromised_task_id": 3, "victim_id": 1, "injection": "bias",
                          "value": 1.0, "start_epoch": 0, "duration_epochs": 1},
    }
    write_documents(docs, out)
    code = main(["analyze", "--taskset", str(out / "taskset.json"), "--plants",
                 str(out / "plants"), "--seeds", "2", "--out", str(out)])
    assert code == EXIT_OK
    return {**docs, "store.json": json.loads((out / "store.json").read_text())}


def write_documents(docs: dict, root: Path) -> None:
    for name, doc in docs.items():
        (root / name).parent.mkdir(exist_ok=True)
        if doc is DIRECTORY:
            (root / name).mkdir()
        else:
            (root / name).write_text(to_json(doc))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_store_or_scenario_exits_cleanly(minimal_documents, data):
    """Drop a key or an item of the task set, the plant, the store or the
    scenario, replace a value by one of another type, by a non-finite or
    negative number, or replace the whole document by a directory: simulate
    exits 0, 2 or 3, with no traceback, and only a run that exits 0 makes
    --out. A run that fails prints one line, and a directory is a
    configuration error."""
    docs = dict(minimal_documents)
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(value_paths(docs[name]))))
    replacements = [None, True, -1, 7, 2.5, "x", [], {}, float("inf"), float("nan"),
                    OVERFLOW, DROP if path else DIRECTORY]
    replacement = data.draw(st.sampled_from(replacements) | st.integers(max_value=-1))
    docs[name] = mutated(docs[name], path, replacement)
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(docs, Path(tmp))
        argv = ["simulate", "--taskset", f"{tmp}/taskset.json", "--plants", f"{tmp}/plants",
                "--policy", "maars", "--store", f"{tmp}/store.json",
                "--scenario", f"{tmp}/scenario.json", "--epochs", "2", "--out", f"{tmp}/out"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert (code == EXIT_OK) == Path(tmp, "out").exists()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        assert err.getvalue().startswith(("error: ", "infeasible: "))
        assert err.getvalue().count("\n") == 1
    if replacement is DIRECTORY:
        assert code == EXIT_CONFIG


@settings(max_examples=40, deadline=None)
@given(flag=st.sampled_from(sorted(FILE_FLAG)), content=st.binary(max_size=64))
def test_arbitrary_bytes_as_an_input_file_exit_2(golden_stores, flag, content):
    """Any bytes as the task set, a plant, the scenario or the store: one
    error line and no --out."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = bad_file_argv(flag, content, golden_stores, Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert not Path(tmp, "out").exists()
    assert code == EXIT_CONFIG
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestPruneMenus:
    def test_lu_menus_survive(self, lu_ts, plants):
        pruned, provenance = prune_menus(lu_ts, plants, gamma=-0.5)
        for t, orig in zip(pruned.trusted, lu_ts.trusted):
            assert t.period_menu == orig.period_menu
            rec = provenance[str(t.id)]
            assert rec["input"] == list(orig.period_menu)
            assert rec["after_security"] == list(t.period_menu)

    def test_feasible_specs_all_lu(self, lu_ts, plants):
        pruned, _ = prune_menus(lu_ts, plants, gamma=-0.5)
        assert len(feasible_specs(pruned)) == 81


# sha256 of the artifacts of short fixed-seed `simulate` runs through main().
# A change to any of these bytes changes what the co-simulation or the
# runtime selector does; a refactor of either must reproduce them exactly.
# (`static` deploys no store, so it writes no deployments.csv.) On
# `static-diverged` the victim's state passes the divergence bound at slot 40
# of the second epoch, and the run stops there: trace.csv has 100 rows.
SIMULATE_GOLDEN = {
    "maars-attack": {
        "metrics.json": "795e1232ddd5be6450d4f9d2251db35e8126366dc659082b1b828b65e236a663",
        "trace.csv": "25f91bb30f5ab05794794a5565f66220fe431ba942d834b632f5e40189e743df",
        "deployments.csv": "ccc2392cf3d8efe3364fefed1250593aa4196f99922c35e62f5f982a7ae411dc",
    },
    "maars-nominal": {
        "metrics.json": "3b40b11b672d12e39dea2409864b8eb9bf10aa79ddde0d246bf86d9cae6bbfdc",
        "trace.csv": "7e8eb2bfcb8eea77e6f0ea869ebfe594ae8e4a3ae59f6354bddc72c27191aa79",
        "deployments.csv": "fdc12929a832750789a9fd62c6561b6366a9a52f0a7f5f02cb8bc73d9fbcc217",
    },
    "shuffle": {
        "metrics.json": "6782eccb7189654dda84c6d36b883661ec40933414d9a630b4912c9ec092c5d5",
        "trace.csv": "69cdda9302ec29e7504057e81f0b5df9aa815d53e32a798724042428705c59e2",
        "deployments.csv": "b83076f6a1ba31a886942baf5f05f0536bfbf1b6f9f0bfaa528c2565b4506278",
    },
    "static": {
        "metrics.json": "3d174b4fbeeb34ae0b697be041855d2d1fc328e26f6360a6e2cec4c5037e6fdb",
        "trace.csv": "e88fa4153b118bfb8294535ccb6cc2b0841afd293355cd31ed31d166d55663a7",
    },
    "static-diverged": {
        "metrics.json": "adafbfbc941e338cb74a2dd1489a0c58151eb674ad8d96153e9a127cc998dd40",
        "trace.csv": "aceabe743461470ad115a69b8de87ed8045f2e075cf9a78d3ea6f5063903603e",
    },
}
GOLDEN_SCENARIO = {"compromised_task_id": 5, "victim_id": 2, "injection": "bias",
                   "value": 50.0}
DIVERGING_SCENARIO = {"compromised_task_id": 5, "victim_id": 2, "injection": "replace",
                      "value": 1e7}


# The runs `golden_stores` makes: output directory -> command, task set, seeds.
GOLDEN_RUNS = {
    "analyze": ("analyze", "automotive_lu", "1"),
    "baseline": ("baseline", "automotive_lu", "3"),
    "analyze-hu": ("analyze", "automotive_hu", "1"),
}


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    """The maars store of `analyze` and the shuffle store of `baseline` on
    automotive_lu, the maars store of `analyze` on automotive_hu (whose long
    hyper-periods give hardening the most swaps to try), plus the attack
    scenario files."""
    root = tmp_path_factory.mktemp("golden")
    for name, (command, taskset, seeds) in GOLDEN_RUNS.items():
        code = main([command, "--taskset", taskset, "--seeds", seeds,
                     "--out", str(root / name)])
        assert code == EXIT_OK
    (root / "scenario.json").write_text(json.dumps(GOLDEN_SCENARIO))
    (root / "diverging.json").write_text(json.dumps(DIVERGING_SCENARIO))
    return root


def golden_argv(arm: str, root, out) -> list[str]:
    scenario = ["--scenario", str(root / "scenario.json")]
    argv = {
        "maars-attack": ["--policy", "maars", "--store", str(root / "analyze" / "store.json"),
                         "--epochs", "12", "--seed-base", "3", *scenario],
        "maars-nominal": ["--policy", "maars", "--store", str(root / "analyze" / "store.json"),
                          "--epochs", "12", "--seed-base", "4"],
        "static": ["--policy", "static", "--epochs", "6", "--seed-base", "1", *scenario],
        "static-diverged": ["--policy", "static", "--epochs", "20", "--seed-base", "7",
                            "--scenario", str(root / "diverging.json")],
        "shuffle": ["--policy", "shuffle", "--store", str(root / "baseline" / "store.json"),
                    "--epochs", "10", "--seed-base", "2", *scenario],
    }[arm]
    return ["simulate", "--taskset", "automotive_lu", "--out", str(out), *argv]


# sha256 of the store.json that `golden_stores` builds with each command:
# the task set the store was built for and its schedules in SVI order.
STORE_GOLDEN = {
    "analyze": "9dc7b2d7711a4f3fdc95bf466f1e9815e4f182836d175995edc80c44e245bac6",
    "baseline": "591d9869aa81eb8a430e881efe78edfd92d0eac773c4b31cac0a630e946f9c79",
    "analyze-hu": "d3943a540c3a2af9453c384fa61aea42f1282a0d3cdf5b595117fb924358825c",
}


@pytest.mark.parametrize("command", sorted(STORE_GOLDEN))
def test_store_matches_golden(command, golden_stores):
    got = hashlib.sha256((golden_stores / command / "store.json").read_bytes()).hexdigest()
    assert got == STORE_GOLDEN[command]


# sha256 of the vuln.csv and ir.csv that `golden_stores` writes with each
# command: every stored schedule's counts, APs, SVI and inferability ratios,
# which store.json does not hold but which are derived again on load.
REPORT_GOLDEN = {
    "analyze": {
        "vuln.csv": "f7660ae2a5b4930fc160645f5147f209da754d2d9ccf205ffda71f72f129cb84",
        "ir.csv": "72149c82f582e96988057c137cea57de4dfbb35c7f17b0cc47ff6d97a0f71fc2",
    },
    "baseline": {
        "vuln.csv": "ceb16eaa32cab5243c4434b427b38698ffceab509ef6c3ebe16f1e046d4e5140",
        "ir.csv": "82180949883d81f6b928d59cd0069fb6d9455fdf0b5fa1f550df6c92b53842f8",
    },
    "analyze-hu": {
        "vuln.csv": "35987f3cc648d3c207fd795e28b98d5c06672a4f0d31b4792c65d0f931a7a1ab",
        "ir.csv": "8591e322e84ba90fd9a0a859e37ec25b210e99263966d0587ba8c204fe5b49a8",
    },
}


def golden_taskset(name, lu_ts, hu_ts):
    """The task set of the `golden_stores` run ``name``."""
    return {"automotive_lu": lu_ts, "automotive_hu": hu_ts}[GOLDEN_RUNS[name][1]]


@pytest.mark.parametrize("command", sorted(REPORT_GOLDEN))
def test_reports_match_golden(command, golden_stores, lu_ts, hu_ts, tmp_path):
    """The reports of the built store and of the store loaded back."""
    store = load_store(golden_stores / command / "store.json",
                       golden_taskset(command, lu_ts, hu_ts))
    export_reports_csv(store, tmp_path / "vuln.csv")
    write_ir_csv(store, tmp_path / "ir.csv")
    for out in (golden_stores / command, tmp_path):
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in REPORT_GOLDEN[command]}
        assert got == REPORT_GOLDEN[command]


@pytest.mark.parametrize("command", sorted(REPORT_GOLDEN))
def test_ir_csv_holds_the_ladder_of_every_triple(command, golden_stores, lu_ts, hu_ts,
                                                 tmp_path, monkeypatch):
    """ir.csv holds the ladder of every (schedule, victim, attacker) triple,
    folded once per period assignment, distinct victim row and attacker."""
    taskset = golden_taskset(command, lu_ts, hu_ts)
    store = load_store(golden_stores / command / "store.json", taskset)
    victims, attackers = taskset.trusted, taskset.untrusted
    rows = {v.min_period for v in victims}
    windows = [2 * math.lcm(row, u.period) for row in rows for u in attackers]
    lengths = [s.length for s in store.schedules]
    # victims that share a row and victims that do not; hyper-periods both
    # shorter and longer than an observation window
    assert 1 < len(rows) < len(victims)
    assert min(lengths) < max(windows) and max(lengths) > min(windows)
    expected = [["index", "victim", "attacker", "aai", "aei", "ir"]]
    for idx, sched in enumerate(store.schedules):
        for victim in victims:
            for u in attackers:
                lv = build_ladder(sched, victim, u)
                expected.append([str(idx), str(victim.id), str(u.id), str(len(lv.aai)),
                                 str(len(lv.aei)), str(float(inferability_ratio(lv)))])
    calls = []

    def counted(*args):
        calls.append(args)
        return aei_sizes(*args)

    monkeypatch.setattr(maars.cli, "aei_sizes", counted)
    write_ir_csv(store, tmp_path / "ir.csv")
    with open(tmp_path / "ir.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected
    specs = {s.spec for s in store.schedules}
    assert len(calls) == len(specs) * len(rows) * len(attackers)


@pytest.mark.parametrize("command", ["analyze", "baseline", "simulate"])
def test_each_stack_is_built_once_per_command(command, golden_stores, lu_ts, tmp_path,
                                              monkeypatch):
    """A command builds the slot array of each period assignment's schedules
    once: ``analyze`` and ``baseline`` for the store and ir.csv, and
    ``simulate`` for the store's check on load and the store. The commands
    rebuild the golden stores, and ``simulate`` deploys the analyze one."""
    built = "analyze" if command == "simulate" else command
    store = load_store(golden_stores / built / "store.json", lu_ts)
    argv = {
        "analyze": ["analyze", "--taskset", "automotive_lu", "--seeds", "1"],
        "baseline": ["baseline", "--taskset", "automotive_lu", "--seeds", "3"],
        "simulate": ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
                     "--store", str(golden_stores / "analyze" / "store.json"),
                     "--epochs", "1"],
    }[command]
    rows = []
    slot_array = maars.schedgen.slot_array

    def counted(stack, length):
        rows.append(len(stack))
        return slot_array(stack, length)

    monkeypatch.setattr(maars.schedgen, "slot_array", counted)
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert len(rows) == len({s.spec for s in store.schedules})
    assert sum(rows) == len(store.schedules)


def test_simulate_deploys_the_store_without_pruning(golden_stores, tmp_path, monkeypatch):
    def no_pruning(*args, **kwargs):
        raise AssertionError("simulate pruned the period menus")

    monkeypatch.setattr(maars.cli, "prune_menus", no_pruning)
    argv = ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
            "--store", str(golden_stores / "analyze" / "store.json"),
            "--epochs", "2", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK


STORE_WARNINGS = ("no schedule below SVT", "is empty: alert mode unavailable")


def test_store_warnings_only_where_the_store_is_built(golden_stores, tmp_path, caplog):
    """`baseline`'s LU store has no schedule below SVT and empty LUT rows;
    `simulate --policy shuffle` deploys it from the whole pool and uses
    neither, so it does not warn about them."""
    with caplog.at_level(logging.WARNING):
        assert main(golden_argv("shuffle", golden_stores, tmp_path / "sim")) == EXIT_OK
    assert not any(w in r.getMessage() for r in caplog.records for w in STORE_WARNINGS)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert main(["baseline", "--taskset", "automotive_lu", "--seeds", "3",
                     "--out", str(tmp_path / "base")]) == EXIT_OK
    messages = [r.getMessage() for r in caplog.records]
    for warning in STORE_WARNINGS:
        assert any(warning in m for m in messages), warning


def test_store_with_no_first_candidate_is_infeasible(golden_stores, tmp_path, capsys):
    """`maars` draws its first schedule below SVT, and the baseline LU store
    has none: exit 3 with one line, not a traceback, and no --out."""
    argv = ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
            "--store", str(golden_stores / "baseline" / "store.json"),
            "--epochs", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_failure_in_mid_run_leaves_no_out(golden_stores, tmp_path, capsys, monkeypatch):
    """An error raised in the third epoch, after the trace spool is open and
    two epochs' lines are in it: exit 3 with one line, no --out, and the
    spool closed."""
    run_hyper_period, open_spool = CoSimWorld.run_hyper_period, maars.cli.trace_spool
    spools = []

    def failing(world, sched):
        if world.epoch == 2:
            raise Infeasible("injected in epoch 2")
        return run_hyper_period(world, sched)

    @contextlib.contextmanager
    def recorded(*args, **kwargs):
        with open_spool(*args, **kwargs) as spool:
            spools.append(spool)
            yield spool

    monkeypatch.setattr(CoSimWorld, "run_hyper_period", failing)
    monkeypatch.setattr(maars.cli, "trace_spool", recorded)
    out = tmp_path / "out"
    assert main(golden_argv("maars-attack", golden_stores, out)) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: injected in epoch 2\n"
    assert not out.exists()
    assert len(spools) == 1 and spools[0].closed


@pytest.mark.parametrize("out", ["out", "new/nested/out", "existing"])
def test_failure_in_mid_run_leaves_no_file_beside_out(out, golden_stores, tmp_path,
                                                      capsys, monkeypatch):
    """The trace spool lies in the nearest existing directory of --out and
    its ancestors, and a run that fails mid-way removes it: no file is left
    there, whether --out is new, nested in new directories or exists."""
    run_hyper_period = CoSimWorld.run_hyper_period

    def failing(world, sched):
        if world.epoch == 2:
            assert len(list(tmp_path.rglob(".trace-*.csv"))) == 1  # the spool, mid-run
            raise Infeasible("injected in epoch 2")
        return run_hyper_period(world, sched)

    monkeypatch.setattr(CoSimWorld, "run_hyper_period", failing)
    work = tmp_path / "work"
    (work / "existing").mkdir(parents=True)
    assert main(golden_argv("maars-attack", golden_stores, work / out)) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: injected in epoch 2\n"
    assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == ["existing"]


def test_trace_csv_is_the_moved_spool(golden_stores, tmp_path):
    """A run that succeeds leaves its artifacts and no spool, and trace.csv
    gets the permissions of a file the run writes itself (metrics.json)."""
    out = tmp_path / "out"
    assert main(golden_argv("maars-attack", golden_stores, out)) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in out.iterdir()) == [
        "deployments.csv", "metrics.json", "trace.csv"]
    assert (out / "trace.csv").stat().st_mode == (out / "metrics.json").stat().st_mode


def test_diverging_run_warns_nothing(tmp_path, capsys):
    """A plant driven past every float diverges: the run reports it in
    metrics.json and exits 0, and NumPy's overflow warnings stay silent."""
    argv = ["simulate", "--taskset", "automotive_lu", "--policy", "static", "--epochs", "3",
            "--noise-scale", "1e300", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    assert json.loads((tmp_path / "metrics.json").read_text())["diverged"] is True
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("arm", sorted(SIMULATE_GOLDEN))
def test_simulate_outputs_match_golden(arm, golden_stores, tmp_path):
    assert main(golden_argv(arm, golden_stores, tmp_path)) == EXIT_OK
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.json", "trace.csv", "deployments.csv")
        if (tmp_path / name).exists()
    }
    assert got == SIMULATE_GOLDEN[arm]


def test_gamma_without_certificate_is_decided_by_witness(tmp_path, capsys, caplog):
    """At gamma -1, the sc loop's base period cannot decay at the required
    rate (spectral radius of A/sqrt(1+alpha) above 1): a witness, not a
    sweep budget, decides that no menu of task 4 is certified."""
    caplog.set_level(logging.DEBUG, logger="maars.stability")
    argv = ["analyze", "--taskset", "automotive_lu", "--gamma=-1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible: task 4: no stabilizable period subset (plant sc)\n"
    )
    reasons = [r.getMessage() for r in caplog.records
               if r.name == "maars.stability" and r.getMessage().startswith("no CQLF")]
    assert reasons
    assert all("not Schur stable at the required decay" in r for r in reasons)


def test_gamma_in_exponent_form(tmp_path):
    """``--gamma -1e-3`` reads as ``--gamma=-1e-3`` and ``--gamma -0.001``."""
    forms = {"space": ["--gamma", "-1e-3"], "equals": ["--gamma=-1e-3"],
             "decimal": ["--gamma", "-0.001"]}
    outputs = {}
    for name, gamma in forms.items():
        out = tmp_path / name
        argv = ["analyze", "--taskset", "minimal", "--seeds", "2", "--out", str(out), *gamma]
        assert main(argv) == EXIT_OK
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["space"] == outputs["equals"] == outputs["decimal"]
