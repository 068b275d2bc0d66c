"""Command-line pipeline: artifacts, exit codes, policy wiring."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maars.cli
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
from maars.taskmodel import save_taskset, taskset_to_dict
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


CORRUPT_STORE = {
    "store-missing-taskset": lambda d: d.pop("taskset"),
    "store-missing-pool": lambda d: d.pop("pool"),
    "store-changed-tap": lambda d: d["taskset"]["trusted"][0].update(tap=0.3),
    "store-widened-menu": lambda d: d["taskset"]["trusted"][0]["periods"].append(40),
    "store-bad-svt": lambda d: d.update(svt="abc"),
    "store-broken-job": break_a_job,
    "store-period-outside-menu": move_task_1_to_period_20,
}
BAD_SCENARIO = {
    "scenario-bad-injection": {"injection": "flip"},
    "scenario-value-not-number": {"injection": "bias", "value": "x"},
    "scenario-start-epoch-string": {"start_epoch": "1"},
}
BAD_TASKSET = {
    "taskset-float-period": lambda d: d["trusted"][0].update(periods=[2.5, 3]),
    "taskset-bool-wcet": lambda d: d["untrusted"][0].update(wcet=True),
}
BAD_PLANT = {
    "plant-missing-A": lambda d: d.pop("A"),
    "plant-window-string": lambda d: d["detector"].update(window="x"),
    "plant-W-not-psd": lambda d: d.update(W=[[-w for w in row] for row in d["W"]]),
    "plant-V-not-symmetric": lambda d: d.update(
        C=[d["C"][0]] * 2, V=[[1e-4, 1e-5], [0.0, 1e-4]]
    ),
}


def bad_input_argv(case: str, stores, tmp_path) -> list[str]:
    """argv of a command that must end in a configuration error."""
    lu_store = stores / "analyze" / "store.json"
    if case == "exhaustive-budget":
        return ["analyze", "--taskset", "minimal", "--exhaustive",
                "--exhaustive-budget", "10", "--out", str(tmp_path)]
    if case == "foreign-store":
        return ["simulate", "--taskset", "minimal", "--policy", "maars",
                "--store", str(lu_store), "--out", str(tmp_path)]
    if case == "truncated-store":
        text = lu_store.read_text()
        path = tmp_path / "truncated.json"
        path.write_text(text[: len(text) // 2])
        return ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
                "--store", str(path), "--epochs", "1", "--out", str(tmp_path)]
    if case in CORRUPT_STORE:
        data = json.loads(lu_store.read_text())
        CORRUPT_STORE[case](data)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(data))
        return ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
                "--store", str(path), "--epochs", "1", "--out", str(tmp_path)]
    static = ["simulate", "--policy", "static", "--epochs", "1", "--out", str(tmp_path)]
    if case == "taskset-not-object":
        path = tmp_path / "taskset.json"
        path.write_text("[1, 2]")
        return [*static, "--taskset", str(path)]
    if case in BAD_TASKSET:
        data = json.loads(data_path("tasksets", "minimal.json").read_text())
        BAD_TASKSET[case](data)
        path = tmp_path / "taskset.json"
        path.write_text(json.dumps(data))
        return ["baseline", "--taskset", str(path), "--out", str(tmp_path)]
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
        scenario.write_text(json.dumps(
            {"compromised_task_id": 5, "victim_id": 2, **BAD_SCENARIO[case]}
        ))
    else:
        roles = {"untrusted-victim": (5, 6), "trusted-attacker": (1, 2)}[case]
        scenario.write_text(json.dumps(
            {"compromised_task_id": roles[0], "victim_id": roles[1]}
        ))
    return [*static, "--scenario", str(scenario)]


class TestExitCodes:
    def test_missing_taskset_is_config_error(self, tmp_path):
        assert main(["analyze", "--taskset", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_taskset_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--taskset", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unschedulable_is_infeasible(self, tmp_path, minimal_ts):
        data = taskset_to_dict(minimal_ts)
        # saturate the untrusted task so the set cannot meet deadlines
        data["untrusted"][0] = {"id": 3, "period": 4, "wcet": 3}
        path = tmp_path / "overload.json"
        path.write_text(json.dumps(data))
        code = main(["baseline", "--taskset", str(path), "--out", str(tmp_path)])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("case", [
        "exhaustive-budget", "foreign-store", "truncated-store", "untrusted-victim",
        "trusted-attacker",
        "scenario-not-object", *CORRUPT_STORE, *BAD_SCENARIO, "taskset-not-object",
        *BAD_TASKSET, *BAD_PLANT,
    ])
    def test_bad_input_is_config_error(self, case, golden_stores, tmp_path, capsys):
        assert main(bad_input_argv(case, golden_stores, tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

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


DROP = object()


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
        (root / name).write_text(json.dumps(doc))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_store_or_scenario_exits_cleanly(minimal_documents, data):
    """Drop a key or an item of the task set, the plant, the store or the
    scenario, or replace a value by one of another type: simulate exits 0,
    2 or 3, with no traceback."""
    docs = dict(minimal_documents)
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(value_paths(docs[name]))))
    replacements = [None, True, -1, 7, 2.5, "x", [], {}] + ([DROP] if path else [])
    docs[name] = mutated(docs[name], path, data.draw(st.sampled_from(replacements)))
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(docs, Path(tmp))
        argv = ["simulate", "--taskset", f"{tmp}/taskset.json", "--plants", f"{tmp}/plants",
                "--policy", "maars", "--store", f"{tmp}/store.json",
                "--scenario", f"{tmp}/scenario.json", "--epochs", "2", "--out", tmp]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE)
    assert "Traceback" not in err.getvalue()


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
# (`static` deploys no store, so it writes no deployments.csv.)
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
}
GOLDEN_SCENARIO = {"compromised_task_id": 5, "victim_id": 2, "injection": "bias",
                   "value": 50.0}


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    """The maars store of `analyze` and the shuffle store of `baseline` on
    automotive_lu, plus the attack scenario file."""
    root = tmp_path_factory.mktemp("golden")
    for command, seeds in (("analyze", "1"), ("baseline", "3")):
        code = main([command, "--taskset", "automotive_lu", "--seeds", seeds,
                     "--out", str(root / command)])
        assert code == EXIT_OK
    (root / "scenario.json").write_text(json.dumps(GOLDEN_SCENARIO))
    return root


def golden_argv(arm: str, root, out) -> list[str]:
    scenario = ["--scenario", str(root / "scenario.json")]
    argv = {
        "maars-attack": ["--policy", "maars", "--store", str(root / "analyze" / "store.json"),
                         "--epochs", "12", "--seed-base", "3", *scenario],
        "maars-nominal": ["--policy", "maars", "--store", str(root / "analyze" / "store.json"),
                          "--epochs", "12", "--seed-base", "4"],
        "static": ["--policy", "static", "--epochs", "6", "--seed-base", "1", *scenario],
        "shuffle": ["--policy", "shuffle", "--store", str(root / "baseline" / "store.json"),
                    "--epochs", "10", "--seed-base", "2", *scenario],
    }[arm]
    return ["simulate", "--taskset", "automotive_lu", "--out", str(out), *argv]


# sha256 of the store.json that `golden_stores` builds with each command:
# the task set the store was built for and its schedules in SVI order.
STORE_GOLDEN = {
    "analyze": "9dc7b2d7711a4f3fdc95bf466f1e9815e4f182836d175995edc80c44e245bac6",
    "baseline": "591d9869aa81eb8a430e881efe78edfd92d0eac773c4b31cac0a630e946f9c79",
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
}


@pytest.mark.parametrize("command", sorted(REPORT_GOLDEN))
def test_reports_match_golden(command, golden_stores, lu_ts, tmp_path):
    """The reports of the built store and of the store loaded back."""
    store = load_store(golden_stores / command / "store.json", lu_ts)
    export_reports_csv(store, tmp_path / "vuln.csv")
    write_ir_csv(store, tmp_path / "ir.csv")
    for out in (golden_stores / command, tmp_path):
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in REPORT_GOLDEN[command]}
        assert got == REPORT_GOLDEN[command]


def test_simulate_deploys_the_store_without_pruning(golden_stores, tmp_path, monkeypatch):
    def no_pruning(*args, **kwargs):
        raise AssertionError("simulate pruned the period menus")

    monkeypatch.setattr(maars.cli, "prune_menus", no_pruning)
    argv = ["simulate", "--taskset", "automotive_lu", "--policy", "maars",
            "--store", str(golden_stores / "analyze" / "store.json"),
            "--epochs", "2", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("arm", sorted(SIMULATE_GOLDEN))
def test_simulate_outputs_match_golden(arm, golden_stores, tmp_path):
    assert main(golden_argv(arm, golden_stores, tmp_path)) == EXIT_OK
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.json", "trace.csv", "deployments.csv")
        if (tmp_path / name).exists()
    }
    assert got == SIMULATE_GOLDEN[arm]
