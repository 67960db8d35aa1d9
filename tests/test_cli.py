"""End-to-end CLI behavior: outputs, manifests, exit codes."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import peeraudit
from peeraudit import experiments, nullmodels
from peeraudit.backbone import ConvergenceError
from peeraudit.cli import STUDIES, cli, main
from peeraudit.recall import DataError, load_reports, to_report_lines

REPORTS = "ana,bea,cora\nana,bea,cora\nana,bea\ndina,eve\ndina,eve,fay\ndina,eve,fay\n"


@pytest.fixture()
def reports_file(tmp_path):
    path = tmp_path / "reports.txt"
    path.write_text(REPORTS)
    return path


def test_scm_subcommand_outputs(tmp_path, reports_file, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "scm", str(reports_file)])
    assert code == 0
    assert "P = " in capsys.readouterr().out
    groups = json.loads((out / "groups.json").read_text())
    assert groups["schema_version"] == 1
    assert {"ana", "bea", "cora"} in [set(g) for g in groups["groups"]]
    network = (out / "network.csv").read_text()
    assert network.startswith("# schema_version=1")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "scm"
    assert manifest["config"]["threshold"] == 0.4
    assert manifest["seed"] == 0


def test_becd_subcommand_outputs(tmp_path, reports_file):
    out = tmp_path / "out"
    code = main(["--seed", "3", "--out", str(out), "becd", str(reports_file)])
    assert code == 0
    for name in ("pvalues.csv", "network.csv", "groups.json", "manifest.json"):
        assert (out / name).exists()


@pytest.mark.parametrize("command, flag, value", [
    ("becd", "--restarts", "5"),
    ("becd", "--exact-max-n", "12"),
    ("audit", "--restarts", "5"),
    ("scm", "--rule", "profile"),
    ("audit", "--method", "scm-profile"),
    ("scm", "--out-network", "x.csv"),
    ("becd", "--out-pvalues", "x.csv"),
    ("becd", "--out-groups", "x.json"),
])
def test_removed_solver_flags_are_config_errors(tmp_path, reports_file, command, flag, value):
    out = tmp_path / "out"
    target = ["--study", "4a"] if command == "audit" else [str(reports_file)]
    assert main(["--out", str(out), command, *target, flag, value]) == 1
    assert not out.exists()


def test_simulate_shuffle(tmp_path, reports_file):
    out = tmp_path / "sim"
    code = main(
        ["--seed", "1", "--out", str(out), "simulate",
         "--mode", "shuffle", "--reports", str(reports_file), "--trials", "3"]
    )
    assert code == 0
    assert sorted(p.name for p in out.glob("trial_*.txt")) == [
        "trial_0000.txt", "trial_0001.txt", "trial_0002.txt"
    ]


def test_simulate_generate_with_profile(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "n_children": 18, "n_reports": 25, "nomination_probability": 0.2,
        "nomination_skew": 0.3, "group_size_skew": 0.5,
    }))
    out = tmp_path / "sim"
    code = main(
        ["--seed", "1", "--out", str(out), "simulate",
         "--mode", "generate", "--profile", str(profile), "--trials", "2"]
    )
    assert code == 0
    text = (out / "trial_0000.txt").read_text()
    assert len([l for l in text.splitlines() if l.strip()]) == 25


PROFILE = {
    "n_children": 18, "n_reports": 25, "nomination_probability": 0.2,
    "nomination_skew": 0.3, "group_size_skew": 0.5,
}


def test_simulate_generate_with_byte_order_marked_profile(tmp_path):
    plain = tmp_path / "profile.json"
    plain.write_text(json.dumps(PROFILE), encoding="utf-8")
    marked = tmp_path / "bom_profile.json"
    marked.write_text(json.dumps(PROFILE), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for profile in (plain, marked):
        assert main(["--seed", "1", "--out", str(tmp_path / profile.stem), "simulate",
                     "--mode", "generate", "--profile", str(profile), "--trials", "2"]) == 0
    for name in ("trial_0000.txt", "trial_0001.txt"):
        assert (tmp_path / "bom_profile" / name).read_bytes() == (
            tmp_path / "profile" / name
        ).read_bytes()


@pytest.mark.parametrize("payload, key", [
    ({**PROFILE, "extra": 1}, "extra"),
    ({k: v for k, v in PROFILE.items() if k != "group_size_skew"}, "group_size_skew"),
    ({**PROFILE, "n_children": "20"}, "n_children"),
    ({**PROFILE, "n_reports": True}, "n_reports"),
    ({**PROFILE, "nomination_skew": float("nan")}, "nomination_skew"),
    ([1, 2], "JSON object"),
    (b"\xff{}", "utf-8"),  # not UTF-8
    ({**PROFILE, "nomination_skew": 60.0}, "nomination_skew"),  # weights underflow to 0
    # mean report size 27 above the largest, 20: infeasible before any trial
    ({**PROFILE, "n_children": 30, "nomination_probability": 0.9}, "nomination_probability"),
])
def test_simulate_malformed_profile_is_data_error(tmp_path, capsys, payload, key):
    profile = tmp_path / "profile.json"
    profile.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    out = tmp_path / "sim"
    assert main(["--out", str(out), "simulate", "--mode", "generate",
                 "--profile", str(profile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n_children", 10**12), ("n_reports", 10_001)])
def test_simulate_oversize_profile_is_data_error(tmp_path, capsys, monkeypatch, key, value):
    def never(*args, **kwargs):
        raise AssertionError("generate_classroom called")

    monkeypatch.setattr(nullmodels, "generate_classroom", never)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({**PROFILE, key: value, "nomination_probability": 1e-11}))
    assert main(["--out", str(tmp_path / "sim"), "simulate", "--mode", "generate",
                 "--profile", str(profile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and key in err


@pytest.mark.parametrize("text, limit", [
    (",".join(f"c{i}" for i in range(1001)) + "\n", "1000 children"),
    ("a,b\n" * 10_001, "10000 reports"),
])
def test_scm_past_the_parse_limits_is_data_error(tmp_path, capsys, text, limit):
    reports = tmp_path / "reports.txt"
    reports.write_text(text)
    out = tmp_path / "out"
    assert main(["--out", str(out), "scm", str(reports)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and limit in err
    assert not out.exists()


BENCHMARK_REPORTS = pathlib.Path(peeraudit.__file__).parent / "data" / "benchmark_reports.txt"


@pytest.mark.parametrize("mode, fixed, study", [
    ("shuffle", False, "2"), ("generate", False, "4c"), ("generate", True, None),
])
def test_simulate_writes_the_audit_trials_classrooms(tmp_path, monkeypatch, mode, fixed, study):
    # file t is the classroom of null_draws at seed + t, and so the one that
    # audit trial t analyzes at the same seed
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    source = (["--reports", str(BENCHMARK_REPORTS)] if mode == "shuffle"
              else ["--profile", str(profile)] if fixed else [])
    out = tmp_path / "sim"
    assert main(["--seed", "11", "--out", str(out), "simulate", "--mode", mode,
                 *source, "--trials", "3"]) == 0
    draw = nullmodels.null_draws(
        mode,
        rm=load_reports(BENCHMARK_REPORTS) if mode == "shuffle" else None,
        profile=nullmodels.ClassroomProfile(**PROFILE) if fixed else None,
    )
    files = [(out / f"trial_{t:04d}.txt").read_text() for t in range(3)]
    assert files == [to_report_lines(draw(11 + t)[0]) for t in range(3)]
    if study is None:  # audit draws no classroom at a fixed profile
        return
    analyzed = []
    run_pipeline = experiments.run_pipeline

    def keep(rm, *args, **kwargs):
        analyzed.append(to_report_lines(rm))
        return run_pipeline(rm, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_pipeline", keep)
    assert main(["--seed", "11", "--out", str(tmp_path / "audit"), "audit",
                 "--study", study, "--method", "scm-components", "--trials", "3"]) == 0
    assert analyzed == files


def test_simulate_shuffle_requires_reports(tmp_path):
    code = main(["--out", str(tmp_path / "x"), "simulate", "--mode", "shuffle"])
    assert code == 1


@pytest.mark.parametrize("mode, ignored", [("shuffle", "--profile"), ("generate", "--reports")])
def test_simulate_rejects_a_file_its_mode_ignores(tmp_path, reports_file, capsys, mode, ignored):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    needed = ["--reports", str(reports_file)] if mode == "shuffle" else []
    path = {"--profile": profile, "--reports": reports_file}[ignored]
    out = tmp_path / "sim"
    assert main(["--out", str(out), "simulate", "--mode", mode, *needed, ignored, str(path)]) == 1
    assert ignored in capsys.readouterr().err
    assert not out.exists()


def test_audit_study2_row_count(tmp_path):
    out = tmp_path / "audit"
    code = main(
        ["--seed", "7", "--out", str(out), "audit",
         "--study", "2", "--method", "becd", "--trials", "10"]
    )
    assert code == 0
    lines = (out / "records.csv").read_text().strip().split("\n")
    assert len(lines) == 12  # schema comment + header + 10 trials
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 10 and summary["study"] == "2"
    assert (out / "histogram.csv").exists()


def test_audit_study1_reports_agreement(tmp_path):
    out = tmp_path / "audit1"
    code = main(["--out", str(out), "audit", "--study", "1"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_p"] == 1.0
    assert summary["agreement"] >= 0.95
    # the columns follow RunRecord's field order, so reordering it shows here
    assert (out / "records.csv").read_text() == (
        "# schema_version=1\n"
        "trial,method,source,n_children,n_reports,nomination_probability,nomination_skew,"
        "group_size_skew,realized_nomination_skew,realized_group_size_skew,p_stat\n"
        "0,scm-fifty,benchmark,26,61,0.1658259773,-0.05042429282,0.439115706,"
        "-0.05042429282,0.439115706,1\n"
    )


def test_audit_study3_writes_regression(tmp_path):
    out = tmp_path / "audit3"
    code = main(
        ["--seed", "7", "--threads", "4", "--out", str(out),
         "audit", "--study", "3", "--trials", "15"]
    )
    assert code == 0
    reg = json.loads((out / "regression.json").read_text())
    assert len(reg["b"]) == 5
    assert reg["predictor_basis"] == "generator profile parameters"


def test_audit_fifty_at_a_threshold_the_similarity_straddles(tmp_path):
    # this classroom's similarity between children 2 and 8 sits on 0.6
    assert main(
        ["--seed", "1425", "--out", str(tmp_path / "o"), "audit", "--study", "4c",
         "--method", "scm-fifty", "--threshold", "0.6", "--trials", "1"]
    ) == 0


@pytest.mark.parametrize("error, code", [(ConvergenceError, 3), (DataError, 2)])
def test_audit_trial_failure_names_trial_and_seed(tmp_path, monkeypatch, capsys, error, code):
    shuffle = nullmodels.curveball_randomize

    def fail_on_seed_9(rm, n_trades=None, seed=None):
        if seed == 9:
            raise error("injected failure")
        return shuffle(rm, n_trades=n_trades, seed=seed)

    monkeypatch.setattr(nullmodels, "curveball_randomize", fail_on_seed_9)
    assert main(
        ["--seed", "7", "--out", str(tmp_path / "o"), "audit",
         "--study", "2", "--trials", "4"]
    ) == code
    err = capsys.readouterr().err
    assert "trial 2 (seed 9): injected failure" in err

    # the benchmark studies run their one pipeline as trial 0
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(experiments, "run_pipeline", fail)
    for study in ("1", "4a"):
        assert main(["--seed", "9", "--out", str(tmp_path / study), "audit", "--study", study]) == code
        assert "trial 0 (seed 9): injected failure" in capsys.readouterr().err


def test_threads_accepted_and_ignored(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(
        ["--threads", "100000", "--out", str(out), "audit", "--study", "2", "--trials", "3"]
    ) == 0
    assert "note: --threads 100000 is ignored" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["threads"] == 1


@pytest.mark.parametrize("argv", [
    ["audit", "--study", "3", "--trials", "5"],
    ["audit", "--study", "3", "--trials", "10", "--threshold", "1.5"],
    ["audit", "--study", "3", "--trials", "10", "--alpha", "0"],
    ["--seed", "-1", "audit", "--study", "3", "--trials", "10"],
    ["audit", "--study", "3", "--trials", "0"],
], ids=["study3-trials-5", "threshold-1.5", "alpha-0", "seed--1", "trials-0"])
def test_audit_bad_values_stop_before_any_trial(tmp_path, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(nullmodels, "generate_classroom", never)
    out = tmp_path / "o"
    assert main(["--out", str(out), *argv]) == 1
    assert not out.exists()


def test_reproducible_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(
            ["--seed", "5", "--out", str(out), "audit",
             "--study", "2", "--trials", "6"]
        ) == 0
    for name in ("records.csv", "summary.json", "histogram.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_writes_stay_inside_out_dir(tmp_path, reports_file, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    assert main(["--out", str(out), "scm", str(reports_file)]) == 0
    assert list(workdir.iterdir()) == []


def test_network_csv_keeps_a_child_id_with_a_quote(tmp_path):
    reports = tmp_path / "reports.txt"
    reports.write_text(REPORTS.replace("ana", '"ana'))
    out = tmp_path / "out"
    assert main(["--out", str(out), "scm", str(reports)]) == 0
    schema, *lines = (out / "network.csv").read_text().splitlines()
    assert schema == "# schema_version=1"
    header, *rows = csv.reader(lines)
    children = ['"ana', "bea", "cora", "dina", "eve", "fay"]
    assert header == ["", *children]
    assert [row[0] for row in rows] == children


def test_manifest_config_records_every_parameter(tmp_path, reports_file):
    for name, args in [
        ("scm", [str(reports_file)]),
        ("becd", [str(reports_file)]),
        ("simulate", ["--mode", "generate"]),
        ("audit", ["--study", "1"]),
    ]:
        out = tmp_path / name
        assert main(["--out", str(out), name, *args]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == name
        assert set(manifest["config"]) == {p.name for p in cli.commands[name].params}
    assert manifest["config"]["method"] == "scm-fifty"  # audit's default, as resolved


@pytest.mark.parametrize("study", list(STUDIES))
def test_audit_manifest_records_the_trials_that_ran(tmp_path, study):
    # studies 1 and 4a audit the benchmark once, whatever --trials says
    trials = experiments.MIN_REGRESSION_RECORDS
    assert main(["--out", str(tmp_path), "audit", "--study", study, "--trials", str(trials)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rows = (tmp_path / "records.csv").read_text().splitlines()[2:]
    assert manifest["config"]["trials"] == len(rows) == (1 if study in ("1", "4a") else trials)


def test_exit_code_missing_input(tmp_path):
    assert main(["--out", str(tmp_path), "scm", str(tmp_path / "nope.txt")]) == 1


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for content, named in ((b"ana,ana\n", "duplicate"), (b"\xffana,bea\n", "bad.txt")):
        bad.write_bytes(content)  # a duplicate member; bytes that are not UTF-8
        assert main(["--out", str(tmp_path / "o"), "scm", str(bad)]) == 2
        assert named in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, reports_file):
    assert main(
        ["--out", str(tmp_path / "o"), "scm", str(reports_file),
         "--threshold", "2.0"]
    ) == 1


def test_env_var_override(tmp_path, reports_file, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("PEERAUDIT_OUT", str(out))
    assert main(["scm", str(reports_file)]) == 0
    assert (out / "groups.json").exists()


def _run_python(code, *args, **env):
    """``python -c code *args`` with this package importable and ``env`` set."""
    path = [str(pathlib.Path(peeraudit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_cli_runs_without_scipy(tmp_path, reports_file):
    # SciPy is a test-only dependency: importing the CLI and running each
    # pipeline and a generated-classroom audit loads no scipy module
    code = (
        "import sys\n"
        "from peeraudit.cli import main\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = [scipy()]\n"
        "out, reports = sys.argv[1:]\n"
        "for args in (['scm', reports], ['becd', reports],\n"
        "             ['audit', '--study', '4c', '--trials', '1']):\n"
        "    assert main(['--out', out, *args]) == 0\n"
        "    loaded.append(scipy())\n"
        "print(loaded)\n"
    )
    run = _run_python(code, str(tmp_path / "out"), str(reports_file))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[[], [], [], []]"


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    reports = tmp_path / "reports.txt"
    reports.write_text(REPORTS.replace("ana", "zoë"), encoding="utf-8")
    out = tmp_path / "out"
    code = (
        "import locale, sys\n"
        "from peeraudit.cli import main\n"
        "print(locale.getpreferredencoding(False), file=sys.stderr)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run = _run_python(code, "--out", str(out), "scm", str(reports),
                      LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert "utf" not in run.stderr.splitlines()[0].lower()
    assert run.returncode == 0, run.stderr
    with (out / "network.csv").open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1] == ["", "zoë", "bea", "cora", "dina", "eve", "fay"]
    groups = json.loads((out / "groups.json").read_text(encoding="utf-8"))
    assert ["bea", "cora", "zoë"] in groups["groups"]
