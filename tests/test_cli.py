"""End-to-end CLI behavior: outputs, manifests, exit codes."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import peeraudit
from peeraudit import nullmodels
from peeraudit.backbone import ConvergenceError
from peeraudit.cli import main
from peeraudit.recall import DataError

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
])
def test_removed_solver_flags_are_config_errors(tmp_path, reports_file, command, flag, value):
    out = tmp_path / "out"
    target = [str(reports_file)] if command == "becd" else ["--study", "4a"]
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


@pytest.mark.parametrize("payload, key", [
    ({**PROFILE, "extra": 1}, "extra"),
    ({k: v for k, v in PROFILE.items() if k != "group_size_skew"}, "group_size_skew"),
    ({**PROFILE, "n_children": "20"}, "n_children"),
    ({**PROFILE, "n_reports": True}, "n_reports"),
    ({**PROFILE, "nomination_skew": float("nan")}, "nomination_skew"),
    ([1, 2], "JSON object"),
])
def test_simulate_malformed_profile_is_data_error(tmp_path, capsys, payload, key):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(payload))
    out = tmp_path / "sim"
    assert main(["--out", str(out), "simulate", "--mode", "generate",
                 "--profile", str(profile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and key in err
    assert not list(out.glob("trial_*.txt"))


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


def test_simulate_shuffle_requires_reports(tmp_path):
    code = main(["--out", str(tmp_path / "x"), "simulate", "--mode", "shuffle"])
    assert code == 1


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


def test_audit_profile_records_equal_components_records(tmp_path):
    rows = {}
    for method in ("scm-profile", "scm-components"):
        out = tmp_path / method
        assert main(
            ["--out", str(out), "audit", "--study", "2", "--method", method, "--trials", "30"]
        ) == 0
        lines = (out / "records.csv").read_text().splitlines()
        table = list(csv.reader(line for line in lines if not line.startswith("#")))
        col = table[0].index("method")
        rows[method] = [row[:col] + row[col + 1 :] for row in table]
    assert len(rows["scm-profile"]) == 31
    assert rows["scm-profile"] == rows["scm-components"]


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


def test_threads_accepted_and_ignored(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(
        ["--threads", "100000", "--out", str(out), "audit", "--study", "2", "--trials", "3"]
    ) == 0
    assert "note: --threads 100000 is ignored" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["threads"] == 1


def test_audit_study3_rejects_too_few_trials_before_any_trial(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(nullmodels, "generate_classroom", never)
    assert main(["--out", str(tmp_path / "o"), "audit", "--study", "3", "--trials", "5"]) == 1


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


def test_exit_code_missing_input(tmp_path):
    assert main(["--out", str(tmp_path), "scm", str(tmp_path / "nope.txt")]) == 1


def test_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ana,ana\n")
    assert main(["--out", str(tmp_path / "o"), "scm", str(bad)]) == 2


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


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes about half a second to import and nothing needs it
    path = [str(pathlib.Path(peeraudit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, peeraudit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[]"
