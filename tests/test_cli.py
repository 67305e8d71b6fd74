"""End-to-end tests of the command-line interface.

These call cli.main() with argv lists; one test runs the declared console
script entry point through a real subprocess.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noisy_euler import cli
from noisy_euler.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


RB_SMALL = (
    "rb", "--device", "rome", "--qubit", "3",
    "--circuits", "2", "--gates", "12", "--depths", "1:12:4",
    "--shots", "inf", "--seed", "7",
)


# ------------------------------------------------------------ exit codes

def test_usage_error_device_and_lambda_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize", "--gate", "h", "--state", "0,0",
                "--device", "rome", "--qubit", "3", "--lambda", "0.1")
    assert exc.value.code == 2


def test_usage_error_unknown_device():
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize", "--gate", "h", "--state", "0,0",
                "--device", "nosuch", "--qubit", "0")
    assert exc.value.code == 2


def test_usage_error_unknown_qubit():
    with pytest.raises(SystemExit) as exc:
        run_cli("rb", "--device", "rome", "--qubit", "42")
    assert exc.value.code == 2


def test_usage_error_qubit_without_device(tmp_path, capsys):
    """--qubit names a qubit of --device; alone it is a usage error, not a
    run at the --lambda noise."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), "optimize", "--gate", "h", "--state", "1,0",
                "--lambda", "0.01", "--qubit", "3")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # a usage error spanning several flags prints its subcommand's usage
    assert err.startswith("usage: noisy-euler optimize ") and "--qubit" in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_state_and_dist_conflict():
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize", "--gate", "h", "--state", "0,0",
                "--dist", "uniform", "--lambda", "0.1")
    assert exc.value.code == 2


def test_usage_error_noise_missing():
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize", "--gate", "h", "--state", "0,0")
    assert exc.value.code == 2


def test_usage_error_bad_gate():
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize", "--gate", "q", "--state", "0,0", "--lambda", "0")
    assert exc.value.code == 2


def test_usage_error_mitigate_without_readout(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*RB_SMALL, "--mitigate")
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: noisy-euler rb ")


def test_usage_error_no_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_runtime_error_missing_file(capsys):
    assert run_cli("validate", "/nonexistent/dev.json") == 1
    assert "error:" in capsys.readouterr().err


def test_runtime_error_malformed_device(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("validate", str(bad)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line" in err


def test_runtime_error_missing_manifest(capsys):
    assert run_cli("--from-manifest", "/nonexistent/m.json") == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "noisy-euler" in capsys.readouterr().out


# ---------------------------------------------------------------- optimize

def test_optimize_zero_noise_reports_no_change(tmp_path, capsys):
    rc = run_cli("--output-dir", str(tmp_path), "optimize",
                 "--gate", "h", "--state", "0,0", "--lambda", "0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "improvement = 0" in out
    assert "objective at target angles  = 1" in out
    summary = json.loads((tmp_path / "optimize_summary.json").read_text())
    assert summary["improvement"] == 0.0
    assert (tmp_path / "optimize_manifest.json").exists()


def test_optimize_with_distribution_and_device(tmp_path, capsys):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "capopt", "optimize",
                 "--gate", "h", "--dist", "cap:0.5",
                 "--device", "rome", "--qubit", "3")
    assert rc == 0
    summary = json.loads((tmp_path / "capopt_summary.json").read_text())
    assert summary["improvement"] >= 0.0
    assert summary["config"]["dist"] == {"kind": "cap", "theta_max": 0.5}


def test_optimize_explicit_angle_gate(tmp_path, capsys):
    rc = run_cli("--output-dir", str(tmp_path), "optimize",
                 "--gate", "0.3,1.2,2.1", "--state", "1.0,0.5", "--lambda", "0.02,0.01")
    assert rc == 0
    out = capsys.readouterr().out
    assert "improvement" in out
    assert "iterations = 0, converged = True" in out  # a point input's closed form
    summary = json.loads((tmp_path / "optimize_summary.json").read_text())
    assert summary["config"]["gate"] == [0.3, 1.2, 2.1]
    assert summary["config"]["noise"]["lambda_a"] == 0.02
    assert summary["config"]["noise"]["lambda_p"] == 0.01
    assert len(summary["angles_opt"]) == 3


def test_one_lambda_is_both_rates(tmp_path):
    """--lambda X is --lambda X,X: the same config, so the same summary."""
    summaries = []
    for lam in ("0.03", "0.03,0.03"):
        assert run_cli("--output-dir", str(tmp_path), "--tag", "t", "optimize",
                       "--gate", "h", "--dist", "cap:0.5", "--lambda", lam) == 0
        summaries.append((tmp_path / "t_summary.json").read_bytes())
    assert summaries[0] == summaries[1]


# ---------------------------------------------------------------------- rb

def test_rb_csv_layout(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "r1", *RB_SMALL)
    assert rc == 0
    header, rows = read_csv(tmp_path / "r1.csv")
    assert header == ["experiment_id", "k", "circuit_index", "depth",
                      "arm", "fidelity", "stderr"]
    # depths 1,5,9 -> per-circuit rows 2*3*2 = 12, aggregate rows 3*2 = 6
    assert len(rows) == 18
    per_circuit = [r for r in rows if r[2] != ""]
    aggregate = [r for r in rows if r[2] == ""]
    assert len(per_circuit) == 12 and len(aggregate) == 6
    assert all(r[0] == "r1" for r in rows)
    assert all(r[4] in ("unopt", "opt") for r in rows)
    assert all(r[6] == "" for r in per_circuit)
    assert all(r[6] != "" for r in aggregate)
    assert all(0.0 <= float(r[5]) <= 1.0 for r in rows)


def test_rb_summary_contains_fits(tmp_path):
    run_cli("--output-dir", str(tmp_path), "--tag", "r2", *RB_SMALL)
    summary = json.loads((tmp_path / "r2_summary.json").read_text())
    assert summary["command"] == "rb"
    assert summary["rng_seed"] == 7
    assert set(summary["fits"]) == {"unopt", "opt"}
    for fit in summary["fits"].values():
        assert "error_rate" in fit
    assert "error_rate_reduction" in summary
    assert summary["config"]["noise"]["t1"] == 46.4 * 1e-6


def test_rb_manifest_replay_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    run_cli("--output-dir", str(d1), "--tag", "r3", *RB_SMALL)
    rc = run_cli("--output-dir", str(d2), "--from-manifest",
                 str(d1 / "r3_manifest.json"))
    assert rc == 0
    assert (d1 / "r3.csv").read_bytes() == (d2 / "r3.csv").read_bytes()


def test_rb_rerun_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    run_cli("--output-dir", str(d1), "--tag", "rr", *RB_SMALL)
    run_cli("--output-dir", str(d2), "--tag", "rr", *RB_SMALL)
    assert (d1 / "rr.csv").read_bytes() == (d2 / "rr.csv").read_bytes()


def test_rb_jobs_flag_and_manifest_replay(tmp_path):
    """--jobs 2 writes the bytes --jobs 1 writes, and so does a replay of
    the manifest that records "jobs": 2."""
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("--output-dir", str(d1), "--tag", "rj", *RB_SMALL, "--jobs", "1")
    run_cli("--output-dir", str(d2), "--tag", "rj", *RB_SMALL, "--jobs", "2")
    manifest = d2 / "rj_manifest.json"
    assert json.loads(manifest.read_text(encoding="utf-8"))["config"]["jobs"] == 2
    assert run_cli("--output-dir", str(d3), "--from-manifest", str(manifest)) == 0
    expect = (d1 / "rj.csv").read_bytes()
    assert (d2 / "rj.csv").read_bytes() == expect == (d3 / "rj.csv").read_bytes()


def test_rb_shots_and_readout_flags(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "rs", *RB_SMALL[:-4],
                 "--shots", "256", "--seed", "3",
                 "--readout", "device", "--mitigate")
    assert rc == 0
    header, rows = read_csv(tmp_path / "rs.csv")
    assert len(rows) == 18


# ------------------------------------------------------------------- drift

def test_drift_csv_aggregates_only(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "dk", "drift",
                 "--device", "rome", "--qubit", "3",
                 "--circuits", "2", "--gates", "20", "--depths", "10:20:10",
                 "--k-grid", "0.5,1,2", "--seed", "1")
    assert rc == 0
    header, rows = read_csv(tmp_path / "dk.csv")
    # 3 k values x 2 depths x 2 arms, no per-circuit rows
    assert len(rows) == 12
    assert all(r[2] == "" for r in rows)
    assert sorted({float(r[1]) for r in rows}) == [0.5, 1.0, 2.0]
    summary = json.loads((tmp_path / "dk_summary.json").read_text())
    assert [run["k"] for run in summary["runs"]] == [0.5, 1.0, 2.0]


def test_drift_k_grid_log_spacing(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "dg", "drift",
                 "--lambda", "0.001",
                 "--circuits", "1", "--gates", "10", "--depths", "10",
                 "--k-grid", "1e-2:1e2:5log", "--seed", "1")
    assert rc == 0
    _, rows = read_csv(tmp_path / "dg.csv")
    ks = sorted({float(r[1]) for r in rows})
    assert ks == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0])


# ------------------------------------------------------------------ sweeps

def test_prep_sweep_csv(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "ps", "prep-sweep",
                 "--lambda-grid", "0:0.1:3", "--targets", "5", "--seed", "2")
    assert rc == 0
    header, rows = read_csv(tmp_path / "ps.csv")
    assert header == ["lambda", "theta_max", "mean_improvement", "stderr", "n_samples"]
    assert len(rows) == 3
    assert all(r[1] == "" for r in rows)
    assert rows[0][0] == "0" and float(rows[0][2]) == 0.0
    assert all(int(r[4]) == 5 for r in rows)


def test_knowledge_csv(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "kn", "knowledge",
                 "--lambda-grid", "0.02,0.05", "--theta-max-grid", "0.4,3.14159265",
                 "--targets", "4", "--seed", "2")
    assert rc == 0
    header, rows = read_csv(tmp_path / "kn.csv")
    assert len(rows) == 4
    assert all(r[1] != "" for r in rows)
    # lambda-major ordering
    assert [float(r[0]) for r in rows] == [0.02, 0.02, 0.05, 0.05]


def test_knowledge_default_cap_grid(tmp_path):
    rc = run_cli("--output-dir", str(tmp_path), "--tag", "kd", "knowledge",
                 "--lambda-grid", "0.05", "--targets", "2", "--seed", "2")
    assert rc == 0
    _, rows = read_csv(tmp_path / "kd.csv")
    assert len(rows) == 25
    caps = [float(r[1]) for r in rows]
    assert caps[0] == pytest.approx(math.pi / 25)
    assert caps[-1] == pytest.approx(math.pi)


def test_sweep_manifest_replay(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ("prep-sweep", "--lambda-grid", "0,0.05", "--targets", "4", "--seed", "5")
    run_cli("--output-dir", str(d1), "--tag", "pr", *args)
    rc = run_cli("--output-dir", str(d2), "--from-manifest",
                 str(d1 / "pr_manifest.json"))
    assert rc == 0
    assert (d1 / "pr.csv").read_bytes() == (d2 / "pr.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ("optimize", "--gate", "h", "--state", "1.047,0", "--device", "rome", "--qubit", "3"),
    ("optimize", "--gate", "0.3,1.2,2.1", "--dist", "cap:0.5", "--lambda", "0.02"),
    RB_SMALL + ("--readout", "device", "--mitigate", "--shots", "500"),
    ("drift", "--lambda", "0.01", "--circuits", "2", "--gates", "12", "--depths", "4:12:4",
     "--k-grid", "1e-2:1e2:3log", "--seed", "3"),
    ("prep-sweep", "--lambda-grid", "0:0.1:3", "--targets", "3", "--seed", "2"),
    ("knowledge", "--lambda-grid", "0.02,0.05", "--theta-max-grid", "0.4:3.1:2",
     "--targets", "3", "--seed", "2"),
], ids=["optimize-state", "optimize-cap", "rb", "drift", "prep-sweep", "knowledge"])
def test_replay_reproduces_csv_and_summary(tmp_path, args):
    """A fresh run and the replay of its manifest take the same path from the
    config on, so the replay's CSV (where the command writes one) and
    summary are byte-identical to the fresh run's."""
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("--output-dir", str(d1), "--tag", "one", *args) == 0
    assert run_cli("--output-dir", str(d2), "--from-manifest", str(d1 / "one_manifest.json")) == 0
    names = ["one_summary.json"] + (["one.csv"] if args[0] != "optimize" else [])
    assert sorted(p.name for p in d2.iterdir()) == sorted(names + ["one_manifest.json"])
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------- validate

def test_validate_reports_warnings(capsys):
    from importlib import resources

    src = resources.files("noisy_euler") / "data" / "rome.json"
    rc = run_cli("validate", str(src))
    assert rc == 0
    out = capsys.readouterr().out
    assert "ibmq_rome" in out
    assert "warning:" in out and "qubit 3" in out


def test_validate_clean_device(capsys):
    from importlib import resources

    src = resources.files("noisy_euler") / "data" / "bogota.json"
    assert run_cli("validate", str(src)) == 0
    out = capsys.readouterr().out
    assert "no warnings" in out


# --------------------------------------------------------------- manifests

def test_manifest_contents(tmp_path):
    run_cli("--output-dir", str(tmp_path), "--tag", "mt", *RB_SMALL)
    doc = json.loads((tmp_path / "mt_manifest.json").read_text())
    for key in ("command", "config", "rng_seed", "version", "outputs",
                "duration_seconds", "created_utc", "tag"):
        assert key in doc
    assert doc["command"] == "rb"
    assert doc["tag"] == "mt"
    assert any(p.endswith("mt.csv") for p in doc["outputs"])


@pytest.mark.parametrize(
    "key, value", [("fd_step", 1e-6), ("quadrature_mode", "gauss"), ("mc_samples", 4096)]
)
def test_manifest_with_removed_optimizer_key_exits_1(tmp_path, capsys, key, value):
    """A manifest written before the optimizer block was replaced by
    ``multistart``, and before that block lost its finite-difference,
    quadrature and Monte Carlo settings, replays as one error line naming
    'optimizer', not a traceback."""
    args = ("prep-sweep", "--lambda-grid", "0.05", "--targets", "2", "--seed", "5")
    run_cli("--output-dir", str(tmp_path), "--tag", "old", *args)
    path = tmp_path / "old_manifest.json"
    doc = json.loads(path.read_text())
    doc["config"]["optimizer"] = {"max_iterations": 500, "gradient_tolerance": 1e-9,
                                  "multistart_count": 0, "rng_seed": 5, key: value}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run_cli("--output-dir", str(tmp_path / "replay"), "--from-manifest", str(path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'optimizer'" in err


PREP_SMALL = ("prep-sweep", "--lambda-grid", "0.05", "--targets", "2", "--seed", "5")
# refusals of a fresh run's config, which name the flag that filled the key
DEPTHS_RANGE = "--depths: depth_schedule must be nonempty, strictly increasing and >= 1"
SHOTS_RANGE = "--shots: shots must be >= 1"
DIST_RANGE = "--state/--dist: dist: theta_max must lie in (0, pi]"
K_RANGE = "--k: drift_factor must be positive and finite"
K_GRID_RANGE = "--k-grid: k_grid: drift_factor must be positive and finite"
CAP_SMALL = ("optimize", "--gate", "h", "--dist", "cap:0.7", "--lambda", "0.05")
KNOWLEDGE_SMALL = ("knowledge", "--lambda-grid", "0.05", "--theta-max-grid", "0.5",
                   "--targets", "2")
DRIFT_SMALL = ("drift", "--lambda", "0.01", "--circuits", "1", "--gates", "6",
               "--depths", "2:6:2", "--k-grid", "1,10")


@pytest.mark.parametrize(
    "args, edit, key",
    [
        (PREP_SMALL, lambda doc: doc.__setitem__("config", [1, 2]), "config"),
        (PREP_SMALL, lambda doc: doc["config"].update(optimizer=None), "optimizer"),
        (RB_SMALL, lambda doc: doc["config"].update(multistart="5"), "config.multistart"),
        (PREP_SMALL, lambda doc: doc["config"].update(targets_per_point="3"),
         "targets_per_point"),
        (RB_SMALL, lambda doc: doc["config"].update(track_noisy_state="false"),
         "track_noisy_state"),
        (RB_SMALL, lambda doc: doc["config"].update(n_circut=5), "n_circut"),
        (RB_SMALL, lambda doc: doc["config"]["noise"].update(lambda_x=0.1), "lambda_x"),
        (RB_SMALL, lambda doc: doc["config"]["noise"].update(lambda_a="0.1"), "lambda_a"),
        (RB_SMALL, lambda doc: doc["config"].update(multistart=-1), "multistart"),
        (CAP_SMALL, lambda doc: doc["config"].update(dist={"kind": "cap"}), "theta_max"),
        (CAP_SMALL, lambda doc: doc["config"]["dist"].update(theta_max=0.0),
         "config.dist: theta_max must lie in (0, pi]"),
        (CAP_SMALL, lambda doc: doc["config"]["dist"].update(theta_max=4.0),
         "config.dist: theta_max must lie in (0, pi]"),
        (RB_SMALL, lambda doc: doc["config"].update(rng_seed=-1), "rng_seed"),
        (PREP_SMALL, lambda doc: doc["config"].update(rng_seed=-1), "rng_seed"),
        (CAP_SMALL, lambda doc: doc["config"]["gate"].append(1.0), "config.gate"),
        (PREP_SMALL, lambda doc: doc["config"].update(jobs=0), "config.jobs"),
        (RB_SMALL, lambda doc: doc["config"].update(depth_schedule=[1, 5, 13]),
         "config.depth_schedule must not exceed n_gates"),
        (PREP_SMALL, lambda doc: doc["config"].update(lambda_grid=[1.5]),
         "config.lambda_grid entries must lie in [0, 1)"),
        (KNOWLEDGE_SMALL, lambda doc: doc["config"].update(theta_max_grid=[0.0]),
         "config.theta_max_grid entry 0.0: theta_max must lie in (0, pi]"),
        (DRIFT_SMALL, lambda doc: doc["config"].update(k_grid=[0.0]),
         "config.k_grid: drift_factor must be positive and finite"),
        (KNOWLEDGE_SMALL, lambda doc: doc.__setitem__("command", "prep-sweep"),
         "'theta_max_grid' that prep-sweep does not take"),
        (DRIFT_SMALL, lambda doc: doc["config"].update(drift_factor=5.0),
         "'drift_factor' that drift does not take"),
        (KNOWLEDGE_SMALL, lambda doc: doc["config"].update(theta_max_grid=[]),
         "config.theta_max_grid must be nonempty"),
    ],
    ids=["config-list", "optimizer-null", "multistart-string", "targets-string",
         "flag-string", "unknown-top-level-key", "unknown-noise-key",
         "lambda-string-beside-times", "multistart-negative", "cap-without-theta-max",
         "rb-seed-negative", "sweep-seed-negative", "optimize-gate-four-angles",
         "jobs-zero", "cap-zero", "cap-above-pi", "depths-past-n-gates", "lambda-grid-1.5",
         "theta-max-grid-0", "k-grid-0", "prep-sweep-theta-max-grid", "drift-drift-factor",
         "knowledge-empty-theta-max-grid"],
)
def test_manifest_with_malformed_config_exits_1(tmp_path, capsys, args, edit, key):
    """A config value of the wrong JSON type replays as one error line that
    names its key, not a TypeError traceback (or, for a boolean given as a
    string, a silently truthy flag)."""
    run_cli("--output-dir", str(tmp_path), "--tag", "bad", *args)
    path = tmp_path / "bad_manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run_cli("--output-dir", str(tmp_path / "replay"), "--from-manifest", str(path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize(
    "tag", ["../escaped", "sub/name", "a\\b", ".", "..", ["a", 1], 7],
    ids=["parent-dir", "subdir", "backslash", "dot", "dotdot", "list", "int"],
)
def test_manifest_with_bad_tag_exits_1(tmp_path, capsys, tag):
    """A replayed tag names files inside --output-dir or nothing: a path, a
    dot name or a non-string exits 1 with one error line and writes nothing."""
    run_cli("--output-dir", str(tmp_path), "--tag", "tg", *PREP_SMALL)
    path = tmp_path / "tg_manifest.json"
    doc = json.loads(path.read_text())
    doc["tag"] = tag
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run_cli("--output-dir", str(tmp_path / "replay" / "out"), "--from-manifest", str(path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "tag" in err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "tg.csv", "tg_manifest.json", "tg_summary.json"]


@pytest.mark.parametrize("tag", ["../escaped", "sub/name", "a\\b", ".", ".."])
def test_usage_error_bad_tag(tmp_path, tag):
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), "--tag", tag, *PREP_SMALL)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [RB_SMALL, DRIFT_SMALL, PREP_SMALL, KNOWLEDGE_SMALL],
                         ids=["rb", "drift", "prep-sweep", "knowledge"])
def test_usage_error_negative_seed(tmp_path, capsys, args):
    """A negative --seed is refused by the run's config, as a usage error
    naming the flag, before anything runs or is written."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), *args, "--seed", "-1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: rng_seed must be >= 0, got -1" in err and "cannot parse" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (("optimize", "--gate", "q", "--state", "0,0", "--lambda", "0"), "--gate: cannot parse"),
    (("optimize", "--gate", "0.3,1.2,2.1,1.0", "--state", "0,0", "--lambda", "0"),
     "--gate: cannot parse"),
    (RB_SMALL + ("--depths", "1:x:3"), "--depths: cannot parse"),
    (RB_SMALL + ("--shots", "many"), "--shots: cannot parse"),
    (("drift", "--lambda", "0.01", "--k-grid", "1:2:0"), "--k-grid: count must be >= 1"),
    (("prep-sweep", "--lambda-grid", "0:0.1:0"), "--lambda-grid: count must be >= 1"),
    (("knowledge", "--lambda-grid", "0.05", "--theta-max-grid", "a,b"),
     "--theta-max-grid: cannot parse"),
    (("optimize", "--gate", "h", "--state", "1", "--lambda", "0"), "--state: cannot parse"),
    (("optimize", "--gate", "h", "--dist", "cap:x", "--lambda", "0"), "--dist: cannot parse"),
    (RB_SMALL + ("--readout", "0.1"), "--readout: cannot parse"),
    (PREP_SMALL + ("--seed", "x"), "--seed: cannot parse"),
    (("optimize", "--gate", "h", "--state", "0,0", "--device", "rome", "--qubit", "x"),
     "--qubit: cannot parse 'x'"),
    (RB_SMALL + ("--multistart", "-1"), "--multistart: multistart must be >= 0"),
    (PREP_SMALL + ("--jobs", "0"), "--jobs: jobs must be an int >= 1"),
    (RB_SMALL + ("--circuits", "0"), "--circuits: n_circuits must be >= 1"),
    (RB_SMALL + ("--gates", "0"), "--gates: n_gates must be >= 1"),
    (PREP_SMALL + ("--targets", "0"), "--targets: targets_per_point must be >= 1"),
    (RB_SMALL + ("--depths", "1:246:0"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "12:1:-4"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "0,5"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "0:12:4"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "5:1:1"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "5,3"), DEPTHS_RANGE),
    (RB_SMALL + ("--depths", "4,4"), DEPTHS_RANGE),
    (RB_SMALL + ("--shots", "0"), SHOTS_RANGE),
    (RB_SMALL + ("--shots", "-3"), SHOTS_RANGE),
    (("optimize", "--gate", "h", "--dist", "cap:0", "--lambda", "0.01"), DIST_RANGE),
    (("optimize", "--gate", "h", "--dist", "cap:4", "--lambda", "0.01"), DIST_RANGE),
    (("optimize", "--gate", "h", "--dist", "cap:nan", "--lambda", "0.01"),
     "--state/--dist: dist.theta_max must be a finite number"),
    (RB_SMALL + ("--k", "-1"), K_RANGE),
    (RB_SMALL + ("--k", "0"), K_RANGE),
    (RB_SMALL + ("--k", "inf"), "--k: drift_factor must be a finite number"),
    (("drift", "--lambda", "0.01", "--k-grid", "0,1"), K_GRID_RANGE),
    (("drift", "--lambda", "0.01", "--k-grid", "1,nan"),
     "--k-grid: k_grid[1] must be a finite number"),
    (("drift", "--lambda", "0.01", "--k-grid", "0:1e3:4"), K_GRID_RANGE),
    (("optimize", "--gate", "h", "--state", "nan,0", "--lambda", "0.01"),
     "--state/--dist: dist.theta must be a finite number"),
    (("optimize", "--gate", "h", "--state", "0.3,inf", "--lambda", "0.01"),
     "--state/--dist: dist.phi must be a finite number"),
    (("optimize", "--gate", "h", "--state", "0,0", "--lambda", "2"),
     "--lambda: lambda_a must lie in [0, 1]"),
    (("optimize", "--gate", "h", "--state", "0,0", "--lambda", "0.01,-1"),
     "--lambda: lambda_p must lie in [0, 1]"),
    (("prep-sweep", "--lambda-grid", "0,1.5"),
     "--lambda-grid: lambda_grid entries must lie in [0, 1)"),
    (("knowledge", "--lambda-grid", "0.05", "--theta-max-grid", "0,1"),
     "--theta-max-grid: theta_max_grid entry 0.0: theta_max must lie in (0, pi]"),
    (("rb", "--lambda", "0.01", "--depths", "1:20:5", "--gates", "10"),
     "--depths: depth_schedule must not exceed n_gates = 10"),
    (RB_SMALL + ("--readout", "1.2,0"), "--readout: readout p_meas1_prep0 must lie in [0, 1]"),
], ids=["gate", "gate-four-angles", "depths", "shots", "k-grid", "lambda-grid",
        "theta-max-grid", "state", "dist", "readout", "seed", "qubit", "multistart", "jobs",
        "circuits", "gates", "targets", "depths-step-0", "depths-step-negative",
        "depths-list-below-1", "depths-range-below-1", "depths-empty-range",
        "depths-decreasing", "depths-repeated", "shots-0", "shots-negative", "dist-cap-0",
        "dist-cap-4", "dist-cap-nan", "k-negative", "k-0", "k-inf", "k-grid-0",
        "k-grid-nan", "k-grid-range-from-0", "state-nan", "dist-point-inf", "lambda-2",
        "lambda-p-negative", "lambda-grid-1.5", "theta-max-grid-0", "depths-past-n-gates",
        "readout-1.2"])
def test_usage_error_bad_flag_value(tmp_path, capsys, args, flag):
    """A flag value that does not parse, or that the run's config refuses, is
    a usage error naming the flag, raised before anything runs or is
    written.  Only a value that does not parse is reported as "cannot parse";
    a refused one (a grid count of 0, a count or seed below its minimum,
    depths that are not strictly increasing from 1 up or pass --gates, a
    --dist cap outside (0, pi], a non-finite angle or value, a drift factor
    that is not positive, a damping or readout probability outside [0, 1])
    names the config key it fills."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), *args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert ("cannot parse" in err) == ("cannot parse" in flag)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (("optimize", "--gate", "h", "--state", "0,0", "--device", "rome", "--qubit", "3",
      "--lambda", "0.1"), "argument --lambda: not allowed with argument --device"),
    (("optimize", "--gate", "h", "--state", "0,0"),
     "one of the arguments --device --lambda is required"),
    (("optimize", "--gate", "h", "--state", "0,0", "--lambda", "1,2,3"),
     "--lambda: cannot parse '1,2,3'"),
    (("optimize", "--gate", "h", "--state", "0,0", "--lambda", "0.1", "--qubit", "3"),
     "--qubit requires --device"),
    (("rb", "--lambda", "0.01", "--readout", "device"),
     "--readout device requires --device and --qubit"),
    (("optimize", "--gate", "h", "--dist", "point:0,0", "--lambda", "0.1"),
     "--dist: cannot parse 'point:0,0'"),
    (RB_SMALL + ("--shots", "exact"), "--shots: cannot parse 'exact'"),
    (("drift", "--lambda", "0.01", "--k-grid", "1:2:3lin"), "--k-grid: cannot parse '1:2:3lin'"),
], ids=["device-and-lambda", "no-noise", "lambda-three-values", "qubit-with-lambda",
        "readout-device-with-lambda", "dist-point", "shots-exact", "grid-lin"])
def test_usage_error_noise_source_and_spelling(tmp_path, capsys, args, message):
    """The noise comes from exactly one of --device (with --qubit) and
    --lambda A[,P], and each input has one spelling: a known state is
    --state, exact shots 'inf', a linear grid 'start:stop:count'."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), *args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: noisy-euler {args[0]} ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(cli._CONFIG_KEYS))
def test_every_config_key_but_noise_is_a_flag_dest(command):
    """A fresh run names the flag whose dest is the refused config key; so
    every key of a command's config but "noise" (made of several flags) is
    the dest of one of its subcommand's flags."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions if a.option_strings}
    assert set(cli._CONFIG_KEYS[command]) - {"noise"} <= dests


@pytest.mark.parametrize("args, flag", [
    (("knowledge", "--lambda-grid", "0.05", "--theta-max-grid", "0.5", "--multistart", "2"),
     "--multistart"),
    (PREP_SMALL + ("--multistart", "2"), "--multistart"),
    (CAP_SMALL + ("--multistart", "2"), "--multistart"),
    (CAP_SMALL + ("--seed", "3"), "--seed"),
], ids=["knowledge-multistart", "prep-sweep-multistart", "optimize-multistart", "optimize-seed"])
def test_usage_error_flag_only_rb_takes(tmp_path, capsys, args, flag):
    """Only rb and drift draw random extra starts, so only they take
    --multistart; optimize draws nothing and takes no --seed either."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), *args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_pre_change_sweep_manifest_with_multistart_exits_1(tmp_path, capsys):
    """A prep-sweep manifest written while sweeps still took a multistart
    count carries "multistart": 0; it replays as one error line naming it."""
    run_cli("--output-dir", str(tmp_path), "--tag", "old", *PREP_SMALL)
    path = tmp_path / "old_manifest.json"
    doc = json.loads(path.read_text())
    doc["config"]["multistart"] = 0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run_cli("--output-dir", str(tmp_path / "replay"), "--from-manifest", str(path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'multistart'" in err
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("flag", ["--gradient-tolerance", "--max-iterations"])
@pytest.mark.parametrize("args", [CAP_SMALL, RB_SMALL, PREP_SMALL],
                         ids=["optimize", "rb", "prep-sweep"])
def test_usage_error_removed_optimizer_flag(tmp_path, args, flag):
    """The search's convergence rule is fixed; its old flags are usage errors."""
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(tmp_path), *args, flag, "5")
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_manifest_with_subcommand_rejected(tmp_path):
    run_cli("--output-dir", str(tmp_path), "--tag", "mx", *RB_SMALL)
    with pytest.raises(SystemExit) as exc:
        run_cli("--from-manifest", str(tmp_path / "mx_manifest.json"), "rb",
                "--lambda", "0.1")
    assert exc.value.code == 2


# ------------------------------------------- repeated calls in one process

def test_repeated_main_calls_match_runs_alone(tmp_path, monkeypatch):
    """Commands run one after another in one process, a usage error among
    them, build one parser and write the CSV and summary bytes of each
    command run with a parser of its own; no parse result's list is shared
    with another's."""
    runs = [
        ("rb-noisy", ("rb", "--device", "rome", "--qubit", "3", "--track-noisy-state",
                      "--multistart", "2", "--shots", "200", "--circuits", "2",
                      "--gates", "12", "--depths", "1:12:4", "--seed", "4")),
        ("rb-default", ("rb", "--device", "rome", "--qubit", "3")),
        ("kn-1", ("knowledge", "--lambda-grid", "0.05", "--targets", "2", "--seed", "2")),
        ("kn-2", ("knowledge", "--lambda-grid", "0.05", "--targets", "2", "--seed", "2")),
    ]
    alone, together = tmp_path / "alone", tmp_path / "together"
    for tag, args in runs:
        cli._parser.cache_clear()
        assert run_cli("--output-dir", str(alone), "--tag", tag, *args) == 0

    built, configs = [], []
    build_parser, job = cli.build_parser, cli._job

    def counting():
        built.append(1)
        return build_parser()

    def recording(command, config):
        configs.append(config)
        return job(command, config)

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_job", recording)
    cli._parser.cache_clear()
    assert run_cli("--output-dir", str(together), "--tag", runs[0][0], *runs[0][1]) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("--output-dir", str(together), "rb", "--lambda", "0.1", "--shots", "0")
    assert exc.value.code == 2
    for tag, args in runs[1:]:
        assert run_cli("--output-dir", str(together), "--tag", tag, *args) == 0
    assert len(built) == 1

    for tag, _ in runs:
        for name in (f"{tag}.csv", f"{tag}_summary.json"):
            assert (together / name).read_bytes() == (alone / name).read_bytes(), name
    first, second = (c["theta_max_grid"] for c in configs if "theta_max_grid" in c)
    assert first == second and len(first) == 25
    assert first is not second


def test_import_builds_no_parser():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import noisy_euler.cli\n"
        "print(len(built), noisy_euler.cli._parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# ------------------------------------------------------------- entry point

def test_console_script_runs():
    """The entry point declared in pyproject.toml's [project.scripts] runs;
    it is resolved from the file, so no install is needed."""
    import tomllib

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert list(scripts) == ["noisy-euler"]
    module, attr = scripts["noisy-euler"].split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("noisy-euler ")


def test_public_api_exports_resolve():
    """Every name in noisy_euler.__all__ is an attribute of the package and
    is listed once, so ``from noisy_euler import *`` works."""
    import noisy_euler

    names = noisy_euler.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(noisy_euler, name)]
    assert missing == []


def test_module_entry_point(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "noisy_euler.cli",
         "--output-dir", str(tmp_path), "--tag", "mod", *RB_SMALL],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "mod.csv").exists()
