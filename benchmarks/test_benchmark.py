"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmarks -q
"""

import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import (  # noqa: E402
    failed_share, nearest_rank, tail_percentile, valid_metric_name,
)
from workloads import WORKLOADS, RbWorkload, Tally  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(20)) == (50.0, 9)
    assert tail_percentile(range(40)) == (75.0, 29)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tail_percentile(range(1, 10001)) == (99.9, 9990)
    p, value = tail_percentile(range(999))
    assert p == 95.0 and sum(v > value for v in range(999)) >= 10


def test_nearest_rank():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 99.0) == 4.0
    assert nearest_rank([5.0], 0.0) == 5.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


def test_self_time_subtracts_child_coverage_once():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap inside it;
    # 3: [7, 8] inside 0; 4: [1.5, 2] inside 1.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 7.0, 1.5]
    end = [10.0, 4.0, 6.0, 8.0, 2.0]
    own = spans.self_times(parent, start, end)
    assert own.tolist() == pytest.approx([10 - 5 - 1, 3 - 0.5, 3.0, 1.0, 0.5])


def test_self_time_ignores_input_order():
    parent = [1, -1, 1]
    start = [5.0, 0.0, 1.0]
    end = [6.0, 10.0, 2.0]
    assert spans.self_times(parent, start, end).tolist() == pytest.approx([1.0, 8.0, 1.0])


def test_failed_share_counts_points():
    tally = Tally()
    tally.point(True, "a")
    tally.point(False, "b")
    rep = Tally()
    rep.all_failed(6, "raised")
    tally.add(rep)
    assert (tally.attempted, tally.failed) == (8, 7)
    assert tally.notes == ["b", "raised"]
    assert failed_share(tally.failed, tally.attempted) == 7 / 8
    assert failed_share(0, 3) == 0.0
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(4, 3)


def test_host_factor_is_power_of_reference_over_mean_probe_time():
    # Probes that take 0.5 s on average against 0.25 s on the reference host.
    expected = 0.5 ** hostspeed.ELASTICITY
    assert hostspeed.host_factor([0.4, 0.6, 0.5], 0.25) == pytest.approx(expected)
    assert hostspeed.host_factor([0.25], 0.25) == 1.0
    with pytest.raises(ValueError):
        hostspeed.host_factor([0.0, 0.3], 0.25)
    with pytest.raises(ValueError):
        hostspeed.host_factor([], 0.25)


def test_host_gauge_probes_until_stopped():
    gauge = hostspeed.HostGauge()
    gauge.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * hostspeed.PERIOD_S:
            sum(range(1000))
    finally:
        gauge.stop()
    n = len(gauge.samples)
    assert n >= 3 and gauge.probe_s > 0.0 and gauge.factor > 0.0
    time.sleep(2 * hostspeed.PERIOD_S)
    assert len(gauge.samples) == n


def test_metric_name_charset():
    for good in ("wall_s", "optimize.latency_ms.p99", "io.write_csv.bytes", "9a-b"):
        assert valid_metric_name(good)
    for bad in ("", ".s", "a b", "a/b", "x" * 65, "λ"):
        assert not valid_metric_name(bad)


def _bench_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    spec = _bench_spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert valid_metric_name(metric["name"])
    reps = [run.Rep(0, False, 2.0, 3.5, 0.4, 1.0), run.Rep(1, True, 9.0, 9.0, 0.2),
            run.Rep(2, False, 4.0, 6.5, None, 0.5)]
    metrics = run.end_to_end_metrics(WORKLOADS["rb_point"], [1.0, 3.0, 2.0], reps, 80.0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert metrics["setup_s"] == 2.0
    # Median of the untraced times 2.0 * 1.0 and 4.0 * 0.5, cpu 3.5 and 3.25.
    assert metrics["wall_s"] == 2.0 and metrics["cpu_s"] == pytest.approx(3.375)
    assert metrics["opt_per_s"] == pytest.approx(WORKLOADS["rb_point"].optimizations / 2.0)
    assert metrics["gain"] == pytest.approx(0.3)


def _tiny_rb():
    return RbWorkload("tiny", "test", circuits=1, gates=15, track_noisy_state=False)


def test_rb_check_counts_every_point_and_flags_bad_values(tmp_path):
    from noisy_euler import cli

    w = _tiny_rb()
    run.run_commands(cli, w.commands(3), tmp_path)
    tally = Tally()
    gain = w.check(tmp_path, tally)
    assert (tally.attempted, tally.failed) == (w.points, 0)
    assert math.isfinite(gain)

    csv_path = tmp_path / "rb.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = "1.5"
    lines[1] = ",".join(cells)
    csv_path.write_text("\r\n".join(lines) + "\r\n")
    tally = Tally()
    w.check(tmp_path, tally)
    assert tally.attempted == w.points and tally.failed == 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    from noisy_euler import cli, optimize

    w = _tiny_rb()
    original = optimize.fidelity
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_commands(cli, w.commands(3), tmp_path)
    finally:
        tracer.uninstall()
    assert optimize.fidelity is original
    metrics = spans.layer_metrics(tracer, 1)
    metrics["trace.overhead"] = 1.0
    names = {m["name"] for m in _bench_spec()["per_layer"]}
    assert set(metrics) == names
    assert metrics["optimize.calls"] == w.optimizations
    assert metrics["rb.fit_decay.calls"] == 2  # one fit per arm
    assert metrics["objectives.fidelity.calls"] > 0
    assert 0.0 < metrics["objectives.fidelity.share"] < 1.0
    assert metrics["optimize.self_s"] <= metrics["optimize.s"] + metrics["optimize.minimize.s"]
    assert metrics["io.write_csv.bytes"] == (tmp_path / "rb.csv").stat().st_size


def test_run_refuses_a_checkout_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(["--workload", "rb_point", "--seed", "0", "--seconds", "1"])
    assert rc == 2 and out.getvalue() == ""
