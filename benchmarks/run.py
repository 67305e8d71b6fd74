"""Layered benchmark for noisy-euler.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py``; each is a closed loop
with one client at ``--jobs 1`` that drives ``noisy_euler.cli.main``
in-process.

A run first times ``SETUP_PROBES`` fresh-interpreter set-ups (import,
calibration load, warm-up; ``setup_probe.py``), then warms up in-process and
repeats the workload with seeds derived from ``--seed`` until ``--seconds``
are used, checking every repetition's outputs.  After the timed loop it
replays the first repetition from its manifest and requires byte-identical
CSVs.

While an untraced repetition runs, ``hostspeed.HostGauge`` probes how fast
the host runs.  The probes' time is taken out of the repetition, and what is
left is scaled to the reference host before ``wall_s``, ``opt_per_s`` and
``cpu_s`` are formed; the unscaled median is printed in the report.  Each
set-up runs such a gauge in its own interpreter once numpy is imported, and
``setup_s`` is scaled the same way.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (see ``spans.py``) and prints per-layer
figures per traced repetition plus ``trace.overhead``, the ratio of traced
to untraced repetition wall time.  Metric names and units come from
``BENCHMARK.json``.  A human-readable report precedes the last stdout line,
which is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any check failed and 2 when the
checkout has no ``src/noisy_euler``.

BLAS and OpenMP pools are pinned to one thread where the caller left the
thread variables unset (see ``PINNED_THREAD_VARS``); the machine block records
the variables both as found and as used.  Outputs go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
from statistics import fmean, median
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_WAIT_POLICY", "NOISY_EULER_JOBS",
)
FOUND_THREAD_ENV = {name: os.environ.get(name) for name in THREAD_VARS}

# Set when run as a script, before numpy loads (spans and workloads import it),
# and inherited by the set-up probes.  Under default OpenBLAS threading a
# second thread spins beside the single-threaded program (cpu_s about
# 1.85 x wall_s), and on a 2-vCPU host one other busy thread then doubles a
# repetition's wall time: knowledge_cap took 8.6 s beside a busy loop against
# 4.7 s without it, while pinned it took 4.2-4.9 s either way.  Left unpinned,
# runs of the same code spread past every timing bound.  A value the caller
# set is kept.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _name in PINNED_THREAD_VARS:
        os.environ.setdefault(_name, "1")

from hostspeed import REFERENCE_S, HostGauge  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from stats import failed_share, tail_percentile, valid_metric_name  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 3
MIN_REPS = 4
MAX_REPS = 1000
PROBE_TIMEOUT_S = 120


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_found": FOUND_THREAD_ENV,
        "thread_env_used": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this benchmark prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not valid_metric_name(metric["name"]):
            raise ValueError(f"BENCHMARK.json: invalid metric name {metric['name']!r}")
    return spec


def seed_for(seed: int, rep: int) -> int:
    """CLI seed of repetition ``rep``; distinct for every (seed, rep)."""
    return seed * MAX_REPS + rep


def measure_setup(workload: str, seed: int, scratch: Path) -> tuple[list[float], list[float]]:
    """Times ``SETUP_PROBES`` fresh-interpreter set-ups.  Returns the times
    less the set-up's own probes, unscaled and scaled to the reference host by
    the gauge the set-up ran."""
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload,
             str(seed_for(seed, MAX_REPS - 1)), str(scratch / f"setup{i}")],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        gauge = json.loads(done.stdout.splitlines()[-1])
        raw.append(elapsed - gauge["probe_s"])
        scaled.append(raw[-1] * gauge["factor"])
    return raw, scaled


def run_commands(cli, commands, outdir: Path) -> None:
    for tag, argv in commands:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["--output-dir", str(outdir), "--tag", tag, *argv])
        except SystemExit as exc:
            rc = exc.code
        if rc != 0:
            raise RuntimeError(f"{argv[0]} exited with {rc}: {err.getvalue().strip()}")


@dataclass
class Rep:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    gain: float | None
    # Scale from the host as probed during the repetition to the reference
    # host; 1.0 for a traced repetition, which is not probed.
    host_factor: float = 1.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.host_factor

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.host_factor


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def end_to_end_metrics(workload, setup: list[float], reps: list[Rep],
                       peak_rss_mb: float) -> dict[str, float]:
    """Medians over the untraced repetitions of times scaled to the reference
    host; ``gain`` is the workload's scientific result (error_rate_reduction
    on rb_*, knowledge_gain on knowledge_cap), averaged over every checked
    repetition."""
    plain = [r for r in reps if not r.traced]
    walls = [r.scaled_wall_s for r in plain]
    gains = [r.gain for r in reps if r.gain is not None]
    return {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "opt_per_s": median([workload.optimizations / w for w in walls]),
        "cpu_s": median([r.scaled_cpu_s for r in plain]),
        "peak_rss_mb": peak_rss_mb,
        "gain": fmean(gains) if gains else 0.0,
    }


def replay_check(cli, workload, rep_dir: Path, replay_dir: Path, tally: Tally) -> None:
    """Replays each command of one repetition from its manifest and requires
    byte-identical CSVs (one point per command)."""
    for tag, _ in workload.commands(0):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["--output-dir", str(replay_dir),
                               "--from-manifest", str(rep_dir / f"{tag}_manifest.json")])
            same = rc == 0 and (
                (rep_dir / f"{tag}.csv").read_bytes() == (replay_dir / f"{tag}.csv").read_bytes()
            )
        except (OSError, SystemExit):
            same = False
        tally.point(same, f"replay of {tag} not byte-identical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "noisy_euler" / "__init__.py").is_file():
        print(f"error: no src/noisy_euler under {ROOT}", file=sys.stderr)
        return 2
    jobs_env = os.environ.get("NOISY_EULER_JOBS")
    if jobs_env not in (None, "1"):
        print(f"error: NOISY_EULER_JOBS={jobs_env} would override --jobs 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_raw, setup = measure_setup(workload.name, args.seed, run_dir)
    machine = machine_block()
    from noisy_euler import cli

    run_commands(cli, workload.warmup_commands(seed_for(args.seed, MAX_REPS - 1)),
                 run_dir / "warmup")

    tracer = Tracer() if args.trace else None
    tally = Tally()
    reps: list[Rep] = []
    probes: list[float] = []
    t_start = time.perf_counter()
    for i in range(MAX_REPS - 1):
        if len(reps) >= MIN_REPS:
            typical = median([r.wall_s for r in reps])
            if time.perf_counter() - t_start + typical > args.seconds:
                break
        # Traced repetitions repeat the previous untraced one's seed, so each
        # pair does identical work and their ratio is the tracing overhead.
        traced = tracer is not None and i % 2 == 1
        rep_dir = run_dir / f"rep{i}"
        commands = workload.commands(seed_for(args.seed, i // 2 if tracer else i))
        rep_tally = Tally()
        error = None
        gauge = None if traced else HostGauge()
        if traced:
            tracer.current_request = i
            tracer.install()
        else:
            gauge.start()
        cpu0, t0 = _cpu_now(), time.perf_counter()
        try:
            run_commands(cli, commands, rep_dir)
        except Exception:  # a failed repetition is counted, not fatal
            error = traceback.format_exc(limit=3)
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
            if traced:
                tracer.uninstall()
            else:
                gauge.stop()
        gain = None
        if error is None:
            try:
                gain = workload.check(rep_dir, rep_tally)
            except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError):
                error = traceback.format_exc(limit=3)
        if error is not None:
            rep_tally = Tally()
            rep_tally.all_failed(workload.points, f"rep {i} raised: {error}")
        tally.add(rep_tally)
        if gauge is None:
            reps.append(Rep(i, traced, wall, cpu, gain))
        else:
            probes.extend(gauge.samples)
            reps.append(Rep(i, traced, wall - gauge.probe_s, cpu - gauge.probe_s, gain,
                            gauge.factor))
        if i > 0:
            shutil.rmtree(rep_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    replay_check(cli, workload, run_dir / "rep0", run_dir / "replay", tally)

    plain = [r for r in reps if not r.traced]
    walls = [r.scaled_wall_s for r in plain]
    tail = tail_percentile(walls)
    report = {
        "wall_s.n": (len(walls), "count"),
        "wall_s.unscaled_median": (median([r.wall_s for r in plain]), "s"),
        "setup_s.unscaled_median": (median(setup_raw), "s"),
        "host.probe_s": (f"mean {fmean(probes):.6f} over {len(probes)} probes, "
                         f"reference {REFERENCE_S}", "s"),
        "wall_s.tail": (f"p{tail[0]:g} = {tail[1]:.4f}" if tail
                        else "n/a (a tail percentile needs >= 20 samples)",
                        "s" if tail else ""),
        "failed_share": (failed_share(tally.failed, tally.attempted), "1"),
        "gate8_3se_exceedances": (tally.gate8_exceedances, "count"),
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, sum(r.traced for r in reps))
        metrics["trace.overhead"] = median(
            [t.wall_s / u.wall_s for u, t in zip(reps[0::2], reps[1::2])]
        )
        tracer.write(OUT / f"{run_id}-spans.npz")
        report["optimize.latency_ms.n"] = (len(tracer.opt_results), "count")
        share = metrics[workload.predicted_dominant]
        report["predicted_dominant"] = (
            f"{workload.predicted_dominant} = {share:.3f}: "
            + ("match (majority)" if share > 0.5 else "MISMATCH (not a majority)"),
            "of traced time",
        )
    else:
        metrics = end_to_end_metrics(workload, setup, reps, peak_rss_mb)
        report[workload.gain_name] = (metrics["gain"], "1")
    section = "per_layer" if tracer is not None else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[section]}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "args": vars(args),
        "machine": machine,
        "optimizations_per_rep": workload.optimizations,
        "setup_samples_s": setup_raw,
        "setup_scaled_s": setup,
        "reps": [vars(r) for r in reps],
        "metrics": metrics,
        "report": report,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=2) + "\n")
    for path in run_dir.iterdir():
        if path.name != "rep0":
            shutil.rmtree(path, ignore_errors=True)

    _print_report(workload, machine, metrics, units, report, tally)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def _print_report(workload, machine, metrics, units, report, tally) -> None:
    print(f"workload {workload.name}: {workload.why}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    for name, (value, unit) in report.items():
        print(f"  {name:40s} {value} {unit}")
    print(f"  checked points {tally.attempted}, failed {tally.failed}")
    for note in tally.notes:
        print(f"  FAILED: {note}")


if __name__ == "__main__":
    sys.exit(main())
