"""Command-line front end for reproducible experiment runs.

Subcommands:

  optimize    one-off decomposition optimization; prints and saves the result
  rb          randomized-benchmarking simulation -> CSV + JSON summary
  drift       RB over a grid of coherence-drift factors -> CSV + JSON summary
  prep-sweep  state-preparation improvement vs damping -> CSV
  knowledge   improvement vs damping and initial-state uncertainty -> CSV
  validate    check a device calibration file and report warnings

Every run emits a manifest JSON recording the command, resolved config, seed,
package version and output paths; ``noisy-euler --from-manifest PATH`` replays
it and reproduces the CSV outputs byte-for-byte.  A replayed config is decoded
against the config dataclasses, so an unknown key or a value of the wrong JSON
type is an error that names its path.  All randomness flows from the --seed
flag through named sub-streams, so --jobs changes only the wall time.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    BUNDLED_DEVICES,
    DeviceSpecError,
    bundled_device,
    load_device_spec,
    noise_params_for,
)
from .experiments import SweepConfig, knowledge_sweep, prep_improvement_sweep
from .gates import EulerAngles, NAMED_GATES, extract_euler, named_gate
from .io import (
    from_jsonable,
    load_manifest,
    save_manifest,
    to_jsonable,
    write_csv,
    write_json,
)
from .noise import NoiseParams
from .objectives import InitialStateDistribution
from .optimize import optimize_gate
from .rb import RbConfig, run_drift_sweep, run_rb_experiment

RB_HEADER = ("experiment_id", "k", "circuit_index", "depth", "arm", "fidelity", "stderr")
SWEEP_HEADER = ("lambda", "theta_max", "mean_improvement", "stderr", "n_samples")


# ---------------------------------------------------------------- parsing

def _parse_pair(text: str, parser, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        parser.error(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        parser.error(f"{flag}: cannot parse {text!r}")


def _parse_gate(text: str, parser) -> EulerAngles:
    name = text.strip().lower()
    if name in NAMED_GATES:
        return extract_euler(named_gate(name))
    parts = text.split(",")
    if len(parts) not in (3, 4):
        parser.error(
            f"--gate expects a named gate ({', '.join(sorted(NAMED_GATES))}) "
            f"or 'beta,gamma,delta[,phase]', got {text!r}"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        parser.error(f"--gate: cannot parse {text!r}")
    phase = vals[3] if len(vals) == 4 else 0.0
    return EulerAngles(vals[0], vals[1], vals[2], phase)


def _parse_grid(text: str, parser, flag: str) -> list[float]:
    """'start:stop:COUNT', 'start:stop:COUNTlog', or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            parser.error(f"{flag} expects 'start:stop:count[log]' or a comma list")
        count_s, scale = parts[2], "lin"
        if count_s.endswith("log"):
            scale, count_s = "log", count_s[:-3]
        elif count_s.endswith("lin"):
            count_s = count_s[:-3]
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(count_s)
        except ValueError:
            parser.error(f"{flag}: cannot parse {text!r}")
        if count < 1:
            parser.error(f"{flag}: count must be >= 1")
        if scale == "log":
            if start <= 0 or stop <= 0:
                parser.error(f"{flag}: log grids need positive endpoints")
            grid = np.geomspace(start, stop, count)
        else:
            grid = np.linspace(start, stop, count)
        return [float(v) for v in grid]
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        parser.error(f"{flag}: cannot parse {text!r}")


def _parse_depths(text: str, parser) -> list[int]:
    """'start:stop:step' (stop inclusive) or comma-separated depths."""
    try:
        if ":" in text:
            a, b, s = (int(t) for t in text.split(":"))
            return list(range(a, b + 1, s))
        return [int(t) for t in text.split(",")]
    except ValueError:
        parser.error(f"--depths: cannot parse {text!r}")


def _seed(text: str) -> int:
    """--seed: an int >= 0, the root of every named random stream."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {seed}")
    return seed


def _parse_shots(text: str, parser) -> int | None:
    if text.strip().lower() in ("inf", "infinite", "exact"):
        return None
    try:
        return int(text)
    except ValueError:
        parser.error(f"--shots expects an integer or 'inf', got {text!r}")


def _resolve_noise(args, parser) -> tuple[NoiseParams, tuple[float, float] | None]:
    """Noise from --device/--qubit or explicit --lambda flags, plus the
    device qubit's readout probabilities when a device was given."""
    lam_flags = [v for v in (args.lam, args.lambda_a, args.lambda_p) if v is not None]
    if args.device is not None and lam_flags:
        parser.error("--device and --lambda/--lambda-a/--lambda-p are mutually exclusive")
    if args.device is not None:
        if args.qubit is None:
            parser.error("--device requires --qubit")
        if args.device in BUNDLED_DEVICES:
            spec = bundled_device(args.device)
        elif Path(args.device).exists():
            spec = load_device_spec(args.device)
        else:
            parser.error(
                f"unknown device {args.device!r}: not one of {BUNDLED_DEVICES} "
                "and not an existing file"
            )
        try:
            qubit = spec.qubit(args.qubit)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        return noise_params_for(qubit), (qubit.p_meas1_prep0, qubit.p_meas0_prep1)
    if args.lam is not None:
        if args.lambda_a is not None or args.lambda_p is not None:
            parser.error("--lambda is mutually exclusive with --lambda-a/--lambda-p")
        return NoiseParams.from_lambda(args.lam), None
    if args.lambda_a is not None and args.lambda_p is not None:
        return NoiseParams.from_lambdas(args.lambda_a, args.lambda_p), None
    parser.error(
        "specify the noise model: --device NAME --qubit N, or --lambda L, "
        "or both --lambda-a and --lambda-p"
    )


def _resolve_readout(args, parser, device_readout) -> tuple[float, float] | None:
    if args.readout is None:
        return None
    if args.readout.strip().lower() == "device":
        if device_readout is None:
            parser.error("--readout device requires --device and --qubit")
        return device_readout
    return _parse_pair(args.readout, parser, "--readout")


def _parse_dist_args(args, parser) -> dict:
    if args.dist is not None and args.state is not None:
        parser.error("--state and --dist are mutually exclusive")
    if args.dist is not None:
        text = args.dist.strip()
        if text == "uniform":
            return {"kind": "uniform"}
        if text.startswith("cap:"):
            try:
                return {"kind": "cap", "theta_max": float(text[4:])}
            except ValueError:
                parser.error(f"--dist: cannot parse {text!r}")
        if text.startswith("point:"):
            theta, phi = _parse_pair(text[6:], parser, "--dist")
            return {"kind": "point", "theta": theta, "phi": phi}
        parser.error("--dist expects 'point:theta,phi', 'uniform', or 'cap:theta_max'")
    if args.state is not None:
        theta, phi = _parse_pair(args.state, parser, "--state")
        return {"kind": "point", "theta": theta, "phi": phi}
    parser.error("specify the input state: --state theta,phi or --dist SPEC")


# ---------------------------------------------------------- config decoding
#
# A run's config is plain JSON, from the flags or a manifest, decoded by
# io.from_jsonable: an RbConfig, SweepConfig or _OptimizeRun plus run-level
# keys ("jobs"; drift's "k_grid"; optimize's kind-tagged "dist").

@dataclasses.dataclass(frozen=True)
class _OptimizeRun:
    gate: tuple[float, ...]  # beta, gamma, delta[, global phase]
    noise: NoiseParams
    multistart: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # optimize_gate reads the seed only for multistart draws; refuse a bad
        # one either way, as RbConfig and SweepConfig do.
        seed = self.rng_seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"rng_seed must be an int >= 0, got {seed!r}")


# Each dist kind's constructor and the keys it takes, in argument order.
_DISTS = {
    "point": (InitialStateDistribution.point, ("theta", "phi")),
    "uniform": (InitialStateDistribution.uniform_sphere, ()),
    "cap": (InitialStateDistribution.spherical_cap, ("theta_max",)),
}


def _dist_from_dict(d) -> InitialStateDistribution:
    kind = d.get("kind") if isinstance(d, dict) else None
    if isinstance(kind, str) and kind in _DISTS and set(d) == {"kind", *_DISTS[kind][1]}:
        build, keys = _DISTS[kind]
        return build(*(from_jsonable(float, d[key], f"config.dist.{key}") for key in keys))
    raise ValueError(
        "config.dist must be {'kind': 'point', 'theta': ..., 'phi': ...}, {'kind': "
        f"'uniform'}} or {{'kind': 'cap', 'theta_max': ...}}, got {d!r}"
    )


def _decode(tp, config: dict, *run_keys: str):
    """``tp`` decoded from ``config`` less its run-level keys ``run_keys``."""
    return from_jsonable(tp, {k: v for k, v in config.items() if k not in run_keys}, "config")


def _jobs(config: dict) -> int:
    jobs = from_jsonable(int | None, config.get("jobs"), "config.jobs")
    return 1 if jobs is None else jobs


def _plain_tag(tag: str) -> str:
    """``tag``, the basename of a run's outputs, if it names a file in the
    output directory and nothing else."""
    if tag in (".", "..") or "/" in tag or "\\" in tag:
        raise ValueError(f"tag must be a plain file name (no '/' or '\\', not '.' or '..'), "
                         f"got {tag!r}")
    return tag


# ---------------------------------------------------------------- runners

def _rb_rows(tag: str, result, include_circuits: bool) -> list[list]:
    rows = []
    k = result.config.drift_factor
    if include_circuits:
        for ci in range(result.config.n_circuits):
            for di, depth in enumerate(result.depths):
                for arm in (result.unopt, result.opt):
                    rows.append([tag, k, ci, depth, arm.arm, arm.survivals[ci, di], None])
    for di, depth in enumerate(result.depths):
        for arm in (result.unopt, result.opt):
            rows.append([tag, k, None, depth, arm.arm, arm.mean[di], arm.stderr[di]])
    return rows


def _finish_run(outdir: Path, tag: str, command: str, config: dict, summary: dict,
                csv_rows, csv_header, t0: float) -> int:
    """Write the CSV (if any), the summary (``summary`` plus the run's tag,
    command and config) and the manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if csv_rows is not None:
        csv_path = write_csv(outdir / f"{tag}.csv", csv_header, csv_rows)
        outputs.append(csv_path)
    summary = {"experiment_id": tag, "command": command, "config": config, **summary}
    summary_path = write_json(outdir / f"{tag}_summary.json", summary)
    outputs.append(summary_path)
    manifest_path = save_manifest(
        outdir / f"{tag}_manifest.json",
        command=command,
        config=config,
        rng_seed=config.get("rng_seed", 0),
        outputs=outputs,
        duration_seconds=time.monotonic() - t0,
        tag=tag,
    )
    for path in (*outputs, manifest_path):
        print(f"wrote {path}")
    return 0


def _run_optimize(config: dict, outdir: Path, tag: str) -> int:
    t0 = time.monotonic()
    run = _decode(_OptimizeRun, config, "dist")
    if len(run.gate) not in (3, 4):
        raise ValueError(f"config.gate must list 3 or 4 angles, got {list(run.gate)}")
    gate = EulerAngles(*run.gate)
    dist = _dist_from_dict(config.get("dist"))
    result = optimize_gate(gate, *dist.moments(), run.noise, run.multistart, run.rng_seed)
    a = result.angles_opt
    print(f"target angles  (beta, gamma, delta) = "
          f"({gate.beta:.12g}, {gate.gamma:.12g}, {gate.delta:.12g})")
    print(f"optimal angles (beta, gamma, delta) = "
          f"({a.beta:.12g}, {a.gamma:.12g}, {a.delta:.12g})")
    print(f"objective at target angles  = {result.objective_at_target_angles:.12g}")
    print(f"objective at optimal angles = {result.objective_value:.12g}")
    print(f"improvement = {result.improvement:.12g}")
    print(f"iterations = {result.iterations}, converged = {result.converged}")
    summary = {
        "angles_opt": [a.beta, a.gamma, a.delta, a.global_phase],
        "objective_value": result.objective_value,
        "objective_at_target_angles": result.objective_at_target_angles,
        "improvement": result.improvement,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return _finish_run(outdir, tag, "optimize", config, summary, None, None, t0)


def _run_rb(config: dict, outdir: Path, tag: str) -> int:
    t0 = time.monotonic()
    cfg = _decode(RbConfig, config, "jobs")
    result = run_rb_experiment(cfg, jobs=_jobs(config))
    rows = _rb_rows(tag, result, include_circuits=True)
    summary = {
        "rng_seed": cfg.rng_seed,
        "fits": {"unopt": result.unopt.fit, "opt": result.opt.fit},
    }
    if result.unopt.fit is not None and result.opt.fit is not None:
        summary["error_rate_reduction"] = (
            result.unopt.fit.error_rate - result.opt.fit.error_rate
        )
    return _finish_run(outdir, tag, "rb", config, summary, rows, RB_HEADER, t0)


def _run_drift(config: dict, outdir: Path, tag: str) -> int:
    t0 = time.monotonic()
    cfg = _decode(RbConfig, config, "jobs", "k_grid")
    k_grid = from_jsonable(tuple[float, ...], config.get("k_grid"), "config.k_grid")
    runs = run_drift_sweep(cfg, k_grid, jobs=_jobs(config))
    rows = []
    for k, result in runs:
        rows.extend(_rb_rows(tag, result, include_circuits=False))
    summary = {
        "rng_seed": cfg.rng_seed,
        "runs": [{"k": k, "fits": {"unopt": r.unopt.fit, "opt": r.opt.fit}} for k, r in runs],
    }
    return _finish_run(outdir, tag, "drift", config, summary, rows, RB_HEADER, t0)


def _sweep_rows(result) -> list[list]:
    return [
        [row.lam, row.theta_max, row.mean_improvement, row.stderr, row.n_samples]
        for row in result.rows
    ]


def _run_sweep(command: str, config: dict, outdir: Path, tag: str) -> int:
    t0 = time.monotonic()
    cfg = _decode(SweepConfig, config, "jobs")
    sweep = prep_improvement_sweep if command == "prep-sweep" else knowledge_sweep
    result = sweep(cfg, jobs=_jobs(config))
    summary = {"rng_seed": cfg.rng_seed, "n_rows": len(result.rows)}
    return _finish_run(
        outdir, tag, command, config, summary, _sweep_rows(result), SWEEP_HEADER, t0
    )


_RUNNERS = {
    "optimize": _run_optimize,
    "rb": _run_rb,
    "drift": _run_drift,
    "prep-sweep": functools.partial(_run_sweep, "prep-sweep"),
    "knowledge": functools.partial(_run_sweep, "knowledge"),
}


# ------------------------------------------------------------ subcommands

def _cmd_optimize(args, parser) -> int:
    noise, _ = _resolve_noise(args, parser)
    gate = _parse_gate(args.gate, parser)
    config = {
        "gate": [gate.beta, gate.gamma, gate.delta, gate.global_phase],
        "dist": _parse_dist_args(args, parser),
        "noise": to_jsonable(noise),
        "multistart": args.multistart,
        "rng_seed": args.seed,
    }
    return _run_optimize(config, Path(args.output_dir), args.tag or "optimize")


def _rb_like_config(args, parser) -> dict:
    noise, device_readout = _resolve_noise(args, parser)
    readout = _resolve_readout(args, parser, device_readout)
    if args.mitigate and readout is None:
        parser.error("--mitigate requires --readout")
    return {
        "noise": to_jsonable(noise),
        "n_circuits": args.circuits,
        "n_gates": args.gates,
        "depth_schedule": _parse_depths(args.depths, parser),
        "shots": _parse_shots(args.shots, parser),
        "readout": list(readout) if readout is not None else None,
        "mitigate": args.mitigate,
        "rng_seed": args.seed,
        "multistart": args.multistart,
        "track_noisy_state": args.track_noisy_state,
        "jobs": args.jobs,
    }


def _cmd_rb(args, parser) -> int:
    config = _rb_like_config(args, parser)
    config["drift_factor"] = args.k
    return _run_rb(config, Path(args.output_dir), args.tag or "rb")


def _cmd_drift(args, parser) -> int:
    config = _rb_like_config(args, parser)
    config["k_grid"] = _parse_grid(args.k_grid, parser, "--k-grid")
    return _run_drift(config, Path(args.output_dir), args.tag or "drift")


def _cmd_sweep(command: str, args, parser) -> int:
    config = {
        "lambda_grid": _parse_grid(args.lambda_grid, parser, "--lambda-grid"),
        "targets_per_point": args.targets,
        "rng_seed": args.seed,
        "multistart": args.multistart,
        "jobs": args.jobs,
    }
    if command == "knowledge":
        config["theta_max_grid"] = (
            [float(v) for v in np.linspace(math.pi / 25.0, math.pi, 25)]
            if args.theta_max_grid is None
            else _parse_grid(args.theta_max_grid, parser, "--theta-max-grid")
        )
    return _run_sweep(command, config, Path(args.output_dir), args.tag or command)


def _cmd_validate(args, parser) -> int:
    spec = load_device_spec(args.path)
    print(
        f"{spec.device_name} ({spec.calibration_date}): "
        f"{len(spec.qubits)} qubits, qubit ids {[q.id for q in spec.qubits]}"
    )
    for warning in spec.warnings:
        print(f"warning: {warning}")
    if not spec.warnings:
        print("no warnings")
    return 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "rb": _cmd_rb,
    "drift": _cmd_drift,
    "prep-sweep": functools.partial(_cmd_sweep, "prep-sweep"),
    "knowledge": functools.partial(_cmd_sweep, "knowledge"),
    "validate": _cmd_validate,
}


# ------------------------------------------------------------------ parser

def _add_noise_flags(sp) -> None:
    sp.add_argument("--device", help=f"bundled device {BUNDLED_DEVICES} or a spec JSON path")
    sp.add_argument("--qubit", type=int, help="qubit id within --device")
    sp.add_argument("--lambda", dest="lam", type=float,
                    help="equal amplitude and phase damping probability")
    sp.add_argument("--lambda-a", type=float, help="amplitude damping probability")
    sp.add_argument("--lambda-p", type=float, help="phase damping probability")


def _add_multistart_flag(sp) -> None:
    sp.add_argument("--multistart", type=int, default=0,
                    help="extra uniform-random starts beside the target seed")


def _add_rb_flags(sp, gates_default: int, depths_default: str) -> None:
    _add_noise_flags(sp)
    sp.add_argument("--circuits", type=int, default=10)
    sp.add_argument("--gates", type=int, default=gates_default)
    sp.add_argument("--depths", default=depths_default,
                    help="'start:stop:step' (stop inclusive) or comma list")
    sp.add_argument("--shots", default="inf", help="shots per measurement, or 'inf'")
    sp.add_argument("--readout", help="'device' or 'p10,p01' confusion probabilities")
    sp.add_argument("--mitigate", action="store_true",
                    help="invert the readout confusion matrix on measured counts")
    sp.add_argument("--track-noisy-state", action="store_true",
                    help="optimize against the noisy circuit state instead of the ideal one")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    _add_multistart_flag(sp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisy-euler",
        description="Noise-aware single-qubit gate decomposition and experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--from-manifest", metavar="PATH",
                        help="replay a recorded run from its manifest JSON")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument("--tag", help="basename for output files (default: command name)")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("optimize", help="optimize one gate decomposition")
    sp.add_argument("--gate", required=True,
                    help="named gate (i, x, y, z, h, s, t, sx) or 'beta,gamma,delta[,phase]'")
    sp.add_argument("--state", help="'theta,phi' known input state")
    sp.add_argument("--dist", help="'point:theta,phi', 'uniform', or 'cap:theta_max'")
    _add_noise_flags(sp)
    sp.add_argument("--seed", type=_seed, default=0)
    _add_multistart_flag(sp)

    sp = sub.add_parser("rb", help="randomized-benchmarking simulation")
    _add_rb_flags(sp, gates_default=246, depths_default="1:246:7")
    sp.add_argument("--k", type=float, default=1.0, help="coherence drift factor")

    sp = sub.add_parser("drift", help="RB over a grid of drift factors")
    _add_rb_flags(sp, gates_default=300, depths_default="100:300:100")
    sp.add_argument("--k-grid", default="1e-3:1e6:19log",
                    help="'start:stop:count[log]' or comma list of drift factors")

    sp = sub.add_parser("prep-sweep", help="state-preparation improvement vs damping")
    sp.add_argument("--lambda-grid", default="0:0.1:100",
                    help="'start:stop:count[log]' or comma list")
    sp.add_argument("--targets", type=int, default=100, help="sampled targets per grid point")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    _add_multistart_flag(sp)

    sp = sub.add_parser("knowledge", help="improvement vs damping and state uncertainty")
    sp.add_argument("--lambda-grid", default="0:0.1:25")
    sp.add_argument("--theta-max-grid",
                    help="'start:stop:count[log]' or comma list (default: 25 caps up to pi)")
    sp.add_argument("--targets", type=int, default=100, help="sampled targets per grid cell")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    _add_multistart_flag(sp)

    sp = sub.add_parser("validate", help="validate a device calibration file")
    sp.add_argument("path", help="device spec JSON file")

    return parser


def _run_from_manifest(args) -> int:
    doc = load_manifest(args.from_manifest)
    command = doc["command"]
    runner = _RUNNERS.get(command) if isinstance(command, str) else None
    if runner is None:
        raise ValueError(f"manifest command {command!r} is not replayable")
    tag = args.tag or from_jsonable(str | None, doc.get("tag"), "tag") or command
    return runner(doc["config"], Path(args.output_dir), _plain_tag(tag))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tag is not None:
        try:
            _plain_tag(args.tag)
        except ValueError as exc:
            parser.error(f"--tag: {exc}")
    try:
        if args.from_manifest is not None:
            if args.command is not None:
                parser.error("--from-manifest replaces the subcommand")
            return _run_from_manifest(args)
        if args.command is None:
            parser.error("a subcommand is required (or --from-manifest)")
        return _COMMANDS[args.command](args, parser)
    except (
        DeviceSpecError,
        np.linalg.LinAlgError,
        OSError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
