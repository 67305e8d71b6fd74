"""Command-line front end for reproducible experiment runs.

Subcommands:

  optimize    one-off decomposition optimization; prints and saves the result
  rb          randomized-benchmarking simulation -> CSV + JSON summary
  drift       RB over a grid of coherence-drift factors -> CSV + JSON summary
  prep-sweep  state-preparation improvement vs damping -> CSV
  knowledge   improvement vs damping and initial-state uncertainty -> CSV
  validate    check a device calibration file and report warnings

Every run takes one path: flags -> config -> ``_job`` -> ``_run``.  argparse
parses each flag's value with its ``type`` and stores it under the config key
it fills (the flag's dest); ``_flag_type`` makes a value that does not parse a
usage error; a mutually exclusive group makes --device and --lambda each
other's alternative and one of them required.  ``_config`` picks the run's
plain-JSON config out of the flags, after ``_resolve_noise`` has read the
noise and readout flags, which span several keys or a device file.  ``_job``
decodes the config against the config dataclasses, which hold every range
rule, before anything runs; ``_run`` runs it, times it and writes the CSV,
the summary and a manifest recording the command, config, seed, package
version and output paths.  ``noisy-euler --from-manifest PATH`` enters the
path at the recorded config, so a fresh run is the replay of its own
manifest, and replaying a manifest this version wrote reproduces the CSV and
summary byte-for-byte.  Manifests written
before the per-cell and per-circuit streams (``knowledge``, ``prep-sweep``,
and ``rb``/``drift`` with --multistart above 0) replay with other draws
(README, "Determinism and parallelism").  All randomness flows from the
--seed flag through named sub-streams, so --jobs changes only the wall time.

``main`` builds its parser once per process, on first use (``_parser``), so
a program that calls ``main`` many times pays for one build.  No parse
result shares state with that parser: each default is a string that the
flag's ``type`` parses afresh on every call, or an immutable value, and
parsing leaves the parser as it was.  (A parse result's ``parser``, which
reports its usage errors, is the subcommand's parser itself.)

Exit codes: 0 success; 1 runtime error, or a replayed config that is refused
(the error names its ``config.KEY`` path); 2 usage error, including a fresh
config that is refused, which names the flag that filled the key.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    BUNDLED_DEVICES,
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
from .objectives import cap_moments, point_moments
from .optimize import optimize_gate
from .rb import RbConfig, run_drift_sweep, run_rb_experiment

RB_HEADER = ("experiment_id", "k", "circuit_index", "depth", "arm", "fidelity", "stderr")
SWEEP_HEADER = ("lambda", "theta_max", "mean_improvement", "stderr", "n_samples")


# ---------------------------------------------------------------- parsing

def _flag_type(convert):
    """``convert`` as an argparse ``type``: its ValueError becomes "cannot
    parse TEXT (reason)", where argparse would print only the converter's name;
    an ArgumentTypeError passes through as it is."""
    @functools.wraps(convert, updated=())  # a builtin's class dict stays out
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r} ({exc})") from None
    return parse


def _pair(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expects two comma-separated numbers")
    return [float(p) for p in parts]


@_flag_type
def _gate(text: str) -> list[float]:
    """--gate: a named gate or 'beta,gamma,delta', as the config's
    [beta, gamma, delta]."""
    name = text.strip().lower()
    if name in NAMED_GATES:
        gate = extract_euler(named_gate(name))
    elif len(text.split(",")) == 3:
        gate = EulerAngles(*(float(p) for p in text.split(",")))
    else:
        raise ValueError(
            f"expects a named gate ({', '.join(sorted(NAMED_GATES))}) or 'beta,gamma,delta'"
        )
    return [gate.beta, gate.gamma, gate.delta]


@_flag_type
def _lambdas(text: str) -> list[float]:
    """--lambda: 'X' (lambda_a = lambda_p = X) or 'A,P', as [lambda_a, lambda_p]."""
    return _pair(text) if "," in text else [float(text)] * 2


@_flag_type
def _point(text: str) -> dict:
    """--state 'theta,phi', as the config's point dist."""
    theta, phi = _pair(text)
    return {"kind": "point", "theta": theta, "phi": phi}


@_flag_type
def _dist(text: str) -> dict:
    """--dist: 'uniform' or 'cap:theta_max', as the config's dist."""
    text = text.strip()
    if text == "uniform":
        return {"kind": "uniform"}
    if text.startswith("cap:"):
        return {"kind": "cap", "theta_max": float(text[4:])}
    raise ValueError("expects 'uniform' or 'cap:theta_max'")


@_flag_type
def _grid(text: str) -> list[float]:
    """'start:stop:COUNT', 'start:stop:COUNTlog', or comma-separated values."""
    if ":" not in text:
        return [float(t) for t in text.split(",")]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expects 'start:stop:count[log]' or a comma list")
    log = parts[2].endswith("log")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2].removesuffix("log"))
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {count}")
    if log and (start <= 0 or stop <= 0):
        raise ValueError("log grids need positive endpoints")
    return [float(v) for v in (np.geomspace if log else np.linspace)(start, stop, count)]


@_flag_type
def _depths(text: str) -> list[int]:
    """'start:stop:step' (stop inclusive; a step below 1 gives no depths) or a
    comma list."""
    if ":" in text:
        a, b, s = (int(t) for t in text.split(":"))
        return list(range(a, b + 1, s)) if s >= 1 else []
    return [int(t) for t in text.split(",")]


@_flag_type
def _shots(text: str) -> int | None:
    """--shots: an int, or 'inf' for exact survival probabilities."""
    return None if text.strip().lower() == "inf" else int(text)


@_flag_type
def _readout(text: str):
    """--readout: 'device' (resolved by _resolve_noise) or 'p10,p01'."""
    return "device" if text.strip().lower() == "device" else _pair(text)


def _refuse(parser, exc: ValueError, dests) -> None:
    """Exit 2 through ``parser`` with the config's refusal ``exc``, naming
    the flags whose dest is in ``dests``."""
    flags = "/".join(o for a in parser._actions if a.dest in dests for o in a.option_strings)
    parser.error(f"argument {flags}: {str(exc).removeprefix('config.')}")


def _resolve_noise(args) -> tuple[NoiseParams, list[float] | None]:
    """The config's noise, from --device/--qubit or --lambda, and readout,
    from --readout with 'device' read from the device qubit (None where the
    subcommand takes no --readout)."""
    parser, readout = args.parser, getattr(args, "readout", None)
    if args.device is None:
        if args.qubit is not None:
            parser.error("--qubit requires --device")
        if readout == "device":
            parser.error("--readout device requires --device and --qubit")
        try:
            return NoiseParams(*args.lam), readout
        except ValueError as exc:
            _refuse(parser, exc, ["lam"])
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
    if readout == "device":
        readout = [qubit.p_meas1_prep0, qubit.p_meas0_prep1]
    return noise_params_for(qubit), readout


# ---------------------------------------------------------- config decoding
#
# A run's config is plain JSON, from the flags or a manifest, decoded by
# io.from_jsonable: an RbConfig, SweepConfig or _OptimizeRun plus run-level
# keys ("jobs"; drift's "k_grid"; optimize's kind-tagged "dist").

@dataclasses.dataclass(frozen=True)
class _OptimizeRun:
    gate: tuple[float, float, float]  # beta, gamma, delta
    noise: NoiseParams


# Each dist kind's moment function and the keys it takes, in argument order.
_DISTS = {
    "point": (point_moments, ("theta", "phi")),
    "uniform": (lambda: cap_moments(math.pi), ()),
    "cap": (cap_moments, ("theta_max",)),
}


def _dist_from_dict(d):
    """The moments (m1, m2) of the config's dist."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if isinstance(kind, str) and kind in _DISTS and set(d) == {"kind", *_DISTS[kind][1]}:
        moments, keys = _DISTS[kind]
        values = [from_jsonable(float, d[key], f"config.dist.{key}") for key in keys]
        try:
            return moments(*values)
        except ValueError as exc:
            raise ValueError(f"config.dist: {exc}") from None
    raise ValueError(
        "config.dist must be {'kind': 'point', 'theta': ..., 'phi': ...}, {'kind': "
        f"'uniform'}} or {{'kind': 'cap', 'theta_max': ...}}, got {d!r}"
    )


def _decode(tp, config: dict, *run_keys: str):
    """``tp`` decoded from ``config`` less its run-level keys ``run_keys``."""
    return from_jsonable(tp, {k: v for k, v in config.items() if k not in run_keys}, "config")


def _jobs(config: dict) -> int:
    jobs = from_jsonable(int | None, config.get("jobs"), "config.jobs")
    if jobs is not None and jobs < 1:
        raise ValueError(f"config.jobs must be an int >= 1, got {jobs}")
    return 1 if jobs is None else jobs


def _plain_tag(tag: str) -> str:
    """``tag``, the basename of a run's outputs, if it names a file in the
    output directory and nothing else."""
    if tag in (".", "..") or "/" in tag or "\\" in tag:
        raise ValueError(f"tag must be a plain file name (no '/' or '\\', not '.' or '..'), "
                         f"got {tag!r}")
    return tag


# ---------------------------------------------------------------- runners
#
# ``_job`` decodes a config into a runner: a call that runs it, given the
# run's tag, and returns (summary, CSV header, CSV rows), the last two None
# without a CSV.  Every refusal of the config happens in ``_job``, before
# anything runs or is written.  It looks up the package functions it calls as
# this module's globals, so patching them here reaches each call.

def _optimize(gate: EulerAngles, moments, noise: NoiseParams, tag: str):
    result = optimize_gate(gate, *moments, noise)
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
        "angles_opt": [a.beta, a.gamma, a.delta],
        "objective_value": result.objective_value,
        "objective_at_target_angles": result.objective_at_target_angles,
        "improvement": result.improvement,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return summary, None, None


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


def _rb(cfg: RbConfig, jobs: int, tag: str):
    result = run_rb_experiment(cfg, jobs=jobs)
    summary = {
        "rng_seed": cfg.rng_seed,
        "fits": {"unopt": result.unopt.fit, "opt": result.opt.fit},
    }
    if result.unopt.fit is not None and result.opt.fit is not None:
        summary["error_rate_reduction"] = (
            result.unopt.fit.error_rate - result.opt.fit.error_rate
        )
    return summary, RB_HEADER, _rb_rows(tag, result, include_circuits=True)


def _drift(cfg: RbConfig, k_grid: tuple[float, ...], jobs: int, tag: str):
    runs = run_drift_sweep(cfg, k_grid, jobs=jobs)
    rows = [row for _, result in runs for row in _rb_rows(tag, result, include_circuits=False)]
    summary = {
        "rng_seed": cfg.rng_seed,
        "runs": [{"k": k, "fits": {"unopt": r.unopt.fit, "opt": r.opt.fit}} for k, r in runs],
    }
    return summary, RB_HEADER, rows


def _sweep(sweep, cfg: SweepConfig, jobs: int, tag: str):
    result = sweep(cfg, jobs=jobs)
    rows = [[row.lam, row.theta_max, row.mean_improvement, row.stderr, row.n_samples]
            for row in result.rows]
    return {"rng_seed": cfg.rng_seed, "n_rows": len(result.rows)}, SWEEP_HEADER, rows


def _job(command: str, config: dict):
    """The runner of ``config`` as ``command``, decoded and checked."""
    unknown = sorted(set(config) - set(_CONFIG_KEYS[command]))
    if unknown:
        raise ValueError(f"config has key(s) {', '.join(map(repr, unknown))} that {command} "
                         f"does not take; its keys: {', '.join(_CONFIG_KEYS[command])}")
    if command == "optimize":
        run = _decode(_OptimizeRun, config, "dist")
        moments = _dist_from_dict(config.get("dist"))
        return functools.partial(_optimize, EulerAngles(*run.gate), moments, run.noise)
    jobs = _jobs(config)
    if command == "rb":
        return functools.partial(_rb, _decode(RbConfig, config, "jobs"), jobs)
    if command == "drift":
        cfg = _decode(RbConfig, config, "jobs", "k_grid")
        k_grid = from_jsonable(tuple[float, ...], config.get("k_grid"), "config.k_grid")
        try:  # each k is the drift_factor of one RbConfig
            for k in k_grid:
                dataclasses.replace(cfg, drift_factor=k)
        except ValueError as exc:
            raise ValueError(f"config.k_grid: {exc}") from None
        return functools.partial(_drift, cfg, k_grid, jobs)
    cfg = _decode(SweepConfig, config, "jobs")
    if command == "knowledge" and not cfg.theta_max_grid:
        raise ValueError("config.theta_max_grid must be nonempty")
    sweep = prep_improvement_sweep if command == "prep-sweep" else knowledge_sweep
    return functools.partial(_sweep, sweep, cfg, jobs)


def _run(command: str, config: dict, runner, outdir: Path, tag: str) -> int:
    """Run ``config`` as ``command`` through its ``runner``, fresh or
    replayed, and write the CSV (if any), the summary (the runner's plus the
    run's tag, command and config) and the manifest that replays it."""
    t0 = time.monotonic()
    summary, header, rows = runner(tag)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [] if rows is None else [write_csv(outdir / f"{tag}.csv", header, rows)]
    summary = {"experiment_id": tag, "command": command, "config": config, **summary}
    outputs.append(write_json(outdir / f"{tag}_summary.json", summary))
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


# ------------------------------------------------------------ subcommands

# Each command's config keys.  Every flag stores its value under the key it
# fills (its argparse dest); "noise" and "readout" are the values that
# _resolve_noise makes of the noise and readout flags.
_SWEEP_KEYS = ("lambda_grid", "targets_per_point", "rng_seed", "jobs")
_RB_KEYS = ("noise", "n_circuits", "n_gates", "depth_schedule", "shots", "readout",
            "mitigate", "rng_seed", "multistart", "track_noisy_state", "jobs")
_CONFIG_KEYS = {
    "optimize": ("gate", "dist", "noise"),
    "rb": (*_RB_KEYS, "drift_factor"),
    "drift": (*_RB_KEYS, "k_grid"),
    "prep-sweep": _SWEEP_KEYS,
    "knowledge": (*_SWEEP_KEYS, "theta_max_grid"),
}


def _config(args, noise: NoiseParams | None, readout: list[float] | None) -> dict:
    """The config of a fresh run, from its subcommand's flags and the noise
    and readout that _resolve_noise made of them."""
    values = {**vars(args), "noise": to_jsonable(noise), "readout": readout}
    return {key: values[key] for key in _CONFIG_KEYS[args.command]}


def _validate(path: str) -> int:
    spec = load_device_spec(path)
    print(
        f"{spec.device_name} ({spec.calibration_date}): "
        f"{len(spec.qubits)} qubits, qubit ids {[q.id for q in spec.qubits]}"
    )
    for warning in spec.warnings:
        print(f"warning: {warning}")
    if not spec.warnings:
        print("no warnings")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisy-euler",
        description="Noise-aware single-qubit gate decomposition and experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--from-manifest", metavar="PATH",
                        help="replay a recorded run from its manifest JSON")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument("--tag", type=_flag_type(_plain_tag),
                        help="basename for output files (default: command name)")
    sub = parser.add_subparsers(dest="command")

    int_flag = _flag_type(int)
    # Flags that several subcommands share, as argparse parent parsers.
    noise = argparse.ArgumentParser(add_help=False)
    source = noise.add_mutually_exclusive_group(required=True)
    source.add_argument("--device", help=f"bundled device {BUNDLED_DEVICES} or a spec JSON path")
    source.add_argument("--lambda", dest="lam", metavar="A[,P]", type=_lambdas,
                        help="amplitude and phase damping probabilities (one value: both)")
    noise.add_argument("--qubit", type=int_flag, help="qubit id within --device")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--seed", dest="rng_seed", type=int_flag, default=0)
    jobs.add_argument("--jobs", type=int_flag, default=1)
    rb_like = argparse.ArgumentParser(add_help=False, parents=[noise, jobs])
    rb_like.add_argument("--multistart", type=int_flag, default=0,
                         help="extra uniform-random starts beside the target seed")
    rb_like.add_argument("--circuits", dest="n_circuits", type=int_flag, default=10)
    rb_like.add_argument("--shots", type=_shots, default="inf",
                         help="shots per measurement, or 'inf'")
    rb_like.add_argument("--readout", type=_readout,
                         help="'device' or 'p10,p01' confusion probabilities")
    rb_like.add_argument("--mitigate", action="store_true",
                         help="invert the readout confusion matrix on measured counts")
    rb_like.add_argument("--track-noisy-state", action="store_true",
                         help="optimize against the noisy circuit state instead of the ideal one")

    sp = sub.add_parser("optimize", parents=[noise],
                        help="optimize one gate decomposition")
    sp.add_argument("--gate", type=_gate, required=True,
                    help="named gate (i, x, y, z, h, s, t, sx) or 'beta,gamma,delta'")
    state = sp.add_mutually_exclusive_group(required=True)
    state.add_argument("--state", dest="dist", metavar="STATE", type=_point,
                       help="'theta,phi' known input state")
    state.add_argument("--dist", type=_dist, help="'uniform' or 'cap:theta_max'")

    depths_help = "'start:stop:step' (stop inclusive) or comma list"
    sp = sub.add_parser("rb", parents=[rb_like], help="randomized-benchmarking simulation")
    sp.add_argument("--gates", dest="n_gates", type=int_flag, default=246)
    sp.add_argument("--depths", dest="depth_schedule", type=_depths, default="1:246:7",
                    help=depths_help)
    sp.add_argument("--k", dest="drift_factor", type=_flag_type(float), default=1.0,
                    help="coherence drift factor")

    sp = sub.add_parser("drift", parents=[rb_like], help="RB over a grid of drift factors")
    sp.add_argument("--gates", dest="n_gates", type=int_flag, default=300)
    sp.add_argument("--depths", dest="depth_schedule", type=_depths, default="100:300:100",
                    help=depths_help)
    sp.add_argument("--k-grid", type=_grid, default="1e-3:1e6:19log",
                    help="'start:stop:count[log]' or comma list of drift factors")

    sp = sub.add_parser("prep-sweep", parents=[jobs],
                        help="state-preparation improvement vs damping")
    sp.add_argument("--lambda-grid", type=_grid, default="0:0.1:100",
                    help="'start:stop:count[log]' or comma list")
    sp.add_argument("--targets", dest="targets_per_point", type=int_flag, default=100,
                    help="sampled targets per grid point")

    sp = sub.add_parser("knowledge", parents=[jobs],
                        help="improvement vs damping and state uncertainty")
    sp.add_argument("--lambda-grid", type=_grid, default="0:0.1:25")
    sp.add_argument("--theta-max-grid", type=_grid, default=f"{math.pi / 25.0!r}:{math.pi!r}:25",
                    help="'start:stop:count[log]' or comma list (default: 25 caps up to pi)")
    sp.add_argument("--targets", dest="targets_per_point", type=int_flag, default=100,
                    help="sampled targets per grid cell")

    sp = sub.add_parser("validate", help="validate a device calibration file")
    sp.add_argument("path", help="device spec JSON file")

    for sp in sub.choices.values():  # main's cross-flag errors print its usage
        sp.set_defaults(parser=sp)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser: ``build_parser``'s, built on first use and kept."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.from_manifest is not None and args.command is not None:
        parser.error("--from-manifest replaces the subcommand")
    if args.from_manifest is None and args.command is None:
        parser.error("a subcommand is required (or --from-manifest)")
    try:
        if args.command == "validate":
            return _validate(args.path)
        if args.from_manifest is not None:
            doc = load_manifest(args.from_manifest)
            command, config = doc["command"], doc["config"]
            if not (isinstance(command, str) and command in _CONFIG_KEYS):
                raise ValueError(f"manifest command {command!r} is not replayable")
            tag = args.tag or from_jsonable(str | None, doc.get("tag"), "tag") or command
            runner = _job(command, config)
        else:
            # Only optimize, rb and drift have noise flags; only rb and drift --readout.
            noise, readout = _resolve_noise(args) if "device" in args else (None, None)
            command, config = args.command, _config(args, noise, readout)
            tag = args.tag or command
            try:
                runner = _job(command, config)
            except ValueError as exc:  # a refused key names the flag that filled it
                _refuse(args.parser, exc, re.findall(r"^config\.(\w+)", str(exc)))
        return _run(command, config, runner, Path(args.output_dir), _plain_tag(tag))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
