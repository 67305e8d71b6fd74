"""Acceptance gate for the package.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (bypassing pytest capture) so the gate status is
readable straight from the run log.
"""

import math
import time

import numpy as np

import conftest

from noisy_euler import (
    BlochState,
    EulerAngles,
    NoiseParams,
    RbConfig,
    SweepConfig,
    apply_readout_error,
    bundled_device,
    cap_moments,
    extract_euler,
    knowledge_sweep,
    mitigate_readout,
    moment_objective,
    noise_params_for,
    prep_improvement_sweep,
    run_drift_sweep,
    run_rb_experiment,
)
from noisy_euler.cli import main as cli_main
from noisy_euler.noise import _apply, _damping
from reference import (
    bloch_density,
    bloch_vector,
    calibration_signal,
    noisy_gate_stepwise,
    projector,
)


def _report(index: int, title: str, ok: bool, detail: str) -> None:
    line = f"[{index:2d}/10] {'PASS' if ok else 'FAIL'}  {title}: {detail}"
    conftest.ACCEPTANCE_REPORT.append(line)
    assert ok, line


def _haar_angles(rng: np.random.Generator) -> EulerAngles:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return extract_euler(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def _rome_q3() -> NoiseParams:
    return noise_params_for(bundled_device("rome").qubit(3))


def test_01_closed_form_matches_stepwise_channel():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        angles = EulerAngles(*rng.uniform(0.0, 2.0 * np.pi, size=3))
        state = BlochState(
            math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * np.pi)
        )
        la, lp = rng.uniform(0.0, 0.3, size=2)
        params = NoiseParams(la, lp)
        closed = bloch_density(_apply(angles.beta, angles.gamma, angles.delta,
                                      _damping(params.lambda_a, params.lambda_p),
                                      bloch_vector(state)))
        step = noisy_gate_stepwise(angles, projector(state), params)
        worst = max(worst, float(np.max(np.abs(closed - step))))
    elapsed = time.monotonic() - t0
    _report(
        1,
        "closed form vs stepwise Kraus channel",
        worst < 1e-12 and elapsed < 10.0,
        f"worst elementwise {worst:.2e} over 1e4 samples, {elapsed:.1f}s",
    )


def test_02_rome_q3_damping_probabilities():
    params = _rome_q3()
    la, lp = f"{params.lambda_a:.1e}", f"{params.lambda_p:.1e}"
    _report(
        2,
        "rome qubit-3 per-pulse damping probabilities",
        la == "7.7e-04" and lp == "3.4e-04",
        f"lambda_a {la}, lambda_p {lp}",
    )


def test_03_calibration_signal_peaks_at_quarter_turn():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    grid = np.arange(-np.pi, np.pi, 1e-3)
    worst = 0.0
    for _ in range(100):
        la, lp = rng.uniform(0.0, 0.3, size=2)
        params = NoiseParams(la, lp)
        vals = [calibration_signal(a, params) for a in grid]
        best = grid[int(np.argmax(vals))]
        worst = max(worst, min(abs(best - np.pi / 2), abs(best + np.pi / 2)))
    elapsed = time.monotonic() - t0
    _report(
        3,
        "calibration argmax at +/- pi/2",
        worst < 1e-3 and elapsed < 5.0,
        f"worst grid-argmax offset {worst:.2e} over 100 noise pairs, {elapsed:.1f}s",
    )


def test_04_target_angles_stationary_for_uniform_input():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    moments = cap_moments(math.pi)
    worst = 0.0
    for _ in range(50):
        target = _haar_angles(rng)
        for lam in (1e-3, 1e-2, 1e-1):
            fg = moment_objective(target, *moments, NoiseParams.from_lambda(lam))
            grad = fg((target.beta, target.gamma, target.delta))[1]
            worst = max(worst, float(np.linalg.norm(grad)))
    elapsed = time.monotonic() - t0
    _report(
        4,
        "uniform-average gradient vanishes at target angles",
        worst < 1e-5 and elapsed < 120.0,
        f"worst gradient norm {worst:.2e} over 50 targets x 3 noise levels, "
        f"{elapsed:.1f}s",
    )


def test_05_benchmarking_improvement_on_rome_q3():
    t0 = time.monotonic()
    res = run_rb_experiment(RbConfig(noise=_rome_q3(), rng_seed=0))
    ordered = bool(np.all(res.opt.mean >= res.unopt.mean))
    ru, ro = res.unopt.fit.error_rate, res.opt.fit.error_rate
    reduction = (ru - ro) / ru
    elapsed = time.monotonic() - t0
    _report(
        5,
        "optimized arm dominates at every depth",
        ordered and reduction > 0.0 and elapsed < 600.0,
        f"ordered at all {len(res.depths)} depths, error rate "
        f"{ru:.2e} -> {ro:.2e} ({100 * reduction:.0f}% lower), {elapsed:.0f}s",
    )


def test_06_robust_to_coherence_drift():
    t0 = time.monotonic()
    cfg = RbConfig(
        noise=_rome_q3(),
        n_circuits=3,
        n_gates=300,
        depth_schedule=(100, 200, 300),
        rng_seed=0,
    )
    ks = list(np.geomspace(0.1, 100.0, 13))
    never_worse = True
    worst_margin = math.inf
    for k, res in run_drift_sweep(cfg, ks):
        for i in range(len(res.depths)):
            diff = float(res.opt.mean[i] - res.unopt.mean[i])
            se = float(np.hypot(res.opt.stderr[i], res.unopt.stderr[i]))
            never_worse &= diff >= -2.0 * se
            worst_margin = min(worst_margin, diff + 2.0 * se)

    [(_, res_lo)] = run_drift_sweep(cfg, [1e-3])
    tiny_k_same = True
    for i in range(len(res_lo.depths)):
        diff = abs(float(res_lo.opt.mean[i] - res_lo.unopt.mean[i]))
        se = float(np.hypot(res_lo.opt.stderr[i], res_lo.unopt.stderr[i]))
        tiny_k_same &= diff < 2.0 * se

    cfg_hi = RbConfig(
        noise=_rome_q3(),
        n_circuits=200,
        n_gates=300,
        depth_schedule=(300,),
        rng_seed=0,
        multistart=8,
    )
    [(_, res_hi)] = run_drift_sweep(cfg_hi, [1e6])
    scrambled_mean = float(res_hi.opt.mean[0])
    elapsed = time.monotonic() - t0
    _report(
        6,
        "drift never hurts below 100x, scrambles at extreme drift",
        never_worse
        and tiny_k_same
        and 0.45 <= scrambled_mean <= 0.55
        and elapsed < 1800.0,
        f"13-point k grid worst margin {worst_margin:+.2e}, k=1e-3 arms agree, "
        f"k=1e6 depth-300 mean {scrambled_mean:.3f}, {elapsed:.0f}s",
    )


def test_07_preparation_improvement_grows_with_noise():
    t0 = time.monotonic()
    grid = (0.0,) + tuple(np.linspace(0.01, 0.1, 10))
    res = prep_improvement_sweep(
        SweepConfig(lambda_grid=grid, targets_per_point=100, rng_seed=0)
    )
    zero_row = res.rows[0]
    positive = all(r.mean_improvement > 0.0 for r in res.rows[1:])
    lo, hi = res.rows[1], res.rows[-1]
    gap = hi.mean_improvement - lo.mean_improvement
    gap_se = math.hypot(hi.stderr, lo.stderr)
    elapsed = time.monotonic() - t0
    _report(
        7,
        "state-preparation improvement null at zero noise, grows with it",
        abs(zero_row.mean_improvement) < 1e-9
        and positive
        and gap > 1.96 * gap_se
        and elapsed < 300.0,
        f"improvement(0) = {zero_row.mean_improvement:.1e}, all 10 noisy points "
        f"positive, imp(0.1)-imp(0.01) = {gap:.2e} > 1.96se = {1.96 * gap_se:.2e}, "
        f"{elapsed:.0f}s",
    )


def test_08_knowledge_sweep_endpoints():
    t0 = time.monotonic()
    lam_grid = tuple(np.linspace(0.0, 0.1, 25))
    caps = tuple(np.linspace(np.pi / 25, np.pi, 25))
    kn = knowledge_sweep(
        SweepConfig(
            lambda_grid=lam_grid,
            targets_per_point=100,
            theta_max_grid=caps,
            rng_seed=0,
        )
    )
    pr = prep_improvement_sweep(
        SweepConfig(lambda_grid=lam_grid, targets_per_point=100, rng_seed=0)
    )
    by_cap = {}
    for row in kn.rows:
        by_cap.setdefault(row.theta_max, []).append(row)

    loose_ok = all(
        abs(r.mean_improvement) <= 3.0 * r.stderr for r in by_cap[caps[-1]]
    )
    worst_ratio = 0.0
    tight_ok = True
    for krow, prow in zip(by_cap[caps[0]], pr.rows):
        diff = abs(krow.mean_improvement - prow.mean_improvement)
        se = math.hypot(krow.stderr, prow.stderr)
        ok = diff <= 3.0 * se if se > 0.0 else diff == 0.0
        tight_ok &= ok
        if se > 0.0:
            worst_ratio = max(worst_ratio, diff / se)
    elapsed = time.monotonic() - t0
    _report(
        8,
        "knowledge-sweep endpoints match no-knowledge and exact-knowledge limits",
        loose_ok and tight_ok and elapsed < 900.0,
        f"theta_max=pi column within 3se of 0, tightest-cap column vs prep "
        f"worst |diff|/se {worst_ratio:.2f} <= 3, {elapsed:.0f}s",
    )


def test_09_readout_mitigation_round_trip():
    rng = np.random.default_rng(9)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        p10, p01 = rng.uniform(0.0, 0.4, size=2)
        p = rng.uniform(0.0, 1.0)
        recovered, _ = mitigate_readout(apply_readout_error(p, p10, p01), p10, p01)
        worst = max(worst, abs(recovered - p))

    p10, p01, truth = 0.027, 0.05, 0.73
    shots = 8192
    meas_p = apply_readout_error(truth, p10, p01)
    sigma = math.sqrt(meas_p * (1.0 - meas_p) / shots) / (1.0 - p10 - p01)
    misses = 0
    for _ in range(100):
        est = rng.binomial(shots, meas_p) / shots
        recovered, _ = mitigate_readout(est, p10, p01)
        if abs(recovered - truth) > 3.0 * sigma:
            misses += 1
    elapsed = time.monotonic() - t0
    _report(
        9,
        "readout mitigation inverts the confusion model",
        worst < 1e-12 and misses == 0 and elapsed < 5.0,
        f"worst round-trip error {worst:.2e} over 1e3 cases, 100/100 sampled "
        f"estimates within 3 sigma, {elapsed:.1f}s",
    )


def test_10_experiment_commands_are_deterministic(tmp_path):
    commands = {
        "rb": ["rb", "--device", "rome", "--qubit", "3", "--circuits", "2",
               "--gates", "12", "--depths", "1:12:4", "--seed", "7"],
        "drift": ["drift", "--device", "rome", "--qubit", "3", "--circuits",
                  "2", "--gates", "20", "--depths", "10:20:10",
                  "--k-grid", "0.5,2", "--seed", "7"],
        "prep": ["prep-sweep", "--lambda-grid", "0,0.05,0.1",
                 "--targets", "6", "--seed", "7"],
        "know": ["knowledge", "--lambda-grid", "0.02,0.08",
                 "--theta-max-grid", "0.3,3.0", "--targets", "4",
                 "--seed", "7"],
    }
    identical = {}
    for name, argv in commands.items():
        payload = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{name}_{run}"
            rc = cli_main(["--output-dir", str(outdir), "--tag", name, *argv])
            assert rc == 0
            payload.append((outdir / f"{name}.csv").read_bytes())
        identical[name] = payload[0] == payload[1]
    _report(
        10,
        "every experiment command reruns byte-identically",
        all(identical.values()),
        ", ".join(f"{k} {'ok' if v else 'DIFFERS'}" for k, v in identical.items()),
    )
