"""Unit tests for the randomized-benchmarking harness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import least_squares

from noisy_euler import (
    DecayFit,
    EulerAngles,
    NoiseParams,
    RbConfig,
    extract_euler,
    fit_decay,
    moment_objective,
    rb,
    run_drift_sweep,
    run_rb_experiment,
)
from noisy_euler.gates import _hamilton, _zyz_from_quaternion
from noisy_euler.noise import _apply
from noisy_euler.optimize import GRADIENT_TOLERANCE
from reference import (
    angle_gap,
    noisy_gate_stepwise,
    quaternion_unitary,
    sign_gap,
    uniform_quaternion,
    uniform_starts,
    zyz_unitary,
)

ROME_Q3 = NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9)


def small_config(**overrides):
    base = dict(
        noise=ROME_Q3,
        n_circuits=3,
        n_gates=40,
        depth_schedule=(1, 10, 20, 30, 40),
        shots=None,
        rng_seed=5,
    )
    base.update(overrides)
    return RbConfig(**base)


# ------------------------------------------------------------ gate sampling

def rb_gate(rng) -> EulerAngles:
    """One gate of an RB stream, in Euler angles, drawn as the harness draws
    it: a rotation by a uniform angle about a uniform axis."""
    return _zyz_from_quaternion(*rb._sample_quaternion(rng.random(3).tolist()))


def test_sampled_gates_are_valid_unitaries():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ang = rb_gate(rng)
        u = zyz_unitary(ang)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_sampled_gate_axis_and_angle_marginals():
    """Recover (rotation angle, axis z) from each gate; the generator draws
    the angle and the axis z-coordinate uniformly.

    (omega, axis) is only defined up to the flip (2 pi - omega, -axis), so
    both are canonicalized to axis_z >= 0 first; uniform marginals survive
    that quotient as uniform on [0, 2 pi) x [0, 1].
    """
    rng = np.random.default_rng(1)
    n = 30000
    omegas = np.empty(n)
    axis_z = np.empty(n)
    for i in range(n):
        ang = rb_gate(rng)
        v = zyz_unitary(ang)  # +-V: the sign flip is the (omega, axis) flip below
        c = np.clip(v.trace().real / 2.0, -1.0, 1.0)
        omega = 2.0 * math.acos(c)  # in [0, 2 pi]
        s = math.sin(omega / 2.0)
        nz = -v[0, 0].imag / s if s > 1e-9 else 0.0
        if nz < 0:
            omega, nz = 2 * math.pi - omega, -nz
        omegas[i] = omega
        axis_z[i] = nz
    for data, lo, hi in ((omegas, 0.0, 2 * math.pi), (axis_z, 0.0, 1.0)):
        hist, _ = np.histogram(data, bins=20, range=(lo, hi))
        expected = n / 20.0
        chi2 = float(np.sum((hist - expected) ** 2 / expected))
        assert chi2 < 43.8  # dof 19, p ~ 1e-3


def test_sampled_gate_image_of_zero_is_not_uniform():
    """Axis-angle sampling is not Haar: the image of |0> is biased toward
    the pole with E[cos(theta)] = 1/3."""
    rng = np.random.default_rng(2)
    n = 30000
    zs = np.empty(n)
    for i in range(n):
        u = zyz_unitary(rb_gate(rng))
        psi = u[:, 0]
        zs[i] = 2.0 * abs(psi[0]) ** 2 - 1.0
    se = zs.std(ddof=1) / math.sqrt(n)
    assert abs(zs.mean() - 1.0 / 3.0) < 4 * se


def test_quaternion_net_matches_unitary_product():
    """RB carries the net rotation of a circuit as the Hamilton product of
    its gates' quaternions.  Over a 246-gate stream that stays the product of
    the gates' SU(2) matrices R_z(beta) R_y(gamma) R_z(delta) to 1e-12 up to sign (each
    gate's angles compose to +-its quaternion's matrix), and the conjugate's
    angles are the ones extract_euler finds for the product's adjoint, so
    the inverse gate is the same."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 0, 0])))
    net, product = (1.0, 0.0, 0.0, 0.0), np.eye(2, dtype=complex)
    worst_u = worst_angle = 0.0
    for _ in range(246):
        q = rb._sample_quaternion(rng.random(3).tolist())
        net = _hamilton(q, net)
        product = zyz_unitary(_zyz_from_quaternion(*q)) @ product
        worst_u = max(worst_u, sign_gap(quaternion_unitary(*net), product))
        w, x, y, z = net
        inverse, ref = _zyz_from_quaternion(w, -x, -y, -z), extract_euler(product.conj().T)
        worst_angle = max(worst_angle, abs(inverse.gamma - ref.gamma),
                          angle_gap(inverse.beta, ref.beta), angle_gap(inverse.delta, ref.delta))
    assert worst_u < 1e-12
    assert worst_angle < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2309])
def test_gate_draws_equal_scalar_uniform_rule(seed):
    """The rows of one (10,000, 3) block of a gate stream, drawn as a
    circuit draws its gates, give, bit for bit, the quaternions of the rule
    drawn by scalar ``Generator.uniform`` calls, and both leave the stream at
    the same place."""
    rng, ref = np.random.default_rng([seed, 0, 0]), np.random.default_rng([seed, 0, 0])
    for row in rng.random((10_000, 3)).tolist():
        assert rb._sample_quaternion(row) == uniform_quaternion(ref)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n_gates", [1, 2, 246])
def test_gate_block_equals_scalar_draws(n_gates):
    """A circuit's (n_gates, 3) block holds, ==, the values of 3 * n_gates
    scalar ``random()`` calls in turn, and the stream goes on from the same
    place after it."""
    rng, ref = np.random.default_rng([5, 0, 0]), np.random.default_rng([5, 0, 0])
    block = rng.random((n_gates, 3)).tolist()
    assert block == [[ref.random(), ref.random(), ref.random()] for _ in range(n_gates)]
    assert rng.random() == ref.random()


def test_gate_stream_deterministic():
    a = [rb_gate(np.random.default_rng(9)) for _ in range(5)]
    b = [rb_gate(np.random.default_rng(9)) for _ in range(5)]
    assert a == b


# --------------------------------------------------------------- decay fit

def test_fit_decay_exact_recovery():
    depths = np.arange(1, 247, 7)
    a_true = 3.2e-3
    y = 0.5 * (1.0 + np.exp(-a_true * depths))
    fit = fit_decay(depths, y)
    assert abs(fit.a - a_true) / a_true < 1e-9
    assert abs(fit.error_rate - 0.5 * (1 - math.exp(-a_true))) < 1e-12
    assert abs(fit.error_rate_approx - a_true / 2) < 1e-12
    assert fit.degenerate is None


def test_fit_decay_steep_and_shallow():
    depths = np.arange(1, 100, 3)
    for a_true in (1e-5, 5e-2, 0.5):
        y = 0.5 * (1.0 + np.exp(-a_true * depths))
        fit = fit_decay(depths, y)
        assert abs(fit.a - a_true) / a_true < 1e-6


def test_fit_decay_tolerates_noise():
    rng = np.random.default_rng(5)
    depths = np.arange(1, 247, 7)
    a_true = 2e-3
    y = 0.5 * (1.0 + np.exp(-a_true * depths)) + rng.normal(0, 1e-4, depths.size)
    fit = fit_decay(depths, np.clip(y, 0, 1))
    assert abs(fit.a - a_true) / a_true < 0.05


def test_fit_decay_degenerate_all_one():
    fit = fit_decay([1, 5, 9], [1.0, 1.0, 1.0 - 1e-12])
    assert fit.degenerate == "all-one"
    assert fit.a == 0.0
    assert fit.error_rate == 0.0


def test_fit_decay_degenerate_all_half():
    fit = fit_decay([1, 5, 9], [0.5, 0.5 + 1e-12, 0.5])
    assert fit.degenerate == "all-half"
    assert math.isinf(fit.a)
    assert fit.error_rate == 0.5


def test_fit_decay_validation():
    with pytest.raises(ValueError):
        fit_decay([1, 2], [1.0, 0.9])  # too few points
    with pytest.raises(ValueError):
        fit_decay([1, 2, 3], [1.0, 0.9])  # length mismatch
    with pytest.raises(ValueError):
        fit_decay([1, 2, 3], [1.0, 0.9, 1.2])  # outside [0, 1]
    for depths, fidelities, fault in (
        ([1, math.nan, 9], [0.9, 0.8, 0.7], "depths must be finite"),
        ([1, 5, math.inf], [0.9, 0.8, 0.7], "depths must be finite"),
        ([0, -5, -9], [0.9, 0.8, 0.7], "depths must be >= 1"),
        ([1, 5, 9], [0.9, math.nan, 0.7], "fidelities must be finite"),
    ):
        with pytest.raises(ValueError, match=fault):
            fit_decay(depths, fidelities)


def test_fit_decay_below_half_fits_a_at_infinity():
    """When the shallowest survival is at or below 1/2, S(a) falls all the
    way to a = inf, and the fit says so instead of stopping at some large a."""
    fit = fit_decay([1, 5, 9], [0.4, 0.45, 0.3])
    assert math.isinf(fit.a)
    assert fit.error_rate == 0.5
    assert fit.degenerate is None


def _oracle_a(depths, fidelities):
    """The fit by scipy's least_squares from the same log-linear start."""
    x = np.asarray(depths, dtype=float)
    y = np.asarray(fidelities, dtype=float)
    slope = np.polyfit(x, np.log(np.clip(2.0 * y - 1.0, 1e-12, None)), 1)[0]
    res = least_squares(
        lambda p: 0.5 * (1.0 + np.exp(-p[0] * x)) - y, x0=[max(1e-12, -float(slope))],
        bounds=([0.0], [np.inf]), ftol=1e-15, xtol=1e-15, gtol=1e-15,
    )
    return float(res.x[0])


def _sum_of_squares(a, depths, fidelities):
    z = 2.0 * np.asarray(fidelities) - 1.0
    return float(np.sum((np.exp(-a * np.asarray(depths)) - z) ** 2))


def test_fit_decay_matches_least_squares_oracle():
    """Exact series agree with least_squares to 1e-12.  On noisy series and
    RB arm means, where least_squares stops a little early, a agrees to 1e-6
    and the bisection's sum of squares is not above the oracle's beyond
    float rounding."""
    for depths in (np.arange(1, 247, 7), np.arange(1, 100, 3)):
        for a_true in np.geomspace(1e-5, 0.5, 12):
            y = 0.5 * (1.0 + np.exp(-a_true * depths))
            a = fit_decay(depths, y).a
            assert abs(a - _oracle_a(depths, y)) <= 1e-12 * a

    rng = np.random.default_rng(11)
    depths = np.arange(1, 247, 7)
    series = []
    for _ in range(200):
        a_true = 10.0 ** rng.uniform(-4.0, -1.5)
        noise = rng.normal(0.0, 10.0 ** rng.uniform(-5.0, -2.0), depths.size)
        series.append((depths, np.clip(0.5 * (1.0 + np.exp(-a_true * depths)) + noise, 0.0, 1.0)))
    for _, res in run_drift_sweep(small_config(), [0.5, 1.0, 2.0]):
        series += [(res.depths, res.unopt.mean), (res.depths, res.opt.mean)]
    for depths, y in series:
        fit = fit_decay(depths, y)
        oracle = _oracle_a(depths, y)
        assert fit.degenerate is None
        assert abs(fit.a - oracle) <= 1e-6 * oracle
        assert _sum_of_squares(fit.a, depths, y) <= _sum_of_squares(oracle, depths, y) * (1 + 1e-9)


# ------------------------------------------------------------------ config

def test_rb_config_validation():
    with pytest.raises(ValueError):
        small_config(depth_schedule=(10, 5))
    with pytest.raises(ValueError):
        small_config(depth_schedule=(1, 50))  # beyond n_gates
    with pytest.raises(ValueError):
        small_config(shots=0)
    with pytest.raises(ValueError):
        small_config(drift_factor=0.0)
    with pytest.raises(ValueError):
        small_config(readout=(1.2, 0.0))
    with pytest.raises(ValueError):
        small_config(mitigate=True)  # no readout given
    with pytest.raises(ValueError):
        small_config(n_circuits=0)
    # a singular confusion matrix cannot be inverted: refused here, not at the
    # first measured depth
    for readout in ((0.6, 0.4), (0.5, 0.5), (1.0, 0.0)):
        with pytest.raises(ValueError, match="invertible readout"):
            small_config(readout=readout, mitigate=True)
    small_config(readout=(0.6, 0.4))  # without mitigation it only corrupts
    # a non-integer count fails here, not inside a circuit worker
    for name, value in (("n_circuits", 2.0), ("n_circuits", True), ("n_gates", 40.0),
                        ("shots", 100.0), ("shots", True)):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            small_config(**{name: value})
    # a non-integer depth is refused, not truncated: (1.9, 5.7) once ran depths (1, 5)
    for depths in ((1.9, 5.7), (1.0, 5.0), (True, 5)):
        with pytest.raises(ValueError, match="depth_schedule must list ints"):
            small_config(n_gates=10, depth_schedule=depths)
    assert small_config(depth_schedule=[1, 10]).depth_schedule == (1, 10)


def test_rb_run_shapes_and_accessors():
    cfg = small_config()
    res = run_rb_experiment(cfg)
    assert res.depths == cfg.depth_schedule
    for arm in (res.unopt, res.opt):
        assert arm.survivals.shape == (3, 5)
        assert arm.mean.shape == (5,)
        assert arm.stderr.shape == (5,)
        assert np.all((arm.survivals >= 0.0) & (arm.survivals <= 1.0))


# -------------------------------------------------------------- simulation

def test_noiseless_rb_survival_is_one():
    cfg = small_config(noise=NoiseParams.from_lambda(0.0), n_circuits=2)
    res = run_rb_experiment(cfg)
    for arm in (res.unopt, res.opt):
        assert np.all(arm.survivals > 1.0 - 1e-9)
        assert arm.fit.degenerate == "all-one"
        assert arm.fit.error_rate == 0.0


def test_rb_deterministic():
    cfg = small_config()
    a = run_rb_experiment(cfg)
    b = run_rb_experiment(cfg)
    assert np.array_equal(a.unopt.survivals, b.unopt.survivals)
    assert np.array_equal(a.opt.survivals, b.opt.survivals)


def test_rb_jobs_equivalence():
    cfg = small_config(n_circuits=2, n_gates=20, depth_schedule=(1, 10, 20))
    serial = run_rb_experiment(cfg, jobs=1)
    parallel = run_rb_experiment(cfg, jobs=2)
    assert np.array_equal(serial.unopt.survivals, parallel.unopt.survivals)
    assert np.array_equal(serial.opt.survivals, parallel.opt.survivals)


def test_multistart_streams_ignore_schedule_and_jobs():
    """With multistart draws, the gate steps read one stream per circuit and
    each inverse its own per-depth stream: scheduling depth 4 as well does
    not change the depth-8 survivals, and neither does the worker count.
    At k = 100 the assumed model is far off, so the starts move the angles."""
    cfg = small_config(n_circuits=2, n_gates=8, depth_schedule=(4, 8), multistart=2,
                       drift_factor=100.0)
    both = run_rb_experiment(cfg)
    last = run_rb_experiment(replace(cfg, depth_schedule=(8,)))
    pooled = run_rb_experiment(cfg, jobs=2)
    for arm in rb.ARMS:
        survivals = getattr(both, arm).survivals
        assert np.array_equal(survivals[:, 1:], getattr(last, arm).survivals)
        assert np.array_equal(survivals, getattr(pooled, arm).survivals)


@pytest.mark.parametrize("multistart", [0, 2])
def test_multistart_starts_follow_uniform_draw_rule(monkeypatch, multistart):
    """Each optimize_gate call of an RB run receives exactly the starts the
    uniform(0, 2 pi, (multistart, 3)) rule draws: gate steps in turn from
    the circuit's stream [rng_seed, circuit, 2], each inverse step from its
    own [rng_seed, circuit, 3, depth]; with multistart 0, no start at all."""
    received = []
    original = rb._optimize

    def recording(target, moments, params, starts, *args):
        received.append([tuple(x) for x in starts])
        return original(target, moments, params, starts, *args)

    monkeypatch.setattr(rb, "_optimize", recording)
    cfg = small_config(n_circuits=2, n_gates=12, depth_schedule=(1, 5, 12),
                       multistart=multistart)
    run_rb_experiment(cfg)
    expected = []
    for circuit in range(cfg.n_circuits):
        gate_stream = np.random.default_rng([cfg.rng_seed, circuit, 2])
        for depth in range(1, cfg.n_gates + 1):
            expected.append(uniform_starts(gate_stream, multistart))
            if depth in cfg.depth_schedule:
                inverse_stream = np.random.default_rng([cfg.rng_seed, circuit, 3, depth])
                expected.append(uniform_starts(inverse_stream, multistart))
    assert received == expected


@pytest.mark.parametrize("multistart, shots", [(0, None), (2, None), (0, 50), (2, 50)])
def test_circuit_builds_only_the_streams_it_draws_from(monkeypatch, multistart, shots):
    """One circuit builds its gate stream, the start streams (one for the
    gate steps, one per scheduled depth) only with multistart above 0, and
    the two arms' shot streams only with finite shots.  default_rng returns a
    Generator it is given as it is, so only the calls on a key build one."""
    built = []
    original = np.random.default_rng

    def counting(seed):
        if not isinstance(seed, np.random.Generator):
            built.append(seed)
        return original(seed)

    cfg = small_config(n_circuits=1, n_gates=12, depth_schedule=(1, 5, 12),
                       multistart=multistart, shots=shots)
    monkeypatch.setattr(np.random, "default_rng", counting)
    rb._circuit_worker((cfg, 0))
    expected = [[cfg.rng_seed, 0, 0]]
    if multistart:
        expected.append([cfg.rng_seed, 0, 2])
    if shots is not None:
        expected += [[cfg.rng_seed, 0, 1, arm] for arm in range(len(rb.ARMS))]
    if multistart:
        expected += [[cfg.rng_seed, 0, 3, depth] for depth in cfg.depth_schedule]
    assert built == expected


def test_survival_decays_with_depth():
    cfg = small_config(n_circuits=4)
    res = run_rb_experiment(cfg)
    rho, pval = stats.spearmanr(res.depths, res.unopt.mean)
    assert rho < 0
    assert pval < 0.01


def test_optimized_arm_never_worse():
    cfg = small_config(n_circuits=4)
    res = run_rb_experiment(cfg)
    combined = np.sqrt(res.unopt.stderr ** 2 + res.opt.stderr ** 2)
    assert np.all(res.opt.mean >= res.unopt.mean - 2 * combined)
    assert res.opt.fit.error_rate < res.unopt.fit.error_rate


def test_shot_sampling_unbiased():
    exact = run_rb_experiment(small_config(n_circuits=2))
    shots = 4096
    sampled = run_rb_experiment(small_config(n_circuits=2, shots=shots))
    # binomial SE per cell, combined over 2 circuits
    p = exact.unopt.survivals
    se_cells = np.sqrt(p * (1 - p) / shots)
    se = np.sqrt(np.sum(se_cells ** 2, axis=0)) / 2
    diff = np.abs(sampled.unopt.mean - exact.unopt.mean)
    assert np.all(diff <= 4 * se + 1e-12)


def test_readout_error_shifts_survival_down():
    plain = run_rb_experiment(small_config(n_circuits=2))
    noisy = run_rb_experiment(small_config(n_circuits=2, readout=(0.03, 0.08)))
    assert np.all(noisy.unopt.mean < plain.unopt.mean)
    # mitigation undoes the confusion matrix exactly when shots are exact
    fixed = run_rb_experiment(
        small_config(n_circuits=2, readout=(0.03, 0.08), mitigate=True)
    )
    assert np.abs(fixed.unopt.survivals - plain.unopt.survivals).max() < 1e-12


def test_track_noisy_state_variant_runs():
    cfg = small_config(n_circuits=2, track_noisy_state=True)
    res = run_rb_experiment(cfg)
    combined = np.sqrt(res.unopt.stderr ** 2 + res.opt.stderr ** 2)
    assert np.all(res.opt.mean >= res.unopt.mean - 2 * combined)


def _bloch(rho):
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


@pytest.mark.parametrize("track_noisy_state", [False, True])
def test_bloch_propagation_matches_stepwise_replay(monkeypatch, track_noisy_state):
    """Replay both arms on 2x2 density matrices through the stepwise oracle,
    with the same seeded gate stream, the angles the optimizer returned and
    inverses from a running product: every survival agrees with the affine
    Bloch-vector simulator to 1e-12, and so does the state the optimizer
    was handed (the ideal state, or the opt arm's noisy state)."""
    calls = []
    original = rb._optimize

    def recording(target, moments, params, *args):
        m1, m2, _ = moments
        assert np.array_equal(m2, np.outer(m1, m1))
        res, image = original(target, moments, params, *args)
        calls.append((np.array(m1), res.angles_opt))
        return res, image

    monkeypatch.setattr(rb, "_optimize", recording)
    cfg = small_config(
        n_circuits=2, n_gates=30, depth_schedule=(1, 10, 20, 30),
        track_noisy_state=track_noisy_state,
    )
    res = run_rb_experiment(cfg)

    recorded = iter(calls)
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

    def optimized():
        r_seen, angles = next(recorded)
        expected = _bloch(rho["opt"] if track_noisy_state else ideal)
        assert np.abs(r_seen - expected).max() < 1e-12
        return angles

    for circuit in range(cfg.n_circuits):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.rng_seed, circuit, 0]))
        )
        rho = {"unopt": ket0, "opt": ket0}
        ideal = ket0
        net = np.eye(2, dtype=complex)
        column = 0
        for i in range(cfg.n_gates):
            gate = rb_gate(rng)
            opt_angles = optimized()
            rho["unopt"] = noisy_gate_stepwise(gate, rho["unopt"], cfg.noise)
            rho["opt"] = noisy_gate_stepwise(opt_angles, rho["opt"], cfg.noise)
            u = zyz_unitary(gate)
            ideal = u @ ideal @ u.conj().T
            net = u @ net
            if i + 1 in cfg.depth_schedule:
                inverse = extract_euler(net.conj().T)
                angles = {"unopt": inverse, "opt": optimized()}
                for arm in rb.ARMS:
                    final = noisy_gate_stepwise(angles[arm], rho[arm], cfg.noise)
                    survival = getattr(res, arm).survivals[circuit, column]
                    assert abs(final[0, 0].real - survival) < 1e-12
                column += 1
    assert next(recorded, None) is None


@pytest.mark.parametrize("track_noisy_state", [False, True])
def test_every_started_search_converges(monkeypatch, track_noisy_state):
    """RB keeps a gate at its seed by the seed-skip rule alone: a per-gate
    optimization that starts ends within the optimizer's GRADIENT_TOLERANCE,
    so every result whose angles are not the seed's has max|grad F| within
    it at angles_opt."""
    calls = []
    original = rb._optimize

    def recording(target, moments, params, *args):
        res, image = original(target, moments, params, *args)
        m1, m2, _ = moments
        calls.append((target, m1, m2, params, res))
        return res, image

    monkeypatch.setattr(rb, "_optimize", recording)
    run_rb_experiment(small_config(n_circuits=2, track_noisy_state=track_noisy_state))
    searched = [c for c in calls if c[4].angles_opt != EulerAngles(
        *(v % (2 * math.pi) for v in (c[0].beta, c[0].gamma, c[0].delta)))]
    assert searched
    for target, m1, m2, params, res in searched:
        a = res.angles_opt
        _, g, _ = moment_objective(target, m1, m2, params)((a.beta, a.gamma, a.delta))
        assert max(abs(v) for v in g) <= GRADIENT_TOLERANCE


def test_ideal_state_is_the_optimizers_image(monkeypatch):
    """Without track_noisy_state RB takes the next ideal state from the
    optimizer's image u = R n: over one 246-gate Fig. 3 circuit the state each
    gate and inverse step hands the optimizer equals, ==, the zero-noise
    ``noise._apply`` of the gates in turn."""
    seen = []
    original = rb._optimize

    def recording(target, moments, *args):
        seen.append(moments[0])
        return original(target, moments, *args)

    monkeypatch.setattr(rb, "_optimize", recording)
    cfg = RbConfig(noise=ROME_Q3, n_circuits=1, rng_seed=7)
    rb._circuit_worker((cfg, 0))
    expected, n = [], (0.0, 0.0, 1.0)
    rows = np.random.default_rng([cfg.rng_seed, 0, 0]).random((cfg.n_gates, 3)).tolist()
    for depth, row in enumerate(rows, 1):
        expected.append(n)
        gate = _zyz_from_quaternion(*rb._sample_quaternion(row))
        n = _apply(gate.beta, gate.gamma, gate.delta, 0.0, 0.0, n)
        if depth in cfg.depth_schedule:
            expected.append(n)
    assert cfg.n_gates == 246 and len(expected) == 246 + len(cfg.depth_schedule)
    assert seen == expected


# ------------------------------------------------------------------- drift

def test_drift_k1_matches_plain_rb():
    cfg = small_config(n_circuits=2)
    plain = run_rb_experiment(cfg)
    (k, drifted), = run_drift_sweep(cfg, [1.0])
    assert k == 1.0
    assert np.array_equal(plain.opt.survivals, drifted.opt.survivals)
    assert np.array_equal(plain.unopt.survivals, drifted.unopt.survivals)


def test_drift_sweep_jobs_invariant():
    """All (k, circuit) pairs go through one pool; the worker count changes
    no survival at any k."""
    cfg = small_config(n_circuits=2, n_gates=20, depth_schedule=(1, 10, 20))
    serial = run_drift_sweep(cfg, [0.5, 2.0], jobs=1)
    pooled = run_drift_sweep(cfg, [0.5, 2.0], jobs=2)
    assert [k for k, _ in pooled] == [k for k, _ in serial] == [0.5, 2.0]
    for (_, a), (_, b) in zip(serial, pooled):
        for arm in rb.ARMS:
            assert np.array_equal(getattr(a, arm).survivals, getattr(b, arm).survivals)


def test_drift_unopt_baseline_horizontal():
    """The true system noise never changes with k; only the optimizer's
    assumed rates do, so the unoptimized arm is k-independent bit for bit."""
    cfg = small_config(n_circuits=2)
    runs = run_drift_sweep(cfg, [1e-3, 1.0, 1e6])
    base = runs[0][1].unopt.survivals
    for _, result in runs[1:]:
        assert np.array_equal(result.unopt.survivals, base)


SHORT = dict(n_gates=20, depth_schedule=(1, 10, 20))


@pytest.mark.parametrize("track_noisy_state, size", [
    pytest.param(False, SHORT, id="False"),
    pytest.param(True, SHORT, id="True"),
    pytest.param(False, {}, id="False-40-gates"),
])
def test_tiny_drift_leaves_every_gate_at_its_seed(track_noisy_state, size):
    """The rule behind "k = 1e-3 arms agree": at drift factor 1e-3 the
    assumed damping is ~1e-7, every per-gate gradient at the seed lies inside
    RB_GRADIENT_TOLERANCE, and the optimized arm runs the plain
    decompositions bit for bit, on 20 gates and on ``small_config``'s 40."""
    cfg = small_config(n_circuits=2, drift_factor=1e-3,
                       track_noisy_state=track_noisy_state, **size)
    res = run_rb_experiment(cfg)
    assert np.array_equal(res.opt.survivals, res.unopt.survivals)


def test_drift_huge_k_scrambles_with_multistart():
    """With assumed damping saturated the objective is flat to the ulp; the
    multistart tie-break then picks essentially random angles and deep
    circuits lose all signal (survival -> 1/2)."""
    cfg = small_config(
        n_circuits=5,
        n_gates=300,
        depth_schedule=(300,),
        multistart=8,
    )
    (_, res), = run_drift_sweep(cfg, [1e6])
    assert res.opt.mean[0] < res.unopt.mean[0] - 0.05
    assert res.opt.mean[0] < 0.85


def test_drift_moderate_k_still_helps():
    cfg = small_config(n_circuits=3)
    for k in (0.5, 2.0):
        (_, res), = run_drift_sweep(cfg, [k])
        combined = np.sqrt(res.unopt.stderr ** 2 + res.opt.stderr ** 2)
        assert np.all(res.opt.mean >= res.unopt.mean - 2 * combined)
