"""Unit tests for the seeded decomposition optimizer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize as sciopt

from noisy_euler import (
    BlochState,
    EulerAngles,
    NoiseParams,
    RbConfig,
    SweepConfig,
    bundled_device,
    cap_moments,
    extract_euler,
    moment_objective,
    named_gate,
    noise_params_for,
    optimize_gate,
    point_moments,
    run_rb_experiment,
)
from noisy_euler import optimize, rb
from noisy_euler.gates import _zyz_from_quaternion
from noisy_euler.noise import _apply
from noisy_euler.objectives import _objective, _read_moments
from noisy_euler.rb import _sample_quaternion
from reference import (
    bloch_density,
    bloch_vector,
    circle_optimum,
    noisy_gate_stepwise,
    uniform_starts,
    zyz_unitary,
)

IDENTITY = EulerAngles(0.0, 0.0, 0.0)
PLUS = point_moments(math.pi / 2, 0.0)


def angle_displacement(a: EulerAngles, b: EulerAngles) -> float:
    """Max per-angle distance modulo 2*pi."""
    worst = 0.0
    for x, y in ((a.beta, b.beta), (a.gamma, b.gamma), (a.delta, b.delta)):
        d = (x - y) % (2 * math.pi)
        worst = max(worst, min(d, 2 * math.pi - d))
    return worst


def random_angles(rng):
    return EulerAngles(*rng.uniform(-math.pi, math.pi, 3))


# ------------------------------------------------------------- basic laws

def test_zero_noise_returns_seed_exactly():
    rng = np.random.default_rng(0)
    p0 = NoiseParams.from_lambda(0.0)
    for _ in range(20):
        target = random_angles(rng)
        moments = point_moments(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        )
        res = optimize_gate(target, *moments, p0)
        assert res.improvement == 0.0
        assert angle_displacement(res.angles_opt, target) < 1e-12
        assert res.converged


def test_never_worse_than_seed():
    rng = np.random.default_rng(2)
    for _ in range(30):
        target = random_angles(rng)
        moments = point_moments(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        )
        params = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        res = optimize_gate(target, *moments, params)
        assert res.objective_value >= res.objective_at_target_angles
        assert res.improvement >= 0.0


def test_optimized_angles_beat_seed_at_moderate_noise():
    res = optimize_gate(IDENTITY, *PLUS, NoiseParams.from_lambda(0.05))
    assert res.improvement > 1e-3
    assert angle_displacement(res.angles_opt, IDENTITY) > 1e-3


def test_optimum_matches_derivative_free_global_search():
    """Oracle: scipy differential evolution over the full angle cube must not
    find a decomposition the seeded local search missed."""
    params = NoiseParams.from_lambda(0.01)
    fg = moment_objective(IDENTITY, *PLUS, params)

    def neg(x):
        return -fg(x)[0]

    ref = sciopt.differential_evolution(
        neg,
        bounds=[(0, 2 * math.pi)] * 3,
        seed=3,
        tol=1e-12,
        polish=True,
        maxiter=300,
    )
    res = optimize_gate(IDENTITY, *PLUS, params)
    assert res.objective_value >= -ref.fun - 1e-9


def test_grid_oracle_never_beats_optimizer():
    params = NoiseParams.from_lambda(0.02)
    state = BlochState(1.1, 0.7)
    target = extract_euler(named_gate("h"))
    moments = point_moments(state.theta, state.phi)
    res = optimize_gate(target, *moments, params)
    fg = moment_objective(target, *moments, params)
    grid = np.linspace(0.0, 2 * math.pi, 25, endpoint=False)
    best = 0.0
    for b in grid:
        for g in grid:
            for d in grid:
                best = max(best, fg((b, g, d))[0])
    assert res.objective_value >= best - 1e-12


def test_uniform_average_cannot_be_improved():
    """The exact decomposition is optimal on average over a uniform input
    sphere, so the optimizer must return (essentially) the seed."""
    rng = np.random.default_rng(4)
    moments = cap_moments(math.pi)
    for lam in (0.01, 0.1):
        params = NoiseParams.from_lambda(lam)
        for _ in range(5):
            target = random_angles(rng)
            res = optimize_gate(target, *moments, params)
            assert res.improvement < 1e-7


def with_starts(target, moments, params, starts, tolerance=optimize.GRADIENT_TOLERANCE):
    """The optimizer core's result for extra starts, as RB calls it."""
    return optimize._optimize(target, _read_moments(*moments), params, starts, tolerance)[0]


def test_results_deterministic():
    """The same inputs give the same result, extra starts included and
    given as tuples, lists or an array, for a point input (closed form) and
    a cap (Newton search)."""
    params = NoiseParams.from_lambda(0.07)
    starts = uniform_starts(np.random.default_rng(11), 3)
    for moments in (PLUS, cap_moments(0.5)):
        a = with_starts(IDENTITY, moments, params, starts)
        assert a == with_starts(IDENTITY, moments, params, [list(x) for x in starts])
        assert a == with_starts(IDENTITY, moments, params, np.array(starts))


def test_no_starts_is_the_seeded_search():
    """``optimize_gate`` is the core without starts: the target seed alone,
    the closed form for a rank-1 input and the Newton search from the seed
    for any other."""
    rng = np.random.default_rng(12)
    for lam in (0.02, 0.3):
        params = NoiseParams.from_lambda(lam)
        for _ in range(10):
            target = random_angles(rng)
            for moments in (point_moments(*rng.uniform(0, math.pi, 2)),
                            cap_moments(rng.uniform(0.1, 2.0))):
                res = with_starts(target, moments, params, ())
                assert res == optimize_gate(target, *moments, params)
                assert res == with_starts(target, moments, params, np.empty((0, 3)))
                fg, n, u, _ = _objective(target, _read_moments(*moments),
                                         params.lambda_a, params.lambda_p)
                x_seed = (target.beta, target.gamma, target.delta)
                f_seed, g_seed, h_seed = fg(x_seed)
                if np.array_equal(moments[1], np.outer(moments[0], moments[0])):
                    x = optimize._point_optimum(target, n, u, params.lambda_a, params.lambda_p)
                    f = fg(x)[0]
                else:
                    x, f, _, _ = optimize._newton(fg, x_seed, f_seed, g_seed, h_seed)
                if f < f_seed:
                    x = x_seed
                assert res.angles_opt == EulerAngles(*(v % (2 * math.pi) for v in x))


def test_multistart_never_hurts():
    """Extra starts can only raise F: the seed stays a candidate."""
    params = NoiseParams.from_lambda(0.05)
    starts = uniform_starts(np.random.default_rng(1), 8)
    for moments in (PLUS, cap_moments(0.8)):
        plain = optimize_gate(IDENTITY, *moments, params)
        multi = with_starts(IDENTITY, moments, params, starts)
        assert multi.objective_value >= plain.objective_value
        assert multi.objective_at_target_angles == plain.objective_at_target_angles


def test_optimized_angles_wrapped_into_range():
    rng = np.random.default_rng(6)
    for _ in range(10):
        target = random_angles(rng)
        moments = point_moments(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        )
        res = optimize_gate(target, *moments, NoiseParams.from_lambda(0.1))
        for v in (res.angles_opt.beta, res.angles_opt.gamma, res.angles_opt.delta):
            assert 0.0 <= v < 2 * math.pi


def test_cap_distribution_optimization_runs_and_improves():
    target = extract_euler(named_gate("h"))
    moments = cap_moments(0.3)
    params = NoiseParams.from_lambda(0.05)
    res = optimize_gate(target, *moments, params)
    assert res.improvement > 0.0
    # a small cap behaves nearly like its central point
    res_point = optimize_gate(target, *point_moments(0.0, 0.0), params)
    assert abs(res.improvement - res_point.improvement) < 5e-3


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.1])
def test_improvement_depends_on_target_only_through_gamma(lam):
    """Every input the sweeps optimize for (a cap, the preparation point
    |0>) is symmetric about z: m1 lies on z and m2 commutes with Rz.  F at
    trial angles x for the target (beta, gamma, delta) then depends on
    x's beta and delta only through their offsets from the target's, so the
    optimizer's improvement depends on the target only through gamma.  At
    each of 10 gammas, over 8 random (beta, delta) each, the improvements
    for caps 0.3, 1.5 and pi and the preparation point agree within 1e-14
    (measured on these 960 problems: a worst spread of 4.4e-16)."""
    rng = np.random.default_rng(29)
    params = NoiseParams.from_lambda(lam)
    for moments in (cap_moments(0.3), cap_moments(1.5), cap_moments(math.pi),
                    point_moments(0.0, 0.0)):
        for gamma in rng.uniform(0.0, math.pi, 10):
            imps = [optimize_gate(EulerAngles(beta, gamma, delta), *moments, params).improvement
                    for beta, delta in rng.uniform(0.0, 2 * math.pi, (8, 2))]
            assert max(imps) - min(imps) <= 1e-14, (moments, gamma)


def test_newton_reaches_lbfgsb_oracle():
    """Oracle: scipy's L-BFGS-B from the same seed on the same objective, at
    the standalone tolerance, over rome q3 point inputs to random RB gates
    and random caps.  The optimizer (the closed form on the point inputs,
    the Newton search on the caps) must reach the oracle's objective,
    report ``converged`` only where the gradient meets the tolerance, and
    never fall below the seed."""
    params = noise_params_for(bundled_device("rome").qubit(3))
    rng = np.random.default_rng(31)
    for i in range(200):
        target = _zyz_from_quaternion(*_sample_quaternion(rng.random(3).tolist()))
        if i % 2 == 0:
            m1, m2 = point_moments(
                math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
            )
        else:
            m1, m2 = cap_moments(rng.uniform(0.05, math.pi))
        fg = moment_objective(target, m1, m2, params)

        def neg(x):
            f, g, _ = fg(x)
            return -f, -np.array(g)

        ref = sciopt.minimize(
            neg, [target.beta, target.gamma, target.delta], jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "gtol": 1e-9, "ftol": 1e-15},
        )
        res = optimize_gate(target, m1, m2, params)
        assert res.objective_value >= -ref.fun - 1e-12
        assert res.objective_value >= res.objective_at_target_angles
        if res.converged:
            a = res.angles_opt
            assert np.abs(fg((a.beta, a.gamma, a.delta))[1]).max() <= 1e-9


# ------------------------------------------------- closed-form point optimum
#
# A rank-1 input (m2 = m1 m1^T exactly) gets its optimum in closed form.  240
# seeded problems: 80 point inputs to random RB gates at rome q3, 30 point
# inputs at each lambda of CIRCLE_LAMBDAS and 40 mixed inputs with |r| in
# [0.5, 1).  The oracles are a dense search of the target's stabilizer circle
# with a polish (``reference.circle_optimum``) and the plain Newton search
# from the target.

CIRCLE_LAMBDAS = (1e-3, 0.02, 0.1, 0.3)


def plain_newton(target, m1, m2, params) -> float:
    """F of the Newton search from the target alone, clamped as reported."""
    fg = moment_objective(target, m1, m2, params)
    x_seed = (target.beta, target.gamma, target.delta)
    at_seed = fg(x_seed)
    f = at_seed[0]
    if np.abs(at_seed[1]).max() > optimize.GRADIENT_TOLERANCE:
        f = optimize._newton(fg, x_seed, *at_seed)[1]
    return min(max(f, 0.0), 1.0)


@pytest.fixture(scope="module")
def circle_problems():
    """(target, r, params, optimize_gate's result, the oracle's F, the F of
    the plain Newton search from the target) per problem."""
    rome = noise_params_for(bundled_device("rome").qubit(3))
    lams = [NoiseParams.from_lambda(lam) for lam in CIRCLE_LAMBDAS]
    rng = np.random.default_rng(47)
    out = []
    for i in range(240):
        target = _zyz_from_quaternion(*_sample_quaternion(rng.random(3).tolist()))
        r = bloch_vector(BlochState(math.acos(rng.uniform(-1.0, 1.0)),
                                    rng.uniform(0.0, 2 * math.pi)))
        if i < 80:
            params = rome
        elif i < 200:
            params = lams[(i - 80) // 30]
        else:
            r *= rng.uniform(0.5, 1.0)
            params = (rome, *lams)[i % 5]
        res = optimize_gate(target, r, np.outer(r, r), params)
        out.append((target, r, params, res, circle_optimum(target, r, params),
                    plain_newton(target, r, np.outer(r, r), params)))
    return out


def test_point_optimum_reaches_dense_circle_oracle(circle_problems):
    """The closed form reaches a dense circle search with a polish (the
    global optimum at these inputs) and the plain search from the target,
    without a Newton step.  Only F is compared: equal-F optima with angles up
    to pi apart are common."""
    for target, r, params, res, oracle, plain in circle_problems:
        assert res.objective_value >= oracle - 1e-12, (target, r, params)
        assert res.objective_value >= plain - 1e-12, (target, r, params)
        assert res.objective_value >= res.objective_at_target_angles
        assert res.iterations == 0 and res.converged


def test_point_optimum_takes_two_evaluations(monkeypatch):
    """An RB gate step that is not seed-skipped evaluates the objective
    exactly twice, at the seed and at the closed-form point; a skipped one
    once, at the seed."""
    seen, steps = [], []
    original_objective = optimize._objective

    def recording(*args):
        fg, *rest = original_objective(*args)

        def recorded(x):
            seen.append(x)
            return fg(x)

        return recorded, *rest

    monkeypatch.setattr(optimize, "_objective", recording)
    original = rb._optimize

    def step(target, moments, params, *args):
        m1, m2, _ = moments
        fg = moment_objective(target, m1, m2, params)
        g = fg((target.beta, target.gamma, target.delta))[1]
        before = len(seen)
        out = original(target, moments, params, *args)
        steps.append((max(map(abs, g)) > rb.RB_GRADIENT_TOLERANCE, len(seen) - before))
        return out

    monkeypatch.setattr(rb, "_optimize", step)
    cfg = RbConfig(noise=noise_params_for(bundled_device("rome").qubit(3)), n_circuits=2,
                   n_gates=40, depth_schedule=(1, 10, 20, 30, 40), rng_seed=5)
    for track_noisy_state in (False, True):
        run_rb_experiment(replace(cfg, track_noisy_state=track_noisy_state))
    unskipped = [calls for started, calls in steps if started]
    assert len(unskipped) > 100
    assert all(calls == 2 for calls in unskipped)
    assert all(calls == 1 for started, calls in steps if not started)


def test_newton_only_for_moments_not_rank_one():
    """A cap and moments that are not exactly rank-1 run the plain Newton
    search from the target, bit for bit."""
    params = NoiseParams.from_lambda(0.05)
    target = extract_euler(named_gate("h"))
    state = BlochState(1.1, 0.7)
    m1, m2 = point_moments(state.theta, state.phi)
    for m1, m2 in (cap_moments(0.5), (m1, np.multiply(m2, 1.0 - 1e-12))):
        fg = moment_objective(target, m1, m2, params)
        x_seed = (target.beta, target.gamma, target.delta)
        x, _, iterations, _ = optimize._newton(fg, x_seed, *fg(x_seed))
        res = optimize_gate(target, m1, m2, params)
        assert iterations > 0
        assert res.angles_opt == EulerAngles(*(v % (2 * math.pi) for v in x))


def overlap(a: EulerAngles, b: EulerAngles) -> float:
    """|tr(U_a^dag U_b)| / 2, the |<q_a, q_b>| of the two unitaries."""
    return abs(np.trace(zyz_unitary(a).conj().T @ zyz_unitary(b))) / 2.0


def test_equal_fidelity_partner_optima():
    """A fixed point input at rome q3 with two distinct optima: the result
    and its partner (beta + 2 atan2(Y, X) - pi, -gamma, delta), (X, Y) the xy
    part of the pulse pair's output, reach the same F and send the input to
    the same noisy output (Kraus oracle), yet realize unitaries far apart.
    No fidelity measured with the assumed model can tell the two apart, so
    the rule picks the one nearer the target, by |<q_target, q>|."""
    params = noise_params_for(bundled_device("rome").qubit(3))
    target = EulerAngles(1.2932692357031992, 0.6848579984023541, 4.400448881227426)
    state = BlochState(2.772981985208332, 4.584560380312186)
    r = bloch_vector(state)
    fg = moment_objective(target, r, np.outer(r, r), params)
    res = optimize_gate(target, r, np.outer(r, r), params)
    a = res.angles_opt
    x, y, _ = _apply(0.0, a.gamma, a.delta, params.lambda_a, params.lambda_p, r)
    b = EulerAngles(*(v % (2 * math.pi) for v in (
        a.beta + 2.0 * math.atan2(y, x) - math.pi, -a.gamma, a.delta)))
    at_a, at_b = fg((a.beta, a.gamma, a.delta)), fg((b.beta, b.gamma, b.delta))
    assert abs(at_a[0] - at_b[0]) <= 2.2e-16
    assert max(map(abs, at_a[1] + at_b[1])) <= optimize.GRADIENT_TOLERANCE
    rho_in = bloch_density(r)
    out_a = noisy_gate_stepwise(a, rho_in, params)
    out_b = noisy_gate_stepwise(b, rho_in, params)
    assert np.abs(out_a - out_b).max() <= 1e-9
    assert 0.45 <= 1.0 - overlap(a, b) <= 0.96
    assert overlap(target, a) > overlap(target, b)
    assert res.objective_value >= plain_newton(target, r, np.outer(r, r), params)


def edge_targets(rng, count):
    return [_zyz_from_quaternion(*_sample_quaternion(rng.random(3).tolist())) for _ in range(count)]


def check_point_optimum(target, r, params):
    """The closed form is kept without a search and reaches the stabilizer
    circle oracle and the plain search; returns the result."""
    r = np.asarray(r, dtype=float)
    res = optimize_gate(target, r, np.outer(r, r), params)
    a = res.angles_opt
    g = moment_objective(target, r, np.outer(r, r), params)((a.beta, a.gamma, a.delta))[1]
    assert max(map(abs, g)) <= optimize.GRADIENT_TOLERANCE
    assert res.iterations == 0 and res.converged
    assert res.objective_value >= circle_optimum(target, r, params) - 1e-12
    assert res.objective_value >= plain_newton(target, r, np.outer(r, r), params) - 1e-12
    return res


@pytest.mark.parametrize("la, lp", [
    (0.08, 0.02), (0.02, 0.08), (0.05, 0.05), (0.999, 0.999), (0.3, 0.0), (0.0, 0.3),
], ids=["la>lp", "la<lp", "la=lp", "lambda-0.999", "no-dephasing", "no-damping"])
def test_point_optimum_edge_noise(la, lp):
    """Interior vertex (la > lp), none (la < lp), a linear E^2 r^2 + y^2
    (la = lp), near-total damping, and each damping alone, on pure and mixed
    inputs."""
    rng = np.random.default_rng(53)
    params = NoiseParams(la, lp)
    for i, target in enumerate(edge_targets(rng, 12)):
        r = bloch_vector(BlochState(math.acos(rng.uniform(-1.0, 1.0)),
                                    rng.uniform(0.0, 2 * math.pi)))
        if i % 3 == 2:
            r *= rng.uniform(0.05, 1.0)
        check_point_optimum(target, r, params)


def test_point_optimum_target_sends_input_to_pole():
    """mu = 0: the target sends n to +-z, so F depends on beta only through
    rounding."""
    rng = np.random.default_rng(59)
    params = NoiseParams(0.06, 0.03)
    for i in range(8):
        theta, phi = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2 * math.pi)
        flip = math.pi if i % 2 else 0.0
        target = EulerAngles(rng.uniform(0.0, 2 * math.pi), flip - theta, -phi)
        r = bloch_vector(BlochState(theta, phi))
        u = _objective(target, _read_moments(r, np.outer(r, r)),
                       params.lambda_a, params.lambda_p)[2]
        assert math.hypot(u[0], u[1]) < 1e-15
        check_point_optimum(target, r, params)


def test_point_optimum_input_in_xy_plane():
    """n_z = 0.  A z rotation keeps R n in the xy plane, and then the
    optimum sends n to v = Rz(delta) n = (0, +-rho, 0): r = 0 and s = +-rho,
    where the closed form must hold exactly.  Other targets mix in."""
    rng = np.random.default_rng(61)
    for params in (NoiseParams(0.05, 0.02), NoiseParams(0.02, 0.05)):
        for i, target in enumerate(edge_targets(rng, 12)):
            if i % 2 == 0:
                target = EulerAngles(target.beta, 0.0, target.delta)
            phi = rng.uniform(0.0, 2 * math.pi)
            r = [math.cos(phi), math.sin(phi), 0.0]
            a = check_point_optimum(target, r, params).angles_opt
            if i % 2 == 0:
                assert abs(math.cos(a.delta) * r[0] - math.sin(a.delta) * r[1]) < 1e-12


@pytest.mark.parametrize("z", [1.0, -1.0, 0.6, -0.3])
def test_point_optimum_input_along_z_keeps_delta(z):
    """An input along +-z (a preparation from |0> at z = 1) leaves delta at
    exactly 0.0: Rz(delta) only turns it about its own axis."""
    rng = np.random.default_rng(67)
    params = NoiseParams(0.07, 0.04)
    for target in edge_targets(rng, 6):
        res = check_point_optimum(target, [0.0, 0.0, z], params)
        assert res.angles_opt.delta == 0.0


def test_point_optimum_depends_only_on_the_unitary():
    """Both Euler branches of one target unitary, (beta, gamma, delta) and
    (beta + pi, -gamma, delta + pi), give the same angles when neither seed
    is skipped: the closed form and its partner rule see only the unitary,
    and the branches differ only in the rounding of R m1."""
    rng = np.random.default_rng(71)
    params = noise_params_for(bundled_device("rome").qubit(3))
    for _ in range(40):
        t = _zyz_from_quaternion(*_sample_quaternion(rng.random(3).tolist()))
        other = EulerAngles(t.beta + math.pi, -t.gamma, t.delta + math.pi)
        r = bloch_vector(BlochState(math.acos(rng.uniform(-1.0, 1.0)),
                                    rng.uniform(0.0, 2 * math.pi)))
        results = []
        for target in (t, other):
            fg = moment_objective(target, r, np.outer(r, r), params)
            g = fg((target.beta, target.gamma, target.delta))[1]
            assert max(map(abs, g)) > optimize.GRADIENT_TOLERANCE
            results.append(optimize_gate(target, r, np.outer(r, r), params))
        assert angle_displacement(results[0].angles_opt, results[1].angles_opt) <= 1e-12


def test_point_optimum_independent_of_noise_scale():
    """At rome q3's ratio lambda_a / lambda_p = 7.7e-4 / 3.4e-4, the optimal
    angles for a known input hardly depend on the noise scale, and the gain
    scales with the rates: a model that assumes too little noise still picks
    the calibrated angles.  Scales 1, 1e-3 and 1e-6, start tolerance 0 so no
    seed is skipped, 200 problems at seed 3.  Measured: the angles at 1e-3
    and 1e-6 lie within 0.034 rad of those at scale 1 and within 2.3e-5 rad
    of each other (the shift is linear in the scale); the median of
    gain(s) / (s gain(1)) is 1.00044 at 1e-3 and 1.00045 at 1e-6.  Its 1st
    percentile is 0.91 (0.14 to 0.91 over seeds 3 to 9, from problems whose
    gain nearly vanishes), so the median is bounded, not the worst case."""
    rng = np.random.default_rng(3)
    scales = (1.0, 1e-3, 1e-6)
    shift_from_1 = shift_small = 0.0
    ratios = {1e-3: [], 1e-6: []}
    for _ in range(200):
        target = random_angles(rng)
        moments = point_moments(*rng.uniform(0.0, math.pi, 2) * (1, 2))
        res = {s: with_starts(target, moments, NoiseParams(s * 7.7e-4, s * 3.4e-4), (), 0.0)
               for s in scales}
        for s in ratios:
            shift_from_1 = max(shift_from_1, angle_displacement(res[s].angles_opt,
                                                                res[1.0].angles_opt))
            ratios[s].append(res[s].improvement / (s * res[1.0].improvement))
        shift_small = max(shift_small, angle_displacement(res[1e-3].angles_opt,
                                                          res[1e-6].angles_opt))
    assert shift_from_1 <= 0.1
    assert shift_small <= 1e-4
    for s, r in ratios.items():
        assert abs(np.median(r) - 1.0) <= 2e-3, s


# ------------------------------------------------------------------- prep
#
# Preparing the state (theta, phi) from |0> is optimize_gate on the target
# EulerAngles(phi, theta, 0) at the known input |0>, where Rz(delta) acts
# only as a phase: the delta gradient is exactly 0, so delta stays at 0.

GROUND = point_moments(0.0, 0.0)


def prep_target(t: BlochState) -> EulerAngles:
    return EulerAngles(t.phi, t.theta, 0.0)


def test_prep_zero_noise_no_change():
    rng = np.random.default_rng(8)
    p0 = NoiseParams.from_lambda(0.0)
    for _ in range(10):
        t = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        res = optimize_gate(prep_target(t), *GROUND, p0)
        assert res.improvement == 0.0
        assert res.objective_at_target_angles > 1.0 - 1e-13
        assert res.angles_opt.delta == 0.0


def test_prep_improves_under_noise():
    t = BlochState(2.0, 1.3)
    res = optimize_gate(prep_target(t), *GROUND, NoiseParams.from_lambda(0.05))
    assert res.improvement > 1e-4
    assert res.angles_opt.delta == 0.0


def test_prep_seed_objective_is_seed_fidelity():
    t = BlochState(0.8, 4.0)
    params = NoiseParams(0.03, 0.06)
    target = prep_target(t)
    res = optimize_gate(target, *GROUND, params)
    f_seed = moment_objective(target, *GROUND, params)((target.beta, target.gamma, target.delta))[0]
    assert res.objective_at_target_angles == min(max(f_seed, 0.0), 1.0)
    assert res.angles_opt.delta == 0.0


def test_prep_matches_brute_force():
    t = BlochState(1.9, 0.4)
    params = NoiseParams.from_lambda(0.08)
    target = prep_target(t)
    fg = moment_objective(target, *GROUND, params)

    def neg(x):
        return -fg((x[0], x[1], 0.0))[0]

    ref = sciopt.differential_evolution(
        neg, bounds=[(0, 2 * math.pi)] * 2, seed=5, tol=1e-12, maxiter=300
    )
    res = optimize_gate(target, *GROUND, params)
    assert res.objective_value >= -ref.fun - 1e-9
    assert res.angles_opt.delta == 0.0


# ------------------------------------------------------------ mixed input
#
# A Bloch vector r enters optimize_gate as the moments (r, r r^T): pure (a
# point input) at |r| = 1 and mixed for |r| < 1.  The objective is then the
# Hilbert-Schmidt overlap tr(U rho U^dag . rho_out(trial)).

def density_from_bloch(r):
    """rho = (I + r.sigma) / 2."""
    x, y, z = r
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def test_mixed_input_agrees_with_pure_route():
    target = extract_euler(named_gate("h"))
    state = BlochState(1.0, 0.5)
    params = NoiseParams.from_lambda(0.05)
    pure = optimize_gate(
        target, *point_moments(state.theta, state.phi), params
    )
    r = bloch_vector(state)
    mixed = optimize_gate(target, r, np.outer(r, r), params)
    assert angle_displacement(pure.angles_opt, mixed.angles_opt) < 1e-4
    assert abs(pure.objective_value - mixed.objective_value) < 1e-8


def test_mixed_input_objective_is_stepwise_overlap():
    """The reported objectives are tr(U rho U^dag . rho_out) with rho_out
    from the stepwise channel, at the seed and at the optimized angles."""
    r = 0.6 * bloch_vector(BlochState(0.9, 0.3)) + 0.4 * bloch_vector(BlochState(2.5, 4.0))
    rho = density_from_bloch(r)
    target = extract_euler(named_gate("sx"))
    params = NoiseParams(0.08, 0.02)
    u = zyz_unitary(target)
    sigma = u @ rho @ u.conj().T
    res = optimize_gate(target, r, np.outer(r, r), params)
    for angles, value in ((target, res.objective_at_target_angles),
                          (res.angles_opt, res.objective_value)):
        out = noisy_gate_stepwise(angles, rho, params)
        assert abs(value - float(np.real(np.trace(sigma @ out)))) < 1e-14
    assert res.improvement > 0.0


def test_mixed_input_handles_impure_state():
    """A Bloch vector inside the ball: never worse than the seed, and the
    objective is the stepwise overlap with the (identity) target output."""
    r = 0.7 * bloch_vector(BlochState(0.4, 0.0)) + 0.3 * bloch_vector(BlochState(2.0, 1.0))
    assert np.linalg.norm(r) < 0.99
    params = NoiseParams.from_lambda(0.05)
    res = optimize_gate(IDENTITY, r, np.outer(r, r), params)
    assert res.objective_value >= res.objective_at_target_angles
    rho = density_from_bloch(r)
    out = noisy_gate_stepwise(res.angles_opt, rho, params)
    assert abs(res.objective_value - float(np.real(np.trace(rho @ out)))) < 1e-14


@pytest.mark.parametrize(
    "r",
    [np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.nan, 1.0]), np.array([0.0, 0.0, 1.01])],
    ids=["shape-2", "shape-3x1", "nan", "norm-1.01"],
)
def test_mixed_input_rejects_invalid_bloch_vector(r):
    with pytest.raises(ValueError):
        optimize_gate(IDENTITY, r, np.eye(3) / 3.0, NoiseParams.from_lambda(0.05))


@pytest.mark.parametrize(
    "m2",
    [np.eye(2), np.ones(3), np.diag([0.0, np.inf, 1.0])],
    ids=["shape-2x2", "shape-3", "inf"],
)
def test_optimize_gate_rejects_invalid_second_moment(m2):
    with pytest.raises(ValueError):
        optimize_gate(IDENTITY, np.array([0.0, 0.0, 1.0]), m2, NoiseParams.from_lambda(0.05))


@pytest.mark.parametrize("m1, m2, message", [
    ([[0.0], [0.0], [1.0]], np.eye(3) / 3.0, "m1 must"),
    ([[0.0], [0.0, 0.0], [1.0]], np.eye(3) / 3.0, "m1 must"),
    (0.5, np.eye(3) / 3.0, "m1 must"),
    (["x", "y", "z"], np.eye(3) / 3.0, "m1 must"),
    ([0.0, 0.0, 1j], np.eye(3) / 3.0, "m1 must"),
    ([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "m2 must"),
    ([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "m2 must"),
    ([0.0, 0.0, 1.0], [[[1.0], [0.0], [0.0]]] * 3, "m2 must"),
    ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], "m2 must"),
    ((0.0, 0.0, 1.0), ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, math.nan)), "m2 must"),
    (iter([0.0, 0.0, 1.0]), np.eye(3) / 3.0, "m1 must"),
    ({0.0, 0.6, 0.8}, np.eye(3) / 3.0, "m1 must"),
    ([0.0, 0.0, 1.0], (row for row in np.eye(3).tolist()), "m2 must"),
    ([0.0, 0.0, 1.0], [{0.5, 0.0, 0.25}, [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]], "m2 must"),
    ([0.0] * 3, 5.0 * np.eye(3), "^m2 must have trace <= 1"),
    ([0.0] * 3, -np.eye(3), "^m2 must be at least m1 m1"),
    ([0.0] * 3, [[0.3, 0.2, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]], "^m2 must be symmetric"),
    ([2.0, 0.0, 0.0], np.eye(3) / 3.0, "^m2 must be at least m1 m1"),
    ([math.nan, 0.0, 0.0], np.eye(3) / 3.0, "^m1 must be a sequence of shape"),
], ids=["m1-3x1", "m1-ragged", "m1-scalar", "m1-text", "m1-complex", "m2-ragged",
        "m2-ragged-nine", "m2-3x3x1", "m2-vector", "m2-tuple-nan", "m1-iterator", "m1-set",
        "m2-generator", "m2-set-row", "m2-five-I", "m2-minus-I", "m2-asymmetric",
        "m1-outside-ball", "m1-nan"])
def test_optimize_gate_rejects_nested_sequence_input(m1, m2, message):
    """Nested lists and tuples are checked like arrays: a ragged or
    wrongly shaped input, or an entry that is no finite real, raises the
    ValueError of the input at fault, never a TypeError.  A one-shot
    iterator or a set, which has no order to read three entries in, is
    refused like any other input that is no sequence.  So are moments that
    no distribution on the unit ball has, by ``moment_objective``'s rules
    (``objectives._read_moments``); unchecked, m2 = 5 I would score a
    clamped F = 1.0 reported as converged."""
    with pytest.raises(ValueError, match=message):
        optimize_gate(IDENTITY, m1, m2, NoiseParams.from_lambda(0.05))


def test_moment_input_forms_give_identical_results():
    """ndarrays, tuples and lists of the same moments, and integer entries
    for integral values, give == objective values and == optimization
    results: every form is read into the same floats.  A point's moments
    are the pure state's (n, n n^T) to the bit."""
    rng = np.random.default_rng(41)
    params = NoiseParams(0.04, 0.09)
    for i in range(30):
        target = random_angles(rng)
        if i % 3 == 0:
            state = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            m1, m2 = map(np.array, point_moments(state.theta, state.phi))
            n = bloch_vector(state)
            assert m1.tobytes() == n.tobytes() and m2.tobytes() == np.outer(n, n).tobytes()
        elif i % 3 == 1:
            m1, m2 = map(np.array, cap_moments(rng.uniform(0.1, math.pi)))
        else:
            r = 0.8 * bloch_vector(BlochState(rng.uniform(0.0, math.pi), 1.0))
            m1, m2 = r, np.outer(r, r)
        forms = [
            (m1, m2),
            (tuple(m1.tolist()), tuple(map(tuple, m2.tolist()))),
            (m1.tolist(), m2.tolist()),
            (list(m1), list(m2)),
        ]
        x = tuple(rng.uniform(-math.pi, math.pi, 3))
        values = [moment_objective(target, a, b, params)(x) for a, b in forms]
        assert all(v == values[0] for v in values)
        results = [optimize_gate(target, a, b, params) for a, b in forms]
        assert all(res == results[0] for res in results)
    ground = point_moments(0.0, 0.0)
    integral = ([0, 0, 1], [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    target = EulerAngles(0.7, 2.0, 0.0)
    assert optimize_gate(target, *integral, params) == optimize_gate(target, *ground, params)


def test_zero_noise_evaluates_seed_once(monkeypatch):
    """One objective evaluation at the seed serves the gradient-tolerance
    skip, the first candidate and the never-worse fallback: at zero noise
    the seed's gradient vanishes, so that is the only evaluation."""
    seen = []
    original = optimize._objective

    def counting(*args):
        fg, *rest = original(*args)

        def recorded(x):
            seen.append(np.array(x, dtype=float))
            return fg(x)

        return recorded, *rest

    monkeypatch.setattr(optimize, "_objective", counting)
    target = extract_euler(named_gate("h"))
    res = optimize_gate(target, *PLUS, NoiseParams.from_lambda(0.0))
    assert len(seen) == 1
    assert np.array_equal(seen[0], [target.beta, target.gamma, target.delta])
    assert res.iterations == 0 and res.improvement == 0.0


# ------------------------------------------------------------------ config

def test_optimizer_config_validation():
    """RB's one optimizer setting, the multistart count, is refused unless
    it is an int >= 0."""
    params = NoiseParams.from_lambda(0.05)
    for bad in (-1, 2.5, 3.0, True, "5"):
        with pytest.raises(ValueError, match="multistart must"):
            RbConfig(noise=params, multistart=bad)


@pytest.mark.parametrize("host", [
    lambda s: RbConfig(noise=NoiseParams.from_lambda(0.05), rng_seed=s),
    lambda s: SweepConfig(lambda_grid=(0.05,), rng_seed=s),
], ids=["RbConfig", "SweepConfig"])
def test_seed_validated_at_construction(host):
    """The root of every named random stream is refused unless it is an int
    >= 0, by each config that carries one, at construction and naming its
    key, not later inside np.random.SeedSequence when a stream is drawn."""
    for bad in (-1, 2.5, 3.0, True, "5"):
        with pytest.raises(ValueError, match="rng_seed must"):
            host(bad)
    host(0)
