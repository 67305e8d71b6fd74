"""Unit tests for the exact moment objective behind point and expected
fidelities, its gradients, and the moments of input-state distributions."""

import math

import numpy as np
import pytest
from scipy import integrate

from noisy_euler import (
    BlochState,
    EulerAngles,
    LAMBDA_MAX,
    NoiseParams,
    cap_moments,
    extract_euler,
    moment_objective,
    named_gate,
    optimize_gate,
    point_moments,
)
from noisy_euler.experiments import _cap_sample
from noisy_euler.objectives import _objective, _point_moments, _read_moments
from reference import (
    bloch_vector,
    cap_density,
    noisy_gate_stepwise,
    point_fidelity,
    projector,
    state_vector,
    uniform_cap_state,
    zyz_unitary,
)

HADAMARD = extract_euler(named_gate("h"))


def random_angles(rng):
    return EulerAngles(*rng.uniform(-math.pi, math.pi, 3))


def averaged(target, trial, moments, params):
    """(F, dF/dx) averaged over the input with ``moments`` (m1, m2) at the
    trial angles."""
    fg = moment_objective(target, *moments, params)
    return fg((trial.beta, trial.gamma, trial.delta))


def point_objective(target, trial, state, params) -> float:
    """F of the trial angles for the one known input ``state``."""
    return averaged(target, trial, point_moments(state.theta, state.phi), params)[0]


def cap(theta_max):
    """A cap case: theta_max with its moments."""
    return theta_max, cap_moments(theta_max)


def random_state(rng):
    return BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


# ---------------------------------------------------------------- fidelity

def test_fidelity_matches_stepwise_oracle():
    """Independent route: noiseless target output via matrix algebra, trial
    output via the stepwise channel simulation."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        target, trial = random_angles(rng), random_angles(rng)
        state = random_state(rng)
        params = NoiseParams(rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        oracle = point_fidelity(target, trial, state, params)
        assert abs(point_objective(target, trial, state, params) - oracle) < 1e-13


def test_fidelity_bounds_and_perfect_case():
    rng = np.random.default_rng(2)
    for _ in range(200):
        target, trial = random_angles(rng), random_angles(rng)
        state = random_state(rng)
        params = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1))
        f = point_objective(target, trial, state, params)
        assert 0.0 <= f <= 1.0
    noiseless = NoiseParams.from_lambda(0.0)
    target = random_angles(rng)
    assert point_objective(target, target, random_state(rng), noiseless) > 1.0 - 1e-14


def test_fidelity_orthogonal_target_is_zero():
    noiseless = NoiseParams.from_lambda(0.0)
    identity = EulerAngles(0.0, 0.0, 0.0)
    x_gate = extract_euler(named_gate("x"))
    # acting on |0>: identity keeps |0>, X reaches |1>
    assert point_objective(x_gate, identity, BlochState(0.0, 0.0), noiseless) < 1e-14


# Preparing the state (theta, phi) from |0> scores the trial (beta, gamma, 0)
# against the target EulerAngles(phi, theta, 0) at the input |0>.
GROUND = BlochState(0.0, 0.0)


def test_prep_fidelity_matches_state_route():
    rng = np.random.default_rng(4)
    for _ in range(100):
        target = random_state(rng)
        beta, gamma = rng.uniform(-math.pi, math.pi, 2)
        params = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        trial = EulerAngles(beta, gamma, 0.0)
        rho = noisy_gate_stepwise(trial, projector(GROUND), params)
        psi = state_vector(target)
        oracle = float(np.real(psi.conj() @ rho @ psi))
        prep = point_objective(EulerAngles(target.phi, target.theta, 0.0), trial, GROUND, params)
        assert abs(prep - oracle) < 1e-13


def test_prep_fidelity_noiseless_seed_is_one():
    rng = np.random.default_rng(6)
    p0 = NoiseParams.from_lambda(0.0)
    for _ in range(50):
        t = random_state(rng)
        seed = EulerAngles(t.phi, t.theta, 0.0)
        assert point_objective(seed, seed, GROUND, p0) > 1.0 - 1e-13


N = [0.0, 0.6, 0.8]
NN = [[0.0, 0.0, 0.0], [0.0, 0.36, 0.48], [0.0, 0.48, 0.64]]


def test_objective_core_equals_moment_objective():
    """``moment_objective`` is ``_objective``'s fg: the core on tuples
    gives, ==, the same value, gradient, Hessian and image u as on m1 and
    m2 as lists, tuples and ndarrays, point and cap."""
    rng = np.random.default_rng(17)
    params = NoiseParams(0.04, 0.09)
    for i in range(20):
        target = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        if i % 2:
            m1, m2 = point_moments(*rng.uniform(0.0, math.pi, 2))
        else:
            m1, m2 = cap_moments(rng.uniform(0.1, math.pi))
        core, _, u, _ = _objective(target, _read_moments(tuple(m1), tuple(map(tuple, m2))),
                                   params.lambda_a, params.lambda_p)
        xs = [tuple(rng.uniform(-math.pi, math.pi, 3).tolist()) for _ in range(3)]
        for a, b in ((list(m1), [list(r) for r in m2]), (tuple(m1), tuple(map(tuple, m2))),
                     (np.array(m1), np.array(m2))):
            fg = moment_objective(target, a, b, params)
            assert _objective(target, _read_moments(a, b), params.lambda_a, params.lambda_p)[2] == u
            assert all(fg(x) == core(x) for x in xs)


SHAPE = "be a sequence of shape"


@pytest.mark.parametrize("m1, m2, name, rule", [
    ({0.0, 0.6, 0.8}, NN, "m1", SHAPE),
    (iter(N), NN, "m1", SHAPE),
    ([0.6, 0.8], NN, "m1", SHAPE),
    ([*N, 0.0], NN, "m1", SHAPE),
    (N, [NN[0], {0.0, 0.36, 0.48}, NN[2]], "m2", SHAPE),
    (N, [{0.0}, NN[1], NN[2]], "m2", SHAPE),
    (N, iter(NN), "m2", SHAPE),
    (N, [NN[0], NN[1][:2], NN[2]], "m2", SHAPE),
    (N, [NN[0], [*NN[1], 0.0], NN[2]], "m2", SHAPE),
    ([0.0] * 3, 5.0 * np.eye(3), "m2", "have trace <= 1"),
    ([0.0] * 3, -np.eye(3), "m2", "be at least m1 m1"),
    ([0.0] * 3, [[0.3, 0.2, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]], "m2", "be symmetric"),
    ([2.0, 0.0, 0.0], np.eye(3) / 3.0, "m2", "be at least m1 m1"),
    ([math.nan, 0.0, 0.0], np.eye(3) / 3.0, "m1", SHAPE),
], ids=["m1-set", "m1-iterator", "m1-2", "m1-4", "m2-set-row", "m2-set-row-repeats",
        "m2-iterator", "m2-row-2", "m2-row-4", "m2-five-I", "m2-minus-I", "m2-asymmetric",
        "m1-outside-ball", "m1-nan"])
def test_moment_objective_rejects_malformed_moments(m1, m2, name, rule):
    """m1 and m2 are read by position, so an input with no order (a set, an
    iterator) or of the wrong length is refused by name, not read in some
    iteration order or cut short.  Moments that no distribution on the unit
    ball has are refused by ``optimize_gate``'s rules (``_read_moments``);
    unchecked, m1 = (NaN, 0, 0) would give a NaN objective."""
    with pytest.raises(ValueError, match=f"^{name} must {rule}"):
        moment_objective(HADAMARD, m1, m2, NoiseParams(0.05, 0.02))


def test_read_moments_accepts_every_distribution():
    """The moments the package and its callers build pass both entry points:
    points, caps over (0, pi] with pi, (r, r r^T) for |r| <= 1 as ndarrays
    and as randomized benchmarking builds them (``_point_moments``), and
    the near-rank-1 m2 (1 - 1e-12) that runs the Newton search.  Only
    moments with m2 == m1 m1^T exactly are rank 1."""
    rng = np.random.default_rng(5)
    params = NoiseParams.from_lambda(0.05)
    point = point_moments(1.1, 0.7)
    cases = [(point_moments(*rng.uniform(0.0, math.pi, 2) * (1, 2)), True) for _ in range(20)]
    cases += [(point_moments(theta, 0.3), True) for theta in (0.0, math.pi / 2, math.pi)]
    cases += [(cap_moments(t), False) for t in np.linspace(math.pi / 50, math.pi, 50)]
    for length in (0.0, 0.3, 0.99, 1.0):
        r = length * bloch_vector(random_state(rng))
        cases += [((r, np.outer(r, r)), True), (_point_moments(tuple(r.tolist())), True)]
    cases.append(((point[0], np.multiply(point[1], 1.0 - 1e-12)), False))
    for (m1, m2), rank_one in cases:
        assert _read_moments(m1, m2)[2] == rank_one
        moment_objective(HADAMARD, m1, m2, params)
        optimize_gate(HADAMARD, m1, m2, params)


# ----------------------------------------------------------- distributions

def test_point_constructor_canonicalizes():
    """point_moments reads the angles through BlochState: theta = -0.4 is
    the state (0.4, phi + pi)."""
    (m1, m2), (r1, r2) = point_moments(-0.4, 1.0), point_moments(0.4, 1.0 + math.pi)
    assert np.abs(np.subtract(m1, r1)).max() < 1e-15
    assert np.abs(np.subtract(m2, r2)).max() < 1e-15
    assert abs(m1[2] - math.cos(0.4)) < 1e-15


def test_cap_constructor_validation():
    """cap_moments takes theta_max in (0, pi], pi (the uniform sphere)
    included."""
    for theta_max in (3.5, -0.5, math.inf):
        with pytest.raises(ValueError, match=r"theta_max must lie in \(0, pi\]"):
            cap_moments(theta_max)
    assert cap_moments(math.pi)[0] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("theta_max", [7.0, 0.0, math.nan], ids=["cap-7", "cap-0", "cap-nan"])
def test_direct_constructor_validation(theta_max):
    """A cap outside (0, pi] would give moments of no distribution."""
    with pytest.raises(ValueError):
        cap_moments(theta_max)


@pytest.mark.parametrize("theta_max", [0.2, 1.3, math.pi])
def test_cap_moments_match_quadrature(theta_max):
    """Oracle: E[n] and E[n n^T] integrated by scipy dblquad against the
    test-side cap density agree with the closed form."""
    def n(theta, phi):
        st = math.sin(theta)
        return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def expect(f):
        value, _ = integrate.dblquad(
            lambda phi, theta: f(n(theta, phi)) * cap_density(theta_max, theta),
            0.0, theta_max, 0.0, 2 * math.pi, epsabs=1e-13, epsrel=1e-13,
        )
        return value

    m1, m2 = cap_moments(theta_max)
    for i in range(3):
        assert abs(expect(lambda v: v[i]) - m1[i]) < 1e-10
        for j in range(3):
            assert abs(expect(lambda v: v[i] * v[j]) - m2[i][j]) < 1e-10


@pytest.mark.parametrize("dist", [cap(math.pi), cap(0.7), cap(2.5)])
def test_density_normalized(dist):
    # integrate only over the cap: the density drops to zero outside and the
    # step would defeat the adaptive integrator
    theta_max, _ = dist
    total, err = integrate.dblquad(
        lambda phi, theta: cap_density(theta_max, theta),
        0.0, theta_max - 1e-15, 0.0, 2 * math.pi,
    )
    assert abs(total - 1.0) < 1e-8


def cap_samples(rng, theta_max, n):
    """n states from the knowledge sweep's one-state cap sampler, drawn one
    call at a time from rng, as (theta, phi) arrays."""
    return np.array([_cap_sample(rng, theta_max) for _ in range(n)]).T


@pytest.mark.parametrize("seed", [0, 3, 2309])
def test_cap_sample_equals_scalar_uniform_rule(seed):
    """10,000 cap samples over four caps equal, bit for bit, the rule drawn
    by scalar ``Generator.uniform`` calls, and leave the stream at the same
    place."""
    rng, ref = np.random.default_rng([seed, 1, 0, 0]), np.random.default_rng([seed, 1, 0, 0])
    for i in range(10_000):
        theta_max = (0.1, 0.9, 2.0, math.pi)[i % 4]
        assert _cap_sample(rng, theta_max) == uniform_cap_state(ref, theta_max)
    assert rng.random() == ref.random()


def test_cap_sampling_stays_inside_and_matches_cdf():
    rng = np.random.default_rng(8)
    theta, phi = cap_samples(rng, 0.9, 20000)
    assert theta.max() <= 0.9 + 1e-12
    assert theta.min() >= 0.0
    assert phi.min() >= 0.0 and phi.max() < 2 * math.pi
    # cos(theta) uniform on [cos(theta_max), 1]
    u = (1.0 - np.cos(theta)) / (1.0 - math.cos(0.9))
    hist, _ = np.histogram(u, bins=20, range=(0, 1))
    chi2 = np.sum((hist - 1000.0) ** 2 / 1000.0)
    assert chi2 < 60  # 19 dof, p ~ 3e-6 false-alarm bound


def test_uniform_sampling_moments():
    rng = np.random.default_rng(10)
    theta, _ = cap_samples(rng, math.pi, 50000)
    z = np.cos(theta)
    assert abs(z.mean()) < 4.0 / math.sqrt(3 * 50000) * 3
    assert abs((z ** 2).mean() - 1.0 / 3.0) < 0.01


# ------------------------------------------------------- expected fidelity

def test_point_expected_fidelity_equals_fidelity():
    """A point distribution's moments are the pure state's (n, n n^T)."""
    rng = np.random.default_rng(14)
    for _ in range(50):
        target, trial = random_angles(rng), random_angles(rng)
        state = random_state(rng)
        params = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        n = bloch_vector(state)
        fg = moment_objective(target, n, np.outer(n, n), params)
        assert point_objective(target, trial, state, params) == fg(
            (trial.beta, trial.gamma, trial.delta)
        )[0]


@pytest.mark.parametrize("dist", [cap(math.pi), cap(0.6)])
def test_expected_fidelity_matches_scipy_dblquad(dist):
    rng = np.random.default_rng(16)
    target, trial = random_angles(rng), random_angles(rng)
    params = NoiseParams(0.08, 0.03)
    theta_max, moments = dist

    def integrand(phi, theta):
        f = point_objective(target, trial, BlochState(theta, phi), params)
        return f * cap_density(theta_max, theta)

    ref, err = integrate.dblquad(
        integrand, 0.0, theta_max, 0.0, 2 * math.pi,
        epsabs=1e-10, epsrel=1e-10,
    )
    got = averaged(target, trial, moments, params)[0]
    assert abs(got - ref) < 1e-6


@pytest.mark.parametrize("dist", [cap(math.pi), cap(1.0), cap(0.2)])
def test_sampled_average_agrees_with_exact_moments(dist):
    """Oracle: a seeded Monte Carlo average of pointwise fidelity over the
    knowledge sweep's cap draw estimates the exact moment-form value."""
    rng = np.random.default_rng(18)
    target, trial = random_angles(rng), random_angles(rng)
    params = NoiseParams(0.08, 0.03)
    theta_max, moments = dist
    exact = averaged(target, trial, moments, params)[0]
    theta, phi = cap_samples(rng, theta_max, 20000)
    vals = np.array([
        point_objective(target, trial, BlochState(t, p), params) for t, p in zip(theta, phi)
    ])
    sigma = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 5.0 * sigma


def test_cap_moments_match_samples():
    rng = np.random.default_rng(19)
    m1, m2 = cap_moments(1.3)
    theta, phi = cap_samples(rng, 1.3, 200000)
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    assert np.abs(n.mean(axis=1) - m1).max() < 5e-3
    assert np.abs(n @ n.T / n.shape[1] - m2).max() < 5e-3
    assert abs(np.trace(m2) - 1.0) < 1e-15


def test_mixed_input_objective_matches_stepwise_channel():
    """Oracle: for a mixed input with Bloch vector r the objective with
    moments (r, r r^T) is tr(U rho U^dag . rho_out), rho_out from the
    stepwise Kraus channel, down to the largest damping probability."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for lam in (0.0, 0.05, 0.5, LAMBDA_MAX):
        for _ in range(50):
            target, trial = random_angles(rng), random_angles(rng)
            params = NoiseParams(lam, rng.uniform(0.0, 1.0))
            r = rng.normal(size=3)
            r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
            rho = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])
            u = zyz_unitary(target)
            sigma = u @ rho @ u.conj().T
            oracle = float(np.real(np.trace(sigma @ noisy_gate_stepwise(trial, rho, params))))
            fg = moment_objective(target, r, np.outer(r, r), params)
            got = fg((trial.beta, trial.gamma, trial.delta))[0]
            worst = max(worst, abs(got - oracle))
    assert worst < 1e-14


# ---------------------------------------------------------------- gradient

def _moments(kind, rng, target, trial):
    """(target, trial, m1, m2) for one random problem of the given input kind;
    prep pins delta to 0 at the input |0>."""
    if kind == "point":
        state = random_state(rng)
        m1, m2 = point_moments(state.theta, state.phi)
    elif kind == "cap":
        m1, m2 = cap_moments(rng.uniform(0.05, 3.0))
    elif kind == "uniform":
        m1, m2 = cap_moments(math.pi)
    elif kind == "mixed":
        m1, m2 = _mixed_moments(rng)
    else:
        target = EulerAngles(target.beta, target.gamma, 0.0)
        trial = EulerAngles(trial.beta, trial.gamma, 0.0)
        m1, m2 = _PREP_STATE, np.outer(_PREP_STATE, _PREP_STATE)
    return target, trial, m1, m2


def _mixed_moments(rng):
    r = rng.normal(size=3)
    r *= 0.6 / np.linalg.norm(r)
    return r, np.outer(r, r)


_PREP_STATE = bloch_vector(BlochState(0.0, 0.0))


@pytest.mark.parametrize("kind", ["point", "cap", "uniform", "mixed", "prep"])
def test_analytic_gradient_matches_fourth_order_difference(kind):
    """The analytic gradient against a test-side 4th-order central
    difference of the objective's own value."""
    rng = np.random.default_rng(20)
    h = 1e-3
    for _ in range(20):
        target, trial = random_angles(rng), random_angles(rng)
        params = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        target, trial, m1, m2 = _moments(kind, rng, target, trial)
        fg = moment_objective(target, m1, m2, params)
        x = np.array([trial.beta, trial.gamma, trial.delta])
        grad = fg(x)[1]
        for i in range(3):
            step = np.zeros(3)
            step[i] = h

            def f(k):
                return fg(x + k * step)[0]

            ref = (8 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12 * h)
            assert abs(grad[i] - ref) < 1e-10


@pytest.mark.parametrize("kind", ["point", "cap", "uniform", "mixed", "prep"])
def test_analytic_hessian_matches_fourth_order_difference(kind):
    """The analytic Hessian is symmetric and matches a test-side 4th-order
    central difference of the analytic gradient."""
    rng = np.random.default_rng(23)
    h = 1e-3
    for _ in range(20):
        target, trial = random_angles(rng), random_angles(rng)
        params = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        target, trial, m1, m2 = _moments(kind, rng, target, trial)
        fg = moment_objective(target, m1, m2, params)
        x = np.array([trial.beta, trial.gamma, trial.delta])
        hess = np.array(fg(x)[2])
        assert np.array_equal(hess, hess.T)
        for j in range(3):
            step = np.zeros(3)
            step[j] = h

            def g(k):
                return np.array(fg(x + k * step)[1])

            ref = (8 * (g(1) - g(-1)) - (g(2) - g(-2))) / (12 * h)
            assert np.abs(hess[:, j] - ref).max() < 1e-10


def test_gradient_matches_coarse_finite_difference():
    """The analytic gradient agrees with an independent wider-step
    Richardson-style reference built from averaged objective values."""
    rng = np.random.default_rng(20)
    target = HADAMARD
    trial = EulerAngles(0.3, 1.2, 2.5)
    params = NoiseParams.from_lambda(0.05)
    dist = cap_moments(1.2)
    grad = averaged(target, trial, dist, params)[1]
    x = np.array([trial.beta, trial.gamma, trial.delta])
    h = 1e-4
    for i in range(3):
        def f(v):
            return averaged(target, EulerAngles(v[0], v[1], v[2]), dist, params)[0]
        hi1, lo1, hi2, lo2 = x.copy(), x.copy(), x.copy(), x.copy()
        hi1[i] += h
        lo1[i] -= h
        hi2[i] += 2 * h
        lo2[i] -= 2 * h
        # 4th-order central difference
        ref = (8 * (f(hi1) - f(lo1)) - (f(hi2) - f(lo2))) / (12 * h)
        assert abs(grad[i] - ref) < 1e-6 + 1e-4 * abs(ref)


def test_gradient_point_distribution():
    """The averaged gradient for a point input against a 4th-order
    central difference of the stepwise Kraus oracle's fidelity."""
    rng = np.random.default_rng(22)
    target, trial = random_angles(rng), random_angles(rng)
    state = random_state(rng)
    params = NoiseParams.from_lambda(0.03)
    grad = averaged(target, trial, point_moments(state.theta, state.phi), params)[1]
    h = 1e-3
    x = np.array([trial.beta, trial.gamma, trial.delta])
    for i in range(3):
        step = np.zeros(3)
        step[i] = h

        def f(k):
            return point_fidelity(target, EulerAngles(*(x + k * step)), state, params)

        ref = (8 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12 * h)
        assert abs(grad[i] - ref) < 1e-10


def test_target_angles_stationary_under_uniform_average():
    """For an isotropic input distribution the exact decomposition is a
    stationary point of the expected fidelity, at any damping level."""
    rng = np.random.default_rng(24)
    dist = cap_moments(math.pi)
    for lam in (1e-3, 1e-2, 1e-1):
        params = NoiseParams.from_lambda(lam)
        for _ in range(5):
            target = random_angles(rng)
            grad = averaged(target, target, dist, params)[1]
            assert np.linalg.norm(grad) < 1e-5
