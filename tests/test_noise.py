"""Unit tests for the damping channel, its closed form, and the calibration
signal."""

import math

import numpy as np
import pytest

from noisy_euler import (
    BlochState,
    EulerAngles,
    LAMBDA_MAX,
    NoiseParams,
    damping_probabilities,
)
from noisy_euler.noise import _apply_all, _apply_chain, _damping
from reference import (
    amplitude_damping_kraus,
    apply_channel_kraus,
    bloch_density,
    bloch_vector,
    calibration_signal,
    noisy_gate_stepwise,
    phase_damping_kraus,
    projector,
    rx,
    validate_density_matrix,
    zyz_unitary,
)


def closed_form(ang, st, p):
    """The affine map A n + t that RB and the objective run, rendered as a
    density matrix."""
    return bloch_density(_apply_all(ang.beta, ang.gamma, ang.delta,
                                    (_damping(p.lambda_a, p.lambda_p),), (bloch_vector(st),))[0])


def random_density(rng):
    """Random mixed state: convex blend of two pure states."""
    a = projector(BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
    b = projector(BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
    w = rng.uniform()
    return w * a + (1 - w) * b


# ----------------------------------------------------------- probabilities

def test_damping_probabilities_formula():
    la, lp = damping_probabilities(50e-6, 70e-6, 35.6e-9)
    # implementation uses expm1, which beats the naive 1 - exp reference
    assert abs(la - (1.0 - math.exp(-35.6e-9 / 50e-6))) < 1e-16
    assert abs(lp - (1.0 - math.exp(-35.6e-9 / 70e-6))) < 1e-16
    assert la == -math.expm1(-35.6e-9 / 50e-6)


def test_damping_probabilities_zero_duration():
    assert damping_probabilities(50e-6, 70e-6, 0.0) == (0.0, 0.0)


def test_damping_probabilities_validation():
    with pytest.raises(ValueError):
        damping_probabilities(0.0, 70e-6, 1e-9)
    with pytest.raises(ValueError):
        damping_probabilities(50e-6, -1.0, 1e-9)
    with pytest.raises(ValueError):
        damping_probabilities(50e-6, 70e-6, -1e-9)
    with pytest.raises(ValueError):
        damping_probabilities(math.inf, 70e-6, 1e-9)


def test_noise_params_constructors_agree():
    t1, t2, ts = 46.4e-6, 105e-6, 35.6e-9
    a = NoiseParams.from_times(t1, t2, ts)
    b = NoiseParams(a.lambda_a, a.lambda_p)
    assert a.lambda_a == b.lambda_a and a.lambda_p == b.lambda_p
    c = NoiseParams.from_lambda(0.05)
    assert c.lambda_a == 0.05 and c.lambda_p == 0.05


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(0.0, 1.5)


def test_noise_params_times_must_produce_lambdas():
    """A manifest decodes straight into the constructor, so times that
    disagree with the probabilities, or only some of the three times, are
    rejected rather than leaving the simulator and ``assuming_drift`` with
    different noise."""
    p = NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9)
    assert NoiseParams(p.lambda_a, p.lambda_p, p.t1, p.t2, p.t_star) == p
    with pytest.raises(ValueError, match="t1, t2 and t_star"):
        NoiseParams(0.1, p.lambda_p, p.t1, p.t2, p.t_star)
    with pytest.raises(ValueError, match="t1, t2 and t_star"):
        NoiseParams(p.lambda_a, p.lambda_p, t1=p.t1)
    # agreement is |lambda - lambda(times)| <= 1e-9 lambda(times)
    near = NoiseParams(p.lambda_a * (1 + 5e-10), p.lambda_p, p.t1, p.t2, p.t_star)
    assert near.lambda_a == p.lambda_a * (1 + 5e-10)
    with pytest.raises(ValueError, match="t1, t2 and t_star"):
        NoiseParams(p.lambda_a * (1 + 2e-9), p.lambda_p, p.t1, p.t2, p.t_star)


def test_lambda_clamp_below_one():
    p = NoiseParams.from_times(1e-9, 1e-9, 1.0)  # t >> T: lambda -> 1
    assert p.lambda_a == LAMBDA_MAX < 1.0


def test_assuming_drift_scales_rates():
    p = NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9)
    for k in (1e-3, 0.1, 1.0, 7.0, 1e6):
        q = p.assuming_drift(k)
        # lambda(k) = 1 - (1 - lambda)^k, the exact T -> T/k rescaling
        expect = 1.0 - (1.0 - p.lambda_a) ** k
        assert abs(q.lambda_a - min(expect, LAMBDA_MAX)) < 1e-15
    assert p.assuming_drift(1.0).lambda_a == p.lambda_a
    with pytest.raises(ValueError):
        p.assuming_drift(0.0)
    with pytest.raises(ValueError):
        p.assuming_drift(math.inf)


def test_assuming_drift_matches_time_rescaling():
    p = NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9)
    for k in (0.25, 3.0, 40.0):
        q = p.assuming_drift(k)
        r = NoiseParams.from_times(46.4e-6 / k, 105e-6 / k, 35.6e-9)
        assert abs(q.lambda_a - r.lambda_a) < 1e-15
        assert abs(q.lambda_p - r.lambda_p) < 1e-15


# ----------------------------------------------------------------- channel

def test_kraus_operators_complete():
    for lam in (0.0, 0.1, 0.9):
        for kraus in (amplitude_damping_kraus(lam), phase_damping_kraus(lam)):
            total = sum(k.conj().T @ k for k in kraus)
            assert np.abs(total - np.eye(2)).max() < 1e-15


def test_channel_kraus_order_irrelevant():
    # amplitude and phase damping commute, so the composition order is moot
    rng = np.random.default_rng(4)
    rho = random_density(rng)
    p = NoiseParams(0.3, 0.6)
    amp = lambda r: sum(k @ r @ k.conj().T for k in amplitude_damping_kraus(0.3))
    php = lambda r: sum(k @ r @ k.conj().T for k in phase_damping_kraus(0.6))
    assert np.abs(amp(php(rho)) - php(amp(rho))).max() < 1e-15
    assert np.abs(amp(php(rho)) - apply_channel_kraus(rho, p)).max() < 1e-15


def test_channel_preserves_density_matrices():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_density(rng)
        p = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1))
        validate_density_matrix(apply_channel_kraus(rho, p))


def test_channel_fixed_point_is_ground_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    p = NoiseParams(0.4, 0.7)
    assert np.abs(apply_channel_kraus(rho, p) - rho).max() == 0.0


def test_channel_identity_at_zero_noise():
    rng = np.random.default_rng(8)
    rho = random_density(rng)
    p = NoiseParams.from_lambda(0.0)
    assert np.abs(apply_channel_kraus(rho, p) - rho).max() == 0.0


def test_channel_full_amplitude_damping_resets():
    rng = np.random.default_rng(10)
    rho = random_density(rng)
    out = apply_channel_kraus(rho, NoiseParams(1.0 - 1e-15, 0.0))
    assert abs(out[0, 0].real - 1.0) < 1e-14


# ----------------------------------------------- closed form vs stepwise

def test_closed_form_matches_stepwise_bulk():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(2000):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        st = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p = NoiseParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        closed = closed_form(ang, st, p)
        step = noisy_gate_stepwise(ang, projector(st), p)
        worst = max(worst, np.abs(closed - step).max())
    assert worst < 1e-12


def test_closed_form_extreme_lambdas():
    rng = np.random.default_rng(14)
    for la, lp in [(0.0, 0.0), (0.999, 0.999), (1e-9, 0.5), (0.5, 1e-9)]:
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        st = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p = NoiseParams(la, lp)
        closed = closed_form(ang, st, p)
        step = noisy_gate_stepwise(ang, projector(st), p)
        assert np.abs(closed - step).max() < 1e-12


def test_closed_form_output_is_density_matrix():
    rng = np.random.default_rng(16)
    for _ in range(100):
        ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        st = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1))
        validate_density_matrix(closed_form(ang, st, p))


def test_noiseless_gate_is_exact_unitary_action():
    rng = np.random.default_rng(18)
    ang = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
    st = BlochState(0.9, 0.4)
    p = NoiseParams.from_lambda(0.0)
    u, rho = zyz_unitary(ang), projector(st)
    expect = u @ rho @ u.conj().T
    assert np.abs(closed_form(ang, st, p) - expect).max() < 1e-14


def test_two_pi_shift_same_channel():
    # 2*pi shifts flip the SU(2) sign only; the channel output is unchanged
    st = BlochState(1.2, 5.3)
    p = NoiseParams(0.05, 0.02)
    a = EulerAngles(0.5, 1.0, 1.5)
    b = EulerAngles(0.5 + 2 * math.pi, 1.0, 1.5 - 2 * math.pi)
    assert np.abs(closed_form(a, st, p) - closed_form(b, st, p)).max() < 1e-15


def one_vector_map(beta, gamma, delta, la, lp, r):
    """The gate's affine map at r with its frame built for r alone, in the
    float operations, and their order, of the package's one-vector form:
    what a shared frame must reproduce bit for bit to keep outputs
    byte-identical."""
    ee, k11, t0y, t0z = _damping(la, lp)
    cg, sg = math.cos(gamma), math.sin(gamma)
    k00, k02, k20, k22 = ee * cg, ee * sg, -k11 * sg, k11 * cg
    cd, sd = math.cos(delta), math.sin(delta)
    x, y, z = cd * r[0] - sd * r[1], sd * r[0] + cd * r[1], r[2]
    x, y, z = k00 * x + k02 * z, k11 * y + t0y, k20 * x + k22 * z + t0z
    cb, sb = math.cos(beta), math.sin(beta)
    return cb * x - sb * y, sb * x + cb * y, z


def bits(vectors):
    return [tuple(map(float.hex, v)) for v in vectors]


def test_shared_frame_equals_one_vector_map_exactly():
    """``_apply_all`` builds a gate's frame once for several damping sets
    and vectors, as the objective's set-up does under the noiseless set for
    m1 and the columns of m2, and a knowledge cell under the noiseless and
    its own set for one sampled state.  Its images come damping-major, and
    each equals its own call at that one damping set and vector, and the
    one-vector map's, to the bit, signed zeros included, at gamma = 0 and
    pi as well as at random angles, for one to four damping sets drawn from
    lambda = 0, 0.999 and lambda_a != lambda_p."""
    rng = np.random.default_rng(33)
    for i in range(1200):
        beta, gamma, delta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3).tolist()
        gamma = (0.0, math.pi, -math.pi, gamma)[i % 4]
        models = [(0.0, 0.0), (0.999, 0.999), (0.999, 0.0),
                  tuple(rng.uniform(0.0, 0.5, 2).tolist())]
        models = [models[j] for j in rng.permutation(4)[:1 + i % 4]]
        dampings = [_damping(la, lp) for la, lp in models]
        vectors = rng.uniform(-1.0, 1.0, (4, 3)).tolist()
        vectors[0] = [0.0, -0.0, 1.0]
        vectors[1] = [-0.0, 0.0, -0.0]
        vectors[2][i % 3] = -0.0
        vectors[3][(i + 1) % 3] = 0.0
        images = list(_apply_all(beta, gamma, delta, dampings, vectors))
        singles = [_apply_all(beta, gamma, delta, (d,), (v,))[0] for d in dampings for v in vectors]
        assert images == singles
        assert bits(images) == bits(singles)
        assert bits(images) == bits(one_vector_map(beta, gamma, delta, la, lp, v)
                                    for la, lp in models for v in vectors)


def test_chain_and_array_frames_equal_one_gate_at_a_time():
    """An RB circuit carries the ideal state and each arm's state through
    its gates with ``_apply_chain``, from cos and sin computed once per
    angle, and maps its inverse steps with ``_apply_all`` on arrays given
    numpy's cos and sin.  Both give, to the bit, the floats of ``_apply_all``
    applied one gate and one vector at a time, at lambda = 0, 0.999 and lambda_a !=
    lambda_p, from |0> and from a mixed state with signed zeros."""
    rng = np.random.default_rng(34)
    angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (300, 3))
    angles[::7, 1] = 0.0
    beta, gamma, delta = angles.T
    trig = [f(a).tolist() for a in (gamma, delta, beta) for f in (np.cos, np.sin)]
    for la, lp in ((0.0, 0.0), (0.999, 0.999), (0.3, 0.01)):
        damping = _damping(la, lp)
        for start in ((0.0, 0.0, 1.0), (-0.0, 0.0, -0.25)):
            states, r = [start], start
            for b, g, d in angles.tolist():
                r = _apply_all(b, g, d, (damping,), (r,))[0]
                states.append(r)
            assert bits(_apply_chain(*trig, damping, start)) == bits(states)
            xs = np.array(states[:-1]).T
            images = _apply_all(beta, gamma, delta, (damping,), (xs,), np.cos, np.sin)[0]
            assert bits(zip(*(v.tolist() for v in images))) == bits(states[1:])


# ------------------------------------------------------------- calibration

def test_calibration_fidelity_oracle_pulse_simulation():
    # independent route: pulse |0> by Rx(alpha), damp, project on the -y
    # eigenstate the ideal half-pi pulse would reach
    rng = np.random.default_rng(20)
    minus_y = np.array([1.0, -1j]) / math.sqrt(2)
    for _ in range(50):
        p = NoiseParams(rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        alpha = rng.uniform(-math.pi, math.pi)
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho = apply_channel_kraus(rx(alpha) @ rho @ rx(alpha).conj().T, p)
        expect = float(np.real(minus_y.conj() @ rho @ minus_y))
        assert abs(calibration_signal(alpha, p) - expect) < 1e-14


def test_calibration_fidelity_argmax_at_half_pi():
    for la, lp in [(0.01, 0.02), (0.3, 0.1), (0.0, 0.0)]:
        p = NoiseParams(la, lp)
        grid = np.arange(-math.pi, math.pi, 1e-3)
        vals = np.array([calibration_signal(a, p) for a in grid])
        assert abs(grid[np.argmax(vals)] - math.pi / 2) <= 1e-3
