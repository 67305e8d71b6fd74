"""Unit tests for rotation matrices, Euler decomposition and Bloch states."""

import cmath
import math

import numpy as np
import pytest

from noisy_euler import (
    BlochState,
    EulerAngles,
    NAMED_GATES,
    extract_euler,
    named_gate,
)
from noisy_euler.gates import GAMMA_TIE_TOL, _zyz_from_quaternion, _zyz_from_quaternions
from reference import (
    angle_gap,
    quaternion_unitary,
    rx,
    rz,
    same_up_to_phase,
    sign_gap,
    validate_density_matrix,
    zyz_unitary,
)

I2 = np.eye(2)


def ry(theta):
    """R_y(theta), the middle factor of ``zyz_unitary``."""
    return zyz_unitary(EulerAngles(0.0, theta, 0.0))


def haar_unitary(rng):
    """Haar-random U(2) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("rot", [rz, rx, ry])
@pytest.mark.parametrize("angle", [0.0, 0.3, -1.7, math.pi, 5.9, 2 * math.pi])
def test_rotations_are_special_unitary(rot, angle):
    u = rot(angle)
    assert np.abs(u @ u.conj().T - I2).max() < 1e-15
    assert abs(np.linalg.det(u) - 1.0) < 1e-15


def test_rz_is_diagonal_phase():
    phi = 0.83
    u = rz(phi)
    assert u[0, 1] == 0 and u[1, 0] == 0
    assert abs(u[0, 0] - cmath.exp(-0.5j * phi)) < 1e-15
    assert abs(u[1, 1] - cmath.exp(0.5j * phi)) < 1e-15


def test_rotation_composition_additive():
    for rot in (rz, rx, ry):
        assert np.abs(rot(0.4) @ rot(1.1) - rot(1.5)).max() < 1e-15


def test_x_basis_conjugation_turns_z_into_y():
    # |the core pulse identity behind the native form
    gamma = 1.234
    lhs = rx(-math.pi / 2) @ rz(gamma) @ rx(math.pi / 2)
    assert np.abs(lhs - ry(gamma)).max() < 1e-15


def test_native_form_equals_zyz_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ang = EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, 3))
        native = (rz(ang.beta) @ rx(-0.5 * math.pi) @ rz(ang.gamma)
                  @ rx(0.5 * math.pi) @ rz(ang.delta))
        assert np.abs(native - zyz_unitary(ang)).max() < 2e-15


def test_extract_euler_roundtrip_haar():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u = haar_unitary(rng)
        ang = extract_euler(u)
        assert same_up_to_phase(zyz_unitary(ang), u, 1e-12)
        assert 0.0 <= ang.beta < 2 * math.pi
        assert 0.0 <= ang.gamma <= math.pi
        assert 0.0 <= ang.delta < 2 * math.pi


def test_extract_euler_ignores_global_phase():
    """The angles carry no phase: e^{i theta} U has exactly the angles of U."""
    rng = np.random.default_rng(13)
    for _ in range(500):
        u = haar_unitary(rng)
        ang = extract_euler(u)
        shifted = extract_euler(cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) * u)
        assert abs(shifted.gamma - ang.gamma) < 1e-12
        assert angle_gap(shifted.beta, ang.beta) < 1e-12
        assert angle_gap(shifted.delta, ang.delta) < 1e-12


@pytest.mark.parametrize("name", sorted(NAMED_GATES))
def test_extract_euler_roundtrip_named(name):
    u = named_gate(name)
    assert same_up_to_phase(zyz_unitary(extract_euler(u)), u, 1e-12)


def test_extract_euler_hadamard_angles():
    ang = extract_euler(named_gate("h"))
    assert abs(ang.beta % (2 * math.pi)) < 1e-12
    assert abs(ang.gamma - math.pi / 2) < 1e-12
    assert abs(ang.delta - math.pi) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.7, -2.4, 3 * math.pi / 2])
def test_extract_euler_pure_z_rotation_ties(phi):
    # gamma ~ 0 tie zone: the whole z rotation folds into beta, delta = 0
    ang = extract_euler(rz(phi))
    assert ang.gamma == 0.0
    assert ang.delta == 0.0
    assert sign_gap(zyz_unitary(ang), rz(phi)) < 1e-12


def test_extract_euler_gamma_pi_tie():
    u = rz(0.9) @ ry(math.pi) @ rz(0.2)
    ang = extract_euler(u)
    assert abs(ang.gamma - math.pi) < 1e-9
    assert ang.delta == 0.0
    assert np.abs(zyz_unitary(ang) - u).max() < 1e-12


def quaternion_cases():
    """(w, x, y, z, alpha): random unit quaternions with random global
    phases, then ones at gamma = 0 and pi and within GAMMA_TIE_TOL of each
    (inside and just outside the tie band), from w + iz = cos(gamma/2)
    e^{i (beta+delta)/2} and y - ix = sin(gamma/2) e^{i (beta-delta)/2}."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(500):
        q = rng.normal(size=4)
        cases.append((*(q / np.linalg.norm(q)).tolist(), rng.uniform(0.0, 2 * math.pi)))
    for gamma in (0.0, 0.5 * GAMMA_TIE_TOL, 2 * GAMMA_TIE_TOL,
                  math.pi - 2 * GAMMA_TIE_TOL, math.pi - 0.5 * GAMMA_TIE_TOL, math.pi):
        for half_sum, half_diff in ((0.35, 1.45), (-2.9, -0.6), (3.1, 2.2)):
            c, s = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
            cases.append((c * math.cos(half_sum), -s * math.sin(half_diff),
                          s * math.cos(half_diff), c * math.sin(half_sum), 0.0))
    return cases


def test_quaternion_rows_equal_the_scalar_angles():
    """``_zyz_from_quaternions``, which reads an RB circuit's gates and
    inverses in one pass, gives each row the scalar rule's angles, ==:
    on random unit quaternions, scaled ones (the rule needs no norm), the
    tie bands at gamma = 0 and pi and just outside them, and signed zeros."""
    cases = [case[:4] for case in quaternion_cases()]
    cases += [tuple(2.5 * v for v in q) for q in cases[:50]]
    cases += [(1.0, 0.0, -0.0, 0.0), (-0.0, 0.0, 1.0, -0.0), (0.0, -1.0, 0.0, 0.0)]
    rows = _zyz_from_quaternions(np.array(cases)).tolist()
    for q, row in zip(cases, rows, strict=True):
        angles = _zyz_from_quaternion(*q)
        assert tuple(row) == (angles.beta, angles.gamma, angles.delta)


def test_quaternion_angles_match_extract_euler():
    """The closed-form ZYZ angles of a quaternion are the ones extract_euler
    finds for its unitary times any phase: the same gamma, the same tie
    branch, the same beta and delta, so both compose to the same SU(2)
    matrix up to sign.  That is the quaternion's own unitary, up to sign,
    except inside the tie bands, where both drop the off-diagonal or
    diagonal of size <= GAMMA_TIE_TOL / 2."""
    worst_u = worst_angle = 0.0
    for w, x, y, z, alpha in quaternion_cases():
        v = quaternion_unitary(w, x, y, z)
        fast, ref = _zyz_from_quaternion(w, x, y, z), extract_euler(np.exp(1j * alpha) * v)
        worst_u = max(worst_u, sign_gap(zyz_unitary(fast), zyz_unitary(ref)))
        tie = min(fast.gamma, math.pi - fast.gamma) <= GAMMA_TIE_TOL
        assert sign_gap(zyz_unitary(fast), v) < (GAMMA_TIE_TOL if tie else 1e-12)
        assert (fast.gamma <= GAMMA_TIE_TOL) == (ref.gamma <= GAMMA_TIE_TOL)
        assert (fast.gamma >= math.pi - GAMMA_TIE_TOL) == (ref.gamma >= math.pi - GAMMA_TIE_TOL)
        assert (fast.delta == 0.0) == (ref.delta == 0.0)
        worst_angle = max(
            worst_angle, abs(fast.gamma - ref.gamma), angle_gap(fast.beta, ref.beta),
            angle_gap(fast.delta, ref.delta),
        )
        for a in (fast.beta, fast.delta):
            assert 0.0 <= a < 2 * math.pi
        assert 0.0 <= fast.gamma <= math.pi
    assert worst_u < 1e-12
    assert worst_angle < 1e-12


def test_extract_euler_rejects_non_unitary():
    with pytest.raises(ValueError):
        extract_euler(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extract_euler(np.eye(3))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            extract_euler(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="non-finite"):
            extract_euler(np.array([[1.0, 0.0], [0.0, bad]]))


def test_euler_angles_require_finite():
    with pytest.raises(ValueError):
        EulerAngles(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 0.0, -math.inf)
    with pytest.raises(TypeError):  # three angles and no phase
        EulerAngles(0.0, 0.0, 0.0, 1.0)


def test_bloch_state_canonicalization():
    s = BlochState(-0.3, 0.0)
    assert abs(s.theta - 0.3) < 1e-15
    assert abs(s.phi - math.pi) < 1e-15
    s2 = BlochState(math.pi + 0.4, 0.5)
    assert abs(s2.theta - (math.pi - 0.4)) < 1e-12
    assert abs(s2.phi - (0.5 + math.pi)) < 1e-12
    with pytest.raises(ValueError):
        BlochState(math.nan)


@pytest.mark.parametrize("theta, phi", [
    (0.3, -1e-20),  # phi % 2pi rounds up to exactly 2pi
    (-1e-20, 0.3),
    (-0.4, 1.0),
    (math.pi + 0.4, -0.5),
    (math.pi, 0.0),
    (7.0, 20.0),
    (0.0, math.tau),
])
def test_bloch_state_canonicalizing_twice_is_identity(theta, phi):
    s = BlochState(theta, phi)
    assert 0.0 <= s.theta <= math.pi and 0.0 <= s.phi < math.tau
    assert BlochState(s.theta, s.phi) == s


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.0, 0.5], [0.1, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3) / 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.array([[1.0, bad], [bad, 0.0]]))


def test_named_gate_unknown_raises():
    with pytest.raises(ValueError):
        named_gate("cnot")


def test_named_gate_returns_copy():
    u = named_gate("x")
    u[0, 0] = 99.0
    assert named_gate("x")[0, 0] == 0.0
