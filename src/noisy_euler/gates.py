"""ZYZ Euler decompositions of single-qubit unitaries, the angle and state
types, and the named gates.

Conventions used throughout the package:

    R_z(phi)   = diag(e^{-i phi/2}, e^{i phi/2})
    R_x(theta) = exp(-i theta X / 2)
    R_y(theta) = exp(-i theta Y / 2)

so a Bloch vector rotates by the right-hand rule about the named axis.  Every
unitary U in U(2) factors as

    U = e^{i alpha} R_z(beta) R_y(gamma) R_z(delta)

and, because R_x(-pi/2) R_z(gamma) R_x(pi/2) = R_y(gamma) exactly in SU(2),
equivalently as the native five-step form

    U = e^{i alpha} R_z(beta) R_x(-pi/2) R_z(gamma) R_x(pi/2) R_z(delta)

where the two R_x(+-pi/2) factors are the only physical pulses and the three
R_z factors are virtual frame changes.

Matrices are plain complex ndarrays of shape (2, 2); pure states on the Bloch
sphere are ``BlochState(theta, phi)`` with ``|psi> = cos(theta/2)|0> +
e^{i phi} sin(theta/2)|1>``.  The phase alpha reaches no density matrix,
so the package carries only (beta, gamma, delta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Tie-break width for gamma ~ 0 or ~ pi in extract_euler, where the ZYZ
# factorization degenerates and only beta + delta (or beta - delta) is defined.
GAMMA_TIE_TOL = 1e-9

_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class EulerAngles:
    """ZYZ Euler angles (beta, gamma, delta) of R_z(beta) R_y(gamma) R_z(delta).

    The product is taken at face value, so any real values are meaningful;
    shifting an angle by 2*pi only flips the SU(2) sign, which no density
    matrix sees.  ``extract_euler`` returns the canonical representative with
    beta, delta in [0, 2*pi) and gamma in [0, pi].
    """

    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        if math.isfinite(self.beta) and math.isfinite(self.gamma) and math.isfinite(self.delta):
            return
        name = next(n for n in ("beta", "gamma", "delta") if not math.isfinite(getattr(self, n)))
        raise ValueError(f"EulerAngles.{name} must be finite")


@dataclass(frozen=True)
class BlochState:
    """Point on the Bloch sphere, canonicalized to theta in [0, pi],
    phi in [0, 2*pi)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("BlochState angles must be finite")
        theta = self.theta % math.tau
        phi = self.phi
        if theta > math.pi:
            theta = math.tau - theta
            phi += math.pi
        phi %= math.tau  # a tiny negative phi rounds up to exactly 2*pi
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", 0.0 if phi == math.tau else phi)


def _bloch_vector(theta: float, phi: float) -> tuple[float, float, float]:
    """n = (sin theta cos phi, sin theta sin phi, cos theta), in floats."""
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(u @ u.conj().T - np.eye(2)).max() > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def extract_euler(u: np.ndarray) -> EulerAngles:
    """Canonical ZYZ Euler angles of a 2x2 unitary U.

    U / det(U)^{1/2} is in SU(2), and R_z(beta) R_y(gamma) R_z(delta) at the
    returned angles equals it up to sign to ~1e-10, so it reproduces U up to
    a global phase.
    beta, delta are in [0, 2*pi) and gamma in [0, pi].  At the degenerate
    points gamma ~ 0 or ~ pi (within ``GAMMA_TIE_TOL``) only the sum
    beta + delta (resp. difference beta - delta) is physical; the tie is
    broken by delta = 0 with the whole z rotation folded into beta.
    """
    u = _check_unitary(u)
    # det(e^{i alpha} V) = e^{2 i alpha} for V in SU(2)
    v = np.exp(-0.5j * cmath.phase(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])) * u
    # V = [[w - iz, -y - ix], [y - ix, w + iz]]
    return _zyz_from_quaternion(v[1, 1].real, -v[1, 0].imag, v[1, 0].real, v[1, 1].imag)


def _zyz_from_quaternion(w: float, x: float, y: float, z: float) -> EulerAngles:
    """Canonical ZYZ Euler angles of V = w I - i (x X + y Y + z Z) =
    [[w - iz, -y - ix], [y - ix, w + iz]], the SU(2) image of the quaternion
    (w, x, y, z); the rule behind ``extract_euler``.

    V = R_z(beta) R_y(gamma) R_z(delta) gives w + iz = cos(gamma/2)
    e^{i (beta+delta)/2} and y - ix = sin(gamma/2) e^{i (beta-delta)/2}.
    Every angle is an atan2 of a ratio, so the quaternion need not be
    normalized.  gamma lies in [0, pi], with ties at ``GAMMA_TIE_TOL``
    broken by delta = 0; beta and delta, from (-2 pi, 2 pi], are wrapped
    into [0, 2*pi), and each wrap may flip the sign, so the angles compose
    to +-V.
    """
    gamma = 2.0 * math.atan2(math.hypot(y, x), math.hypot(w, z))
    if gamma <= GAMMA_TIE_TOL:
        beta, delta = 2.0 * math.atan2(z, w), 0.0
    elif gamma >= math.pi - GAMMA_TIE_TOL:
        beta, delta = 2.0 * math.atan2(-x, y), 0.0
    else:
        half_sum = math.atan2(z, w)
        half_diff = math.atan2(-x, y)
        beta, delta = half_sum + half_diff, half_sum - half_diff
    return EulerAngles(beta % math.tau, gamma, delta % math.tau)


def _zyz_from_quaternions(q: np.ndarray) -> np.ndarray:
    """``_zyz_from_quaternion`` of each row (w, x, y, z) of the (k, 4) array
    q, as a (k, 3) array of rows (beta, gamma, delta), each == the scalar
    rule's angles: the same floats in its order, its atan2 and hypot
    through math (``_map``) and its tie branches picked per row."""
    w, x, y, z = q.T
    k = len(q)
    hyx, hwz = _map(math.hypot, np.concatenate((y, w)), np.concatenate((x, z))).reshape(2, k)
    gamma, half_sum, half_diff = _map(
        math.atan2, np.concatenate((hyx, z, -x)), np.concatenate((hwz, w, y))).reshape(3, k)
    gamma = 2.0 * gamma
    low, high = gamma <= GAMMA_TIE_TOL, gamma >= math.pi - GAMMA_TIE_TOL
    beta = np.where(low, 2.0 * half_sum, np.where(high, 2.0 * half_diff, half_sum + half_diff))
    delta = np.where(low | high, 0.0, half_sum - half_diff)
    return np.column_stack((beta % math.tau, gamma, delta % math.tau))


def _map(function, *arrays) -> np.ndarray:
    """The math ``function`` applied elementwise to equally long arrays.
    numpy's own atan2 and hypot differ from libm's in the last bit on some
    inputs, so code that must give the scalar path's floats takes them
    from here; numpy's +, -, *, /, sqrt, cos and sin agree with it."""
    return np.fromiter(map(function, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def _hamilton(p, q) -> tuple[float, float, float, float]:
    """Quaternion product p q, the SU(2) product V(p) V(q)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


_SQRT_HALF = math.sqrt(0.5)

NAMED_GATES: dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": _SQRT_HALF * np.array([[1, 1], [1, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]]),
    "t": np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]]),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
}


def named_gate(name: str) -> np.ndarray:
    """Look up a common gate by name (i, x, y, z, h, s, t, sx)."""
    try:
        return NAMED_GATES[name.lower()].copy()
    except KeyError:
        raise ValueError(
            f"unknown gate {name!r}; choose from {sorted(NAMED_GATES)}"
        ) from None
