"""Fidelity objective for noise-aware gate decomposition.

The fidelity of a trial decomposition (beta, gamma, delta) of a target
unitary, for one known pure input state, is the overlap between the target
output state and the noisy output of the trial decomposition.

The noisy gate is the affine Bloch-vector map n -> A n + t and the target a
rotation R, so the score of one pure input is 1/2 (1 + (R n).(A n + t)),
quadratic in n.  Every average therefore depends on the input only through
its moments m1 = E[n] and m2 = E[n n^T]:

    F = 1/2 + 1/2 (R m1).t + 1/2 tr(R^T A m2)

``moment_objective`` evaluates this exactly, with its analytic gradient and
Hessian in the trial angles; every objective in the package is a case of it:

  * point_moments(theta, phi) - a single known state (delta function)
  * cap_moments(theta_max)    - uniform over the polar cap theta < theta_max,
                                p = sin(theta) / (2 pi (1 - cos(theta_max)))

so a cap's average is ``moment_objective(target, *cap_moments(theta_max),
params)``.  theta_max = pi is the uniform sphere, p = sin(theta) / (4 pi),
and state preparation is the point |0>.
"""

from __future__ import annotations

import math

import numpy as np

from .gates import BlochState, EulerAngles, _bloch_vector, _point_moments
from .noise import NoiseParams, _apply_all, _pulse_pair


def point_moments(theta: float, phi: float):
    """(E[n], E[n n^T]) = (n, n n^T) of the one known state (theta, phi),
    any finite angles (canonicalized through ``BlochState``), in floats."""
    s = BlochState(theta, phi)
    return _point_moments(_bloch_vector(s.theta, s.phi))


def cap_moments(theta_max: float):
    """(E[n], E[n n^T]) of the uniform distribution over the polar cap
    theta < theta_max, theta_max in (0, pi], as float lists.

    With c = cos(theta_max), E[z] = (1 + c) / 2, E[z^2] = (1 + c + c^2) / 3
    and, by symmetry about z, E[x^2] = E[y^2] = (1 - E[z^2]) / 2 with zero
    mean in x, y and zero cross moments.
    """
    if not (math.isfinite(theta_max) and 0.0 < theta_max <= math.pi):
        raise ValueError("theta_max must lie in (0, pi]")
    c = math.cos(theta_max)
    zz = (1.0 + c + c * c) / 3.0
    xx = 0.5 * (1.0 - zz)
    return [0.0, 0.0, 0.5 * (1.0 + c)], [[xx, 0.0, 0.0], [0.0, xx, 0.0], [0.0, 0.0, zz]]


def _tolist(m):
    return m.tolist() if isinstance(m, np.ndarray) else m


def _triple(v):
    """v's three entries; TypeError unless v is a sequence (no set or iterator) of length 3."""
    if len(v) != 3:
        raise TypeError("expected a sequence of length 3")
    return v[0], v[1], v[2]


def moment_objective(target: EulerAngles, m1, m2, params: NoiseParams):
    """The fidelity objective for inputs with Bloch-vector moments m1 = E[n]
    and m2 = E[n n^T] (a pure state n: n, n n^T; a mixed state r: r, r r^T),
    any real sequences of shape (3,) and (3, 3) (an ndarray via ``tolist()``),
    each read once by position; ValueError names m1 or m2 for another shape,
    a set or an iterator.

    Returns ``fg(x) -> (F, dF/dx, d2F/dx2)`` for trial angles
    x = (beta, gamma, delta): F = 1/2 + 1/2 (R m1).t + 1/2 tr(R^T A m2), its
    gradient as a 3-tuple and its symmetric Hessian as a 3-tuple of rows, all
    plain floats.  F is not clamped: rounding can put it a few ulp outside
    [0, 1], which ``optimize_gate`` clamps when it reports it.
    R is the target's rotation.  With the trial map A = Rz(beta) K Rz(delta),
    t = Rz(beta) t0 (``noise._pulse_pair``) the quadratic term is <K, W>,
    W = Rz(-beta) (R m2) Rz(-delta), and both derivatives follow from
    Rz(phi)' = G Rz(phi), G the z generator: dW/dbeta = -G W,
    dW/ddelta = -W G, dK/dgamma = D Rx(-pi/2) G Rz(gamma) D Rx(pi/2).
    ``fg.image`` is u = R m1.  The reads go to ``_objective``, which builds
    the set-up; ``optimize_gate`` calls it directly with the tuples it has
    already read and checked, so they are read once.
    """
    try:
        n = _triple(_tolist(m1))
    except TypeError:
        raise ValueError("m1 must be a sequence of shape (3,), not a set or iterator") from None
    try:
        r0, r1, r2 = _triple(_tolist(m2))
        rows = _triple(r0), _triple(r1), _triple(r2)
    except TypeError:
        raise ValueError("m2 must be a sequence of shape (3, 3), not sets or iterators") from None
    return _objective(target, n, rows, params.lambda_a, params.lambda_p)


def _objective(target: EulerAngles, n, rows, la: float, lp: float):
    """``moment_objective`` for m1 = n, a 3-tuple, and m2 = rows, three
    3-tuples, under damping probabilities la and lp, read as given.  The
    set-up builds R's frame once, for n and m2's columns (``_apply_all``),
    and keeps u = R n as ``fg.image``: the same floats as
    ``noise._apply(target's angles, 0, 0, n)``."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    (u0, u1, u2), (c00, c10, c20), (c01, c11, c21), (c02, c12, c22) = _apply_all(
        target.beta, target.gamma, target.delta, 0.0, 0.0,
        (n, (a00, a10, a20), (a01, a11, a21), (a02, a12, a22)),
    )

    def fg(x):
        beta, gamma, delta = x[0], x[1], x[2]
        k00, k02, k11, k20, k22, t0y, t0z = _pulse_pair(gamma, la, lp)
        cb, sb = math.cos(beta), math.sin(beta)
        cd, sd = math.cos(delta), math.sin(delta)
        x00, x01 = c00 * cd - c01 * sd, c00 * sd + c01 * cd
        x10, x11 = c10 * cd - c11 * sd, c10 * sd + c11 * cd
        w00, w01, w02 = cb * x00 + sb * x10, cb * x01 + sb * x11, cb * c02 + sb * c12
        w10, w11, w12 = cb * x10 - sb * x00, cb * x11 - sb * x01, cb * c12 - sb * c02
        w20, w21 = c20 * cd - c21 * sd, c20 * sd + c21 * cd
        # (R m1).t = (Rz(-beta) R m1).t0
        uy = cb * u1 - sb * u0
        f = 0.5 * (
            1.0 + t0y * uy + t0z * u2
            + k00 * w00 + k02 * w02 + k11 * w11 + k20 * w20 + k22 * c22
        )
        g = (
            0.5 * (-t0y * (cb * u0 + sb * u1) + k00 * w10 + k02 * w12 - k11 * w01),
            0.5 * (k00 * w02 - k02 * w00 + k20 * c22 - k22 * w20),
            0.5 * (k11 * w10 - k00 * w01 - k20 * w21),
        )
        h_bb = -0.5 * (t0y * uy + k00 * w00 + k02 * w02 + k11 * w11)
        h_bg = 0.5 * (k00 * w12 - k02 * w10)
        h_bd = -0.5 * (k00 * w11 + k11 * w00)
        h_gg = -0.5 * (k00 * w00 + k02 * w02 + k20 * w20 + k22 * c22)
        h_gd = 0.5 * (k02 * w01 + k22 * w21)
        h_dd = -0.5 * (k00 * w00 + k11 * w11 + k20 * w20)
        return f, g, ((h_bb, h_bg, h_bd), (h_bg, h_gg, h_gd), (h_bd, h_gd, h_dd))

    fg.image = (u0, u1, u2)
    return fg
