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

from .gates import BlochState, EulerAngles, _bloch_vector
from .noise import _NOISELESS, NoiseParams, _apply_all, _damping

# How far moments may stray from a distribution's on the unit ball: m2's
# asymmetry, tr m2 above 1, and the least eigenvalue of m2 - m1 m1^T below 0.
_MOMENT_TOL = 1e-9


def _point_moments(n):
    """The moments (n, n n^T) of the one Bloch vector n, in floats."""
    x, y, z = n
    return n, [[x * x, x * y, x * z], [y * x, y * y, y * z], [z * x, z * y, z * z]]


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


def _cholesky3(a00, a10, a11, a20, a21, a22):
    """The Cholesky factor L = ((l00,), (l10, l11), (l20, l21, l22)) of the
    symmetric 3x3 matrix with lower triangle a, as the tuple
    (l00, l10, l11, l20, l21, l22), or None unless it is positive definite
    (a pivot that is not > 0, NaN included)."""
    if not a00 > 0.0:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    d1 = a11 - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (a21 - l20 * l10) / l11
    d2 = a22 - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    return l00, l10, l11, l20, l21, math.sqrt(d2)


def _read_moments(m1, m2):
    """Read and check the moments m1 = E[n] and m2 = E[n n^T]: the package's
    one reader of them.  Returns (n, rows, rank_one): m1 as a 3-tuple, m2 as
    three 3-tuples, each entry read once by position in one pass (an ndarray
    via ``tolist()``), and whether m2 == m1 m1^T exactly.

    Raises ValueError, naming m1 or m2, unless m1 is a sequence of three
    finite reals and m2 a sequence of three such sequences (a set or an
    iterator is none), and unless they are the moments of some distribution
    on the unit ball: tr m2 <= 1, m2 symmetric and the covariance
    C = m2 - m1 m1^T positive semidefinite, each within 1e-9 (C + 1e-9 I
    must have a Cholesky factorization, ``_cholesky3``; with tr m2 <= 1 this
    bounds |m1| by 1).  A rank-1 input has C == 0 to the bit, so it is
    symmetric and semidefinite as it stands and pays only for the trace
    check: every point is one.  It reads the public entries' moments and
    a knowledge row's caps; points the package builds (RB states, |0>) go
    to the optimizer unread, as (*_point_moments(n), True) or in a batch.
    """
    m1 = m1.tolist() if isinstance(m1, np.ndarray) else m1
    isfinite = math.isfinite
    try:  # len() and indexing raise TypeError on a set, an iterator or a scalar
        m1_ok = (len(m1) == 3 and isfinite(n0 := m1[0]) and isfinite(n1 := m1[1])
                 and isfinite(n2 := m1[2]))
    except TypeError:
        m1_ok = False
    if not m1_ok:
        raise ValueError("m1 must be a sequence of shape (3,) of finite reals, "
                         "not a set or iterator")
    m2 = m2.tolist() if isinstance(m2, np.ndarray) else m2
    try:
        m2_ok = len(m2) == 3 and len(r0 := m2[0]) == len(r1 := m2[1]) == len(r2 := m2[2]) == 3
        if m2_ok:
            rows = (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
                (r0[0], r0[1], r0[2]), (r1[0], r1[1], r1[2]), (r2[0], r2[1], r2[2]))
            m2_ok = (isfinite(a00) and isfinite(a01) and isfinite(a02) and isfinite(a10)
                     and isfinite(a11) and isfinite(a12) and isfinite(a20)
                     and isfinite(a21) and isfinite(a22))
    except TypeError:
        m2_ok = False
    if not m2_ok:
        raise ValueError("m2 must be a sequence of shape (3, 3) of finite reals, "
                         "not sets or iterators")
    if not a00 + a11 + a22 <= 1.0 + _MOMENT_TOL:
        raise ValueError(f"m2 must have trace <= 1, got {a00 + a11 + a22!r}")
    c00, c01, c02 = a00 - n0 * n0, a01 - n0 * n1, a02 - n0 * n2
    c10, c11, c12 = a10 - n1 * n0, a11 - n1 * n1, a12 - n1 * n2
    c20, c21, c22 = a20 - n2 * n0, a21 - n2 * n1, a22 - n2 * n2
    rank_one = c00 == c01 == c02 == c10 == c11 == c12 == c20 == c21 == c22 == 0.0
    if not rank_one:
        if not (abs(a01 - a10) <= _MOMENT_TOL and abs(a02 - a20) <= _MOMENT_TOL
                and abs(a12 - a21) <= _MOMENT_TOL):
            raise ValueError("m2 must be symmetric")
        if _cholesky3(c00 + _MOMENT_TOL, c10, c11 + _MOMENT_TOL,
                      c20, c21, c22 + _MOMENT_TOL) is None:
            raise ValueError("m2 must be at least m1 m1^T: the covariance "
                             "m2 - m1 m1^T is not positive semidefinite")
    return (n0, n1, n2), rows, rank_one


def moment_objective(target: EulerAngles, m1, m2, params: NoiseParams):
    """The fidelity objective for inputs with Bloch-vector moments m1 = E[n]
    and m2 = E[n n^T] (a pure state n: n, n n^T; a mixed state r: r, r r^T),
    real sequences of shape (3,) and (3, 3) read once by
    ``_read_moments``.  Raises its ValueError, naming m1 or m2, unless they
    are finite, tr m2 <= 1, m2 is symmetric and m2 - m1 m1^T is positive
    semidefinite, each within 1e-9 (a set or iterator is no sequence): the
    same rules as ``optimize_gate``.

    Returns ``fg(x) -> (F, dF/dx, d2F/dx2)`` for trial angles
    x = (beta, gamma, delta): F = 1/2 + 1/2 (R m1).t + 1/2 tr(R^T A m2), its
    gradient as a 3-tuple and its symmetric Hessian as a 3-tuple of rows, all
    plain floats.  F is not clamped: rounding can put it a few ulp outside
    [0, 1], which ``optimize_gate`` clamps when it reports it.
    R is the target's rotation.  With the trial map A = Rz(beta) K Rz(delta),
    t = Rz(beta) t0 (``noise._damping``) the quadratic term is <K, W>,
    W = Rz(-beta) (R m2) Rz(-delta), and both derivatives follow from
    Rz(phi)' = G Rz(phi), G the z generator: dW/dbeta = -G W,
    dW/ddelta = -W G, dK/dgamma = D Rx(-pi/2) G Rz(gamma) D Rx(pi/2).
    """
    damping = _damping(params.lambda_a, params.lambda_p)
    return _objective((target.beta, target.gamma, target.delta), _read_moments(m1, m2),
                      damping)[0]


def _objective(target, moments, damping):
    """``moment_objective`` for the target's (beta, gamma, delta) row and
    moments (n, rows, rank_one), read by ``_read_moments`` or built by the
    package, under the damping set ``damping`` of ``noise._damping``, which
    the caller builds once, with what the optimizer needs besides:
    (fg, n, u, rank_one) and u = R n, the floats of ``noise._apply_all``.
    ``fg(x, False)`` returns (F, g, None), the same F and g without building
    the Hessian, for evaluations whose Hessian no search reads.  The
    set-up builds R's frame once, for n and m2's columns (``_apply_all``),
    and ``_fg`` builds ``fg`` from their images."""
    n, ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), rank_one = moments
    u, *columns = _apply_all(*target, (_NOISELESS,),
                             (n, (a00, a10, a20), (a01, a11, a21), (a02, a12, a22)))
    return _fg(u, columns, damping, math.cos, math.sin), n, u, rank_one


def _fg(u, columns, damping, cos, sin):
    """The objective ``fg`` of ``_objective`` from u = R n and the images
    (R m2 e_0, R m2 e_1, R m2 e_2) of m2's columns: fg forms K from the
    damping set, cos(gamma) and sin(gamma), in the floats and order of
    ``noise._apply_all``.  Each expression is elementwise, so with numpy's
    ``cos`` and ``sin`` and arrays for u, the columns and the angles, fg
    evaluates a batch of objectives, one per row, in the same floats as
    the scalar fg of each (``optimize._optimize_rows``)."""
    u0, u1, u2 = u
    (c00, c10, c20), (c01, c11, c21), (c02, c12, c22) = columns
    ee, k11, t0y, t0z = damping  # e^2, e (1 - la), e la, la

    def fg(x, _hessian=True):
        beta, gamma, delta = x[0], x[1], x[2]
        cg, sg = cos(gamma), sin(gamma)
        k00, k02, k20, k22 = ee * cg, ee * sg, -k11 * sg, k11 * cg
        cb, sb = cos(beta), sin(beta)
        cd, sd = cos(delta), sin(delta)
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
        if not _hessian:
            return f, g, None
        h_bb = -0.5 * (t0y * uy + k00 * w00 + k02 * w02 + k11 * w11)
        h_bg = 0.5 * (k00 * w12 - k02 * w10)
        h_bd = -0.5 * (k00 * w11 + k11 * w00)
        h_gg = -0.5 * (k00 * w00 + k02 * w02 + k20 * w20 + k22 * c22)
        h_gd = 0.5 * (k02 * w01 + k22 * w21)
        h_dd = -0.5 * (k00 * w00 + k11 * w11 + k20 * w20)
        return f, g, ((h_bb, h_bg, h_bd), (h_bg, h_gg, h_gd), (h_bd, h_gd, h_dd))

    return fg
