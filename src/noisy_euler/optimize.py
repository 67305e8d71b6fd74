"""Noise-aware decomposition angles: a closed form for a known input state,
a Newton search for every other input.

One entry point, ``optimize_gate``, takes the input through its Bloch-vector
moments m1 = E[n] and m2 = E[n n^T]: a point, a cap or the uniform sphere
via ``point_moments`` or ``cap_moments``, a Bloch vector r (as randomized
benchmarking tracks it) as (r, r r^T), and state preparation as the point
|0>.  It maximizes the exact moment objective
(``objectives.moment_objective``) over the unwrapped (beta, gamma, delta) in
R^3, seeded at the target's own angles so the result can never score below
the default decomposition.

For a rank-1 input (m2 = m1 m1^T exactly: a point, a mixed Bloch vector, a
preparation) the maximum has a closed form (``_point_optimum``).  The best
beta and, for each delta, the best gamma follow from the output's geometry,
and the best delta is one of two explicit candidates, so no iteration is
needed.  Up to four angle triples reach that maximum, one per choice of two
signs; the one whose unitary is nearest the target's wins, so the result
depends only on the target's unitary, the input and the assumed model, not
on a search path.

For every other input (caps, moments that are not exactly rank-1) the
objective returns its analytic gradient and Hessian with its value, and the
ascent is a damped Newton search on them (``_newton``; Nocedal & Wright,
*Numerical Optimization*, ch. 3: modified Newton with a backtracking line
search).  It runs on plain Python floats: with three variables, numpy's
per-call overhead would outweigh the arithmetic.  Every search runs to one
fixed rule, max|g| <= GRADIENT_TOLERANCE within MAX_ITERATIONS steps:
Newton converges quadratically near the optimum, so the tight tolerance
costs few steps.  The module draws no random numbers: the same inputs give
the same result.

Output angles are wrapped into [0, 2*pi) per angle.  They are NOT reduced to
the canonical gamma in [0, pi] form: that reduction maps to the same unitary
through a different pulse trajectory, which generally has a different noisy
output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gates import EulerAngles
from .noise import NoiseParams, _damping
from .objectives import _cholesky3, _objective, _read_moments

# The Newton search's constants: the max|g| at which it has converged and its
# step budget; the Armijo sufficient-increase factor; the least shift mu of -H
# tried when -H is not positive definite, small so that near a saddle mu lands
# just above the escape direction's curvature instead of stalling the escape;
# the step-halving budget of one line search; and the allowance for F's
# rounding in the Armijo test (a few ulp of F ~ 1), without which a final
# step that meets the tolerance can be rejected by one ulp.
GRADIENT_TOLERANCE = 1e-9
MAX_ITERATIONS = 500
ARMIJO = 1e-4
SHIFT_MIN = 1e-8
MAX_HALVINGS = 40
ROUNDING = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization.

    objective_value >= objective_at_target_angles always holds: the search is
    seeded at the target angles and falls back to them if no candidate beats
    the seed.  ``iterations`` counts the winning candidate's Newton steps.  A
    start kept without a search, the closed-form point of a rank-1 input
    among them, reports iterations = 0 and converged = True.
    """

    angles_opt: EulerAngles
    objective_value: float
    objective_at_target_angles: float
    iterations: int
    converged: bool

    @property
    def improvement(self) -> float:
        return self.objective_value - self.objective_at_target_angles


def optimize_gate(target: EulerAngles, m1, m2, params: NoiseParams) -> OptimizationResult:
    """Find decomposition angles maximizing the fidelity of the target gate
    for inputs with Bloch-vector moments m1 = E[n] and m2 = E[n n^T], any real
    (3,) and (3, 3) sequences (``point_moments``, ``cap_moments``; r, r r^T
    for a Bloch vector r), read once by ``objectives._read_moments``.
    Raises its ValueError, naming m1 or m2, unless they are finite,
    tr m2 <= 1, m2 is symmetric and m2 - m1 m1^T is positive semidefinite,
    each within 1e-9 (a set or iterator is no sequence): the same rules as
    ``moment_objective``.

    When m2 == m1 m1^T exactly (a point input, a mixed Bloch vector r as
    randomized benchmarking passes it, a preparation from |0>), the result
    is the closed-form optimum (``_point_optimum``), the partner nearest the
    target among equal-F optima; for every other input it is the Newton
    search (``_newton``) from the target's angles.  Either ends within
    GRADIENT_TOLERANCE, and the target's angles are the fallback, so the
    result never scores below them.

    The seeded search is global in practice: on 1,200 problems (lambda
    from 1e-3 to 0.999; points, caps, preparations) 16 extra starts raised
    F by at most 8e-16 for lambda <= 0.9 and 7e-9 at 0.999, yet returned
    another equal-F unitary in 470; on point inputs the closed form reaches
    a dense circle search (``tests/reference.py``).
    """
    return _optimize(target, _read_moments(m1, m2), params, (), GRADIENT_TOLERANCE)[0]


def _optimize(target: EulerAngles, moments, params: NoiseParams, starts, start_tolerance: float):
    """``optimize_gate``'s result for moments already read and checked, the
    (n, rows, rank_one) of ``objectives._read_moments``, with extra
    candidates, and u = R m1, the target's noiseless image of m1, which
    randomized benchmarking takes as its next ideal state.  A caller that
    optimizes many targets for the same moments (a sweep cell) reads them
    once and passes them to every call.

    The target seed and each (beta, gamma, delta) of ``starts`` are
    candidates; the best wins, the earliest on ties (the seed first), and
    the seed itself is the fallback.  A candidate whose max|g| is within
    ``start_tolerance`` is kept without a search; any other seed of a rank-1
    input is replaced by the closed form and every other start runs the
    Newton search.  Only RB passes starts (``RbConfig.multistart``), for the
    saturated drift arm (k = 1e6): F is flat to the ulp there, and the drift
    check looks for the angles the tie-break scrambles.
    """
    la, lp = params.lambda_a, params.lambda_p
    fg, n, u, rank_one = _objective(target, moments, la, lp)
    x_seed = (target.beta, target.gamma, target.delta)
    at_seed = fg(x_seed)
    best = None
    for i, x0 in enumerate((x_seed, *starts)):
        f0, g0, h0 = at_seed if i == 0 else fg(x0)
        tolerance = start_tolerance
        if i == 0 and rank_one and max(abs(g0[0]), abs(g0[1]), abs(g0[2])) > tolerance:
            x0 = _point_optimum(target, n, u, la, lp)
            f0, g0, h0 = fg(x0)
            tolerance = GRADIENT_TOLERANCE
        if max(abs(g0[0]), abs(g0[1]), abs(g0[2])) <= tolerance:
            cand = (x0, f0, 0, True)
        else:
            cand = _newton(fg, x0, f0, g0, h0)
        if best is None or cand[1] > best[1]:
            best = cand
    f_seed = at_seed[0]
    if best[1] < f_seed:
        best = (x_seed, f_seed, 0, True)
    x, f, iterations, converged = best
    return OptimizationResult(
        EulerAngles(x[0] % math.tau, x[1] % math.tau, x[2] % math.tau),
        min(max(f, 0.0), 1.0), min(max(f_seed, 0.0), 1.0), iterations, converged,
    ), u


def _point_optimum(target: EulerAngles, n, u, la: float, lp: float):
    """The angles (beta, gamma, delta) of the global maximum of F for the
    rank-1 input n (m2 = n n^T, |n| <= 1), in closed form, given u = R n.

    Let v = Rz(delta) n = (v_x, s, n_z), r^2 = |n|^2 - s^2 and
    psi = atan2(n_z, v_x) - gamma.  With E = e^2 and ek = e (1 - la) from
    ``noise._damping``, the gate sends n to
    Rz(beta) (E r cos psi, y, ek r sin psi + la), y = ek s + e la.  The
    best beta turns that output's xy part onto u's, and sin psi takes the
    sign of u_z, so with mu = |u_xy| and c = cos^2 psi

        2F - 1 = u_z la + |u_z| ek r sqrt(1 - c) + mu sqrt(E^2 r^2 c + y^2),

    concave in c, with its maximum at
    c* = (mu^2 E^4 r^2 - u_z^2 ek^2 y^2) / (E^2 r^2 (mu^2 E^2 + u_z^2 ek^2))
    clamped to [0, 1].  What is left depends on s alone, over [-rho, rho]
    with rho = |n_xy|.  r is even in s, and at every c the value grows with
    y^2, which is larger at s than at -s for s >= 0, so the maximum has
    s >= 0.  On [0, rho], where c* > 0, the value grows with E^2 r^2 + y^2,
    a quadratic in s that does not decrease there: its vertex la / (la - lp)
    is a minimum at s <= 0 when la < lp and lies at s >= 1 >= rho when
    la > lp.  Where c* = 0 the value is |u_z| ek r + mu y, concave and
    stationary only at s = mu (|u| = |n|).  The value is differentiable
    for r > 0, so the maximum is at s = rho or s = mu < rho; rho wins ties.
    (r^2, y, c*) is worked out inline at s = rho and, when mu < rho, at
    s = mu, and the cut with the larger value is kept.

    The signs of v_x and cos psi give up to four angle triples of equal F,
    distinct unitaries through distinct pulse trajectories.  The one nearest
    the target wins, by the largest |<q_target, q>| = |tr(U_target^dag U)| / 2,
    the first of (+, +), (+, -), (-, +), (-, -) on ties, so the result
    depends only on the target's unitary, the input and the model.  An input
    along z keeps delta = 0.0: Rz(delta) only turns it about its own axis.
    """
    nx, ny, nz = n
    ux, uy, uz = u
    ee, ek, el = _damping(la, lp)  # e^2, e (1 - la), e la
    ee2 = ee * ee
    rho, mu2 = math.hypot(nx, ny), ux * ux + uy * uy
    mu = math.sqrt(mu2)
    p, q = mu2 * ee2 * ee2, uz * uz * ek * ek  # mu^2 E^4, u_z^2 ek^2
    den0 = mu2 * ee2 + q  # mu^2 E^2 + u_z^2 ek^2
    s = rho
    r2 = nz * nz + (rho - s) * (rho + s)
    y = ek * s + el
    den = ee2 * r2 * den0
    c = min(max((p * r2 - q * y * y) / den, 0.0), 1.0) if den > 0.0 else 0.0
    if mu < rho:
        r2_mu = nz * nz + (rho - mu) * (rho + mu)
        y_mu = ek * mu + el
        den = ee2 * r2_mu * den0
        c_mu = min(max((p * r2_mu - q * y_mu * y_mu) / den, 0.0), 1.0) if den > 0.0 else 0.0
        az = abs(uz) * ek
        if (az * math.sqrt(r2_mu * (1.0 - c_mu)) + mu * math.sqrt(ee2 * r2_mu * c_mu + y_mu * y_mu)
                > az * math.sqrt(r2 * (1.0 - c)) + mu * math.sqrt(ee2 * r2 * c + y * y)):
            s, r2, y, c = mu, r2_mu, y_mu, c_mu
    r, w = math.sqrt(r2), math.sqrt((rho - s) * (rho + s))
    sin_psi, cos_psi = math.sqrt(1.0 - c), math.sqrt(c)
    if uz < 0.0:
        sin_psi = -sin_psi
    phase = math.atan2(uy, ux)
    tc, ts = math.cos(0.5 * target.gamma), math.sin(0.5 * target.gamma)
    t_plus, t_minus = target.beta + target.delta, target.beta - target.delta
    best = None
    for vx in (w, -w) if w > 0.0 else (w,):
        delta = math.atan2(s, vx) - math.atan2(ny, nx) if rho > 0.0 else 0.0
        phi = math.atan2(nz, vx)
        for cp in (cos_psi, -cos_psi) if cos_psi > 0.0 else (cos_psi,):
            beta = phase - math.atan2(y, ee * r * cp)
            gamma = phi - math.atan2(sin_psi, cp)
            overlap = abs(
                tc * math.cos(0.5 * gamma) * math.cos(0.5 * (t_plus - beta - delta))
                + ts * math.sin(0.5 * gamma) * math.cos(0.5 * (t_minus - beta + delta))
            )
            if best is None or overlap > best[0]:
                best = (overlap, (beta, gamma, delta))
    return best[1]


def _newton(fg, x, f, g, h):
    """Damped Newton ascent of ``fg`` from x, given F, its gradient g and
    its Hessian h at x; returns (x, F, iterations, converged).

    Each step solves (mu I - H) p = g (``_ascent_step``) and backtracks from
    t = 1 until F(x + t p) >= F(x) + ARMIJO t g.p - ROUNDING.  F is compared
    unclamped.  The search converges once max|g| <= GRADIENT_TOLERANCE.  It
    stops unconverged after MAX_ITERATIONS steps, when no step length passes
    the Armijo test, and when an accepted step does not strictly increase F:
    F can no longer resolve the remaining gain, and more steps would spin.
    """
    for it in range(1, MAX_ITERATIONS + 1):
        p0, p1, p2 = _ascent_step(g, h)
        slope = g[0] * p0 + g[1] * p1 + g[2] * p2
        t = 1.0
        for _ in range(MAX_HALVINGS):
            xn = (x[0] + t * p0, x[1] + t * p1, x[2] + t * p2)
            fn, gn, hn = fg(xn)
            if fn >= f + ARMIJO * t * slope - ROUNDING:
                break
            t *= 0.5
        else:
            return x, f, it - 1, False
        increased = fn > f
        x, f, g, h = xn, fn, gn, hn
        if max(abs(g[0]), abs(g[1]), abs(g[2])) <= GRADIENT_TOLERANCE:
            return x, f, it, True
        if not increased:
            return x, f, it, False
    return x, f, MAX_ITERATIONS, False


def _ascent_step(g, h):
    """The modified Newton step p solving (mu I - H) p = g, scaled to
    |p| <= pi.

    mu starts at 0 when -H has a positive diagonal, else at SHIFT_MIN minus
    its least diagonal entry, and doubles (at least to SHIFT_MIN) until the
    Cholesky factorization L L^T of mu I - H (``_cholesky3``) succeeds
    (Nocedal & Wright, Alg. 3.3).  mu I - H is then positive definite, so
    g.p > 0.
    """
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = h
    least = -max(h00, h11, h22)
    mu = 0.0 if least > 0.0 else SHIFT_MIN - least
    while (factor := _cholesky3(mu - h00, -h01, mu - h11, -h02, -h12, mu - h22)) is None:
        mu = max(2.0 * mu, SHIFT_MIN)
    l00, l10, l11, l20, l21, l22 = factor
    y0 = g[0] / l00
    y1 = (g[1] - l10 * y0) / l11
    y2 = (g[2] - l20 * y0 - l21 * y1) / l22
    p2 = y2 / l22
    p1 = (y1 - l21 * p2) / l11
    p0 = (y0 - l10 * p1 - l20 * p2) / l00
    norm = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    if norm > math.pi:
        scale = math.pi / norm
        return p0 * scale, p1 * scale, p2 * scale
    return p0, p1, p2
