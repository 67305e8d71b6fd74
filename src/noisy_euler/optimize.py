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

For every other input (caps, moments that are not exactly rank-1) and for
the caller's extra starts, the objective returns its analytic
gradient and Hessian with its value, and the ascent is a damped Newton
search on them (``_newton``; Nocedal & Wright, *Numerical Optimization*,
ch. 3: modified Newton with a backtracking line search).  It runs on plain
Python floats: with three variables, numpy's per-call overhead would
outweigh the arithmetic.  Every search runs to one fixed rule, max|g| <=
GRADIENT_TOLERANCE within MAX_ITERATIONS steps: Newton converges
quadratically near the optimum, so the tight tolerance costs few steps.  A
caller may pass extra starts for rugged landscapes (damping probabilities
near 1); the best result by objective value wins, the earliest start on
ties.  The module draws no random numbers: the same inputs give the same
result.

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
from .noise import NoiseParams
from .objectives import _objective, _tolist, _triple

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


def optimize_gate(
    target: EulerAngles,
    m1,
    m2,
    params: NoiseParams,
    starts=(),
    *,
    start_tolerance: float = GRADIENT_TOLERANCE,
) -> OptimizationResult:
    """Find decomposition angles maximizing the fidelity of the target gate
    for inputs with Bloch-vector moments m1 = E[n] and m2 = E[n n^T], any real
    (3,) and (3, 3) sequences (``point_moments``, ``cap_moments``; r, r r^T
    for a Bloch vector r).  m1 and m2 are read once; the objective's set-up
    (``objectives._objective``) takes the tuples read here and builds R's
    frame once.

    The target seed and each (beta, gamma, delta) of ``starts``, an iterable
    read once, are candidates; the best wins, the earliest on ties (the seed
    first), and the seed itself is the fallback.  A start whose max|g| is
    within ``start_tolerance`` (>= 0; inf keeps every start) is kept without
    a search.  Raises ValueError unless start_tolerance >= 0, each start is
    three finite reals, m2 a finite (3, 3) sequence and m1 a finite (3,) one
    with |m1| <= 1 + 1e-9 (a set or iterator is none).

    When m2 == m1 m1^T exactly (a point input, a mixed Bloch vector r as
    randomized benchmarking passes it, a preparation from |0>), a seed that
    is not skipped is replaced by the closed-form optimum
    (``_point_optimum``), the partner nearest the target among equal-F
    optima, which is kept if its max|g| is within GRADIENT_TOLERANCE.
    Every other start that is not skipped runs the Newton search
    (``_newton``) to GRADIENT_TOLERANCE.

    The seeded search is global in practice: on 1,200 problems (lambda
    from 1e-3 to 0.999; points, caps, preparations) 16 extra starts raised
    F by at most 8e-16 for lambda <= 0.9 and 7e-9 at 0.999, yet returned
    another equal-F unitary in 470; on point inputs the closed form reaches
    a dense circle search (``tests/reference.py``).  Only RB passes starts
    (``RbConfig.multistart``), for the saturated drift arm (k = 1e6): F is
    flat to the ulp there, and the drift check looks for the angles the
    tie-break scrambles.
    """
    return _optimize(target, m1, m2, params, starts, start_tolerance)[0]


def _optimize(target: EulerAngles, m1, m2, params: NoiseParams, starts, start_tolerance: float):
    """``optimize_gate``'s result and u = R m1, the target's noiseless image
    of m1 (``fg.image``), which randomized benchmarking takes as its next
    ideal state."""
    if not start_tolerance >= 0.0:
        raise ValueError(f"start_tolerance must be >= 0, got {start_tolerance!r}")
    m1_ok = m2_ok = starts_ok = False  # stay False for an input that is no sequence of reals
    try:
        n0, n1, n2 = n = _triple(_tolist(m1))
        m1_ok = math.hypot(n0, n1, n2) <= 1.0 + 1e-9
        r0, r1, r2 = _triple(_tolist(m2))
        rows = _triple(r0), _triple(r1), _triple(r2)
        m2_ok = all(map(math.isfinite, rows[0] + rows[1] + rows[2]))
        candidates = [(target.beta, target.gamma, target.delta), *starts]
        starts_ok = all(map(_is_angle_triple, candidates[1:]))
    except TypeError:
        pass
    if not m1_ok:
        raise ValueError("m1 must be a finite Bloch vector of shape (3,) with |m1| <= 1")
    if not m2_ok:
        raise ValueError("m2 must be a finite matrix of shape (3, 3)")
    if not starts_ok:
        raise ValueError(f"each start must be three finite angles, got {starts!r}")
    rank_one = rows == ((n0 * n0, n0 * n1, n0 * n2), (n1 * n0, n1 * n1, n1 * n2),
                        (n2 * n0, n2 * n1, n2 * n2))
    la, lp = params.lambda_a, params.lambda_p
    fg = _objective(target, n, rows, la, lp)

    x_seed = candidates[0]
    at_seed = fg(x_seed)
    best = None
    for i, x0 in enumerate(candidates):
        f0, g0, h0 = at_seed if i == 0 else fg(x0)
        tolerance = start_tolerance
        if i == 0 and rank_one and max(abs(g0[0]), abs(g0[1]), abs(g0[2])) > tolerance:
            x0 = _point_optimum(target, n, fg.image, la, lp)
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
    ), fg.image


def _is_angle_triple(x) -> bool:
    return len(x) == 3 and all(map(math.isfinite, x))


def _point_optimum(target: EulerAngles, n, u, la: float, lp: float):
    """The angles (beta, gamma, delta) of the global maximum of F for the
    rank-1 input n (m2 = n n^T, |n| <= 1), in closed form, given u = R n.

    Let v = Rz(delta) n = (v_x, s, n_z), r^2 = |n|^2 - s^2 and
    psi = atan2(n_z, v_x) - gamma.  With e, E = e^2 and ek = e (1 - la) as
    in ``noise._pulse_pair``, the gate sends n to Rz(beta) (E r cos psi, y,
    ek r sin psi + la), y = ek s + e la.  The best beta turns that output's
    xy part onto u's, and sin psi takes the sign of u_z, so with
    mu = |u_xy| and c = cos^2 psi

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
    e = math.sqrt(1.0 - la) * math.sqrt(1.0 - lp)
    ee, ek, el = e * e, e * (1.0 - la), e * la
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
    Cholesky factorization L L^T of mu I - H succeeds (Nocedal & Wright,
    Alg. 3.3).  mu I - H is then positive definite, so g.p > 0.
    """
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = h
    least = -max(h00, h11, h22)
    mu = 0.0 if least > 0.0 else SHIFT_MIN - least
    while True:
        d0 = mu - h00
        if d0 > 0.0:
            l00 = math.sqrt(d0)
            l10, l20 = -h01 / l00, -h02 / l00
            d1 = mu - h11 - l10 * l10
            if d1 > 0.0:
                l11 = math.sqrt(d1)
                l21 = (-h12 - l20 * l10) / l11
                d2 = mu - h22 - l20 * l20 - l21 * l21
                if d2 > 0.0:
                    l22 = math.sqrt(d2)
                    break
        mu = max(2.0 * mu, SHIFT_MIN)
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
