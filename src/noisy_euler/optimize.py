"""Newton search for noise-aware decomposition angles.

One entry point, ``optimize_gate``, takes the input through its Bloch-vector
moments m1 = E[n] and m2 = E[n n^T]: a point, a cap or the uniform sphere
via ``point_moments`` or ``cap_moments``, a Bloch vector r (as randomized
benchmarking tracks it) as (r, r r^T), and state preparation as the point
|0>, where delta stays at its seed because the objective does not depend on
it.  It maximizes the exact moment objective
(``objectives.moment_objective``) over the unwrapped (beta, gamma, delta) in
R^3, seeded at the target's own angles so the result can never score below
the default decomposition.  The objective returns its analytic gradient and
Hessian with its value, and the ascent is a damped Newton search on them
(``_newton``; Nocedal & Wright, *Numerical Optimization*, ch. 3: modified
Newton with a backtracking line search).  It runs on plain Python floats:
with three variables, numpy's per-call overhead would outweigh the
arithmetic.  Every search runs to one fixed rule, max|g| <=
GRADIENT_TOLERANCE within MAX_ITERATIONS steps: Newton converges
quadratically near the optimum, so the tight tolerance costs few steps.  An
optional multistart mode adds uniform-random seeds for rugged landscapes
(damping probabilities near 1), keeping the best result by objective value
with lowest-seed-index tie-breaking.

For a Bloch-vector input (rank-1 moments, m2 = m1 m1^T exactly) off the z
axis, the search from the target starts at the best point of the target's
stabilizer circle instead (``_circle_start``): every V_phi = Rot(R m1, phi) U
sends m1 where U does, so F is nearly flat along that circle, and the
optimum often lies far along it from the target or on the other Euler
branch, where Newton's first steps would overshoot and backtrack.  An input
along z keeps the plain start: its circle only shifts delta, which F does
not see.

Output angles are wrapped into [0, 2*pi) per angle.  They are NOT reduced to
the canonical gamma in [0, pi] form: that reduction maps to the same unitary
through a different pulse trajectory, which generally has a different noisy
output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gates import EulerAngles, _hamilton, _zyz_angles
from .noise import NoiseParams, _apply
from .objectives import _tolist, moment_objective

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

# Points of the stabilizer circle scored per Euler branch (``_circle_start``).
# On the 956 searches of two Fig. 3 `rb` runs (rome q3, seeds 0 and 1), 1, 2,
# 3, 4, 6 and 8 points took a mean of 17.1, 13.9, 10.6, 9.0, 7.3 and 6.4
# Newton steps and 25.4, 22.9, 20.9, 20.8, 22.4 and 25.2 evaluations per
# search, against 25.0 and 35.7 from the target alone; 3 and 4 tie in time.
CIRCLE_POINTS = 3


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization.

    objective_value >= objective_at_target_angles always holds: the search is
    seeded at the target angles and falls back to them if no candidate beats
    the seed.  ``iterations`` counts the winning candidate's Newton steps,
    taken after the stabilizer-circle start where there is one; the circle's
    own evaluations are not counted.
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
    multistart: int = 0,
    seed=0,
    *,
    start_tolerance: float = GRADIENT_TOLERANCE,
) -> OptimizationResult:
    """Find decomposition angles maximizing the fidelity of the target gate
    for inputs with Bloch-vector moments m1 = E[n] and m2 = E[n n^T], any real
    (3,) and (3, 3) sequences (``point_moments``, ``cap_moments``; r, r r^T
    for a Bloch vector r); ``moment_objective``'s set-up builds R's frame once.

    The Newton search (``_newton``) runs from the target seed and from each
    of ``multistart`` uniform-random starts, drawn from
    ``np.random.default_rng(seed)``, read only when multistart > 0: seed is
    an int, a sequence of ints or a Generator, which is drawn from in place
    (exactly 3 * multistart uniforms a call, so one Generator can feed a
    sequence of calls); the best candidate wins, lowest start index
    on ties, and the seed itself is the fallback.  A start whose max|g| is
    within ``start_tolerance`` is kept without a search; every search that
    starts runs to GRADIENT_TOLERANCE.  Raises ValueError unless multistart
    is an int >= 0, m1 has shape (3,), is finite and has |m1| <= 1 + 1e-9,
    and m2 is finite with shape (3, 3).

    When m2 == m1 m1^T exactly (a point input or a mixed Bloch vector r, as
    randomized benchmarking passes them) and m1 has a nonzero x or y
    component, a seed that is not skipped is first replaced by the best of
    2 CIRCLE_POINTS points on the target's stabilizer circle, on both Euler
    branches, the target winning ties (``_circle_start``).  That point is
    kept if its max|g| is within GRADIENT_TOLERANCE and searched from
    otherwise.  Distinct equal-F optima exist, so the angles found may
    differ from those of a search from the target by up to pi while F agrees
    to about 1e-13.

    The seeded search is global in practice: on 1,200 problems (lambda
    from 1e-3 to 0.999; points, caps, preparations) 16 extra starts raised
    F by at most 8e-16 for lambda <= 0.9 and 7e-9 at 0.999, yet returned
    another equal-F unitary in 470; on point inputs it reaches a dense
    circle search (``tests/reference.py``).  Only RB passes multistart, for
    the saturated drift arm (k = 1e6): F is flat to the ulp there, and the
    drift check looks for the angles the tie-break scrambles.
    """
    if not isinstance(multistart, int) or isinstance(multistart, bool) or multistart < 0:
        raise ValueError(f"multistart must be an int >= 0, got {multistart!r}")
    n, rows = _tolist(m1), _tolist(m2)
    m1_ok = m2_ok = False  # stay False for an input that is no sequence of reals
    try:
        m1_ok = len(n) == 3 and math.hypot(*n) <= 1.0 + 1e-9
        flat = [v for row in rows for v in row]
        m2_ok = list(map(len, rows)) == [3, 3, 3] and all(map(math.isfinite, flat))
    except TypeError:
        pass
    if not m1_ok:
        raise ValueError("m1 must be a finite Bloch vector of shape (3,) with |m1| <= 1")
    if not m2_ok:
        raise ValueError("m2 must be a finite matrix of shape (3, 3)")
    circle = (n[0] != 0.0 or n[1] != 0.0) and flat == [a * b for a in n for b in n]
    fg = moment_objective(target, n, rows, params)

    x_seed = (target.beta, target.gamma, target.delta)
    at_seed = fg(x_seed)
    starts = [x_seed]
    if multistart > 0:
        rng = np.random.default_rng(seed)
        starts += [tuple(x) for x in rng.uniform(0.0, math.tau, (multistart, 3)).tolist()]
    best = None
    for i, x0 in enumerate(starts):
        f0, g0, h0 = at_seed if i == 0 else fg(x0)
        tolerance = start_tolerance
        if i == 0 and circle and max(abs(g0[0]), abs(g0[1]), abs(g0[2])) > tolerance:
            x0, (f0, g0, h0) = _circle_start(fg, x0, at_seed, _apply(*x0, 0.0, 0.0, n))
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
        angles_opt=EulerAngles(x[0] % math.tau, x[1] % math.tau, x[2] % math.tau),
        objective_value=min(max(f, 0.0), 1.0),
        objective_at_target_angles=min(max(f_seed, 0.0), 1.0),
        iterations=iterations,
        converged=converged,
    )


def _circle_start(fg, x, at_x, u):
    """The best point of the target's stabilizer circle, as (x, fg(x)),
    given the target angles x, fg there and u = R m1 != 0.

    V_phi = Rot(u, phi) U fixes m1's image, so the whole circle is optimal
    at zero noise.  It is scored at phi = 2 pi k / CIRCLE_POINTS on both
    Euler branches, (beta, gamma, delta) and (beta + pi, -gamma, delta + pi),
    one unitary through two pulse trajectories; the first best F wins, so
    the target (k = 0, first branch) wins ties.  V_phi is the quaternion
    product (cos phi/2, sin phi/2 u/|u|) q, q the target's quaternion.
    """
    beta, gamma, delta = x
    norm = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    ux, uy, uz = u[0] / norm, u[1] / norm, u[2] / norm
    c, s = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    plus, minus = 0.5 * (beta + delta), 0.5 * (beta - delta)
    q = (c * math.cos(plus), -s * math.sin(minus), s * math.cos(minus), c * math.sin(plus))
    points = [(beta + math.pi, -gamma, delta + math.pi)]
    for k in range(1, CIRCLE_POINTS):
        half = math.pi * k / CIRCLE_POINTS
        sh = math.sin(half)
        b, g, d = _zyz_angles(*_hamilton((math.cos(half), sh * ux, sh * uy, sh * uz), q))
        points += [(b, g, d), (b + math.pi, -g, d + math.pi)]
    best = (x, at_x)
    for p in points:
        at = fg(p)
        if at[0] > best[1][0]:
            best = (p, at)
    return best


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
