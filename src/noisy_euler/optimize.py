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

Randomized benchmarking's ideal-input steps are many point inputs known at
once, so ``_optimize_points`` takes their Bloch vectors and solves them as
one batch in numpy: the scalar code's own expressions evaluated
elementwise (``_point_optima`` for the closed form), each row with the
floats of its own ``_optimize`` call.  Only a row that needs a search (a
closed-form point that is not stationary, or extra starts) goes back to
the scalar code.

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

from .gates import EulerAngles, _map
from .noise import _NOISELESS, NoiseParams, _apply_all, _damping
from .objectives import _cholesky3, _fg, _objective, _read_moments

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
    result never scores below them.  This is the one place the floats of
    ``_optimize`` become an ``OptimizationResult``; its ValueError, raised
    when the optimized angles are not finite, passes through.

    The seeded search is global in practice: on 1,200 problems (lambda
    from 1e-3 to 0.999; points, caps, preparations) 16 extra starts raised
    F by at most 8e-16 for lambda <= 0.9 and 7e-9 at 0.999, yet returned
    another equal-F unitary in 470; on point inputs the closed form reaches
    a dense circle search (``tests/reference.py``).
    """
    angles, f, f_seed, iterations, converged = _optimize(
        target, _read_moments(m1, m2), _damping(params.lambda_a, params.lambda_p), (),
        GRADIENT_TOLERANCE)
    return OptimizationResult(EulerAngles(*angles), f, f_seed, iterations, converged)


def _optimize(target: EulerAngles, moments, damping, starts, start_tolerance: float):
    """``optimize_gate``'s result as plain floats, ((beta, gamma, delta), F,
    F_seed, iterations, converged), for moments already read and checked,
    the (n, rows, rank_one) of ``objectives._read_moments``, with extra
    candidates.  A caller that optimizes many targets for the same moments
    (a sweep cell) reads them once and passes them to every call, and so
    with ``damping``, the assumed model's set (``noise._damping``) that
    serves the objective and the closed form.  Only ``_newton`` reads the
    Hessian: a rank-1 input's seed and closed-form point are evaluated
    without it, and a closed-form point that is not stationary gets it
    before its search.  Raises ValueError unless the wrapped angles are
    finite.

    The target seed and each (beta, gamma, delta) of ``starts`` are
    candidates; the best wins, the earliest on ties (the seed first), and
    the seed itself is the fallback.  A candidate whose max|g| is within
    ``start_tolerance`` is kept without a search; any other seed of a rank-1
    input is replaced by the closed form and every other start runs the
    Newton search.  Only RB passes starts (``RbConfig.multistart``), for the
    saturated drift arm (k = 1e6): F is flat to the ulp there, and the drift
    check looks for the angles the tie-break scrambles.
    """
    fg, n, u, rank_one = _objective(target, moments, damping)
    x_seed = (target.beta, target.gamma, target.delta)
    at_seed = f_seed, g, _ = fg(x_seed, not rank_one)
    if rank_one and max(abs(g[0]), abs(g[1]), abs(g[2])) > start_tolerance:
        x0 = _point_optimum(target, n, u, damping)
        best = _candidate(fg, x0, *fg(x0, False), GRADIENT_TOLERANCE)
    else:
        best = _candidate(fg, x_seed, *at_seed, start_tolerance)
    x, f, iterations, converged = _best_start(fg, best, starts, start_tolerance)
    if f < f_seed:
        x, f, iterations, converged = x_seed, f_seed, 0, True
    angles = beta, gamma, delta = x[0] % math.tau, x[1] % math.tau, x[2] % math.tau
    if not (math.isfinite(beta) and math.isfinite(gamma) and math.isfinite(delta)):
        raise ValueError(f"optimized angles must be finite, got {x!r}")
    return angles, min(max(f, 0.0), 1.0), min(max(f_seed, 0.0), 1.0), iterations, converged


def _candidate(fg, x0, f0, g0, h0, tolerance: float):
    """The candidate (x, F, iterations, converged) from the start x0, given
    F, g and (or None) the Hessian there: x0 itself if max|g| is within
    ``tolerance``, else the Newton search from it, which builds a Hessian
    the start was evaluated without."""
    if max(abs(g0[0]), abs(g0[1]), abs(g0[2])) <= tolerance:
        return x0, f0, 0, True
    return _newton(fg, x0, f0, g0, fg(x0)[2] if h0 is None else h0)


def _best_start(fg, best, starts, start_tolerance: float):
    """The best of the candidate ``best`` and one ``_candidate`` per start
    of ``starts`` at ``start_tolerance``; a start replaces the best so far
    only at a strictly larger F, so the earliest wins ties."""
    for x0 in starts:
        cand = _candidate(fg, x0, *fg(x0), start_tolerance)
        if cand[1] > best[1]:
            best = cand
    return best


def _optimize_points(targets, points, damping, starts, start_tolerance: float):
    """``_optimize`` for k point inputs at once, as arrays: (angles (k, 3),
    F, F_seed, iterations, converged), row i == what
    ``_optimize(EulerAngles(*targets[i]), _read_moments(points[i]),
    damping, starts[i], start_tolerance)`` returns.  ``targets`` is a
    (k, 3) array of (beta, gamma, delta) rows, ``points`` a (k, 3) array of
    the rows' input Bloch vectors and ``starts`` one list of extra starts
    per row.  Randomized benchmarking's ideal-input steps are such a batch:
    each input is fixed by the gate stream, not by an earlier result, and
    comes from the package's own chain (``noise._apply_chain``), so the
    batch does not check it; only a row that leaves the batch for the
    scalar search reads its point moments.

    The seed's F and g, the seed-skip mask at ``start_tolerance``, the
    closed-form point (``_point_optima``) of every row that is not skipped,
    and F and g there are evaluated together in numpy by the scalar code's
    own expressions (``_fg`` and ``_apply_all`` given numpy's cos and sin),
    so each row has the scalar floats.  A row whose closed-form point is
    not stationary within GRADIENT_TOLERANCE, and every row with starts,
    then gets its scalar objective and ``_optimize``'s own search
    (``_candidate``, ``_best_start``).  The fallback to the seed and the
    ValueError on angles that are not finite are ``_optimize``'s.
    """
    x_seed = np.array(targets, dtype=float).T.copy()
    k = x_seed.shape[1]
    n = np.array(points, dtype=float).T.copy()
    n0, n1, n2 = n
    u, *columns = np.array(_apply_all(*x_seed, (_NOISELESS,), (
        n, (n0 * n0, n1 * n0, n2 * n0), (n0 * n1, n1 * n1, n2 * n1), (n0 * n2, n1 * n2, n2 * n2)),
        np.cos, np.sin))
    f_seed, g, _ = _fg(u, columns, damping, np.cos, np.sin)(x_seed, False)
    x, f = x_seed.copy(), f_seed.copy()
    iterations, converged = np.zeros(k, dtype=int), np.ones(k, dtype=bool)
    searches = {}  # row -> the Newton start (x, F, g) of a closed-form point, or None
    started = np.flatnonzero(_max_abs(g) > start_tolerance)
    if started.size:
        u, columns = u[:, started], [c[:, started] for c in columns]
        x_cf = _point_optima(x_seed[:, started], n[:, started], u, damping)
        f_cf, g_cf, _ = _fg(u, columns, damping, np.cos, np.sin)(x_cf, False)
        x[:, started], f[started] = x_cf, f_cf
        for j in np.flatnonzero(_max_abs(g_cf) > GRADIENT_TOLERANCE).tolist():
            searches[int(started[j])] = (tuple(x_cf[:, j].tolist()), float(f_cf[j]),
                                         tuple(float(gi[j]) for gi in g_cf))
    if any(starts):
        searches = {i: searches.get(i) for i in range(k)}
    for i, newton_start in sorted(searches.items()):
        fg = _objective(EulerAngles(*x_seed[:, i].tolist()), _read_moments(n[:, i].tolist()),
                        damping)[0]
        if newton_start is None:
            best = tuple(x[:, i].tolist()), float(f[i]), 0, True
        else:
            best = _candidate(fg, *newton_start, None, GRADIENT_TOLERANCE)
        x[:, i], f[i], iterations[i], converged[i] = _best_start(fg, best, starts[i],
                                                                 start_tolerance)
    fallback = f < f_seed
    x[:, fallback], f[fallback], iterations[fallback], converged[fallback] = (
        x_seed[:, fallback], f_seed[fallback], 0, True)
    angles = np.remainder(x, math.tau).T
    finite = np.isfinite(angles).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"optimized angles must be finite, got {tuple(x[:, bad].tolist())!r}")
    return angles, np.clip(f, 0.0, 1.0), np.clip(f_seed, 0.0, 1.0), iterations, converged


def _max_abs(g):
    """max(|g_0|, |g_1|, |g_2|) of each row of a batch of gradients."""
    return np.maximum(np.maximum(np.abs(g[0]), np.abs(g[1])), np.abs(g[2]))


def _point_optimum(target: EulerAngles, n, u, damping):
    """The angles (beta, gamma, delta) of the global maximum of F for the
    rank-1 input n (m2 = n n^T, |n| <= 1), in closed form, given u = R n
    and the damping set of ``noise._damping``.

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
    ee, ek, el, _ = damping  # e^2, e (1 - la), e la
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


def _point_optima(target, n, u, damping):
    """``_point_optimum`` of k rows at once: target (beta, gamma, delta), n
    and u are (3, k) arrays, and so is the result, each column ==
    ``_point_optimum``'s.  Every expression is the scalar one in its order;
    atan2 and hypot go through math (``gates._map``); each branch is
    evaluated for all rows and picked per row, numpy's warnings off where a
    row's untaken branch divides by zero or takes a negative square root.
    The equal-F partner follows the scalar rule: candidates in the order
    (+, +), (+, -), (-, +), (-, -), the first kept unless a later one that
    exists (w > 0 for -w, cos psi > 0 for -cos psi) has a strictly larger
    overlap."""
    nx, ny, nz = n
    ux, uy, uz = u
    k = nx.size
    ee, ek, el, _ = damping  # e^2, e (1 - la), e la
    ee2 = ee * ee
    rho, mu2 = _map(math.hypot, nx, ny), ux * ux + uy * uy
    mu = np.sqrt(mu2)
    p, q = mu2 * ee2 * ee2, uz * uz * ek * ek
    den0 = mu2 * ee2 + q
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = []
        for s in (rho, mu):
            r2 = nz * nz + (rho - s) * (rho + s)
            y = ek * s + el
            den = ee2 * r2 * den0
            c = (p * r2 - q * y * y) / den
            c = np.where(den > 0.0, np.where(1.0 < c, 1.0, np.where(0.0 > c, 0.0, c)), 0.0)
            cuts.append((s, r2, y, c))
        (_, r2, y, c), (_, r2_mu, y_mu, c_mu) = cuts
        az = np.abs(uz) * ek
        take_mu = (mu < rho) & (
            az * np.sqrt(r2_mu * (1.0 - c_mu)) + mu * np.sqrt(ee2 * r2_mu * c_mu + y_mu * y_mu)
            > az * np.sqrt(r2 * (1.0 - c)) + mu * np.sqrt(ee2 * r2 * c + y * y))
        s, r2, y, c = (np.where(take_mu, b, a) for a, b in zip(*cuts))
        r, w = np.sqrt(r2), np.sqrt((rho - s) * (rho + s))
    sin_psi, cos_psi = np.sqrt(1.0 - c), np.sqrt(c)
    sin_psi = np.where(uz < 0.0, -sin_psi, sin_psi)
    # every atan2 of the scalar code, for vx = +-w and cp = +-cos psi, in one pass
    vx, cp = np.array((w, -w)), np.array((cos_psi, -cos_psi))
    phase, azimuth, *rest = _map(
        math.atan2,
        np.concatenate((uy, ny, s, s, nz, nz, y, y, sin_psi, sin_psi)),
        np.concatenate((ux, nx, *vx, *vx, *(ee * r * cp), *cp)),
    ).reshape(10, k)
    at_s, at_nz, at_y, at_sin = np.reshape(rest, (4, 2, k))
    # the four candidates (vx, cp) as rows, in the scalar loop's order
    iv, ic = [0, 0, 1, 1], [0, 1, 0, 1]
    delta = np.where(rho > 0.0, at_s - azimuth, 0.0)[iv]
    beta = phase - at_y[ic]
    gamma = at_nz[iv] - at_sin[ic]
    tc, ts = np.cos(0.5 * target[1]), np.sin(0.5 * target[1])
    t_plus, t_minus = target[0] + target[2], target[0] - target[2]
    overlap = np.abs(
        tc * np.cos(0.5 * gamma) * np.cos(0.5 * (t_plus - beta - delta))
        + ts * np.sin(0.5 * gamma) * np.cos(0.5 * (t_minus - beta + delta))
    )
    exists = np.array((np.ones(k, dtype=bool), cos_psi > 0.0, w > 0.0, (w > 0.0) & (cos_psi > 0.0)))
    pick = np.zeros(k, dtype=int)
    for i in (1, 2, 3):
        pick = np.where(exists[i] & (overlap[i] > overlap[pick, np.arange(k)]), i, pick)
    cols = np.arange(k)
    return np.array((beta[pick, cols], gamma[pick, cols], delta[pick, cols]))


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
