"""Quasi-Newton search for noise-aware decomposition angles.

One entry point, ``optimize_gate``, takes the input through its Bloch-vector
moments m1 = E[n] and m2 = E[n n^T]: a point, a cap or the uniform sphere
via ``InitialStateDistribution.moments()``, a Bloch vector r (as randomized
benchmarking tracks it) as (r, r r^T), and state preparation as the point
|0>, where delta stays at its seed because the objective does not depend on
it.  It maximizes the exact moment objective
(``objectives.moment_objective``) over the unwrapped (beta, gamma, delta) in
R^3, seeded at the target's own angles so the result can never score below
the default decomposition.  The objective returns its analytic gradient with
its value; descent is scipy's L-BFGS-B.  An optional multistart mode adds
uniform-random seeds for rugged landscapes (damping probabilities near 1),
keeping the best result by objective value with lowest-seed-index
tie-breaking.

Output angles are wrapped into [0, 2*pi) per angle.  They are NOT reduced to
the canonical gamma in [0, pi] form: that reduction maps to the same unitary
through a different pulse trajectory, which generally has a different noisy
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gates import EulerAngles
from .noise import NoiseParams
from .objectives import moment_objective

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for ``optimize_gate``.

    multistart_count = 0 disables multistart; N > 0 adds N uniform-random
    seeds (drawn from ``rng_seed``) beside the target seed.
    """

    max_iterations: int = 500
    gradient_tolerance: float = 1e-9
    multistart_count: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.multistart_count < 0:
            raise ValueError("multistart_count must be >= 0")
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive and finite")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization.

    objective_value >= objective_at_target_angles always holds: the search is
    seeded at the target angles and falls back to them if no candidate beats
    the seed.
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
    m1: np.ndarray,
    m2: np.ndarray,
    params: NoiseParams,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Find decomposition angles maximizing the fidelity of the target gate
    for inputs with Bloch-vector moments m1 = E[n] and m2 = E[n n^T]
    (``InitialStateDistribution.moments()``; a Bloch vector r: r, r r^T).

    L-BFGS-B runs from the target seed and from each multistart seed; the
    best candidate wins, lowest seed index on ties, and the seed itself is
    the fallback.  A start whose gradient already meets the tolerance is
    kept without a call, the stopping test L-BFGS-B applies at its start
    point.  Raises ValueError unless m1 has shape (3,), is finite and has
    |m1| <= 1 + 1e-9, and m2 is finite with shape (3, 3).
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != (3,) or not np.all(np.isfinite(m1)) or np.linalg.norm(m1) > 1.0 + 1e-9:
        raise ValueError("m1 must be a finite Bloch vector of shape (3,) with |m1| <= 1")
    if m2.shape != (3, 3) or not np.all(np.isfinite(m2)):
        raise ValueError("m2 must be a finite matrix of shape (3, 3)")
    cfg = config or OptimizerConfig()
    fg = moment_objective(target, m1, m2, params)

    def neg(x):
        f, g = fg(x)
        return -f, -g

    seed = np.array([target.beta, target.gamma, target.delta])
    f_seed, g_seed = fg(seed)
    starts = [seed]
    if cfg.multistart_count > 0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))
        starts += [rng.uniform(0.0, TWO_PI, 3) for _ in range(cfg.multistart_count)]
    best = None
    for i, x0 in enumerate(starts):
        f0, g0 = (f_seed, g_seed) if i == 0 else fg(x0)
        if np.max(np.abs(g0)) <= cfg.gradient_tolerance:
            cand = (x0, f0, 0, True)
        else:
            res = minimize(
                neg,
                x0,
                jac=True,
                method="L-BFGS-B",
                options={
                    "maxiter": cfg.max_iterations,
                    "gtol": cfg.gradient_tolerance,
                    "ftol": 1e-15,
                },
            )
            cand = (res.x, float(-res.fun), int(res.nit), bool(res.success))
        if best is None or cand[1] > best[1]:
            best = cand
    if best[1] < f_seed:
        best = (seed, f_seed, 0, True)
    x, f, iterations, converged = best
    w = np.mod(x, TWO_PI)
    return OptimizationResult(
        angles_opt=EulerAngles(w[0], w[1], w[2]),
        objective_value=f,
        objective_at_target_angles=f_seed,
        iterations=iterations,
        converged=converged,
    )
