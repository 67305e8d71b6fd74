"""Quasi-Newton search for noise-aware decomposition angles.

Two entry points share one search: ``optimize_gate`` takes the input as an
``InitialStateDistribution`` (a point, a cap, the uniform sphere; state
preparation is the point |0>, where delta stays at its seed because the
objective does not depend on it), and ``optimize_gate_mixed`` takes the
input's Bloch vector, as randomized benchmarking tracks it.  Both maximize
the exact moment objective (``objectives.moment_objective``) over the
unwrapped (beta, gamma, delta) in R^3, seeded at the target's own angles so
the result can never score below the default decomposition.  The objective
returns its analytic gradient with its value; descent is scipy's L-BFGS-B.
An optional multistart mode adds uniform-random seeds for rugged landscapes
(damping probabilities near 1), keeping the best result by objective value
with lowest-seed-index tie-breaking.

Output angles are wrapped into [0, 2*pi) per angle.  They are NOT reduced to
the canonical gamma in [0, pi] form: that reduction maps to the same unitary
through a different pulse trajectory, which generally has a different noisy
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .gates import EulerAngles
from .noise import NoiseParams
from .objectives import InitialStateDistribution, moment_objective

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for ``optimize_gate`` and ``optimize_gate_mixed``.

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
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


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


def _maximize(fg, seeds: list[np.ndarray], cfg: OptimizerConfig):
    """L-BFGS-B from each seed on ``fg(x) -> (value, gradient)``; returns
    (best_x, best_f, iterations, converged) with max-objective, lowest-seed-index
    tie-breaking."""

    def neg(x):
        f, g = fg(x)
        return -f, -g

    best = None
    for x0 in seeds:
        x0 = np.asarray(x0, dtype=float)
        f0, g0 = fg(x0)
        if np.max(np.abs(g0)) <= cfg.gradient_tolerance:
            # Same stopping test L-BFGS-B applies at the start point; skip
            # the call when it would terminate at iteration 0 anyway.
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
    return best


def _multistart_seeds(x0: np.ndarray, cfg: OptimizerConfig) -> list[np.ndarray]:
    seeds = [np.asarray(x0, dtype=float)]
    if cfg.multistart_count > 0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))
        for _ in range(cfg.multistart_count):
            seeds.append(rng.uniform(0.0, TWO_PI, x0.size))
    return seeds


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    return np.mod(x, TWO_PI)


def optimize_gate(
    target: EulerAngles,
    dist: InitialStateDistribution,
    params: NoiseParams,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Find decomposition angles maximizing the (expected) fidelity of the
    target gate under the given noise and input-state distribution."""
    fg = moment_objective(target, *dist.moments(), params)
    x0 = np.array([target.beta, target.gamma, target.delta])
    return _finish(fg, x0, config or OptimizerConfig())


def optimize_gate_mixed(
    target: EulerAngles,
    r: np.ndarray,
    params: NoiseParams,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Input given by its Bloch vector r: rho = (I + r.sigma)/2, pure (a
    point input) at |r| = 1 and mixed for |r| < 1.  Maximizes the
    Hilbert-Schmidt overlap tr(U rho U^dag . rho_out(trial)) of the noisy
    output with the ideal one.  Raises ValueError unless r has shape (3,), is
    finite and has |r| <= 1 + 1e-9."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or not np.all(np.isfinite(r)) or np.linalg.norm(r) > 1.0 + 1e-9:
        raise ValueError("r must be a finite Bloch vector of shape (3,) with |r| <= 1")
    fg = moment_objective(target, r, np.outer(r, r), params)
    x0 = np.array([target.beta, target.gamma, target.delta])
    return _finish(fg, x0, config or OptimizerConfig())


def _finish(fg, x0: np.ndarray, cfg: OptimizerConfig):
    """Run the seeded (multi)start search and package the result, enforcing
    the never-worse contract against the seed exactly."""
    f_seed = fg(np.asarray(x0, dtype=float))[0]
    best_x, best_f, iters, converged = _maximize(fg, _multistart_seeds(x0, cfg), cfg)
    if best_f < f_seed:
        best_x, best_f = np.asarray(x0, dtype=float), f_seed
        iters, converged = 0, True
    w = _wrap_angles(best_x)
    return OptimizationResult(
        angles_opt=EulerAngles(w[0], w[1], w[2]),
        objective_value=best_f,
        objective_at_target_angles=f_seed,
        iterations=iters,
        converged=converged,
    )


def optimizer_config_with_seed(cfg: OptimizerConfig, seed: int) -> OptimizerConfig:
    """Copy of ``cfg`` with a new rng_seed (multistart determinism helper)."""
    return replace(cfg, rng_seed=seed)
