"""Sweep studies over damping strength and initial-state knowledge.

prep_improvement_sweep: for each damping level lambda (applied as
lambda_a = lambda_p = lambda), draw target states uniformly on the Bloch
sphere, optimize the preparation gate's decomposition for the known input
|0> against the noise model, and record the fidelity gained over the default
decomposition.

knowledge_sweep: for each (lambda, theta_max) cell, draw a Haar-random target
gate, optimize its decomposition for an input state known only to lie in the
polar cap theta < theta_max (expected-fidelity objective), then draw one
actual input state from the cap and score optimized minus default fidelity on
it.  theta_max = pi means no knowledge; theta_max -> 0 reduces to preparing
the state gate|0>, whose improvement statistics match the preparation sweep
because a Haar gate sends |0> to a uniformly random state.

A preparation cell (one lambda) and a knowledge row (one lambda, all its
theta_max cells) are each one unit of ``parallel_map``.  Each cell draws
all its targets from one stream made once for the cell:
default_rng([rng_seed, 0, li]) for the preparation sweep, whose targets
draw z then phi, and default_rng([rng_seed, 1, li, mi]) for the knowledge
sweep, whose targets draw a Haar gate then a cap sample.  Target r of a
cell depends only on the targets before it, so a cell's first k targets do
not depend on targets_per_point.

Every target of a cell has the same input moments (the ground state, or the
cell's cap) and noise model, and all its draws are made before any
optimization, so a cell converts, optimizes and scores its targets as
arrays, each row with the floats of its own ``optimize._optimize`` call.
A preparation cell draws its targets as one block, ``rng.random((k, 2))``,
and optimizes them as one batch at the point |0>
(``optimize._optimize_points``).  A knowledge row draws target by target
(a Haar gate's ``standard_normal(4)``, then its cap sample's two uniforms,
from one stream), converts the quaternions through
``gates._zyz_from_quaternions`` and the cap samples with acos through
``gates._map``, reads each cap's moments once (``objectives._read_moments``),
solves its caps as one batch (``optimize._optimize_rows``) and scores both
decompositions with one ``noise._apply_all`` on arrays.  Each lambda's
cells reduce to their rows at once (``_row_stats``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import _map, _zyz_from_quaternions
from .io import parallel_map
from .noise import _NOISELESS, NoiseParams, _apply_all, _damping
from .objectives import _read_moments, cap_moments
from .optimize import GRADIENT_TOLERANCE, _optimize_points, _optimize_rows


@dataclass(frozen=True)
class SweepConfig:
    """Grids and sample counts for the sweep studies.

    lambda_grid entries are equal amplitude/phase damping probabilities.
    theta_max_grid (knowledge sweep only) lists polar-cap sizes in (0, pi].
    targets_per_point is the number of sampled targets per grid cell.
    """

    lambda_grid: tuple[float, ...]
    targets_per_point: int = 100
    theta_max_grid: tuple[float, ...] = ()
    rng_seed: int = 0

    def __post_init__(self) -> None:
        lams = tuple(float(v) for v in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", lams)
        if not lams:
            raise ValueError("lambda_grid must be nonempty")
        for lam in lams:
            if not 0.0 <= lam < 1.0:
                raise ValueError(f"lambda_grid entries must lie in [0, 1), got {lam!r}")
        caps = tuple(float(v) for v in self.theta_max_grid)
        object.__setattr__(self, "theta_max_grid", caps)
        for tm in caps:  # each knowledge cell takes this cap's moments; fail before any runs
            try:
                cap_moments(tm)
            except ValueError as exc:
                raise ValueError(f"theta_max_grid entry {tm!r}: {exc}") from None
        for name, least in (("targets_per_point", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SweepRow:
    lam: float
    theta_max: float | None
    mean_improvement: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class SweepResult:
    kind: str  # "prep" or "knowledge"
    config: SweepConfig
    rows: tuple[SweepRow, ...]


def _row_stats(lam: float, theta_maxes, imps: np.ndarray) -> list[SweepRow]:
    """One row per theta_max (None for prep) and per row of the (cells, n)
    improvements: its mean and sample standard error std / sqrt(n), 0.0 at
    n = 1.  For a prep row that stderr is no error bar: the improvement is
    flat in the target except in polar dips of width about lambda, which
    100 uniform targets rarely hit, so it reads about 1e-17, while the exact
    se sqrt(Var / n) (``tests/reference.py``, ``expected_improvement``) is
    6.0e-7 at lambda = 0.05 and 5.0e-6 at 0.1.
    """
    n = imps.shape[1]
    means = imps.mean(axis=1).tolist()
    stderrs = (imps.std(axis=1, ddof=1) / math.sqrt(n)).tolist() if n > 1 else [0.0] * len(means)
    return [SweepRow(lam, theta_max, mean, stderr, n)
            for theta_max, mean, stderr in zip(theta_maxes, means, stderrs, strict=True)]


def _score(u, image):
    """Fidelities 1/2 (1 + u.image) of noisy images A n + t of pure inputs
    n against their targets' ideal outputs u = R n, clamped to [0, 1]: u
    and image are (3, k) arrays, the result a (k,) array."""
    return np.clip(0.5 * (1.0 + u[0] * image[0] + u[1] * image[1] + u[2] * image[2]), 0.0, 1.0)


def _prep_cell(cfg: SweepConfig, item) -> SweepRow:
    li, lam = item
    params = NoiseParams.from_lambda(lam)
    k = cfg.targets_per_point
    # target t draws z then phi: row t of the block holds those two draws
    z, phi = np.random.default_rng([cfg.rng_seed, 0, li]).random((k, 2)).T
    # U(phi, theta, 0)|0> is the state (theta, phi); Rz(delta) acts on |0>
    # as a phase only, so delta stays at its seed 0.
    targets = np.column_stack((math.tau * phi, _map(math.acos, -1.0 + 2.0 * z), np.zeros(k)))
    _, f, f_seed, _, _ = _optimize_points(targets, np.tile((0.0, 0.0, 1.0), (k, 1)),
                                          _damping(params.lambda_a, params.lambda_p),
                                          np.empty((k, 0, 3)), GRADIENT_TOLERANCE)
    return _row_stats(lam, (None,), (f - f_seed)[None])[0]


def _knowledge_row(cfg: SweepConfig, item) -> list[SweepRow]:
    """The rows of one lambda, one per theta_max of the grid in turn."""
    li, lam = item
    params = NoiseParams.from_lambda(lam)
    damping = _damping(params.lambda_a, params.lambda_p)
    caps, k = cfg.theta_max_grid, cfg.targets_per_point
    n, rows, rank_one = zip(*(_read_moments(*cap_moments(theta_max)) for theta_max in caps))
    draws = []  # per target: its Haar gate's quaternion, then its cap sample's two uniforms
    for mi in range(len(caps)):
        rng = np.random.default_rng([cfg.rng_seed, 1, li, mi])
        for _ in range(k):
            draws += rng.standard_normal(4).tolist()
            draws += rng.random(2).tolist()
    draws = np.reshape(draws, (-1, 6))
    w, x, y, z, cap_u, cap_phi = draws.T
    targets = _zyz_from_quaternions(draws[:, :4] / np.sqrt(w * w + x * x + y * y + z * z)[:, None])
    # each sample uniform on its cap theta < theta_max, by inverting the CDF
    # of cos(theta), as its Bloch vector
    cosines = np.repeat([math.cos(theta_max) for theta_max in caps], k)
    theta, phi = _map(math.acos, 1.0 - cap_u * (1.0 - cosines)), math.tau * cap_phi
    st = np.sin(theta)
    samples = np.array((st * np.cos(phi), st * np.sin(phi), np.cos(theta)))
    size = targets.shape[0]
    angles = _optimize_rows(targets, np.repeat(np.array(n).T, k, axis=1),
                            np.repeat(np.transpose(rows, (2, 1, 0)), k, axis=2),
                            np.repeat(rank_one, k), damping, np.empty((size, 0, 3)),
                            GRADIENT_TOLERANCE)[0]
    # both decompositions on the sampled states, in one map: at the target
    # (canonical) angles the ideal outputs u and the default images, then
    # at the optimized angles the optimized images
    ideal, noisy = np.array(_apply_all(*np.concatenate((targets, angles)).T, (_NOISELESS, damping),
                                       (np.tile(samples, 2),), np.cos, np.sin))
    u, image, image_opt = ideal[:, :size], noisy[:, :size], noisy[:, size:]
    imps = _score(u, image_opt) - _score(u, image)
    return _row_stats(lam, caps, imps.reshape(len(caps), k))


def prep_improvement_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Mean preparation-fidelity improvement per damping level.  A row's
    ``stderr`` is the sample standard error, about 1e-17 at 100 targets and
    so not an error bar (``_row_stats``)."""
    items = list(enumerate(cfg.lambda_grid))
    rows = parallel_map(functools.partial(_prep_cell, cfg), items, jobs)
    return SweepResult("prep", cfg, tuple(rows))


def knowledge_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Mean pointwise fidelity improvement per (lambda, theta_max) cell,
    optimizing the cap-expected fidelity and scoring on one cap sample."""
    if not cfg.theta_max_grid:
        raise ValueError("knowledge_sweep requires a nonempty theta_max_grid")
    rows = parallel_map(functools.partial(_knowledge_row, cfg), enumerate(cfg.lambda_grid), jobs)
    return SweepResult("knowledge", cfg, tuple(row for lam_rows in rows for row in lam_rows))
