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
cell's cap) and noise model, so a cell reads and checks the moments once
(``objectives._read_moments``) and builds the damping set once
(``noise._damping``).  A preparation cell passes both to the optimizer
core, ``optimize._optimize``, for every target.  A knowledge row first
draws every target and cap sample of its cells, then optimizes them
together in numpy (``optimize._optimize_rows``: one batch of cap searches,
each row with the floats of its own ``_optimize`` call), and scores them
together: the ideal outputs u = R n of the sampled states n and the
default and optimized angles' noisy images of n come from one
``noise._apply_all`` on arrays under the noiseless and the row's damping
set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import EulerAngles, _bloch_vector, _zyz_from_quaternion
from .io import parallel_map
from .noise import _NOISELESS, NoiseParams, _apply_all, _damping
from .objectives import _read_moments, cap_moments, point_moments
from .optimize import GRADIENT_TOLERANCE, _optimize, _optimize_rows


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


def _haar_gate(rng: np.random.Generator) -> EulerAngles:
    """Haar-random SU(2) element via a uniform unit quaternion."""
    w, x, y, z = rng.standard_normal(4).tolist()
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return _zyz_from_quaternion(w / norm, x / norm, y / norm, z / norm)


def _row_stats(lam: float, theta_max: float | None, imps: np.ndarray) -> SweepRow:
    """A cell's row: the mean of its improvements and their sample standard
    error std / sqrt(n).  For a prep row that stderr is no error bar: the
    improvement is flat in the target except in polar dips of width about
    lambda, which 100 uniform targets rarely hit, so it reads about 1e-17,
    while the exact se sqrt(Var / n) (``tests/reference.py``,
    ``expected_improvement``) is 6.0e-7 at lambda = 0.05 and 5.0e-6 at 0.1.
    """
    n = imps.size
    stderr = float(imps.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SweepRow(lam, theta_max, float(imps.mean()), stderr, n)


def _cap_sample(rng: np.random.Generator, theta_max: float) -> tuple[float, float]:
    """One state drawn uniformly from the polar cap theta < theta_max, as
    (theta, phi) floats, by inverting the CDF of cos(theta):
    theta = acos(1 - u (1 - cos(theta_max))) for u = rng.random() on
    [0, 1), then phi = 2 pi rng.random()."""
    u = rng.random()
    theta = math.acos(1.0 - u * (1.0 - math.cos(theta_max)))
    return theta, math.tau * rng.random()


def _score(u, image):
    """Fidelities 1/2 (1 + u.image) of noisy images A n + t of pure inputs
    n against their targets' ideal outputs u = R n, clamped to [0, 1]: u
    and image are (3, k) arrays, the result a (k,) array."""
    return np.clip(0.5 * (1.0 + u[0] * image[0] + u[1] * image[1] + u[2] * image[2]), 0.0, 1.0)


def _prep_cell(cfg: SweepConfig, item) -> SweepRow:
    li, lam = item
    params = NoiseParams.from_lambda(lam)
    damping = _damping(params.lambda_a, params.lambda_p)
    ground = _read_moments(*point_moments(0.0, 0.0))
    rng = np.random.default_rng([cfg.rng_seed, 0, li])
    imps = np.empty(cfg.targets_per_point)
    for t in range(cfg.targets_per_point):
        z = -1.0 + 2.0 * rng.random()
        phi = math.tau * rng.random()
        # U(phi, theta, 0)|0> is the state (theta, phi); Rz(delta) acts on
        # |0> as a phase only, so delta stays at its seed 0.
        target = EulerAngles(phi, math.acos(z), 0.0)
        _, f, f_seed, _, _ = _optimize(target, ground, damping, (), GRADIENT_TOLERANCE)
        imps[t] = f - f_seed
    return _row_stats(lam, None, imps)


def _knowledge_row(cfg: SweepConfig, item) -> list[SweepRow]:
    """The rows of one lambda, one per theta_max of the grid in turn."""
    li, lam = item
    params = NoiseParams.from_lambda(lam)
    damping = _damping(params.lambda_a, params.lambda_p)
    caps, k = cfg.theta_max_grid, cfg.targets_per_point
    moments = [_read_moments(*cap_moments(theta_max)) for theta_max in caps]
    targets, samples = [], []
    for mi, theta_max in enumerate(caps):
        rng = np.random.default_rng([cfg.rng_seed, 1, li, mi])
        for _ in range(k):
            target = _haar_gate(rng)
            targets.append((target.beta, target.gamma, target.delta))
            samples.append(_bloch_vector(*_cap_sample(rng, theta_max)))
    n, rows, rank_one = zip(*moments)
    targets = np.array(targets)
    size = targets.shape[0]
    angles = _optimize_rows(targets, np.repeat(np.array(n).T, k, axis=1),
                            np.repeat(np.transpose(rows, (2, 1, 0)), k, axis=2),
                            np.repeat(rank_one, k), damping, [()] * size, GRADIENT_TOLERANCE)[0]
    # both decompositions on the sampled states, in one map: at the target
    # (canonical) angles the ideal outputs u and the default images, then
    # at the optimized angles the optimized images
    ideal, noisy = np.array(_apply_all(*np.concatenate((targets, angles)).T, (_NOISELESS, damping),
                                       (np.tile(np.array(samples).T, 2),), np.cos, np.sin))
    u, image, image_opt = ideal[:, :size], noisy[:, :size], noisy[:, size:]
    imps = _score(u, image_opt) - _score(u, image)
    return [_row_stats(lam, theta_max, imps[mi * k:(mi + 1) * k])
            for mi, theta_max in enumerate(caps)]


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
