"""Randomized-benchmarking simulation for noise-aware gate decomposition.

Per circuit: sample N gates with uniform rotation axis and uniform angle.
At each scheduled depth d the net rotation of the first d gates is undone by
the two-pulse decomposition of its exact inverse (applied with the same noise
as any other gate) and the probability of measuring |0> is recorded, then the
circuit continues.  Two arms share each gate stream, and each gate and each
inverse is one step of both arms:

  * "unopt": every gate uses its canonically extracted Euler angles.
  * "opt":   every gate's angles are re-optimized for the noiseless state the
             ideal circuit would be in just before that gate or, with
             ``track_noisy_state``, for the arm's own noisy state.

The optimizer reads one state n per step.  By default n is the ideal
state, the image of |0> under the gates so far at zero noise: it depends
on the gate stream alone, so all gate and inverse steps of a circuit are
optimized together in numpy (``optimize._optimize_points``), each with the
floats of its own ``optimize._optimize`` call: a Fig. 3 circuit's 282
steps cost about half of what they cost one at a time.  Under
``track_noisy_state`` n is the opt arm's noisy state after the previous
optimized gate, so each gate step waits for the one before and runs alone
(``optimize._optimize``, n read by the point form of
``objectives._read_moments``).  Either way one simulator (``_circuit``)
carries the states through the gates in plain floats
(``noise._apply_chain``) and maps each arm's states at the scheduled
depths by its inverses in one ``noise._apply_all`` on arrays; only how the
opt arm's angles are found differs.

States are Bloch vectors: Z rotations are virtual and noiseless, so each
noisy native gate is exactly the affine map r -> A r + t (``noise._apply``
under the true model's damping set; it and the assumed model's, which the
optimizer reads, are built once per circuit), at zero noise the gate's
rotation.  A circuit carries n and each arm's noisy state as
float 3-tuples and reads survival as (1 + r_z)/2.  Each gate is drawn as a
unit quaternion, and the circuit carries the net rotation as the
Hamilton product of the gates' quaternions; the inverse gate is the net's
conjugate, read off in ZYZ angles by ``gates._zyz_from_quaternions``,
whose atan2 ratios do not see the product's norm drift (about 5e-14 after
246 gates).

Drift model: the simulated hardware always runs at the configured noise; the
optimizer instead sees the noise implied by coherence times 1/k of the true
ones (``NoiseParams.assuming_drift``).  k = 1 means calibration is exact,
k < 1 means the optimizer under-trusts the hardware, and large k drives the
assumed damping toward 1 where the optimized angles carry no information.

Survival probabilities can be corrupted by readout error (an affine map of
P(0), ``calibration.apply_readout_error``), sampled at a finite shot count,
and optionally mitigated by that map's inverse, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import _readout_slope, apply_readout_error, mitigate_readout
from .gates import EulerAngles, _hamilton, _zyz_from_quaternions
from .io import parallel_map
from .noise import _NOISELESS, NoiseParams, _apply, _apply_all, _apply_chain, _damping
from .objectives import _read_moments
from .optimize import _optimize, _optimize_points

ARMS = ("unopt", "opt")

# RB's seed-skip rule, passed to ``optimize._optimize``: a per-gate start
# whose max|g| is within this tolerance is kept as it is.  This stopping
# rule, not the noise model, makes the drift curve fall to zero gain at
# k <= 1e-2: the assumed model's O(lambda_assumed) gradients drop below it
# there.  They are not noise: at a fixed lambda_a / lambda_p the optimal
# angles barely move with the noise scale, so the model alone still points
# to the k = 1 angles at every k < 1.  On rome q3 (10 circuits, seed 0) the
# opt arm's error rate at k = 1e-3 is 41.6% lower than unopt's at tolerance
# 1e-9 and 0.0% lower at this one.  A start that is not skipped ends within
# the optimizer's own GRADIENT_TOLERANCE: the target seed at the closed-form
# optimum, a multistart start by a search.
RB_GRADIENT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class RbConfig:
    """Configuration of one randomized-benchmarking simulation.

    shots=None measures exact probabilities (no binomial sampling).
    readout is an optional (p_meas1_prep0, p_meas0_prep1) pair; mitigate
    inverts it after shot sampling.  drift_factor k scales the coherence
    times the optimizer assumes: assumed T = true T / k.  multistart adds
    that many uniform-random starts to each per-gate search.
    """

    noise: NoiseParams
    n_circuits: int = 10
    n_gates: int = 246
    depth_schedule: tuple[int, ...] = tuple(range(1, 247, 7))
    shots: int | None = None
    drift_factor: float = 1.0
    readout: tuple[float, float] | None = None
    mitigate: bool = False
    rng_seed: int = 0
    multistart: int = 0
    track_noisy_state: bool = False

    def __post_init__(self) -> None:
        for name, least in (("n_circuits", 1), ("n_gates", 1), ("rng_seed", 0),
                            ("multistart", 0), ("shots", 1)):
            value = getattr(self, name)
            if name == "shots" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        depths = tuple(self.depth_schedule)
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in depths):
            raise ValueError(f"depth_schedule must list ints, got {self.depth_schedule!r}")
        object.__setattr__(self, "depth_schedule", depths)
        if not depths or depths[0] < 1 or any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("depth_schedule must be nonempty, strictly increasing and >= 1, "
                             f"got {depths}")
        if depths[-1] > self.n_gates:
            raise ValueError(f"depth_schedule must not exceed n_gates = {self.n_gates}, "
                             f"got depth {depths[-1]}")
        if not (math.isfinite(self.drift_factor) and self.drift_factor > 0):
            raise ValueError(f"drift_factor must be positive and finite, got {self.drift_factor!r}")
        if self.readout is not None:
            p10, p01 = (float(p) for p in self.readout)
            _readout_slope(p10, p01, invertible=self.mitigate)
            object.__setattr__(self, "readout", (p10, p01))
        if self.mitigate and self.readout is None:
            raise ValueError("mitigate requires readout probabilities")


@dataclass(frozen=True)
class DecayFit:
    """Fit of survival vs depth to f(x) = (1 + e^{-a x}) / 2.

    error_rate is the per-gate error 1 - f(1); error_rate_approx is the
    small-a approximation a/2.  degenerate marks data the model cannot
    distinguish: "all-one" (a = 0) or "all-half" (a = inf).  A fit whose
    least-squares infimum lies at a = inf has a = inf and degenerate None.
    """

    a: float
    error_rate: float
    error_rate_approx: float
    degenerate: str | None = None


@dataclass(frozen=True, eq=False)
class RbArmResult:
    arm: str
    survivals: np.ndarray  # (n_circuits, n_depths)
    mean: np.ndarray  # (n_depths,)
    stderr: np.ndarray  # (n_depths,)
    fit: DecayFit | None


@dataclass(frozen=True, eq=False)
class RbRunResult:
    config: RbConfig
    depths: tuple[int, ...]
    unopt: RbArmResult
    opt: RbArmResult


def _sample_quaternions(block: np.ndarray) -> np.ndarray:
    """Unit quaternions (cos a/2, sin a/2 n), one row each, of rotations by
    an angle a uniform on [0, 2 pi) about an axis n uniform on the sphere
    (z uniform on [-1, 1), azimuth uniform), from an (n, 3) block of
    uniform [0, 1) doubles (z, azimuth, a), each scaled as
    lo + (hi - lo) u: a row of ``rng.random((n, 3))`` holds the values of
    three scalar ``rng.random()`` calls in turn."""
    uz, uaz, ua = block.T
    z = -1.0 + 2.0 * uz
    azimuth = math.tau * uaz
    angle = math.tau * ua
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    h = np.sin(0.5 * angle)
    return np.column_stack((np.cos(0.5 * angle), h * (s * np.cos(azimuth)),
                            h * (s * np.sin(azimuth)), h * z))


def _measure(p0: float, cfg: RbConfig, rng: np.random.Generator | None) -> float:
    if cfg.readout is not None:
        p0 = apply_readout_error(p0, *cfg.readout)
    if cfg.shots is not None:
        p0 = float(rng.binomial(cfg.shots, p0)) / cfg.shots
    if cfg.mitigate:
        p0, _ = mitigate_readout(p0, *cfg.readout)
    return float(p0)


def _circuit_worker(item: tuple[RbConfig, int]) -> np.ndarray:
    """Survival probabilities for one (config, circuit) pair: array
    (2, n_depths) in ARMS order.  All randomness derives from named streams
    of (rng_seed, circuit), so circuits are independent and order of
    execution is irrelevant: the gates from [rng_seed, circuit, 0], drawn as
    one (n_gates, 3) block (the values of 3 * n_gates scalar draws), each
    arm's shots from [rng_seed, circuit, 1, arm], the gate steps' multistart
    starts from one stream [rng_seed, circuit, 2] that each gate step reads in
    turn (3 * multistart doubles a step, so gate i reads the i-th block),
    and each inverse step's from its own [rng_seed, circuit, 3, depth], so a
    depth's survival does not depend on which other depths are scheduled.
    Each start is 2 pi times three ``random()`` doubles, the values
    ``uniform(0, 2 pi)`` returns.  A stream nothing draws from is not built:
    the starts' with multistart 0, the shots' with exact shots.

    The worker draws the gates, reads the inverses' angles off their net
    rotation (``_angles``), runs both arms in ``_circuit`` and measures each
    final state; each optimizer step there, batched or alone, has the
    floats of one ``optimize._optimize`` call."""
    cfg, circuit = item
    damping = _damping(cfg.noise.lambda_a, cfg.noise.lambda_p)
    assumed = cfg.noise.assuming_drift(cfg.drift_factor)
    assumed_damping = _damping(assumed.lambda_a, assumed.lambda_p)
    rng_gates = np.random.default_rng([cfg.rng_seed, circuit, 0])
    rng_starts = np.random.default_rng([cfg.rng_seed, circuit, 2]) if cfg.multistart else None
    shot_rngs = [np.random.default_rng([cfg.rng_seed, circuit, 1, ai])
                 if cfg.shots is not None else None for ai in range(len(ARMS))]
    gates, inverses = _angles(cfg, _sample_quaternions(rng_gates.random((cfg.n_gates, 3))))
    finals = _circuit(cfg, circuit, gates, inverses, damping, assumed_damping, rng_starts)
    out = np.empty((len(ARMS), len(cfg.depth_schedule)))
    for ai, zs in enumerate(finals):
        for j, z in enumerate(zs):
            out[ai, j] = _measure(min(max(0.5 * (1.0 + z), 0.0), 1.0), cfg, shot_rngs[ai])
    return out


def _starts(cfg: RbConfig, stream, steps: int = 1) -> list:
    """The multistart starts of ``steps`` steps in turn, drawn from
    ``stream`` (a Generator or a key), as one list of (beta, gamma, delta)."""
    if not cfg.multistart:
        return []
    rng = np.random.default_rng(stream)
    return (math.tau * rng.random((steps * cfg.multistart, 3))).tolist()


def _angles(cfg: RbConfig, quaternions: np.ndarray):
    """ZYZ angles, as (n, 3) arrays of (beta, gamma, delta) rows, of the
    gates and of the inverse at each scheduled depth: the conjugate of the
    net rotation so far, the gates' Hamilton product."""
    depths, conjugates = set(cfg.depth_schedule), []
    net = (1.0, 0.0, 0.0, 0.0)
    for depth, q in enumerate(quaternions.tolist(), 1):
        net = _hamilton(q, net)
        if depth in depths:
            conjugates.append((net[0], -net[1], -net[2], -net[3]))
    return _zyz_from_quaternions(quaternions), _zyz_from_quaternions(np.array(conjugates))


def _circuit(cfg, circuit, gates, inverses, damping, assumed_damping, rng_starts):
    """Each arm's final r_z, after the inverse at each scheduled depth, as
    one list per arm in ARMS order.  The optimizer's steps are the gates,
    then the inverses, each with its own starts.  The unopt arm is carried
    through the gates' angles in plain floats (``noise._apply_chain``, from
    cos and sin computed once per angle), and so is the ideal state n under
    ``_NOISELESS``.  The opt arm's gates are optimized for n all at once
    (``optimize._optimize_points``), or, under ``track_noisy_state``, one
    at a time for the arm's own state, each inverse then for the state at
    its depth (``optimize._optimize``).  Each arm's inverses map its states
    at the scheduled depths in one ``_apply_all`` on arrays."""
    start = (0.0, 0.0, 1.0)  # |0>
    depths = cfg.depth_schedule
    m = cfg.multistart
    gate_starts = _starts(cfg, rng_starts, cfg.n_gates)
    starts = [gate_starts[i * m:(i + 1) * m] for i in range(cfg.n_gates)]
    starts += [_starts(cfg, [cfg.rng_seed, circuit, 3, depth]) for depth in depths]
    gate_trig = _trig(gates)
    unopt = _apply_chain(*gate_trig, damping, start)
    if cfg.track_noisy_state:
        opt = [start]
        for gate, x0 in zip(gates.tolist(), starts):
            angles = _optimize(EulerAngles(*gate), _read_moments(opt[-1]), assumed_damping, x0,
                               RB_GRADIENT_TOLERANCE)[0]
            opt.append(_apply(*angles, damping, opt[-1]))
        opt_inverses = np.array([
            _optimize(EulerAngles(*inverse), _read_moments(opt[depth]), assumed_damping, x0,
                      RB_GRADIENT_TOLERANCE)[0]
            for inverse, depth, x0 in zip(inverses.tolist(), depths, starts[cfg.n_gates:])])
    else:
        ideal = _apply_chain(*gate_trig, _NOISELESS, start)
        points = np.array(ideal[:-1] + [ideal[depth] for depth in depths])
        angles = _optimize_points(np.concatenate((gates, inverses)), points, assumed_damping,
                                  starts, RB_GRADIENT_TOLERANCE)[0]
        opt = _apply_chain(*_trig(angles[:cfg.n_gates]), damping, start)
        opt_inverses = angles[cfg.n_gates:]
    return [_apply_all(*a.T, (damping,), (np.array([arm[d] for d in depths]).T,),
                       np.cos, np.sin)[0][2].tolist()
            for a, arm in ((inverses, unopt), (opt_inverses, opt))]


def _trig(angles: np.ndarray) -> list[list[float]]:
    """cos and sin of gamma, delta and beta of each (beta, gamma, delta) row
    of ``angles``, as the six float lists ``noise._apply_chain`` takes."""
    beta, gamma, delta = angles.T
    return [f(a).tolist() for a in (gamma, delta, beta) for f in (np.cos, np.sin)]


def run_rb_experiment(cfg: RbConfig, jobs: int = 1) -> RbRunResult:
    """Simulate all circuits at ``cfg.drift_factor`` (the one-k case of
    ``run_drift_sweep``), reduce to per-depth means and standard errors per
    arm, and fit the decay ansatz when the schedule has >= 3 depths."""
    return run_drift_sweep(cfg, [cfg.drift_factor], jobs)[0][1]


def run_drift_sweep(cfg: RbConfig, k_values, jobs: int = 1) -> list[tuple[float, RbRunResult]]:
    """``run_rb_experiment`` for each drift factor k, with all (k, circuit)
    pairs in one ``parallel_map``; the gate streams depend only on rng_seed,
    so the unoptimized arm is identical across k."""
    cfgs = [replace(cfg, drift_factor=float(k)) for k in k_values]
    n = cfg.n_circuits
    items = [(c, circuit) for c in cfgs for circuit in range(n)]
    per_circuit = parallel_map(_circuit_worker, items, jobs)
    results = []
    for ki, c in enumerate(cfgs):
        data = np.stack(per_circuit[ki * n:(ki + 1) * n])  # (n_circuits, 2, n_depths)
        arms = []
        for ai, arm in enumerate(ARMS):
            survivals = data[:, ai, :]
            mean = survivals.mean(axis=0)
            if n > 1:
                stderr = survivals.std(axis=0, ddof=1) / math.sqrt(n)
            else:
                stderr = np.zeros_like(mean)
            fit = fit_decay(cfg.depth_schedule, mean) if len(cfg.depth_schedule) >= 3 else None
            arms.append(RbArmResult(arm, survivals, mean, stderr, fit))
        results.append((c.drift_factor, RbRunResult(c, cfg.depth_schedule, arms[0], arms[1])))
    return results


def fit_decay(depths, fidelities) -> DecayFit:
    """Least-squares fit of f(x) = (1 + e^{-a x}) / 2, a >= 0.

    With z = 2y - 1 the fit minimizes S(a) = sum (e^{-a x} - z)^2.  S'(0) < 0
    outside the all-one case.  Up to 4 Newton steps on S' = 0 (analytic S'')
    from the log-linear start give a point; a bracket of relative half-width
    1e-12 about it widens, at most 2x a step, until S' changes sign across
    it, and is bisected on that sign down to adjacent floats.  From any
    bracket that returns the one float where S' turns from < 0 to >= 0, so
    a equals a plain halving/doubling bracket's in a third of the S' calls;
    the two can differ only where S' changes sign more than once (several
    minima, or rounding near the root, on series far from a decay).  Once
    e^{-2 a min x} underflows, S' reads 0 by underflow, not at a root, so a
    sign change found there means S falls all the way (as where the
    shallowest survival is at or below 1/2): its infimum is at a = inf, and
    the fit is a = inf, error_rate 1/2, error_rate_approx inf and degenerate
    None.
    """
    x = np.asarray(depths, dtype=float)
    y = np.asarray(fidelities, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("depths and fidelities must be 1-D and equally long")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit the decay")
    if not np.all(np.isfinite(x)):
        raise ValueError("depths must be finite")
    if np.any(x < 1.0):
        raise ValueError("depths must be >= 1")
    if not np.all(np.isfinite(y)):
        raise ValueError("fidelities must be finite")
    if np.any((y < 0.0) | (y > 1.0)):
        raise ValueError("fidelities must lie in [0, 1]")
    if np.all(np.abs(y - 1.0) <= 1e-9):
        return DecayFit(0.0, 0.0, 0.0, degenerate="all-one")
    if np.all(np.abs(y - 0.5) <= 1e-9):
        return DecayFit(math.inf, 0.5, math.inf, degenerate="all-half")

    z = 2.0 * y - 1.0

    def falling(a: float) -> bool:  # S'(a) = -2 sum x e^{-a x} (e^{-a x} - z) < 0
        e = np.exp(-a * x)
        return float(np.dot(x * e, e - z)) > 0.0

    # log-linear start, ln(2f - 1) = -a x, then Newton on D = -S'/2 with
    # D' = sum x^2 e^{-a x} (z - 2 e^{-a x}) while D' < 0 (S convex)
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    w = np.log(np.clip(z, 1e-12, None))
    a = max(1e-12, -float(np.dot(dx, w)) / sxx) if sxx > 0.0 else 1e-12
    for _ in range(4):
        e = np.exp(-a * x)
        xe = x * e
        d_prime = float(np.dot(x * xe, z - 2.0 * e))
        step = float(np.dot(xe, e - z)) / d_prime if d_prime < 0.0 else math.nan
        if not 0.0 < a - step < math.inf:
            break
        a -= step
        if abs(step) <= 1e-12 * a:
            break
    r = 1e-12
    lo, hi = a / (1.0 + r), a * (1.0 + r)
    while not falling(lo):  # r stops at 1, as halving/doubling: no factor-2 window skipped
        lo, hi, r = lo / (1.0 + r), lo, min(2.0 * r, 1.0)
    while falling(hi):  # ends: S' reads 0 once e^{-a x} underflows everywhere
        lo, hi, r = hi, hi * (1.0 + r), min(2.0 * r, 1.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if falling(mid):
            lo = mid
        else:
            hi = mid
    if math.exp(-2.0 * hi * x.min()) == 0.0:  # S' read 0 by underflow, not at a root
        hi = math.inf
    return DecayFit(hi, 0.5 * -math.expm1(-hi), 0.5 * hi)
