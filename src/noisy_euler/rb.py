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

Without ``track_noisy_state`` the next ideal state is the optimizer's own
image of the current one, u = R n (``optimize._optimize``), the same floats
as the zero-noise ``noise._apply``, so each gate step rotates n once.

States are Bloch vectors: Z rotations are virtual and noiseless, so each
noisy native gate is exactly the affine map r -> A r + t (``noise._apply``),
at zero noise the gate's rotation.  A circuit carries the ideal state and each
arm's noisy state as float 3-tuples and reads survival as (1 + r_z)/2.  Each
gate is drawn as a unit quaternion, and the circuit carries the net rotation
as the Hamilton product of the gates' quaternions; the inverse gate is the
net's conjugate, read off in ZYZ angles by ``gates._zyz_from_quaternion``,
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
from .gates import EulerAngles, _hamilton, _zyz_from_quaternion
from .io import parallel_map
from .noise import NoiseParams, _apply
from .objectives import _point_moments, _read_moments
from .optimize import _optimize

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


def _sample_quaternion(row) -> tuple[float, float, float, float]:
    """Unit quaternion (cos a/2, sin a/2 n) of a rotation by an angle a
    uniform on [0, 2 pi) about an axis n uniform on the sphere (z uniform on
    [-1, 1), azimuth uniform), from one row of three uniform [0, 1) doubles
    (z, azimuth, a), each scaled as lo + (hi - lo) u: a row of
    ``rng.random((n, 3)).tolist()`` holds the values of three scalar
    ``rng.random()`` calls in turn."""
    uz, uaz, ua = row
    z = -1.0 + 2.0 * uz
    azimuth = math.tau * uaz
    angle = math.tau * ua
    s = math.sqrt(max(0.0, 1.0 - z * z))
    nx, ny = s * math.cos(azimuth), s * math.sin(azimuth)
    h = math.sin(0.5 * angle)
    return math.cos(0.5 * angle), h * nx, h * ny, h * z


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
    the starts' with multistart 0, the shots' with exact shots."""
    cfg, circuit = item
    la, lp = cfg.noise.lambda_a, cfg.noise.lambda_p
    assumed = cfg.noise.assuming_drift(cfg.drift_factor)
    rng_gates = np.random.default_rng([cfg.rng_seed, circuit, 0])
    rng_starts = np.random.default_rng([cfg.rng_seed, circuit, 2]) if cfg.multistart else None
    shot_rngs = [np.random.default_rng([cfg.rng_seed, circuit, 1, ai])
                 if cfg.shots is not None else None for ai in range(len(ARMS))]
    column = {depth: j for j, depth in enumerate(cfg.depth_schedule)}
    out = np.empty((len(ARMS), len(column)))
    n = (0.0, 0.0, 1.0)  # ideal state, |0>
    arms = (n, n)  # noisy state of each arm, in ARMS order
    net = (1.0, 0.0, 0.0, 0.0)  # quaternion of the gates so far

    def step(target: EulerAngles, stream) -> tuple:
        """The next ``arms`` and u = R m1 from the optimizer: unopt runs
        ``target``'s angles, opt runs them re-optimized for n, or for its own
        state under track_noisy_state; ``stream`` (a Generator or a key)
        seeds the multistart starts."""
        unopt, opt = arms
        moments = _read_moments(*_point_moments(opt if cfg.track_noisy_state else n))
        starts = ()
        if cfg.multistart > 0:
            starts = (math.tau * np.random.default_rng(stream).random((cfg.multistart, 3))).tolist()
        res, image = _optimize(target, moments, assumed, starts, RB_GRADIENT_TOLERANCE)
        a = res.angles_opt
        return (_apply(target.beta, target.gamma, target.delta, la, lp, unopt),
                _apply(a.beta, a.gamma, a.delta, la, lp, opt)), image

    for i, row in enumerate(rng_gates.random((cfg.n_gates, 3)).tolist()):
        q = _sample_quaternion(row)
        gate = _zyz_from_quaternion(*q)
        arms, u = step(gate, rng_starts)
        n = _apply(gate.beta, gate.gamma, gate.delta, 0.0, 0.0, n) if cfg.track_noisy_state else u
        net = _hamilton(q, net)

        depth = i + 1
        if depth in column:
            inverse = _zyz_from_quaternion(net[0], -net[1], -net[2], -net[3])
            for ai, r in enumerate(step(inverse, [cfg.rng_seed, circuit, 3, depth])[0]):
                p0 = min(max(0.5 * (1.0 + r[2]), 0.0), 1.0)
                out[ai, column[depth]] = _measure(p0, cfg, shot_rngs[ai])
    return out


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
    outside the all-one case, so the minimum is bracketed by halving or
    doubling from the log-linear guess and then bisected on the sign of S'
    down to adjacent floats.  If S still falls where e^{-a min x} underflows
    (the survival at the shallowest depth is at or below 1/2), its infimum is
    at a = inf and error_rate is 1/2.
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

    # log-linear starting point: ln(2f - 1) = -a x
    slope = np.polyfit(x, np.log(np.clip(z, 1e-12, None)), 1)[0]
    lo = hi = max(1e-12, -float(slope))
    while not falling(lo):
        lo, hi = 0.5 * lo, lo
    while falling(hi):
        lo, hi = hi, 2.0 * hi
        if math.exp(-hi * x.min()) == 0.0:
            lo = hi = math.inf
            break
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if falling(mid):
            lo = mid
        else:
            hi = mid
    return DecayFit(hi, 0.5 * -math.expm1(-hi), 0.5 * hi)
