"""Reference formulas that several test modules compare the package against.

Each is written out from the physics, not taken from the package, so a
comparison with it stays an independent check.  The Kraus oracle
(``noisy_gate_stepwise`` and the helpers above it) reads EulerAngles,
NoiseParams and BlochState only through their attributes and calls no
package function.  ``circle_optimum``, ``expected_improvement`` and
``rb_unopt_rate`` call the package's objective or optimizer and check what
is built around it: a search, a sweep's sampling, RB's propagation.
``point_score`` is the knowledge sweep's score of one sampled state through
the package's channel map, which the sweep's cells must reproduce bit for
bit and which is itself checked against the Kraus oracle.
``haar_gate`` and ``cap_sample`` are the knowledge sweep's draw rules, one
target at a time, which the sweep's array conversions must reproduce bit
for bit.  ``bisection_decay_rate`` is the decay fit's first algorithm, which the
package's faster bracket must reproduce bit for bit, and ``free_decay_fit``
a free-amplitude decay fit that the package does not have.
"""

import cmath
import math

import numpy as np


def state_vector(state) -> np.ndarray:
    """|psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> of a BlochState,
    built from its angles rather than its Bloch vector."""
    return np.array([
        math.cos(0.5 * state.theta),
        cmath.exp(1j * state.phi) * math.sin(0.5 * state.theta),
    ])


def projector(state) -> np.ndarray:
    """The pure density matrix |psi><psi| of a BlochState."""
    psi = state_vector(state)
    return np.outer(psi, psi.conj())


def zyz_unitary(angles) -> np.ndarray:
    """R_z(beta) R_y(gamma) R_z(delta) of EulerAngles, in SU(2), multiplied
    out entry by entry from R_z(phi) = diag(e^{-i phi/2}, e^{i phi/2}) and
    R_y(gamma) = [[cos(gamma/2), -sin(gamma/2)], [sin(gamma/2), cos(gamma/2)]]."""
    b, g, d = angles.beta, angles.gamma, angles.delta
    c, s = math.cos(0.5 * g), math.sin(0.5 * g)
    return np.array([
        [cmath.exp(-0.5j * (b + d)) * c, -cmath.exp(-0.5j * (b - d)) * s],
        [cmath.exp(0.5j * (b - d)) * s, cmath.exp(0.5j * (b + d)) * c],
    ])


def rz(phi: float) -> np.ndarray:
    """Rotation about the z axis: diag(e^{-i phi/2}, e^{i phi/2})."""
    return np.array([[cmath.exp(-0.5j * phi), 0.0], [0.0, cmath.exp(0.5j * phi)]])


def rx(theta: float) -> np.ndarray:
    """Rotation about the x axis: cos(theta/2) I - i sin(theta/2) X."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def bloch_vector(state) -> np.ndarray:
    """n = (sin theta cos phi, sin theta sin phi, cos theta) of a BlochState."""
    st = math.sin(state.theta)
    return np.array([st * math.cos(state.phi), st * math.sin(state.phi), math.cos(state.theta)])


DENSITY_TOL = 1e-9  # Hermiticity and unit trace of a density matrix
PSD_TOL = 1e-12  # how far below 0 a density matrix's eigenvalue may fall


def validate_density_matrix(rho) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace (within ``DENSITY_TOL``) and
    positivity (within ``PSD_TOL``) of a 2x2 density matrix; returns it as a
    complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(rho[0, 0].real + rho[1, 1].real - 1.0) > DENSITY_TOL:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    # analytic 2x2 eigenvalues: m +- sqrt(m^2 - det)
    m = 0.5 * (rho[0, 0].real + rho[1, 1].real)
    det = rho[0, 0].real * rho[1, 1].real - (rho[0, 1] * rho[1, 0]).real
    if m - math.sqrt(max(m * m - det, 0.0)) < -PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def amplitude_damping_kraus(lambda_a: float) -> list[np.ndarray]:
    """Kraus operators A0 = [[1, 0], [0, sqrt(1 - la)]], A1 = [[0, sqrt(la)],
    [0, 0]] of amplitude damping."""
    return [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lambda_a)]], dtype=complex),
        np.array([[0.0, math.sqrt(lambda_a)], [0.0, 0.0]], dtype=complex),
    ]


def phase_damping_kraus(lambda_p: float) -> list[np.ndarray]:
    """Kraus operators P0 = [[1, 0], [0, sqrt(1 - lp)]], P1 = [[0, 0],
    [0, sqrt(lp)]] of phase damping."""
    return [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lambda_p)]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, math.sqrt(lambda_p)]], dtype=complex),
    ]


def apply_channel_kraus(rho, params) -> np.ndarray:
    """Amplitude-then-phase damping of a density matrix as the Kraus sum
    sum_i P_i (sum_j A_j rho A_j^dag) P_i^dag, after checking its input."""
    rho = validate_density_matrix(rho)
    amp = sum(a @ rho @ a.conj().T for a in amplitude_damping_kraus(params.lambda_a))
    return sum(p @ amp @ p.conj().T for p in phase_damping_kraus(params.lambda_p))


RX_PLUS = rx(0.5 * math.pi)
RX_MINUS = rx(-0.5 * math.pi)


def noisy_gate_stepwise(angles, rho, params) -> np.ndarray:
    """The noisy native gate of EulerAngles on a density matrix, pulse by
    pulse, with the damping of NoiseParams after each physical pulse:

    rho1 = N(R_x(pi/2) R_z(delta) rho R_z(delta)^dag R_x(pi/2)^dag)
    rho2 = N(R_x(-pi/2) R_z(gamma) rho1 R_z(gamma)^dag R_x(-pi/2)^dag)
    out  = R_z(beta) rho2 R_z(beta)^dag

    with N the Kraus sum of ``apply_channel_kraus``.  Accepts mixed inputs."""
    u1 = RX_PLUS @ rz(angles.delta)
    rho = apply_channel_kraus(u1 @ rho @ u1.conj().T, params)
    u2 = RX_MINUS @ rz(angles.gamma)
    rho = apply_channel_kraus(u2 @ rho @ u2.conj().T, params)
    u3 = rz(angles.beta)
    return u3 @ rho @ u3.conj().T


def point_fidelity(target, trial, state, params) -> float:
    """<psi_t| rho_trial |psi_t> for the pure input |psi> of a BlochState:
    |psi_t> = U(target) |psi>, and rho_trial the noisy output of the trial
    angles from the pulse-by-pulse Kraus channel ``noisy_gate_stepwise``."""
    psi_t = zyz_unitary(target) @ state_vector(state)
    rho = noisy_gate_stepwise(trial, projector(state), params)
    return float(np.real(psi_t.conj() @ rho @ psi_t))


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles modulo 2 pi."""
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether a = e^{i theta} b elementwise within tol for some theta, the
    phase read off the overlap tr(b^dag a)."""
    overlap = np.trace(b.conj().T @ a)
    return bool(np.abs(a - overlap / abs(overlap) * b).max() < tol)


def sign_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise distance between a and +b or -b, whichever is
    nearer: the distance of two SU(2) matrices up to their sign only."""
    return float(min(np.abs(a - b).max(), np.abs(a + b).max()))


def quaternion_unitary(w, x, y, z) -> np.ndarray:
    """V = w I - i (x X + y Y + z Z), the SU(2) image of the quaternion
    (w, x, y, z) under i, j, k -> -iX, -iY, -iZ."""
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


def bloch_density(v) -> np.ndarray:
    """The density matrix 1/2 (I + v.sigma) of a Bloch vector v."""
    x, y, z = v
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def cap_density(theta_max: float, theta: float) -> float:
    """Density of the uniform polar cap theta < theta_max in the measure
    d(theta) d(phi): sin(theta) / (2 pi (1 - cos(theta_max)))."""
    if theta >= theta_max:
        return 0.0
    return math.sin(theta) / (2.0 * math.pi * (1.0 - math.cos(theta_max)))


def calibration_signal(alpha: float, params) -> float:
    """Survival of |0> through R_x(alpha), one damping step, then the
    recovery pulse R_x(pi/2): 1/2 (1 + sqrt(1-la) sqrt(1-lp) sin(alpha)),
    maximized at alpha = pi/2."""
    shrink = math.sqrt(1.0 - params.lambda_a) * math.sqrt(1.0 - params.lambda_p)
    return 0.5 * (1.0 + shrink * math.sin(alpha))


def circle_optimum(target, r, params, points: int = 64) -> float:
    """The best fidelity of ``target`` for the Bloch-vector input r on the
    target's stabilizer circle: the decompositions V_phi = Rot(m, phi) U,
    m the direction of U r, which all send r where U does.

    V_phi is scored at phi = 2 pi k / points on both Euler branches of
    ``extract_euler(V_phi)``, (beta, gamma, delta) and (beta + pi, -gamma,
    delta + pi), with the package's objective; scipy's L-BFGS-B then polishes
    the best point of each branch.  Returns the largest F found, clamped to
    [0, 1] as ``optimize_gate`` reports it.
    """
    from scipy import optimize as sciopt

    from noisy_euler import extract_euler, moment_objective

    r = np.asarray(r, dtype=float)
    fg = moment_objective(target, r, np.outer(r, r), params)
    u = zyz_unitary(target)
    out = u @ bloch_density(r) @ u.conj().T
    m = np.array([2.0 * out[1, 0].real, 2.0 * out[1, 0].imag, (out[0, 0] - out[1, 1]).real])
    m /= np.linalg.norm(m)
    best = [(-math.inf, None), (-math.inf, None)]
    for k in range(points):
        half = math.pi * k / points
        a = extract_euler(quaternion_unitary(math.cos(half), *(math.sin(half) * m)) @ u)
        for branch, x in enumerate([
            (a.beta, a.gamma, a.delta), (a.beta + math.pi, -a.gamma, a.delta + math.pi)
        ]):
            best[branch] = max(best[branch], (fg(x)[0], x))

    def neg(x):
        f, g, _ = fg(x)
        return -f, -np.array(g)

    f_best = max(f for f, _ in best)
    for _, x in best:
        ref = sciopt.minimize(neg, x, jac=True, method="L-BFGS-B",
                              options={"maxiter": 1000, "gtol": 1e-12, "ftol": 1e-16})
        f_best = max(f_best, -ref.fun)
    return min(max(f_best, 0.0), 1.0)


def point_score(angles, u, n, la: float, lp: float) -> float:
    """Fidelity 1/2 (1 + u.(A n + t)) of ``angles``' noisy map on the pure
    input n against the target's ideal output u = R n, clamped to [0, 1],
    with A n + t from ``noise._apply_all`` under lambda_a = la, lambda_p = lp."""
    from noisy_euler.noise import _apply_all, _damping

    x, y, z = _apply_all(angles.beta, angles.gamma, angles.delta, (_damping(la, lp),), (n,))[0]
    return min(max(0.5 * (1.0 + u[0] * x + u[1] * y + u[2] * z), 0.0), 1.0)


def expected_improvement(lam: float, m1, m2) -> tuple[float, float]:
    """The mean E and variance Var, over targets whose gamma has the density
    sin(gamma) / 2 on [0, pi], of the improvement imp(gamma) that
    ``optimize_gate`` reports for the target (0, gamma, 0), the moments m1,
    m2 and lambda_a = lambda_p = lam.

    The improvement depends on the target only through gamma, and both a
    Haar target and a prep target with uniform z give gamma that density,
    so E is a sweep cell's expectation.  E = 1/2 int imp sin and
    Var = 1/2 int (imp - E)^2 sin are computed with ``scipy.integrate.quad``,
    with breakpoints at c lam and pi - c lam for c in 1/2, 1, 2, 4.  These
    fall inside the polar dips, where the improvement is below 0.9 of its
    flat value for gamma < 0.76 lam.  The package's own optimizer runs
    inside, so this checks the sweeps' streams, sampling and scoring, not
    the optimizer.
    """
    from scipy import integrate

    from noisy_euler import EulerAngles, NoiseParams, optimize_gate

    params = NoiseParams.from_lambda(lam)

    def imp(gamma: float) -> float:
        return optimize_gate(EulerAngles(0.0, gamma, 0.0), m1, m2, params).improvement

    points = sorted({p for c in (0.5, 1.0, 2.0, 4.0) for p in (c * lam, math.pi - c * lam)
                     if 0.0 < p < math.pi}) or None

    def average(f) -> float:
        return 0.5 * integrate.quad(lambda g: f(g) * math.sin(g), 0.0, math.pi, points=points,
                                    limit=200, epsabs=1e-14, epsrel=1e-10)[0]

    mean = average(imp)
    return mean, average(lambda g: (imp(g) - mean) ** 2)


def rb_unopt_rate(params, nodes: int = 100) -> float:
    """First-order RB error rate of the unoptimized arm: the mean of
    1 - F over RB's gate distribution, F the fidelity at the gate's own
    angles for a uniform input (``moment_objective`` on ``cap_moments(pi)``).

    F depends on the gate only through gamma, and a rotation by a ~ U[0, 2 pi)
    about an axis with z-component n_z ~ U[-1, 1] has
    cos^2(gamma/2) = cos^2(a/2) + sin^2(a/2) n_z^2.  That is symmetric under
    a -> 2 pi - a and n_z -> -n_z, so the mean is taken with a product
    Gauss-Legendre rule of ``nodes`` points on a in [0, pi] and on n_z in
    [0, 1].
    """
    from noisy_euler import EulerAngles, cap_moments, moment_objective

    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # nodes and weights on [0, 1]
    m1, m2 = cap_moments(math.pi)
    total = 0.0
    for a, wa in zip(math.pi * x, w):
        for nz, wz in zip(x, w):
            c2 = math.cos(0.5 * a) ** 2 + math.sin(0.5 * a) ** 2 * nz * nz
            gamma = 2.0 * math.acos(min(math.sqrt(c2), 1.0))
            f = moment_objective(EulerAngles(0.0, gamma, 0.0), m1, m2, params)((0.0, gamma, 0.0))[0]
            total += wa * wz * (1.0 - f)
    return total


def bisection_decay_rate(depths, fidelities) -> float:
    """``rb.fit_decay``'s a as first written: the log-linear start from
    ``np.polyfit``, a bracket found by halving or doubling from it, and
    bisection on the sign of S'(a) down to adjacent floats (a = inf where
    S still falls at the underflow of e^{-a min x}, or where the sign change
    lies past the underflow of e^{-2 a min x}, which is no root).  The
    package finds its bracket another way and must return the same float."""
    x = np.asarray(depths, dtype=float)
    z = 2.0 * np.asarray(fidelities, dtype=float) - 1.0

    def falling(a: float) -> bool:
        e = np.exp(-a * x)
        return float(np.dot(x * e, e - z)) > 0.0

    slope = np.polyfit(x, np.log(np.clip(z, 1e-12, None)), 1)[0]
    lo = hi = max(1e-12, -float(slope))
    while not falling(lo):
        lo, hi = 0.5 * lo, lo
    while falling(hi):
        lo, hi = hi, 2.0 * hi
        if math.exp(-hi * x.min()) == 0.0:
            return math.inf
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if falling(mid):
            lo = mid
        else:
            hi = mid
    return math.inf if math.exp(-2.0 * hi * x.min()) == 0.0 else hi


def free_decay_fit(depths, means) -> tuple[float, float, float]:
    """Least-squares fit of A p^d + B to RB survival means, free amplitude
    and plateau, as (rate (1 - p) / 2, A, B).  With p = e^{-k}, A and B are
    a linear least-squares solve at each k; k is the best of a log grid on
    [1e-6, 0.1], refined by bounded Brent between its grid neighbours (a
    local search alone can stop at k so large that A p^d fits the first
    depth only)."""
    from scipy import optimize

    d = np.asarray(depths, dtype=float)
    y = np.asarray(means, dtype=float)

    def solve(k: float):
        basis = np.column_stack([np.exp(-k * d), np.ones_like(d)])
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        return coef, float(np.sum((basis @ coef - y) ** 2))

    grid = np.geomspace(1e-6, 0.1, 201)
    i = int(np.argmin([solve(k)[1] for k in grid]))
    k = optimize.minimize_scalar(lambda k: solve(k)[1], method="bounded",
                                 bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
                                 options={"xatol": 1e-14}).x
    (a, b), _ = solve(k)
    return 0.5 * -math.expm1(-k), float(a), float(b)


def readout_matrix(p10: float, p01: float) -> np.ndarray:
    """The readout confusion matrix M = [[1 - p10, p01], [p10, 1 - p01]]
    acting on the outcome distribution (P(0), P(1))."""
    return np.array([[1.0 - p10, p01], [p10, 1.0 - p01]])


def readout_apply(p0: float, p10: float, p01: float) -> float:
    """P(0) read out from the ideal distribution (p0, 1 - p0) through M."""
    return float((readout_matrix(p10, p01) @ np.array([p0, 1.0 - p0]))[0])


def readout_mitigate(p0_measured: float, p10: float, p01: float) -> float:
    """P(0) of the distribution x with M x = (p0_measured, 1 - p0_measured),
    by a linear solve, unclipped."""
    return float(np.linalg.solve(readout_matrix(p10, p01),
                                 np.array([p0_measured, 1.0 - p0_measured]))[0])


# The package's random draws as first written, one ``Generator.uniform`` call
# a number.  The package scales ``Generator.random()`` itself, as
# lo + (hi - lo) u, which is the value ``uniform`` returns, so its draws must
# equal these bit for bit and older manifests replay unchanged.

def uniform_quaternion(rng) -> tuple[float, float, float, float]:
    """An RB gate: the quaternion (cos a/2, sin a/2 n) with z = uniform(-1, 1),
    then azimuth and a = uniform(0, 2 pi), and n = (s cos azimuth,
    s sin azimuth, z), s = sqrt(1 - z^2)."""
    z = rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, math.tau)
    angle = rng.uniform(0.0, math.tau)
    s = math.sqrt(max(0.0, 1.0 - z * z))
    h = math.sin(0.5 * angle)
    return math.cos(0.5 * angle), h * (s * math.cos(azimuth)), h * (s * math.sin(azimuth)), h * z


def uniform_cap_state(rng, theta_max: float) -> tuple[float, float]:
    """A knowledge sweep's cap sample (theta, phi): theta =
    acos(1 - u (1 - cos theta_max)) for u = uniform(), then phi =
    uniform(0, 2 pi)."""
    u = rng.uniform()
    return math.acos(1.0 - u * (1.0 - math.cos(theta_max))), rng.uniform(0.0, math.tau)


def haar_gate(rng):
    """A knowledge sweep's target gate, drawn alone: the Haar-random SU(2)
    element of the uniform unit quaternion ``standard_normal(4)``, divided
    by its norm, as the package's canonical EulerAngles
    (``gates._zyz_from_quaternion``).  A knowledge row converts its
    targets' draws as arrays and must reproduce this rule bit for bit."""
    from noisy_euler.gates import _zyz_from_quaternion

    w, x, y, z = rng.standard_normal(4).tolist()
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return _zyz_from_quaternion(w / norm, x / norm, y / norm, z / norm)


def cap_sample(rng, theta_max: float) -> tuple[float, float]:
    """A knowledge sweep's cap sample, drawn alone: a state uniform on the
    polar cap theta < theta_max, as (theta, phi) floats, by inverting the
    CDF of cos(theta): theta = acos(1 - u (1 - cos(theta_max))) for
    u = rng.random() on [0, 1), then phi = 2 pi rng.random().  A knowledge
    row builds its samples' Bloch vectors as arrays and must reproduce this
    rule bit for bit; ``uniform_cap_state`` is the same rule through
    ``Generator.uniform``."""
    u = rng.random()
    theta = math.acos(1.0 - u * (1.0 - math.cos(theta_max)))
    return theta, math.tau * rng.random()


def uniform_prep_target(rng) -> tuple[float, float]:
    """A preparation sweep's target state as (z, phi): z = uniform(-1, 1),
    then phi = uniform(0, 2 pi)."""
    return rng.uniform(-1.0, 1.0), rng.uniform(0.0, math.tau)


def uniform_starts(rng, m: int) -> list[tuple[float, float, float]]:
    """m extra (beta, gamma, delta) starts for ``optimize_gate``, drawn as
    one ``rng.uniform(0, 2 pi, (m, 3))`` array, as the optimizer itself once
    drew them for RB's multistart."""
    return [tuple(x) for x in rng.uniform(0.0, math.tau, (m, 3)).tolist()]
