"""Unit tests for the preparation and state-knowledge sweeps."""

import math
from dataclasses import astuple, replace
from statistics import NormalDist

import numpy as np
import pytest

from noisy_euler import (
    BlochState,
    EulerAngles,
    NoiseParams,
    SweepConfig,
    bundled_device,
    cap_moments,
    knowledge_sweep,
    noise_params_for,
    point_moments,
    prep_improvement_sweep,
)
from noisy_euler import experiments, optimize
from noisy_euler.gates import _bloch_vector
from noisy_euler.noise import _NOISELESS, _apply_all, _damping
from noisy_euler.objectives import _point_moments, _read_moments
from noisy_euler.optimize import _optimize, _optimize_points, _optimize_rows, optimize_gate
from noisy_euler.rb import RB_GRADIENT_TOLERANCE
from reference import (
    cap_sample,
    expected_improvement,
    haar_gate,
    point_fidelity,
    point_score,
    uniform_prep_target,
    zyz_unitary,
)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=())
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(0.0, 1.0))  # lambda = 1 not allowed
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(-0.1,))
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(0.1,), theta_max_grid=(0.0,))
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(0.1,), theta_max_grid=(4.0,))
    with pytest.raises(ValueError):
        # the cap rule of cap_moments, not a looser one
        SweepConfig(lambda_grid=(0.1,), theta_max_grid=(0.5, math.pi + 1e-13))
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(0.1,), targets_per_point=0)
    for targets in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="targets_per_point must be an int"):
            SweepConfig(lambda_grid=(0.1,), targets_per_point=targets)


def test_haar_gate_image_is_uniform():
    """A Haar gate maps |0> to a uniformly distributed state: the image's
    z-coordinate must be uniform on [-1, 1] (mean 0), unlike axis-angle
    sampling which biases it to 1/3."""
    rng = np.random.default_rng(0)
    n = 20000
    zs = np.empty(n)
    for i in range(n):
        u = zyz_unitary(haar_gate(rng))
        zs[i] = 2.0 * abs(u[0, 0]) ** 2 - 1.0
    se = zs.std(ddof=1) / math.sqrt(n)
    assert abs(zs.mean()) < 4 * se
    hist, _ = np.histogram(zs, bins=20, range=(-1, 1))
    chi2 = float(np.sum((hist - n / 20) ** 2 / (n / 20)))
    assert chi2 < 43.8  # dof 19, p ~ 1e-3


# -------------------------------------------------------------------- prep

def test_prep_sweep_zero_noise_row_is_exactly_zero():
    cfg = SweepConfig(lambda_grid=(0.0,), targets_per_point=20, rng_seed=3)
    result = prep_improvement_sweep(cfg)
    (row,) = result.rows
    assert row.mean_improvement == 0.0
    assert row.stderr == 0.0
    assert row.theta_max is None
    assert row.n_samples == 20


def test_prep_sweep_positive_and_increasing():
    cfg = SweepConfig(lambda_grid=(0.01, 0.05, 0.1), targets_per_point=30, rng_seed=1)
    result = prep_improvement_sweep(cfg)
    imps = [row.mean_improvement for row in result.rows]
    assert all(v > 0.0 for v in imps)
    assert imps[0] < imps[1] < imps[2]


def test_prep_sweep_row_order_follows_grid():
    cfg = SweepConfig(lambda_grid=(0.07, 0.02, 0.04), targets_per_point=5)
    result = prep_improvement_sweep(cfg)
    assert [row.lam for row in result.rows] == [0.07, 0.02, 0.04]
    assert result.kind == "prep"


def test_prep_sweep_deterministic_and_jobs_invariant():
    cfg = SweepConfig(lambda_grid=(0.0, 0.05), targets_per_point=10, rng_seed=7)
    a = prep_improvement_sweep(cfg)
    b = prep_improvement_sweep(cfg)
    c = prep_improvement_sweep(cfg, jobs=2)
    assert a.rows == b.rows == c.rows


def recorded_targets(monkeypatch, sweep, cfg):
    """Each cell's targets, in draw order, as the sweep passes them to
    the optimizer: one ``_optimize_points`` batch per preparation cell,
    one ``_optimize_rows`` batch per lambda of the knowledge sweep, its
    cells' targets in turn."""
    targets = []

    def record_points(rows, *args, **kwargs):
        targets.extend(EulerAngles(*row) for row in rows.tolist())
        return _optimize_points(rows, *args, **kwargs)

    def record_rows(rows, *args, **kwargs):
        targets.extend(EulerAngles(*row) for row in rows.tolist())
        return _optimize_rows(rows, *args, **kwargs)

    monkeypatch.setattr(experiments, "_optimize_points", record_points)
    monkeypatch.setattr(experiments, "_optimize_rows", record_rows)
    sweep(cfg)
    k = cfg.targets_per_point
    return [targets[i:i + k] for i in range(0, len(targets), k)]


@pytest.mark.parametrize("sweep", [prep_improvement_sweep, knowledge_sweep])
def test_first_targets_of_a_cell_ignore_targets_per_point(monkeypatch, sweep):
    """One stream per cell: target r depends only on the targets before it,
    so a cell's first 3 targets are the same at 3 and at 5 targets."""
    cfg = SweepConfig(lambda_grid=(0.0, 0.05), theta_max_grid=(0.4, math.pi),
                      targets_per_point=3, rng_seed=4)
    three = recorded_targets(monkeypatch, sweep, cfg)
    five = recorded_targets(monkeypatch, sweep, replace(cfg, targets_per_point=5))
    assert len(three) == len(five) == (2 if sweep is prep_improvement_sweep else 4)
    assert [cell[:3] for cell in five] == three
    assert all(len(set(cell)) == 5 for cell in five)


@pytest.mark.parametrize("seed", [0, 7, 2309])
def test_prep_targets_equal_scalar_uniform_rule(monkeypatch, seed):
    """Each cell's targets (2 x 5,000, with the optimizer stubbed out) are,
    bit for bit, the states drawn by scalar ``Generator.uniform`` calls from
    the cell's stream."""
    targets = []

    def record(rows, *args, **kwargs):
        targets.extend(EulerAngles(*row) for row in rows.tolist())
        zeros = np.zeros(len(rows))
        return np.zeros((len(rows), 3)), zeros, zeros, zeros.astype(int), zeros == 0.0

    monkeypatch.setattr(experiments, "_optimize_points", record)
    prep_improvement_sweep(SweepConfig(lambda_grid=(0.0, 0.05), targets_per_point=5000,
                                       rng_seed=seed))
    want = []
    for li in range(2):
        ref = np.random.default_rng([seed, 0, li])
        for _ in range(5000):
            z, phi = uniform_prep_target(ref)
            want.append(EulerAngles(phi, math.acos(z), 0.0))
    assert targets == want


@pytest.mark.parametrize("seed", [0, 7, 2309])
def test_knowledge_draws_equal_scalar_rules(monkeypatch, seed):
    """A knowledge row's targets and sampled states (4 cells x 2,500, with
    the optimizer stubbed out), converted as arrays, are, bit for bit, the
    angles of ``haar_gate`` and the Bloch vectors of ``cap_sample`` drawn
    one at a time from each cell's stream."""
    cfg = SweepConfig(lambda_grid=(0.05,), theta_max_grid=(1e-6, 0.4, 2.0, math.pi),
                      targets_per_point=2500, rng_seed=seed)
    targets, states = [], []

    def record(rows, *args, **kwargs):
        targets.extend(EulerAngles(*row) for row in rows.tolist())
        zeros = np.zeros(len(rows))
        return rows, zeros, zeros, zeros.astype(int), zeros == 0.0

    def record_states(*args):
        (rs,) = args[4]
        states.extend(map(tuple, rs[:, :rs.shape[1] // 2].T.tolist()))
        return _apply_all(*args)

    monkeypatch.setattr(experiments, "_optimize_rows", record)
    monkeypatch.setattr(experiments, "_apply_all", record_states)
    knowledge_sweep(cfg)
    want_targets, want_states = [], []
    for mi, theta_max in enumerate(cfg.theta_max_grid):
        ref = np.random.default_rng([seed, 1, 0, mi])
        for _ in range(cfg.targets_per_point):
            want_targets.append(haar_gate(ref))
            want_states.append(_bloch_vector(*cap_sample(ref, theta_max)))
    assert targets == want_targets
    assert states == want_states


SMALL_GRID = SweepConfig(lambda_grid=(0.0, 0.05), theta_max_grid=(0.4, 1.5, math.pi),
                         targets_per_point=5, rng_seed=6)


def test_each_cell_reads_its_moments_once(monkeypatch):
    """A sweep cell reads and checks its input moments once, not once per
    target: one ``_read_moments`` call per knowledge cell (its cap), and
    none through the public ``optimize_gate``.  A preparation cell reads
    none: its input is the constant |0> row of its point batch."""
    calls = []

    def counting(m1, m2):
        calls.append((m1, m2))
        return _read_moments(m1, m2)

    monkeypatch.setattr(experiments, "_read_moments", counting)
    monkeypatch.setattr(optimize, "_read_moments", counting)
    knowledge_sweep(SMALL_GRID)
    assert calls == [cap_moments(tm) for _ in SMALL_GRID.lambda_grid
                     for tm in SMALL_GRID.theta_max_grid]


# A second grid at the ends of both axes: no noise and lambda near 1, a cap
# that is rank-1 to the bit and the whole sphere.
EDGE_GRID = SweepConfig(lambda_grid=(0.0, 0.999), theta_max_grid=(1e-6, math.pi),
                        targets_per_point=5)


@pytest.mark.parametrize("grid", [SMALL_GRID, EDGE_GRID], ids=["small", "edge"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_cells_equal_the_public_optimizer_loop(monkeypatch, grid, seed):
    """Each cell's improvements equal, ==, a loop that draws the same
    per-cell streams by the scalar draw rules (``haar_gate``,
    ``cap_sample``, ``uniform_prep_target``) and calls the public
    ``optimize_gate`` per target, so neither the cells' array conversions
    of their draws nor their once-read moments can drift from the public
    path."""
    grid = replace(grid, rng_seed=seed)
    recorded = []

    def recording(lam, theta_maxes, imps):
        recorded.extend(imps.copy())
        return [experiments.SweepRow(lam, tm, 0.0, 0.0, imps.shape[1]) for tm in theta_maxes]

    monkeypatch.setattr(experiments, "_row_stats", recording)
    knowledge_sweep(grid)
    prep_improvement_sweep(grid)
    want = []
    for li, lam in enumerate(grid.lambda_grid):
        params = NoiseParams.from_lambda(lam)
        for mi, theta_max in enumerate(grid.theta_max_grid):
            rng = np.random.default_rng([grid.rng_seed, 1, li, mi])
            imps = []
            for _ in range(grid.targets_per_point):
                target = haar_gate(rng)
                opt = optimize_gate(target, *cap_moments(theta_max), params).angles_opt
                n = _bloch_vector(*cap_sample(rng, theta_max))
                u = _apply_all(*astuple(target), (_NOISELESS,), (n,))[0]
                la, lp = params.lambda_a, params.lambda_p
                imps.append(point_score(opt, u, n, la, lp) - point_score(target, u, n, la, lp))
            want.append(imps)
    for li, lam in enumerate(grid.lambda_grid):
        rng = np.random.default_rng([grid.rng_seed, 0, li])
        imps = []
        for _ in range(grid.targets_per_point):
            z, phi = uniform_prep_target(rng)
            target = EulerAngles(phi, math.acos(z), 0.0)
            imps.append(optimize_gate(target, *point_moments(0.0, 0.0),
                                      NoiseParams.from_lambda(lam)).improvement)
        want.append(imps)
    n_lam, n_cap = len(grid.lambda_grid), len(grid.theta_max_grid)
    assert len(recorded) == len(want) == n_lam * (n_cap + 1)
    assert all(got.tolist() == imps for got, imps in zip(recorded, want))
    assert any(max(imps) > 0.0 for imps in want)


def test_prep_sweep_seed_changes_samples():
    cfg1 = SweepConfig(lambda_grid=(0.05,), targets_per_point=10, rng_seed=1)
    cfg2 = SweepConfig(lambda_grid=(0.05,), targets_per_point=10, rng_seed=2)
    r1 = prep_improvement_sweep(cfg1).rows[0]
    r2 = prep_improvement_sweep(cfg2).rows[0]
    # means are close (same physics) but not bit-identical
    assert r1.mean_improvement != r2.mean_improvement
    assert abs(r1.mean_improvement - r2.mean_improvement) < 1e-4


# --------------------------------------------------------------- knowledge

def test_point_score_matches_kraus_reference():
    """The knowledge score of a decomposition on one pure input equals the
    pulse-by-pulse Kraus fidelity, clamped, within 1e-12."""
    rng = np.random.default_rng(21)
    for _ in range(300):
        target = haar_gate(rng)
        trial = EulerAngles(*rng.uniform(-math.pi, 3 * math.pi, 3))
        lam_a, lam_p = rng.choice([0.0, 1e-4, 0.05, 0.5, 0.999], 2)
        params = NoiseParams(lam_a, lam_p)
        state = BlochState(*cap_sample(rng, math.pi))
        n = _bloch_vector(state.theta, state.phi)
        u = _apply_all(*astuple(target), (_NOISELESS,), (n,))[0]
        want = min(max(point_fidelity(target, trial, state, params), 0.0), 1.0)
        assert abs(point_score(trial, u, n, params.lambda_a, params.lambda_p) - want) < 1e-12


def test_knowledge_cells_match_kraus_reference():
    """Each knowledge cell's mean and standard error, replayed from its
    stream with every score taken by the Kraus reference, agree within
    1e-12."""
    cfg = SweepConfig(lambda_grid=(0.05, 0.3), theta_max_grid=(0.4, 2.0),
                      targets_per_point=20, rng_seed=3)
    rows = knowledge_sweep(cfg).rows
    for row, (li, mi) in zip(rows, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        params = NoiseParams.from_lambda(row.lam)
        rng = np.random.default_rng([cfg.rng_seed, 1, li, mi])
        imps = []
        for _ in range(cfg.targets_per_point):
            target = haar_gate(rng)
            opt = optimize_gate(target, *cap_moments(row.theta_max), params).angles_opt
            state = BlochState(*cap_sample(rng, row.theta_max))
            f_opt, f_seed = (min(max(point_fidelity(target, a, state, params), 0.0), 1.0)
                             for a in (opt, target))
            imps.append(f_opt - f_seed)
        assert abs(row.mean_improvement - np.mean(imps)) < 1e-12
        assert abs(row.stderr - np.std(imps, ddof=1) / math.sqrt(len(imps))) < 1e-12


def test_knowledge_sweep_requires_caps():
    cfg = SweepConfig(lambda_grid=(0.1,))
    with pytest.raises(ValueError):
        knowledge_sweep(cfg)


def test_knowledge_full_sphere_column_is_exactly_zero():
    cfg = SweepConfig(
        lambda_grid=(0.02, 0.08),
        theta_max_grid=(math.pi,),
        targets_per_point=8,
        rng_seed=5,
    )
    result = knowledge_sweep(cfg)
    for row in result.rows:
        assert row.mean_improvement == 0.0
        assert row.stderr == 0.0


def test_knowledge_zero_noise_is_exactly_zero():
    cfg = SweepConfig(
        lambda_grid=(0.0,), theta_max_grid=(0.5, math.pi), targets_per_point=8
    )
    result = knowledge_sweep(cfg)
    for row in result.rows:
        assert row.mean_improvement == 0.0


def test_knowledge_more_certainty_helps_more():
    cfg = SweepConfig(
        lambda_grid=(0.05,),
        theta_max_grid=(math.pi / 8, 7 * math.pi / 8),
        targets_per_point=40,
        rng_seed=9,
    )
    tight, loose = knowledge_sweep(cfg).rows
    assert tight.theta_max == math.pi / 8
    assert tight.mean_improvement > loose.mean_improvement
    assert tight.mean_improvement > 0.0


def test_knowledge_row_order_lambda_major():
    cfg = SweepConfig(
        lambda_grid=(0.01, 0.02),
        theta_max_grid=(0.3, 0.6),
        targets_per_point=3,
    )
    rows = knowledge_sweep(cfg).rows
    assert [(r.lam, r.theta_max) for r in rows] == [
        (0.01, 0.3),
        (0.01, 0.6),
        (0.02, 0.3),
        (0.02, 0.6),
    ]


def test_knowledge_deterministic_and_jobs_invariant():
    cfg = SweepConfig(
        lambda_grid=(0.03, 0.2), theta_max_grid=(0.4, 2.0), targets_per_point=6, rng_seed=11
    )
    a = knowledge_sweep(cfg)
    b = knowledge_sweep(cfg, jobs=2)
    assert a.rows == b.rows


def test_knowledge_tight_cap_approaches_prep_improvement():
    """As the cap shrinks, knowing the state almost exactly should recover
    preparation-level gains (same lambda, same seed budget)."""
    lam = 0.05
    cap = math.pi / 25
    kcfg = SweepConfig(
        lambda_grid=(lam,), theta_max_grid=(cap,), targets_per_point=60, rng_seed=13
    )
    pcfg = SweepConfig(lambda_grid=(lam,), targets_per_point=60, rng_seed=13)
    krow = knowledge_sweep(kcfg).rows[0]
    prow = prep_improvement_sweep(pcfg).rows[0]
    se = math.hypot(krow.stderr, prow.stderr)
    assert abs(krow.mean_improvement - prow.mean_improvement) <= 3 * se + 1e-5


def bonferroni_z(tests: int, family_wise: float = 1e-3) -> float:
    """The two-sided normal quantile that keeps ``tests`` z-tests' chance of
    any false alarm at ``family_wise``."""
    return NormalDist().inv_cdf(1.0 - family_wise / (2 * tests))


def test_knowledge_cells_lie_within_se_of_their_exact_mean():
    """Each knowledge cell's mean is a sample of the exact cap improvement
    ``expected_improvement`` integrates: a cell's score on one cap sample
    averages to the cap's expected fidelity.  The four cells with se > 0
    lie within the Bonferroni z (3.66, family-wise 1e-3) of it, at
    |z| = 0.35-1.15 on this seed.  The pi-cap cells and their E are both
    exactly 0."""
    cfg = SweepConfig(lambda_grid=(0.05, 0.1), theta_max_grid=(0.4, 1.5, math.pi),
                      targets_per_point=100)
    rows = knowledge_sweep(cfg).rows
    z = bonferroni_z(4)
    for row in rows:
        mean, _ = expected_improvement(row.lam, *cap_moments(row.theta_max))
        if row.theta_max == math.pi:
            assert row.mean_improvement == mean == 0.0
        else:
            assert row.stderr > 0.0
            assert abs(row.mean_improvement - mean) <= z * row.stderr, row


def test_prep_rows_lie_within_exact_se_of_their_exact_mean():
    """The prep improvement is flat in gamma outside polar dips of width
    about lam, so 100 targets rarely land in one and a row's own stderr is
    about 1e-17: no error bar.  The exact se sqrt(Var / n) from
    ``expected_improvement`` is one (6.0e-7 at lam = 0.05, 5.0e-6 at 0.1).
    Both rows lie within the Bonferroni z (3.48, family-wise 1e-3) of E, at
    0.24 and 0.51 exact se on this seed, and the noiseless row is 0 as E is."""
    cfg = SweepConfig(lambda_grid=(0.0, 0.05, 0.1))
    rows = prep_improvement_sweep(cfg).rows
    z = bonferroni_z(2)
    for row in rows:
        mean, var = expected_improvement(row.lam, *point_moments(0.0, 0.0))
        if row.lam == 0.0:
            assert row.mean_improvement == mean == var == 0.0
        else:
            assert row.stderr < 1e-9
            assert abs(row.mean_improvement - mean) <= z * math.sqrt(var / row.n_samples), row


@pytest.mark.parametrize("qubit", range(5))
def test_bogota_drift_gain_is_a_mean_over_gates_and_states(qubit):
    """The paper's drift claim on ibmq_bogota, as this model holds it: per
    (Haar gate, uniform pure state) pair, optimize at the noise that
    coherence times 1/k of the true ones imply and score both decompositions
    at the true noise.  The mean improvement over 2,000 pairs from stream
    [17, qubit] is above 3 se for k <= 100 and below -3 se at k = 300, where
    drift has outgrown the model, so the test can fail.  Measured on the
    five qubits: z from +14.2 to +47.2 for k <= 100 and from -24.2 to -19.2
    at k = 300.  Single pairs already lose at k = 10 (43 to 78 of the 2,000),
    so "never decrease" holds for the mean, not for every gate."""
    true = noise_params_for(bundled_device("bogota").qubit(qubit))
    la, lp = true.lambda_a, true.lambda_p
    rng = np.random.default_rng([17, qubit])
    pairs = []
    for _ in range(2000):
        gate = haar_gate(rng)
        z, phi = -1.0 + 2.0 * rng.random(), math.tau * rng.random()
        s = math.sqrt(1.0 - z * z)
        pairs.append((gate, (s * math.cos(phi), s * math.sin(phi), z)))
    for k in (1, 10, 100, 300):
        assumed = true.assuming_drift(k)
        damping = _damping(assumed.lambda_a, assumed.lambda_p)
        imps = np.empty(len(pairs))
        for i, (gate, n) in enumerate(pairs):
            angles = _optimize(astuple(gate), _read_moments(*_point_moments(n)), damping, (),
                               RB_GRADIENT_TOLERANCE)[0]
            u = _apply_all(*astuple(gate), (_NOISELESS,), (n,))[0]
            imps[i] = (point_score(EulerAngles(*angles), u, n, la, lp)
                       - point_score(gate, u, n, la, lp))
        z_score = imps.mean() / (imps.std(ddof=1) / math.sqrt(imps.size))
        if k <= 100:
            assert z_score > 3.0, (k, z_score)
        else:
            assert z_score < -3.0, (k, z_score)
