"""The benchmark's workloads: CLI commands per repetition and output checks.

Every workload is a closed loop with one client: a repetition runs its CLI
commands in-process through ``noisy_euler.cli.main`` with ``--jobs 1``, and
the next repetition starts only when the previous one has been checked.  The
workload seed reaches the program only as the ``--seed`` of each command.

Each checked output point passes or fails; ``Tally`` counts them so the run
can report the share that failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROME_Q3 = ["--device", "rome", "--qubit", "3"]

# Fig. 3 of the paper: 246 random gates, survival measured every 7 gates.
FIG3_GATES = 246
DEPTH_STEP = 7

# Gate 8's grids.  The cap grid is passed as a comma list of exact floats that
# ends at math.pi: the README's ``--theta-max-grid 0.126:3.1416:25`` example is
# rejected by the CLI because 3.1416 > pi.
KNOWLEDGE_CAPS = [float(v) for v in np.linspace(math.pi / 25.0, math.pi, 25)]
KNOWLEDGE_LAMBDAS = [float(v) for v in np.linspace(0.0, 0.1, 2)]

# Gate 8 accepts the tightest-cap column within 3 standard errors of the prep
# sweep.  Under the null that comparison exceeds 3 se about once in 200 draws
# (200 seeded comparisons at 20 targets: 1 beyond 3 se, largest 3.09 se), so
# over the many repetitions of a benchmark campaign it would fail on noise
# alone.  A point fails only beyond this many se (at 12 targets per cell a
# Student-t tail of order 1e-5 per comparison); exceedances of 3 se are
# counted and reported beside it.
TIGHT_CAP_FAIL_SE = 6.0
GATE8_SE = 3.0


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def _finite_in(text: str, lo: float, hi: float) -> bool:
    try:
        x = float(text)
    except ValueError:
        return False
    return math.isfinite(x) and lo <= x <= hi


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Tally:
    """Checked output points of one run; ``notes`` names the failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    gate8_exceedances: int = 0

    def point(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])
        self.gate8_exceedances += other.gate8_exceedances

    def all_failed(self, n: int, what: str) -> None:
        """A repetition that raised: each of its ``n`` points counts as failed."""
        self.attempted += n
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(what)


@dataclass(frozen=True)
class RbWorkload:
    name: str
    why: str
    circuits: int
    gates: int
    track_noisy_state: bool
    gain_name = "error_rate_reduction"

    @property
    def predicted_dominant(self) -> str:
        if self.track_noisy_state:
            return "noise.noisy_gate_stepwise.share"
        return "objectives.fidelity.share"

    @property
    def depths(self) -> list[int]:
        return list(range(1, self.gates + 1, DEPTH_STEP))

    def _argv(self, seed: int, circuits: int, gates: int, depths: str) -> list[str]:
        argv = [
            "rb", *ROME_Q3, "--circuits", str(circuits), "--gates", str(gates),
            "--depths", depths, "--shots", "inf", "--k", "1", "--jobs", "1",
            "--seed", str(seed),
        ]
        if self.track_noisy_state:
            argv.append("--track-noisy-state")
        return argv

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return [("rb", self._argv(seed, self.circuits, self.gates,
                                  f"1:{self.gates}:{DEPTH_STEP}"))]

    def warmup_commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return [("rb", self._argv(seed, 1, 8, "1,4,8"))]

    @property
    def optimizations(self) -> int:
        """One per gate plus one per inverse gate at each measured depth."""
        return self.circuits * (self.gates + len(self.depths))

    @property
    def points(self) -> int:
        """Points one repetition checks: the row count, every CSV row, the
        arm ordering at each depth and the fitted error rates."""
        d = len(self.depths)
        return 1 + (2 * self.circuits * d + 2 * d) + d + 1

    def check(self, outdir: Path, tally: Tally) -> float:
        """Checks one repetition's outputs; returns the relative error-rate
        reduction (r_unopt - r_opt) / r_unopt."""
        rows = _read_csv(outdir / "rb.csv")
        d = len(self.depths)
        tally.point(len(rows) == 2 * self.circuits * d + 2 * d, "rb.csv row count")
        means: dict[tuple[int, str], float] = {}
        for row in rows:
            ok = _finite_in(row["fidelity"], 0.0, 1.0) and (
                row["stderr"] == "" or _finite_in(row["stderr"], 0.0, 1.0)
            )
            tally.point(ok, f"rb.csv value out of [0, 1]: {row}")
            if row["circuit_index"] == "" and ok:
                means[(int(row["depth"]), row["arm"])] = float(row["fidelity"])
        for depth in self.depths:
            opt, unopt = means.get((depth, "opt")), means.get((depth, "unopt"))
            tally.point(
                opt is not None and unopt is not None and opt >= unopt,
                f"opt mean below unopt at depth {depth}",
            )
        fits = json.loads((outdir / "rb_summary.json").read_text())["fits"]
        r_unopt, r_opt = fits["unopt"]["error_rate"], fits["opt"]["error_rate"]
        tally.point(r_opt < r_unopt, f"fitted error rate not lower: {r_opt} vs {r_unopt}")
        return (r_unopt - r_opt) / r_unopt


@dataclass(frozen=True)
class KnowledgeWorkload:
    name: str
    why: str
    targets: int
    gain_name = "knowledge_gain"
    predicted_dominant = "optimize.self_share"

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return self._commands(seed, KNOWLEDGE_LAMBDAS, KNOWLEDGE_CAPS, self.targets)

    def warmup_commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return self._commands(seed, [0.05], [KNOWLEDGE_CAPS[0], math.pi], 1)

    @staticmethod
    def _commands(seed, lambdas, caps, targets) -> list[tuple[str, list[str]]]:
        common = ["--lambda-grid", _grid(lambdas), "--targets", str(targets),
                  "--jobs", "1", "--seed", str(seed)]
        return [
            ("knowledge", ["knowledge", "--theta-max-grid", _grid(caps), *common]),
            ("prep", ["prep-sweep", *common]),
        ]

    @property
    def optimizations(self) -> int:
        n_lam = len(KNOWLEDGE_LAMBDAS)
        return n_lam * len(KNOWLEDGE_CAPS) * self.targets + n_lam * self.targets

    @property
    def points(self) -> int:
        """Points one repetition checks: two row counts, every CSV row, and
        per lambda the theta_max = pi cell and the tightest cap vs prep."""
        n_lam = len(KNOWLEDGE_LAMBDAS)
        return 2 + (n_lam * len(KNOWLEDGE_CAPS) + n_lam) + 2 * n_lam

    def check(self, outdir: Path, tally: Tally) -> float:
        """Checks one repetition's outputs (gate 8's endpoint tests); returns
        the mean ``mean_improvement`` over the knowledge cells."""
        kn = _read_csv(outdir / "knowledge.csv")
        pr = _read_csv(outdir / "prep.csv")
        n_lam = len(KNOWLEDGE_LAMBDAS)
        tally.point(len(kn) == n_lam * len(KNOWLEDGE_CAPS), "knowledge.csv row count")
        tally.point(len(pr) == n_lam, "prep.csv row count")
        for label, rows in (("knowledge", kn), ("prep", pr)):
            for row in rows:
                # mean_improvement is a difference of two fidelities, so it
                # lies in [-1, 1] and may be slightly negative.
                ok = (
                    _finite_in(row["lambda"], 0.0, 1.0)
                    and (row["theta_max"] == "" if label == "prep"
                         else _finite_in(row["theta_max"], 0.0, math.pi))
                    and _finite_in(row["mean_improvement"], -1.0, 1.0)
                    and _finite_in(row["stderr"], 0.0, 1.0)
                    and row["n_samples"] == str(self.targets)
                )
                tally.point(ok, f"{label}.csv value out of range: {row}")

        def cell(row):
            return float(row["mean_improvement"]), float(row["stderr"])

        by_cap: dict[float, list[dict[str, str]]] = {}
        for row in kn:
            by_cap.setdefault(float(row["theta_max"]), []).append(row)
        loose = by_cap.get(KNOWLEDGE_CAPS[-1], [])
        tight = by_cap.get(KNOWLEDGE_CAPS[0], [])
        for i in range(n_lam):
            if i < len(loose):
                mean, se = cell(loose[i])
                ok = abs(mean) <= GATE8_SE * se
            else:
                ok = False
            tally.point(ok, f"theta_max=pi column not within 3 se of 0 (lambda #{i})")
        exceed = 0
        for i in range(n_lam):
            ok = False
            if i < len(tight) and i < len(pr):
                (mk, sk), (mp, sp) = cell(tight[i]), cell(pr[i])
                diff, se = abs(mk - mp), math.hypot(sk, sp)
                ok = diff <= TIGHT_CAP_FAIL_SE * se if se > 0.0 else diff == 0.0
                exceed += diff > GATE8_SE * se if se > 0.0 else diff != 0.0
            tally.point(ok, f"tightest cap vs prep beyond {TIGHT_CAP_FAIL_SE} se (lambda #{i})")
        tally.gate8_exceedances += exceed
        return float(np.mean([float(r["mean_improvement"]) for r in kn]))


WORKLOADS = {
    w.name: w
    for w in (
        RbWorkload(
            name="rb_point",
            why=(
                "The paper's headline experiment (Fig. 3: rome qubit 3, 246 gates, "
                "depths 1:246:7, exact shots, k = 1). Point-input per-gate "
                "optimization dominates: objectives.fidelity (with "
                "gates.compose_zyz inside it) and scipy L-BFGS-B take nearly all "
                "the time; the cap quadrature never runs and noisy_gate_stepwise "
                "only propagates states."
            ),
            circuits=2,
            gates=FIG3_GATES,
            track_noisy_state=False,
        ),
        RbWorkload(
            name="rb_noisy_state",
            why=(
                "The same rb command with --track-noisy-state and fewer gates. The "
                "objective is the density-matrix channel, so noise.noisy_gate_stepwise "
                "runs inside every objective evaluation and objectives.fidelity not "
                "at all: a change to noise that helps propagation but costs the "
                "objective, or the reverse, shows here."
            ),
            circuits=2,
            gates=50,
            track_noisy_state=True,
        ),
        KnowledgeWorkload(
            name="knowledge_cap",
            why=(
                "The knowledge command plus prep-sweep on the same lambda grid, as "
                "gate 8 runs them, with gate 8's 25-cap grid ending exactly at pi "
                "and fewer lambdas and targets. The only workload where the cap "
                "quadrature runs; cap size and lambda set the certified order and "
                "so the working set of the 64-entry _cached_rule cache. It skips RB "
                "propagation and point fidelity."
            ),
            targets=12,
        ),
    )
}
