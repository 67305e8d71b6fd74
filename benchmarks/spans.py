"""Span tracing around calls into noisy_euler's public functions.

The tracer replaces, in each layer module, every public function attribute of
the package (and every scipy function the module imported) with a wrapper
that records a span: name, parent span, start, end and the repetition it
belongs to.  A function is wrapped where the *calling* module resolves it, so
``noisy_euler.optimize.fidelity`` and ``noisy_euler.rb.noisy_gate_stepwise``
are separate patch points that report under the defining module's name
(``objectives.fidelity``, ``noise.noisy_gate_stepwise``), while a scipy
function reports under its caller (``optimize.minimize``).  Private helpers
are not wrapped, so their time is the self time of the span that calls them;
the cap quadrature, for one, lands in the self time of the optimize layer.

Spans live in flat in-memory arrays while the benchmark runs and are written
out once, at the end.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from stats import nearest_rank

PACKAGE = "noisy_euler"
LAYERS = (
    "cli", "io", "calibration", "experiments", "rb",
    "optimize", "objectives", "noise", "gates",
)

# Public entry points of the optimize layer; each returns an
# OptimizationResult.
OPTIMIZE_ENTRIES = (
    "optimize.optimize_gate",
    "optimize.optimize_prep",
    "optimize.optimize_gate_mixed",
)


class Tracer:
    """Records spans while installed; ``request`` tags each span with the
    repetition that caused it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_request = 0
        self.opt_results: list[tuple[int, bool, bool]] = []
        self.csv_bytes = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _hook(self, name: str):
        if name in OPTIMIZE_ENTRIES:
            def record_result(res):
                self.opt_results.append(
                    (int(res.iterations), bool(res.converged), res.improvement > 0.0)
                )
            return record_result
        if name == "io.write_csv":
            def record_bytes(path):
                self.csv_bytes += Path(path).stat().st_size
            return record_bytes
        return None

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = self._hook(name)
        parent, names, request = self.parent, self.name, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parent.append(stack[-1])
            names.append(name_id)
            request.append(tracer.current_request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _targets(self):
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__ or ""
                if owner.startswith(PACKAGE + "."):
                    yield module, attr, f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                elif owner.split(".")[0] == "scipy":
                    yield module, attr, f"{layer}.{attr}"

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in list(self._targets()):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.argsort(start, kind="stable").tolist()
    parent_l, start_l, end_l = np.asarray(parent).tolist(), start.tolist(), end.tolist()
    covered = [0.0] * len(start_l)
    reach: dict[int, float] = {}
    for i in order:
        p = parent_l[i]
        if p < 0:
            continue
        lo = max(start_l[i], reach.get(p, start_l[p]))
        hi = min(end_l[i], end_l[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return (end - start) - np.asarray(covered)


def layer_metrics(tracer: Tracer, n_requests: int) -> dict[str, float]:
    """Per-repetition per-layer figures from the recorded spans."""
    if n_requests < 1:
        raise ValueError("no traced repetitions")
    spans = tracer.arrays()
    names = tracer.names
    dur = spans["end"] - spans["start"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    incl = np.bincount(spans["name"], weights=dur, minlength=k)
    self_s = np.bincount(spans["name"], weights=own, minlength=k)
    ids = {name: i for i, name in enumerate(names)}

    def total(arr, name):
        return float(arr[ids[name]]) if name in ids else 0.0

    per = 1.0 / n_requests
    out: dict[str, float] = {}
    for name in (
        "objectives.fidelity", "objectives.prep_fidelity", "gates.compose_zyz",
        "gates.extract_euler", "noise.noisy_gate_stepwise", "optimize.minimize",
        "rb.sample_random_gate", "rb.fit_decay",
    ):
        out[f"{name}.calls"] = total(calls, name) * per
        out[f"{name}.s"] = total(incl, name) * per
    out["gates.validate_density_matrix.calls"] = (
        total(calls, "gates.validate_density_matrix") * per
    )
    for name in (
        "rb.run_rb_experiment", "experiments.knowledge_sweep",
        "experiments.prep_improvement_sweep", "calibration.bundled_device",
        "calibration.noise_params_for", "io.write_csv", "io.save_manifest",
        "io.parallel_map", "cli.main",
    ):
        out[f"{name}.s"] = total(incl, name) * per
    for name in ("io.parallel_map", "cli.main"):
        out[f"{name}.self_s"] = total(self_s, name) * per
    out["io.write_csv.bytes"] = tracer.csv_bytes * per

    entry_ids = [ids[n] for n in OPTIMIZE_ENTRIES if n in ids]
    is_entry = np.isin(spans["name"], entry_ids)
    opt_calls = int(is_entry.sum())
    latencies = sorted((dur[is_entry] * 1e3).tolist())
    out["optimize.calls"] = opt_calls * per
    out["optimize.s"] = float(dur[is_entry].sum()) * per
    layer_ids = [i for i, n in enumerate(names) if n.startswith("optimize.")]
    out["optimize.self_s"] = float(own[np.isin(spans["name"], layer_ids)].sum()) * per
    out["optimize.latency_ms.p50"] = nearest_rank(latencies, 50.0) if latencies else 0.0
    out["optimize.latency_ms.p99"] = nearest_rank(latencies, 99.0) if latencies else 0.0
    results = tracer.opt_results
    out["optimize.iterations"] = sum(r[0] for r in results) * per
    out["optimize.nonconverged"] = sum(not r[1] for r in results) * per
    out["optimize.improved_ratio"] = (
        sum(r[2] for r in results) / len(results) if results else 0.0
    )

    # Objective evaluations made by the optimizer: fidelity calls whose caller
    # is an optimize-layer span (prep_fidelity's inner call is not counted twice).
    eval_ids = [ids[n] for n in ("objectives.fidelity", "objectives.prep_fidelity") if n in ids]
    has_parent = spans["parent"] >= 0
    parent_name = np.full(spans["name"].size, -1)
    parent_name[has_parent] = spans["name"][spans["parent"][has_parent]]
    evals = np.isin(spans["name"], eval_ids) & np.isin(parent_name, layer_ids)
    out["objectives.evals_per_opt"] = float(evals.sum()) / opt_calls if opt_calls else 0.0

    main_s = out["cli.main.s"]
    out["objectives.fidelity.share"] = out["objectives.fidelity.s"] / main_s
    out["noise.noisy_gate_stepwise.share"] = out["noise.noisy_gate_stepwise.s"] / main_s
    out["optimize.self_share"] = out["optimize.self_s"] / main_s
    return out
