"""Device calibration files: loading, validation, and readout error handling.

A device spec is a JSON document:

    {
      "device_name": "...",
      "calibration_date": "YYYY-MM-DD",
      "qubits": [
        {"id": 0, "t1_us": ..., "t2_us": ..., "pulse_duration_ns": ...,
         "p_meas1_prep0": ..., "p_meas0_prep1": ..., "gate_error": ...},
        ...
      ]
    }

Every key shown is required and no other is accepted.  T1/T2 are in
microseconds, the pulse duration in nanoseconds; gate_error is the
vendor-reported error rate, stored verbatim and unused by the noise model.
Snapshots for three public devices (rome, bogota, aspen8) ship with the
package and load via ``bundled_device``.

Readout error is the 2x2 confusion matrix

    M = [[1 - p_meas1_prep0, p_meas0_prep1],
         [p_meas1_prep0, 1 - p_meas0_prep1]]

acting on the ideal outcome distribution (p0, 1 - p0).  On one qubit that is
the affine map of the scalar p0

    p' = p_meas0_prep1 + (1 - p_meas1_prep0 - p_meas0_prep1) p0,

and mitigation is its inverse, clipped back into [0, 1].
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .io import from_jsonable
from .noise import NoiseParams

BUNDLED_DEVICES = ("rome", "bogota", "aspen8")


class DeviceSpecError(ValueError):
    """Raised when a device spec file is malformed; the message names the
    offending field."""


@dataclass(frozen=True)
class QubitSpec:
    id: int
    t1_us: float
    t2_us: float
    pulse_duration_ns: float
    p_meas1_prep0: float
    p_meas0_prep1: float
    gate_error: float


@dataclass(frozen=True)
class DeviceSpec:
    device_name: str
    calibration_date: str
    qubits: tuple[QubitSpec, ...]

    @property
    def warnings(self) -> tuple[str, ...]:
        """Advisory notes on physically suspect entries: T2 > 2*T1 cannot
        arise from this noise model."""
        return tuple(
            f"qubit {q.id}: T2 = {q.t2_us} us exceeds 2*T1 = {2 * q.t1_us} us"
            for q in self.qubits
            if q.t2_us > 2.0 * q.t1_us
        )

    def qubit(self, qubit_id: int) -> QubitSpec:
        for q in self.qubits:
            if q.id == qubit_id:
                return q
        raise KeyError(
            f"device {self.device_name!r} has no qubit {qubit_id}; "
            f"available ids: {[q.id for q in self.qubits]}"
        )


def parse_device_spec(doc: dict, source: str = "device spec") -> DeviceSpec:
    """Validate a parsed JSON document.  Keys and JSON types are checked
    against ``DeviceSpec`` and ``QubitSpec`` by ``io.from_jsonable``, then
    the values themselves; advisory findings are left to
    ``DeviceSpec.warnings`` and do not fail."""
    try:
        spec = from_jsonable(DeviceSpec, doc, source)
    except ValueError as exc:
        raise DeviceSpecError(str(exc)) from None
    if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", spec.calibration_date):
        raise DeviceSpecError(
            f"{source}.calibration_date: expected YYYY-MM-DD, "
            f"got {spec.calibration_date!r}"
        )
    if not spec.qubits:
        raise DeviceSpecError(f"{source}.qubits: must contain at least one qubit")
    seen: set[int] = set()
    for i, q in enumerate(spec.qubits):
        where = f"{source}.qubits[{i}]"
        if q.id in seen:
            raise DeviceSpecError(f"{where}.id: duplicate qubit id {q.id}")
        seen.add(q.id)
        if q.t1_us <= 0 or q.t2_us <= 0:
            raise DeviceSpecError(f"{where}: T1 and T2 must be positive")
        if q.pulse_duration_ns < 0:
            raise DeviceSpecError(f"{where}.pulse_duration_ns: must be >= 0")
        for pname in ("p_meas1_prep0", "p_meas0_prep1"):
            if not 0.0 <= getattr(q, pname) <= 1.0:
                raise DeviceSpecError(f"{where}.{pname}: must lie in [0, 1]")
    return spec


def load_device_spec(path) -> DeviceSpec:
    """Load and validate a device spec JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DeviceSpecError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from None
    return parse_device_spec(doc, source=str(path))


def bundled_device(name: str) -> DeviceSpec:
    """Load one of the packaged calibration snapshots (rome, bogota, aspen8)."""
    if name not in BUNDLED_DEVICES:
        raise DeviceSpecError(
            f"unknown bundled device {name!r}; choose from {BUNDLED_DEVICES}"
        )
    ref = resources.files("noisy_euler").joinpath(f"data/{name}.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return parse_device_spec(doc, source=f"bundled:{name}")


def noise_params_for(qubit: QubitSpec) -> NoiseParams:
    """Per-pulse damping probabilities for a qubit: microseconds/nanoseconds
    are converted to seconds before forming t_star / T ratios."""
    return NoiseParams.from_times(
        qubit.t1_us * 1e-6, qubit.t2_us * 1e-6, qubit.pulse_duration_ns * 1e-9
    )


def _readout_slope(p10: float, p01: float, invertible: bool = False) -> float:
    """Slope 1 - p10 - p01 of the readout map, after checking that both
    probabilities lie in [0, 1] and, with ``invertible``, that the map has an
    inverse (|slope| >= 1e-12)."""
    for name, p in (("p_meas1_prep0", p10), ("p_meas0_prep1", p01)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"readout {name} must lie in [0, 1]")
    slope = 1.0 - p10 - p01
    if invertible and abs(slope) < 1e-12:
        raise ValueError("mitigate requires an invertible readout confusion matrix "
                         f"(p_meas1_prep0 + p_meas0_prep1 = {p10 + p01})")
    return slope


def apply_readout_error(p0: float, p_meas1_prep0: float, p_meas0_prep1: float) -> float:
    """Probability of measuring 0 after M corrupts an ideal outcome
    distribution (p0, 1 - p0)."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    _readout_slope(p_meas1_prep0, p_meas0_prep1)
    return (1.0 - p_meas1_prep0) * p0 + p_meas0_prep1 * (1.0 - p0)


def mitigate_readout(
    p0_measured: float, p_meas1_prep0: float, p_meas0_prep1: float
) -> tuple[float, bool]:
    """Invert the readout map on a measured P(0).

    Returns (p0_mitigated, clipped): the inverse can land outside [0, 1] for
    shot-sampled inputs, in which case the value is clipped and flagged.
    Raises ValueError when the map has no inverse (the two probabilities sum
    to 1).
    """
    if not 0.0 <= p0_measured <= 1.0:
        raise ValueError("p0_measured must lie in [0, 1]")
    slope = _readout_slope(p_meas1_prep0, p_meas0_prep1, invertible=True)
    p0 = (p0_measured - p_meas0_prep1) / slope
    clipped = not 0.0 <= p0 <= 1.0
    return min(max(p0, 0.0), 1.0), clipped
