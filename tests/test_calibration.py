"""Unit tests for device calibration files, derived noise rates and readout
error handling."""

import json
import math

import numpy as np
import pytest

from noisy_euler import (
    BUNDLED_DEVICES,
    DeviceSpecError,
    apply_readout_error,
    bundled_device,
    load_device_spec,
    mitigate_readout,
    noise_params_for,
    parse_device_spec,
)
from reference import readout_apply, readout_mitigate

GOOD_DOC = {
    "device_name": "testchip",
    "calibration_date": "2021-01-02",
    "qubits": [
        {
            "id": 0,
            "t1_us": 50.0,
            "t2_us": 70.0,
            "pulse_duration_ns": 40.0,
            "p_meas1_prep0": 0.02,
            "p_meas0_prep1": 0.05,
            "gate_error": 3e-4,
        }
    ],
}


def doc_with(**overrides):
    doc = json.loads(json.dumps(GOOD_DOC))
    qubit = overrides.pop("qubit", None)
    doc.update(overrides)
    if qubit:
        doc["qubits"][0].update(qubit)
    return doc


# ----------------------------------------------------------------- loading

@pytest.mark.parametrize("name,n_qubits", [("rome", 5), ("bogota", 5), ("aspen8", 31)])
def test_bundled_devices_load(name, n_qubits):
    dev = bundled_device(name)
    assert len(dev.qubits) == n_qubits


def test_bundled_device_warnings():
    # rome qubit 3 reports T2 above the 2*T1 physical bound; the loader
    # flags it without rejecting the published snapshot
    assert any("qubit 3" in w for w in bundled_device("rome").warnings)
    assert bundled_device("bogota").warnings == ()
    assert bundled_device("aspen8").warnings == ()


def test_bundled_device_unknown_name():
    with pytest.raises(DeviceSpecError):
        bundled_device("lagos")


def test_rome_qubit3_values():
    q = bundled_device("rome").qubit(3)
    assert q.t1_us == 46.4
    assert q.t2_us == 105.0
    assert q.pulse_duration_ns == 35.6
    assert q.p_meas1_prep0 == 0.027
    assert q.p_meas0_prep1 == 0.05


def test_bogota_qubit2_values():
    q = bundled_device("bogota").qubit(2)
    assert q.t1_us == 107.0
    assert q.t2_us == 142.0


def test_qubit_lookup_error_lists_ids():
    dev = bundled_device("rome")
    with pytest.raises(KeyError, match="0, 1, 2, 3, 4"):
        dev.qubit(9)


def test_load_device_spec_from_file(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(GOOD_DOC))
    dev = load_device_spec(path)
    assert dev.device_name == "testchip"
    assert dev.qubit(0).t1_us == 50.0


def test_load_device_spec_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"device_name": "x",')
    with pytest.raises(DeviceSpecError, match="line"):
        load_device_spec(path)


# ---------------------------------------------------------------- parsing

def test_parse_rejects_missing_field():
    doc = doc_with()
    del doc["qubits"][0]["t1_us"]
    with pytest.raises(DeviceSpecError, match="t1_us"):
        parse_device_spec(doc)


def test_parse_rejects_bad_types():
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"t1_us": "fast"}))
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"t1_us": True}))
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"t1_us": math.nan}))
    with pytest.raises(DeviceSpecError, match="color"):
        parse_device_spec(doc_with(qubit={"color": "blue"}))
    with pytest.raises(DeviceSpecError, match=r"qubits\[0\]\.id"):
        parse_device_spec(doc_with(qubit={"id": True}))


def test_parse_rejects_bad_date():
    with pytest.raises(DeviceSpecError, match="calibration_date"):
        parse_device_spec(doc_with(calibration_date="July 2020"))


def test_parse_rejects_empty_qubits():
    with pytest.raises(DeviceSpecError, match="qubits"):
        parse_device_spec(doc_with(qubits=[]))


def test_parse_rejects_duplicate_ids():
    doc = doc_with()
    doc["qubits"].append(dict(doc["qubits"][0]))
    with pytest.raises(DeviceSpecError, match="duplicate"):
        parse_device_spec(doc)


def test_parse_rejects_nonpositive_times():
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"t1_us": 0.0}))
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"t2_us": -3.0}))
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"pulse_duration_ns": -1.0}))


def test_parse_rejects_probability_out_of_range():
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"p_meas1_prep0": 1.2}))
    with pytest.raises(DeviceSpecError):
        parse_device_spec(doc_with(qubit={"p_meas0_prep1": -0.1}))


def test_parse_warns_on_impossible_t2():
    # T2 <= 2 T1 physically; larger values are flagged but not fatal
    dev = parse_device_spec(doc_with(qubit={"t2_us": 150.0}))
    assert len(dev.warnings) == 1
    assert "t2" in dev.warnings[0].lower()


# ------------------------------------------------------------ noise rates

def test_noise_params_for_rome_qubit3():
    p = noise_params_for(bundled_device("rome").qubit(3))
    assert abs(p.lambda_a - (1 - math.exp(-35.6e-9 / 46.4e-6))) < 1e-12
    assert abs(p.lambda_p - (1 - math.exp(-35.6e-9 / 105e-6))) < 1e-12
    # two significant figures
    assert f"{p.lambda_a:.1e}" == "7.7e-04"
    assert f"{p.lambda_p:.1e}" == "3.4e-04"


def test_noise_params_units():
    q = bundled_device("bogota").qubit(0)
    p = noise_params_for(q)
    assert p.t1 == q.t1_us * 1e-6
    assert p.t_star == q.pulse_duration_ns * 1e-9


# --------------------------------------------- fixture summary statistics

SUMMARY_ROWS = {
    # column: (mean, sd) as printed in the published per-device summary rows,
    # kept as strings so the rounding precision of each value is preserved;
    # SDs are sample (ddof=1) standard deviations
    "rome": {
        "t1_us": ("83.9", "27.7"),
        "t2_us": ("103", "31.7"),
        "pulse_duration_ns": ("35.6", "0.00"),
        "p_meas1_prep0": ("0.035", "0.022"),
        "p_meas0_prep1": ("0.063", "0.017"),
    },
    "bogota": {
        "t1_us": ("138", "36.4"),
        "t2_us": ("192", "49.6"),
        "pulse_duration_ns": ("35.6", "0.00"),
        "p_meas1_prep0": ("0.012", "0.009"),
        "p_meas0_prep1": ("0.068", "0.050"),
    },
    "aspen8": {
        "t1_us": ("28.7", "10.7"),
        "t2_us": ("20.3", "12.8"),
        "pulse_duration_ns": ("60.0", "0.00"),
        "p_meas1_prep0": ("0.032", "0.016"),
        "p_meas0_prep1": ("0.066", "0.033"),
    },
}


def last_digit_unit(text: str) -> float:
    """Size of the last printed digit of a reference value like '103' or
    '0.050'."""
    if "." in text:
        return 10.0 ** -(len(text.split(".")[1]))
    return 1.0


@pytest.mark.parametrize("name", sorted(SUMMARY_ROWS))
def test_fixture_summary_statistics(name):
    """The bundled calibration tables reproduce their published per-device
    mean/SD summary rows to rounding accuracy (1.5 units in the last digit)."""
    dev = bundled_device(name)
    for field, (mean_ref, sd_ref) in SUMMARY_ROWS[name].items():
        values = np.array([getattr(q, field) for q in dev.qubits])
        assert abs(values.mean() - float(mean_ref)) <= 1.5 * last_digit_unit(mean_ref), (
            name, field, "mean", values.mean()
        )
        sd = values.std(ddof=1) if len(values) > 1 else 0.0
        assert abs(sd - float(sd_ref)) <= 1.5 * last_digit_unit(sd_ref), (
            name, field, "sd", sd
        )


def test_bundled_names_constant():
    assert set(BUNDLED_DEVICES) == {"rome", "bogota", "aspen8"}


# ----------------------------------------------------------------- readout

# probabilities out of [0, 1] or NaN: p0 first, then p10 and p01
BAD_READOUT = ((-0.1, 0.0, 0.0), (1.1, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.5, -0.1, 0.0),
               (0.5, 0.0, 1.1), (0.5, math.nan, 0.0), (0.5, 0.0, math.nan))


def test_apply_readout_error_formula():
    # rome qubit 3: perfect |0> reads as 0 with probability 1 - p10 = 0.973
    q = bundled_device("rome").qubit(3)
    assert abs(apply_readout_error(1.0, q.p_meas1_prep0, q.p_meas0_prep1) - 0.973) < 1e-15
    assert abs(apply_readout_error(0.0, 0.027, 0.05) - 0.05) < 1e-15
    for p0, p10, p01 in BAD_READOUT:
        with pytest.raises(ValueError, match="must lie in"):
            apply_readout_error(p0, p10, p01)


def test_readout_matches_matrix_oracle():
    # the affine map of p0 and its inverse agree with M and a linear solve
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p0 = rng.uniform()
        p10, p01 = rng.uniform(0.0, 0.4, 2)
        measured = apply_readout_error(p0, p10, p01)
        assert abs(measured - readout_apply(p0, p10, p01)) < 1e-12
        p_meas = rng.uniform()  # a shot-sampled frequency, maybe out of the band
        expected = readout_mitigate(p_meas, p10, p01)
        recovered, clipped = mitigate_readout(p_meas, p10, p01)
        assert clipped == (not 0.0 <= expected <= 1.0)
        assert abs(recovered - min(max(expected, 0.0), 1.0)) < 1e-12


def test_mitigate_inverts_apply():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p0 = rng.uniform()
        p10, p01 = rng.uniform(0, 0.4, 2)
        noisy = apply_readout_error(p0, p10, p01)
        recovered, clipped = mitigate_readout(noisy, p10, p01)
        assert abs(recovered - p0) < 1e-12
        assert not clipped


def test_mitigate_clips_out_of_range():
    # measured frequency above the reachable band -> clipped to 1
    recovered, clipped = mitigate_readout(0.999, 0.1, 0.1)
    assert clipped
    assert recovered == 1.0


def test_mitigate_singular_matrix_raises():
    with pytest.raises(ValueError, match="invertible"):
        mitigate_readout(0.5, 0.6, 0.4)  # p10 + p01 = 1 collapses the matrix
    for p0, p10, p01 in BAD_READOUT:
        with pytest.raises(ValueError, match="must lie in"):
            mitigate_readout(p0, p10, p01)
