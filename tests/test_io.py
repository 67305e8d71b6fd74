"""Unit tests for deterministic file output and execution helpers."""

import json
import math
import os
import typing
from dataclasses import dataclass

import numpy as np
import pytest

from noisy_euler import (
    NoiseParams,
    RbConfig,
    SweepConfig,
    bundled_device,
)
from noisy_euler.io import (
    WORKER_THREAD_VARS,
    format_value,
    from_jsonable,
    load_manifest,
    parallel_map,
    save_manifest,
    to_jsonable,
    write_csv,
    write_json,
)


def test_format_value_basics():
    """np.float64 prints as its Python float."""
    assert format_value(None) == ""
    assert format_value("abc") == "abc"
    assert format_value("") == ""
    assert format_value(7) == "7"
    assert format_value(10**30) == "1" + "0" * 30
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(0.1)) == "0.10000000000000001"
    assert format_value(-0.0) == "-0"
    assert format_value(1e22) == "1e+22"
    assert format_value(np.float64(-2.5e-300)) == "-2.5e-300"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(math.nan) == "nan"
    assert format_value(np.float64("nan")) == "nan"


def test_format_value_floats_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-10, 10))
        assert float(format_value(x)) == x


def test_format_value_rejects_unknown():
    """A bool is refused, not printed as 1 or True; so is any other type."""
    for value in (object(), True, np.float32(0.1)):
        with pytest.raises(TypeError, match="cannot format"):
            format_value(value)


def test_write_csv_crlf_and_empty_cells(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), [[1.5, None], ["x", 2]])
    raw = path.read_bytes()
    assert raw == b"a,b\r\n1.5,\r\nx,2\r\n"


def test_write_csv_deterministic(tmp_path):
    rows = [[0.1, 3], [2.0 / 3.0, None]]
    p1 = write_csv(tmp_path / "a.csv", ("x", "y"), rows)
    p2 = write_csv(tmp_path / "b.csv", ("x", "y"), rows)
    assert p1.read_bytes() == p2.read_bytes()


@dataclass
class Point:
    x: float
    y: tuple


def test_to_jsonable_recurses():
    out = to_jsonable({"p": Point(1.5, (2, 3)), "flag": True, 7: np.int64(4)})
    assert out == {"p": {"x": 1.5, "y": [2, 3]}, "flag": True, "7": 4}
    assert to_jsonable(math.inf) == "inf"
    assert to_jsonable(np.float64(0.5)) == 0.5


def test_to_jsonable_refuses_sets():
    # a set's order follows the string hash, so it would not rerun byte for byte
    for obj in ({"alpha", "beta"}, frozenset({1}), {"k": {"a"}}):
        with pytest.raises(TypeError, match="cannot serialize"):
            to_jsonable(obj)


ROME_Q3 = NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9)


@pytest.mark.parametrize(
    "obj",
    [
        ROME_Q3,
        NoiseParams(0.02, 0.01),
        RbConfig(noise=ROME_Q3, multistart=2, rng_seed=9),
        RbConfig(noise=ROME_Q3, n_circuits=2, n_gates=12, depth_schedule=(1, 5, 9),
                 shots=100, drift_factor=2.0, readout=(0.02, 0.05), mitigate=True),
        RbConfig(noise=ROME_Q3, readout=None),
        SweepConfig(lambda_grid=(0.0, 0.05), targets_per_point=3),
        SweepConfig(lambda_grid=(0.1,), theta_max_grid=(0.5, math.pi)),
        bundled_device("rome"),
    ],
    ids=["noise-times", "noise-lambdas", "rb-multistart", "rb-readout", "rb-no-readout",
         "sweep", "sweep-caps", "device-rome"],
)
def test_from_jsonable_inverts_to_jsonable(obj):
    text = json.dumps(to_jsonable(obj))
    assert from_jsonable(type(obj), json.loads(text), "x") == obj


@pytest.mark.parametrize(
    "tp, value, match",
    [
        (SweepConfig, {"lambda_grid": [0.1], "multistart_count": 5},
         r"x has unknown key\(s\) 'multistart_count'"),
        (SweepConfig, {"lambda_grid": [0.1], "multistart": 0},
         r"x has unknown key\(s\) 'multistart'"),
        (RbConfig, {"noise": {"lambda_a": 0.1, "lambda_p": 0.1}, "multistart": "2"},
         r"x\.multistart must be an integer"),
        (RbConfig, {"noise": {"lambda_a": 0.1, "lambda_p": 0.1}, "multistart": 5.0},
         r"x\.multistart must be an integer"),
        (RbConfig, [1], r"x must be an object"),
        (SweepConfig, {}, r"x is missing key 'lambda_grid'"),
        (SweepConfig, {"lambda_grid": [0.1, "0.2"]}, r"x\.lambda_grid\[1\] must be a finite"),
        (SweepConfig, {"lambda_grid": 0.1}, r"x\.lambda_grid must be a list"),
        (RbConfig, {"noise": {"lambda_a": 0.1, "lambda_p": 0.1}, "readout": [0.1]},
         r"x\.readout must be a list of 2 items"),
        (RbConfig, {"noise": {"lambda_a": 0.1, "lambda_p": 0.1}, "mitigate": 1},
         r"x\.mitigate must be a boolean"),
        (float, 10**400, "must be a finite number"),
        (SweepConfig, {"lambda_grid": [0.1], "targets_per_point": 0},
         r"x\.targets_per_point must be >= 1"),
        (RbConfig, {"noise": {"lambda_a": 0.1, "lambda_p": 0.1, "t1": 1.0}},
         r"x\.noise: t1, t2 and t_star must be all given"),
    ],
)
def test_from_jsonable_rejects_with_path(tp, value, match):
    with pytest.raises(ValueError, match=match):
        from_jsonable(tp, value, "x")


def test_from_jsonable_defaults_and_conversions():
    cfg = from_jsonable(SweepConfig, {"lambda_grid": [0, 0.1]}, "x")
    assert cfg == SweepConfig(lambda_grid=(0.0, 0.1))
    assert type(cfg.lambda_grid[0]) is float
    assert from_jsonable(int | None, None, "x") is None


def test_from_jsonable_reads_hints_once_and_names_paths(monkeypatch):
    """A dataclass's annotations are resolved once, and faults found after
    that still name the field's path, nested or from the class's own check."""
    @dataclass(frozen=True)
    class Outer:
        noise: NoiseParams
        count: int = 1

    calls = []
    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda tp: calls.append(tp) or resolve(tp))
    good = {"noise": {"lambda_a": 0.1, "lambda_p": 0.2}, "count": 2}
    for _ in range(3):
        assert from_jsonable(Outer, good, "x") == Outer(NoiseParams(0.1, 0.2), 2)
    assert calls.count(Outer) == 1
    for value, match in [
        ({"noise": {"lambda_a": "0.1", "lambda_p": 0.2}}, r"^x\.noise\.lambda_a must be a finite"),
        ({"noise": {"lambda_a": 2.0, "lambda_p": 0.2}}, r"^x\.noise\.lambda_a must lie in"),
        ({**good, "count": 1.5}, r"^x\.count must be an integer"),
    ]:
        with pytest.raises(ValueError, match=match):
            from_jsonable(Outer, value, "x")


def test_write_json_sorted_and_newline(tmp_path):
    path = write_json(tmp_path / "d.json", {"b": 1, "a": 2})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


def test_manifest_roundtrip(tmp_path):
    path = save_manifest(
        tmp_path / "m.json",
        command="rb",
        config={"n": 3, "noise": {"lambda_a": 0.1}},
        rng_seed=7,
        outputs=[tmp_path / "out.csv"],
        duration_seconds=1.25,
        tag="myrun",
    )
    doc = load_manifest(path)
    assert doc["command"] == "rb"
    assert doc["config"]["n"] == 3
    assert doc["rng_seed"] == 7
    assert doc["tag"] == "myrun"
    assert doc["outputs"] == [str(tmp_path / "out.csv")]
    assert "version" in doc and "created_utc" in doc


def test_load_manifest_rejects_non_manifest(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"foo": 1}')
    with pytest.raises(ValueError, match="command"):
        load_manifest(path)
    path.write_text('{"command": "rb", "config": [1, 2]}')
    with pytest.raises(ValueError, match="config must be an object"):
        load_manifest(path)


def _square(x):
    return x * x


def test_parallel_map_order_and_equivalence():
    items = list(range(20))
    serial = parallel_map(_square, items, jobs=1)
    parallel = parallel_map(_square, items, jobs=2)
    assert serial == parallel == [x * x for x in items]


def test_parallel_map_empty_and_single():
    assert parallel_map(_square, [], jobs=4) == []
    assert parallel_map(_square, [3], jobs=4) == [9]


def _env_value(name):
    return os.environ.get(name)


def test_parallel_map_workers_get_single_threaded_blas(monkeypatch):
    """Unset BLAS thread variables read "1" in the workers, a value the
    caller set is kept, and the caller's environment is left as it was."""
    for name in WORKER_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    got = parallel_map(_env_value, list(WORKER_THREAD_VARS), jobs=2)
    expect = ["3" if name == "OMP_NUM_THREADS" else "1" for name in WORKER_THREAD_VARS]
    assert got == expect
    assert dict(os.environ) == before
