"""Unit tests for deterministic file output and execution helpers."""

import json
import math
import numbers
import os
import typing
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np
import pytest

from noisy_euler import (
    DecayFit,
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
    for obj in ({"alpha", "beta"}, frozenset({1}), {"k": {"a"}}, [1, ({2},)], Point(1.0, {3})):
        with pytest.raises(TypeError, match="cannot serialize"):
            to_jsonable(obj)


def _general_to_jsonable(obj):
    """``to_jsonable`` as it read before its exact-type fast paths: every
    value through the dataclass, ``numbers`` and container checks, and a
    dataclass through ``asdict``."""
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return _general_to_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _general_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_general_to_jsonable(v) for v in obj]
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _same_json(a, b) -> bool:
    """a == b with the same type at every level."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


_JSON_CASES = {
    "int": 0, "negative-int": -7, "big-int": 10**30, "true": True, "false": False,
    "none": None, "str": "s", "float": 0.25, "minus-zero": -0.0, "huge-float": 1e308,
    "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
    "np-float64": np.float64(0.25), "np-nan": np.float64(math.nan),
    "np-minus-inf": np.float64(-math.inf), "np-int64": np.int64(7), "np-float32": np.float32(0.1),
    "list": [1, 2.5, "x"], "nested-tuples": (1, (2.5, (True, None, (math.inf,))), "s"),
    "empty": [(), [[]]], "dict": {"a": (1, 2), 3: [np.float64(1.5), {"b": math.nan}]},
    "rb-config-readout": RbConfig(noise=NoiseParams.from_times(46.4e-6, 105e-6, 35.6e-9),
                                  shots=100, readout=(0.02, 0.05), mitigate=True,
                                  depth_schedule=(1, 5, 9), n_gates=9),
    "decay-fit-inf": DecayFit(math.inf, 0.5, math.inf),
    "decay-fit-all-half": DecayFit(math.inf, 0.5, math.inf, degenerate="all-half"),
    "rb-summary": {"fits": {"unopt": DecayFit(1e-3, 5e-4, 5e-4), "opt": None}, "rng_seed": 3},
}


@pytest.mark.parametrize("obj", list(_JSON_CASES.values()), ids=list(_JSON_CASES))
def test_to_jsonable_fast_paths_equal_the_general_path(obj):
    """Plain-JSON values return by their exact type and dataclasses convert
    field by field; values and types equal the general path's at every
    level: int stays int, bool stays bool, non-finite floats become strings,
    numpy scalars become Python ones and tuples lists."""
    assert _same_json(to_jsonable(obj), _general_to_jsonable(obj))


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
        # scalars, refused past the exact-type fast paths with the same messages
        (int, True, r"^x must be an integer, got True$"),
        (int, "2", r"^x must be an integer, got '2'$"),
        (int, 2.0, r"^x must be an integer, got 2\.0$"),
        (bool, 1, r"^x must be a boolean, got 1$"),
        (str, 1, r"^x must be a string, got 1$"),
        (float, math.nan, r"^x must be a finite number, got nan$"),
        (float, math.inf, r"^x must be a finite number, got inf$"),
        (float, -math.inf, r"^x must be a finite number, got -inf$"),
        (float, -(10**400), rf"^x must be a finite number, got -{10**400}$"),
        (float, True, r"^x must be a finite number, got True$"),
        (float, "0.5", r"^x must be a finite number, got '0\.5'$"),
        (float, None, r"^x must be a finite number, got None$"),
    ],
)
def test_from_jsonable_rejects_with_path(tp, value, match):
    with pytest.raises(ValueError, match=match):
        from_jsonable(tp, value, "x")


def test_from_jsonable_defaults_and_conversions():
    """An int, bool or str is returned as it is; a float reads any finite
    JSON number, an int too, and returns a float."""
    cfg = from_jsonable(SweepConfig, {"lambda_grid": [0, 0.1]}, "x")
    assert cfg == SweepConfig(lambda_grid=(0.0, 0.1))
    assert type(cfg.lambda_grid[0]) is float
    assert from_jsonable(int | None, None, "x") is None
    for tp, value in ((int, 7), (int, 10**30), (bool, False), (str, "s"), (float, 0.5),
                      (float, -0.0), (float, 1.7976931348623157e308)):
        got = from_jsonable(tp, value, "x")
        assert got == value and type(got) is tp
    for value in (3, -(2**53), 2**1023):
        got = from_jsonable(float, value, "x")
        assert got == float(value) and type(got) is float


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
