import ast
import builtins
import functools
import json
import math
import pathlib
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, example, given, settings
from hypothesis import strategies as st

from csforge import cli, qam
from csforge.analysis import MAX_GRID_POINTS, is_gcp, papr_bound_db, papr_oversampled_db
from csforge.encoder import (
    MAX_ENCODE_VARS,
    MAX_SEQUENCE_LENGTH,
    EncoderParams,
    encode_pair,
    known_seed,
)
from csforge.qam import MAX_COUNT_VARS, on_lattice
from csforge.sequences import GuardError, guard
from csforge.simulate import MAX_CODEBOOK

E1 = (2.0 / math.pi) * math.log(3.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_params(tmp_path, doc, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def multilevel_doc():
    return {
        "m": 3,
        "H": 4,
        "pi": [2, 1, 3],
        "e": [E1, 0.0, 0.0],
    }


def values_of(record):
    return np.asarray(record["values"]["re"]) + 1j * np.asarray(record["values"]["im"])


def complex_lists(values):
    """The ``re``/``im`` form of a params document, as JSON lists."""
    arr = np.asarray(values, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def as_lists(value):
    """``value`` with each array in its dicts as the list it holds."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


def test_encode_from_params_file(tmp_path, capsys):
    path = write_params(tmp_path, multilevel_doc())
    code, out, _ = run_cli(capsys, "encode", "--params", path)
    assert code == 0
    records = json.loads(out)
    assert [r["id"] for r in records] == ["c", "d"]
    assert np.allclose(values_of(records[0]), [1, 1, 3, 3, 3, -3, -1, 1], rtol=1e-9)
    assert records[0]["gcp_residual"] <= 1e-9
    assert records[0]["schema"] == 1


def test_encode_trivial_flags(capsys):
    # the length-1 seed (1),(1) is the default
    code, out, _ = run_cli(capsys, "encode", "--m", "1", "--H", "2")
    assert code == 0
    records = json.loads(out)
    assert np.allclose(values_of(records[0]), [1, 1])
    assert np.allclose(values_of(records[1]), [1, -1])


def test_encode_rule_output_on_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--rule", "cyan", "--s", "4", "--indices", "2,1,4,2", "--m", "3"
    )
    assert code == 0
    records = json.loads(out)
    assert on_lattice(values_of(records[0]), 4)


RULE_INDICES = {"green": "1,2", "yellow": "1,2", "blue": "1,2,1", "cyan": "2,1,4,2", "orange": "2,1"}


@pytest.mark.parametrize("rule", sorted(RULE_INDICES))
def test_encode_rule_knobs_reach_the_builder(capsys, rule):
    def encode(*extra):
        code, out, _ = run_cli(
            capsys, "encode", "--rule", rule, "--s", "4", "--m", "3",
            "--indices", RULE_INDICES[rule], *extra,
        )
        assert code == 0
        return json.loads(out)[0]

    base = encode()
    for z in (1, 2, 3):
        shifted = encode("--z", str(z))["params"]
        for name in ("k_prime", "k_dprime"):  # phases are kept in [0, H), H = 4
            offset = math.remainder(shifted[name] - base["params"][name] - z, 4)
            assert abs(offset) < 1e-12
    stepped = encode("--k", "1,2,3")
    assert stepped["params"]["k"] != base["params"]["k"]
    assert not np.allclose(values_of(stepped), values_of(base))


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["--rule", "green", "--s", "2", "--indices", "1,1", f"--z={BEYOND_FLOAT}"],
    ["--rule", "green", "--s", BEYOND_FLOAT, "--indices", f"{BEYOND_FLOAT},1"],
    ["--rule", "cyan", "--s", BEYOND_FLOAT, "--indices", f"3,1,{BEYOND_FLOAT},2"],
    ["--rule", "orange", "--s", "2", "--indices", "2,1", f"--k={BEYOND_FLOAT},0"],
    ["--rule", "yellow", "--s", "2", "--indices", "1,2", "--m", "1000000000000000000"],
])
def test_encode_rule_refuses_values_beyond_float_range(capsys, argv):
    # these escaped as OverflowError or MemoryError tracebacks with exit 1
    code, out, err = run_cli(capsys, "encode", "--m", "2", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_encode_reports_overlap(capsys):
    _, out, _ = run_cli(capsys, "encode", "--m", "2", "--H", "4")
    assert [r["overlap"] for r in json.loads(out)] == [False, False]
    code, out, _ = run_cli(capsys, "encode", "--m", "2", "--H", "4", "--pi", "1,2", "--d", "0,1")
    assert code == 0
    assert [r["overlap"] for r in json.loads(out)] == [True, True]


@pytest.mark.parametrize("flag, value, same", [("--pi", "1.0,2,3", "1,2,3"),
                                               ("--d", "1.0,0,2e0", "1,0,2")])
def test_integer_lists_take_integral_floats(capsys, flag, value, same):
    code, out, _ = run_cli(capsys, "encode", "--m", "3", "--H", "4", flag, value)
    assert code == 0
    assert out == run_cli(capsys, "encode", "--m", "3", "--H", "4", flag, same)[1]


@pytest.mark.parametrize("flag, value", [("--pi", "1.5,2,3"), ("--d", "0.5,0,0"),
                                         ("--pi", "nan,2,3"), ("--indices", "1,1.5")])
def test_integer_lists_refuse_fractions(capsys, flag, value):
    extra = ("--rule", "green", "--s", "2") if flag == "--indices" else ("--H", "4")
    code, out, err = run_cli(capsys, "encode", "--m", "3", *extra, flag, value)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    (["--e", "nan,0"], 2),
    (["--k", "inf,0"], 2),
    (["--k-prime", "nan"], 2),
    (["--e-prime", "1000"], 2),
    (["--d", "1000000000,0"], 3),
    (["--e-prime", "-1e3"], 2),
    (["--e-prime", "-inf"], 2),
    # H beyond float range escaped as an OverflowError traceback
    (["--H", BEYOND_FLOAT], 2),
    (["--H", str(2**1024)], 2),
    (["--e", "1,x"], 2),
])
def test_encode_bad_knobs_exit_with_one_line(capsys, argv, code):
    got, out, err = run_cli(capsys, "encode", "--m", "2", "--H", "4", *argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("change", [
    {"seed": {}},
    {"seed": [1]},
    {"seed": {"a": {"re": [1, 1], "im": [0, 0]}, "b": {"re": [1, float("nan")], "im": [0, 0]}}},
    {"e": 5},
    {"e_prime": [1]},
    {"e_prime": float("nan")},
    {"d": [float("inf"), 0, 0]},
    {"m": float("inf")},
    {"m": 3.5},
    {"H": 4.5},
    {"pi": [1.7, 2, 3]},
    {"d": [0.9, 0, 0]},
    {"H": 10**400},
    {"H": 2**1024},
    [multilevel_doc()],
])
def test_malformed_params_file_exits_2(tmp_path, capsys, change):
    # a change that is no object replaces the whole document
    doc = {**multilevel_doc(), **change} if isinstance(change, dict) else change
    code, out, err = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("key", ["k_prim", "schema", "M", ""])
def test_params_file_refuses_a_key_it_does_not_read(tmp_path, capsys, key):
    # a misspelt knob would otherwise read as its default
    doc = {**multilevel_doc(), key: 3}
    code, out, err = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == (f"error: params have no field {key!r}; "
                   "they take m, H, pi, e, e_prime, k, k_prime, k_dprime, d, seed\n")


@pytest.mark.parametrize("argv", [["--m", "5", "--H", "4", "--d", "4,8,2,0,1"],
                                  ["--rule", "cyan", "--s", "4", "--indices", "2,1,4,2", "--m", "3"]])
def test_a_records_params_encode_its_pair(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, "encode", *argv)
    assert code == 0
    params = json.loads(out)[0]["params"]
    assert set(params) == set(cli._PARAM_FIELDS)
    assert run_cli(capsys, "encode", "--params", write_params(tmp_path, params)) == (0, out, "")


@pytest.mark.parametrize("doc", [
    {**multilevel_doc(), "pi": "213"},
    {**multilevel_doc(), "pi": ["2", "1", "3"]},
    {**multilevel_doc(), "k": "130"},
    {**multilevel_doc(), "e": [E1, False, 0.0]},
    {**multilevel_doc(), "d": [True, False, False]},
    {**multilevel_doc(), "H": "4"},
    {**multilevel_doc(), "k_prime": True},
    {**multilevel_doc(), "seed": {"a": {"re": ["1"], "im": [0]}, "b": {"re": [1], "im": [0]}}},
    {**multilevel_doc(), "seed": {"a": {"re": [True], "im": [0]}, "b": {"re": [1], "im": [0]}}},
    {"m": True, "H": 2},
])
def test_params_file_takes_only_json_numbers(tmp_path, capsys, doc):
    code, out, err = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "numbers" in err


def test_params_file_takes_integral_floats(tmp_path, capsys):
    doc = {**multilevel_doc(), "d": [1, 0, 0]}
    ints = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    doc.update({"m": 3.0, "H": 4.0, "pi": [2.0, 1.0, 3.0], "d": [1.0, 0.0, 0.0]})
    floats = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    assert ints[0] == 0 and floats == ints


def test_null_knob_takes_its_default(tmp_path, capsys):
    doc = multilevel_doc()
    del doc["pi"]
    missing = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    nulls = run_cli(capsys, "encode", "--params", write_params(
        tmp_path, {**doc, "pi": None, "k": None, "e_prime": None, "seed": None}))
    assert missing[0] == 0 and nulls == missing
    assert json.loads(missing[1])[0]["params"]["pi"] == [1, 2, 3]


def test_negative_scientific_values_are_values(capsys):
    base = ["encode", "--m", "2", "--H", "4"]
    spaced = run_cli(capsys, *base, "--e-prime", "-1e-1", "--e", "-1.5E-1,0")
    joined = run_cli(capsys, *base, "--e-prime=-1e-1", "--e=-1.5E-1,0")
    assert spaced[0] == 0 and spaced == joined


@pytest.mark.parametrize("argv", [
    [],
    ["encode", "--m", "two"],
    ["encode", "--bogus"],
    ["encode", "--m", "2", "--H", "4", "--e-prime"],
    ["verify"],
    ["simulate", "--rule", "purple", "--ebn0", "0"],
    ["encode", "--m", "1", "--H", "2", "--seed-trivial"],
])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("csforge") and ": error: " in out.err


def _names_an_exception(base: ast.expr) -> bool:
    name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
    builtin = getattr(builtins, name, None)
    return ((isinstance(builtin, type) and issubclass(builtin, BaseException))
            or name.endswith(("Error", "Exception", "Warning")))


def test_guard_error_is_the_only_exception_class():
    # cli.main maps GuardError to exit 3 and ValueError to exit 2; a class of
    # any other name would escape it as a traceback
    defined = [
        (path.stem, node.name)
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(map(_names_an_exception, node.bases))
    ]
    assert defined == [("sequences", "GuardError")]


def _guard_raisers(node, where):
    """The innermost function, class or module around each ``raise GuardError``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc and "GuardError" in ast.dump(child.exc):
            yield where
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _guard_raisers(child, child.name if scope else where)


def test_guard_error_is_raised_only_by_the_guard_helper():
    # every resource refusal goes through sequences.guard, so all of them
    # share one message shape
    raisers = [
        (path.stem, where)
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
        for where in _guard_raisers(ast.parse(path.read_text()), "<module>")
    ]
    assert raisers == [("sequences", "guard")]


def test_guard_helper():
    assert guard(10, 10, "things") is None
    with pytest.raises(GuardError) as info:
        guard(2**64, 2**64 - 1, "things")
    assert str(info.value) == ("things: 18446744073709551616 exceeds the guard limit of "
                               "18446744073709551615")
    with pytest.raises(GuardError) as info:
        guard(10**5000, 7, "things")  # more digits than Python writes out
    assert str(info.value) == "things: at least 2^16609 exceeds the guard limit of 7"
    with pytest.raises(GuardError) as info:
        guard(np.int64(1001), np.int64(1000), "m")
    assert str(info.value) == "m: 1001 exceeds the guard limit of 1000"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_leaves_the_parser_intact(capsys):
    argv = ["encode", "--m", "3", "--H", "4", "--pi", "2,1,3", "--k", "1,0,3"]
    alone = run_cli(capsys, *argv)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", "--m", "two"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.count("\n") == 1 and "--m" in err
        assert run_cli(capsys, *argv) == alone
    assert alone[0] == 0


def test_encode_verify_round_trip_at_max_vars(tmp_path, capsys):
    start = time.perf_counter()
    pair = str(tmp_path / "pair.json")
    code, _, _ = run_cli(capsys, "encode", "--m", str(MAX_ENCODE_VARS), "--H", "4", "--out", pair)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", pair)
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    assert code == 0 and report["gcp_ok"] and report["gcp_residual"] <= 1e-9
    for record in report["records"]:
        assert record["length"] == 2**MAX_ENCODE_VARS
        assert record["papr_db"] <= record["papr_bound_db"]
    assert elapsed < 10.0, f"m = {MAX_ENCODE_VARS} round trip took {elapsed:.1f} s"
    # the file holds the encoder's values bit for bit
    result = encode_pair(EncoderParams(MAX_ENCODE_VARS, 4))
    with open(pair) as fh:
        records = json.load(fh)
    for record, seq in zip(records, (result.c, result.d)):
        assert np.array_equal(record["values"]["re"], seq.values.real)
        assert np.array_equal(record["values"]["im"], seq.values.imag)


def test_reading_a_record_file_holds_its_arrays_only(tmp_path, capsys):
    # a read that keeps the file's lists and other keys holds 6.3 times the
    # arrays' bytes afterwards, and peaks 6.3 times them above the file's text
    m = 14
    pair = tmp_path / "pair.json"
    assert run_cli(capsys, "encode", "--m", str(m), "--H", "8", "--out", str(pair))[0] == 0
    arrays = 2 * 16 * 2**m  # two complex128 records
    tracemalloc.start()
    try:
        records = cli._load_json(str(pair), records=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * arrays, f"{held / arrays:.2f} times the arrays held after the read"
    peak_above_text = peak - pair.stat().st_size
    assert peak_above_text <= 5 * arrays, f"peak {peak_above_text / arrays:.2f} times the arrays"
    assert [sorted(rec) for rec in records] == [["id", "values"]] * 2


@pytest.mark.parametrize("command", ["encode", "verify", "enumerate", "simulate"])
def test_outputs_are_one_line_of_json(tmp_path, capsys, command):
    pair = tmp_path / "pair.json"
    pair.write_text(run_cli(capsys, "encode", "--m", "2", "--H", "4")[1])
    argv = {
        "encode": ["encode", "--m", "3", "--H", "4"],
        "verify": ["verify", str(pair)],
        "enumerate": ["enumerate", "--rule", "green", "--s", "1", "--m", "2", "--dedup"],
        "simulate": ["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "0,inf",
                     "--trials", "10"],
    }[command]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
    target = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_encode_writes_one_dumps_of_its_records(tmp_path, capsys):
    # the records are written one at a time, in the bytes of one compact
    # dumps of the list, on stdout and to --out alike
    argv = ["encode", "--m", "3", "--H", "4", "--d", "0,2,0"]
    code, out, _ = run_cli(capsys, *argv)
    records = json.loads(out)
    assert code == 0 and [r["id"] for r in records] == ["c", "d"]
    assert out == json.dumps(records, separators=(",", ":")) + "\n"
    target = tmp_path / "pair.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_emit_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._emit({"papr_db": float("nan")}, None)


_RULE_PAIR = ["--rule", "green", "--s", "2", "--indices", "2,1", "--m", "10"]
_PARAMS_PAIR = {"m": 8, "H": 4, "pi": [3, 1, 2, 8, 5, 4, 7, 6],
                "e": np.random.default_rng(22).uniform(-1.0, 1.0, 8).tolist(),
                "k": np.random.default_rng(23).uniform(0.0, 4.0, 8).tolist(),
                "seed": {"a": {"re": [1, 0, 1], "im": [0, 1, 0]},
                         "b": {"re": [1, 1, -1], "im": [0, -0.0, 0]}}}
_GAPPED_PAIR = ["--m", "5", "--H", "4", "--pi", "2,1,3,5,4", "--d", "4,8,2,0,1"]


@pytest.mark.parametrize("pair", ["rule", "params", "gapped"])
def test_round_trip_bytes_are_one_dumps_of_the_lists(tmp_path, capsys, pair):
    # records carry their float arrays to _emit; the file holds the bytes of
    # one json.dumps of the same records built with lists
    argv = {"rule": _RULE_PAIR, "gapped": _GAPPED_PAIR,
            "params": ["--params", write_params(tmp_path, _PARAMS_PAIR)]}[pair]
    target = tmp_path / "pair.json"
    assert run_cli(capsys, "encode", *argv, "--out", str(target)) == (0, "", "")
    params = cli._params_from_args(cli.build_parser().parse_args(["encode", *argv]))
    result = encode_pair(params)
    residual = is_gcp(result.c, result.d).residual
    records = []
    for seq_id, seq in (("c", result.c), ("d", result.d)):
        record = cli.sequence_record(seq_id, seq, 16, residual, cli.params_to_dict(params),
                                     result.overlap)
        records.append(as_lists(record))
    assert target.read_text() == json.dumps(records, separators=(",", ":")) + "\n"
    # verify reports each bound as papr_bound_db gives it for the sequence
    code, out, _ = run_cli(capsys, "verify", str(target))
    report = json.loads(out)
    assert code == 0 and out == json.dumps(report, separators=(",", ":")) + "\n"
    for line, seq in zip(report["records"], (result.c, result.d)):
        assert line["papr_db"] == papr_oversampled_db(seq)[0]
        assert line["papr_bound_db"] == papr_bound_db(seq)


# floats json spells in every form: zeros of both signs, subnormals,
# exponents, the largest finite values, and any other float64
_SPELLINGS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-9, 1e-05, 9.99e-5, 1e-4,
                     1e+16, -1e16, 1e22, sys.float_info.max, -sys.float_info.max, 1.0, -3.0]),
    st.floats(width=64),
)


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(_SPELLINGS, min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 39), max_size=80), allow_nan=st.booleans())
@example(pool=[0.0, -0.0], picks=[0, 1, 0, 1, 0], allow_nan=False)
@example(pool=[-0.0, 0.0], picks=[0, 0, 1], allow_nan=False)
@example(pool=[1.0], picks=[], allow_nan=False)
@example(pool=[math.nan, -math.inf, 2.5], picks=[0, 1, 2, 1, 1, 2, 2], allow_nan=True)
@example(pool=[math.inf, 2.5], picks=[0, 1, 1, 1], allow_nan=False)
def test_float_arrays_are_written_as_json_writes_their_list(pool, picks, allow_nan):
    # entries are drawn out of a small pool, so an array repeats values as records do
    values = np.array([pool[i % len(pool)] for i in picks], dtype=float)
    dumps = functools.partial(json.dumps, separators=(",", ":"), allow_nan=allow_nan)
    try:
        expected = dumps(values.tolist())
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            cli._array_text(values, dumps)
        assert str(raised.value) == str(exc)
    else:
        assert cli._array_text(values, dumps) == expected


def _boundary_neighbours(steps=4):
    """Each float within ``steps`` of +-1e-9, +-1e-4 and +-1e16, where the two writers'
    spellings part."""
    values = []
    for edge in (1e-9, 1e-4, 1e16):
        for sign in (1.0, -1.0):
            below = above = sign * edge
            values.append(below)
            for _ in range(steps):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, sign * np.inf)
                values += [below, above]
    return np.array(values)


def _encoder_arrays():
    """The re/im arrays and supports of seeded pairs at H = 2, 4 and 8 and m <= 12."""
    rng = np.random.default_rng(28)
    for H in (2, 4, 8):
        for m in range(1, 13):
            params = EncoderParams(m=m, H=H, pi=tuple(rng.permutation(m) + 1),
                                   e=tuple(rng.uniform(-1.0, 1.0, m)),
                                   k=tuple(rng.uniform(0.0, H, m)),
                                   d=tuple(rng.integers(0, 3, m)) if m % 3 == 0 else None)
            result = encode_pair(params)
            for seq in (result.c, result.d):
                yield from (seq.values.real, seq.values.imag, seq.support)


@pytest.mark.parametrize("case", ["bit patterns", "boundaries", "encoder", "integers"])
def test_array_text_is_json_spelling_on_an_oracle(case):
    # the writer's text, checked against json's on seeded arrays: an orjson
    # release that moves a spelling, or a boundary of the spliced elements, fails here
    rng = np.random.default_rng(1)
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    arrays = {
        # every exponent, both signs, subnormals, infinities and NaNs
        "bit patterns": lambda: [rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)],
        "boundaries": lambda: [_boundary_neighbours()],
        "encoder": lambda: list(_encoder_arrays()),
        "integers": lambda: [rng.integers(low, high, 1000, dtype=np.int64, endpoint=True),
                             np.array([low, -1, 0, high])],
    }[case]()
    for values in arrays:
        for allow_nan in (True, False):
            dumps = functools.partial(json.dumps, separators=(",", ":"), allow_nan=allow_nan)
            if allow_nan or np.isfinite(values).all():
                text, expected = cli._array_text(values, dumps), dumps(values.tolist())
                if text != expected:  # the first element spelled apart, not a diff of megabytes
                    pairs = zip(text[1:-1].split(","), expected[1:-1].split(","))
                    pytest.fail(next((f"{values[i]!r} is written {ours}, json writes {theirs}"
                                      for i, (ours, theirs) in enumerate(pairs) if ours != theirs),
                                     "the element counts differ"))
            else:
                with pytest.raises(ValueError, match="not JSON compliant"):
                    cli._array_text(values, dumps)


@pytest.mark.parametrize("seed, message", [
    ({}, "seed pair must be a JSON object with 'a' and 'b' arrays"),
    ([1], "seed pair must be a JSON object with 'a' and 'b' arrays"),
    ({"a": {"re": [1], "im": [0]}}, "seed pair must be a JSON object with 'a' and 'b' arrays"),
    ({"a": {"re": [1], "im": [0]}, "b": {"re": ["1"], "im": [0]}}, "numbers only"),
    ({"a": {"re": [1], "im": [0]}, "b": {"re": [1, 1], "im": [0, 0]}}, "bad seed pair: seed lengths"),
    ({"a": {"re": [1, 1], "im": [0, 0]}, "b": {"re": [1, 1], "im": [0, 0]}}, "not complementary"),
    ({"a": {"re": [], "im": []}, "b": {"re": [], "im": []}}, "sequence must not be empty"),
])
def test_seed_documents_share_one_parser(tmp_path, capsys, seed, message):
    # a seed in a parameter document and a --seed-pair file are refused alike
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps(seed))
    via_params = run_cli(capsys, "encode", "--params",
                         write_params(tmp_path, {**multilevel_doc(), "seed": seed}))
    via_file = run_cli(capsys, "encode", "--m", "3", "--H", "4", "--seed-pair", str(seed_file))
    assert via_params == via_file
    code, out, err = via_file
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


# a value of each knob flag
KNOB_FLAGS = {
    "encode": {"--rule": "green", "--s": "3", "--m": "2", "--indices": "2,1,3,2", "--ell": "1",
               "--sign": "-1", "--sign-b": "-1", "--z": "1", "--H": "4", "--pi": "2,1",
               "--e": "0.5,0", "--e-prime": "0.25", "--k": "1,2", "--k-prime": "1",
               "--k-dprime": "2", "--d": "1,0", "--seed-pair": "seed.json"},
    "simulate": {"--rule": "green", "--s": "1", "--m": "1"},
}
# each parameter source: a command line that reads it, and the knob flags it reads
SOURCES = {
    ("encode", "--params"): (["--params", "params.json"], ""),
    ("encode", "--rule"): (["--rule", "cyan", "--s", "3", "--m", "2", "--indices", "2,1,3,2"],
                           "--s --m --indices --ell --sign --sign-b --z --pi --k --seed-pair"),
    ("encode", "--m and --H"): (["--m", "2", "--H", "4"], "--m --H --pi --e --e-prime --k "
                                "--k-prime --k-dprime --d --seed-pair"),
    ("simulate", "--codebook"): (["--codebook", "codebook.json", "--ebn0", "inf", "--trials", "8"],
                                 ""),
    ("simulate", "--rule"): (["--rule", "green", "--s", "1", "--m", "2", "--ebn0", "inf",
                              "--trials", "8"], "--s --m"),
}


# --rule beside the bare knobs makes a --rule command
@pytest.mark.parametrize("command, source, flag", [
    (command, source, flag) for command, source in SOURCES for flag in KNOB_FLAGS[command]
    if flag != source and (source, flag) != ("--m and --H", "--rule")
])
def test_each_source_reads_only_its_own_flags(tmp_path, monkeypatch, capsys, command, source,
                                              flag):
    # a knob flag that the source does not read is refused, not dropped
    monkeypatch.chdir(tmp_path)
    write_params(tmp_path, {"m": 2, "H": 4})
    write_params(tmp_path, {"a": complex_lists([1, 1]), "b": complex_lists([1, -1])}, "seed.json")
    write_params(tmp_path, {"sequences": [complex_lists([1, 1]), complex_lists([1, -1])]},
                 "codebook.json")
    argv, reads = SOURCES[command, source]
    code, out, err = run_cli(capsys, command, *argv, flag, KNOB_FLAGS[command][flag])
    if flag in reads.split():
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=float)
    else:
        assert (code, out, err) == (2, "", f"error: {flag} is not read with {source}\n")


def test_knob_flags_are_read_as_a_parameter_document(tmp_path, capsys):
    seed = {"a": complex_lists([1, 1]), "b": complex_lists([1, -1])}
    doc = {"m": 2, "H": 4, "pi": [2, 1], "e": [0.5, 0], "e_prime": 0.25, "k": [1, 2],
           "k_prime": 1, "k_dprime": 2, "d": [1, 0], "seed": seed}
    flags = run_cli(capsys, "encode", "--m=2", "--H=4", "--pi=2,1", "--e=0.5,0", "--e-prime=0.25",
                    "--k=1,2", "--k-prime=1", "--k-dprime=2", "--d=1,0",
                    f"--seed-pair={write_params(tmp_path, seed, 'seed.json')}")
    assert flags[0] == 0
    assert flags == run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    # params_from_dict is the one place cli builds EncoderParams
    calls = [node for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EncoderParams"]
    assert len(calls) == 1


@pytest.mark.parametrize("rule", qam.RULES)
def test_encode_rule_reads_an_integral_z_mod_4(capsys, rule):
    # 10**21 + 1 was rounded to the float 1e21, and 5 gave other float sums than 1
    entry = qam.rule_entry(rule)
    choice = entry.choices(4)[-1]
    indices = ",".join(str(choice[name]) for name in entry.indices)
    outs = set()
    for z in (1, 5, -3, 10**21 + 1):
        code, out, err = run_cli(capsys, "encode", f"--rule={rule}", "--s=4", "--m=3",
                                 f"--indices={indices}", f"--z={z}")
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


def test_encode_validation_failure(tmp_path, capsys):
    doc = multilevel_doc()
    doc["seed"] = {"a": {"re": [1, 1], "im": [0, 0]}, "b": {"re": [1, 1], "im": [0, 0]}}
    path = write_params(tmp_path, doc)
    code, _, err = run_cli(capsys, "encode", "--params", path)
    assert code == 2
    assert "not complementary" in err


def test_verify_round_trip(tmp_path, capsys):
    path = write_params(tmp_path, multilevel_doc())
    code, out, _ = run_cli(capsys, "encode", "--params", path)
    records = json.loads(out)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "verify", str(pair_file))
    assert code == 0
    report = json.loads(out)
    assert report["gcp_ok"] is True
    # floats survive the JSON round trip bit-for-bit
    assert report["gcp_residual"] == records[0]["gcp_residual"]
    assert report["records"][0]["papr_db"] == records[0]["papr_db"]


def test_verify_detects_corruption(tmp_path, capsys):
    path = write_params(tmp_path, multilevel_doc())
    _, out, _ = run_cli(capsys, "encode", "--params", path)
    records = json.loads(out)
    records[0]["values"]["re"][2] += 0.25
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "verify", str(bad_file))
    assert code == 1
    assert json.loads(out)["gcp_residual"] > 1e-9


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_rejects_bad_tolerance(tmp_path, capsys, tol):
    pair = tmp_path / "pair.json"
    assert run_cli(capsys, "encode", "--m", "3", "--H", "4", "--out", str(pair))[0] == 0
    # a non-complementary pair as well: inf would pass it
    same = tmp_path / "same.json"
    record = {"values": {"re": [1.0, 1.0], "im": [0.0, 0.0]}}
    same.write_text(json.dumps([record, record]))
    # and a single record, which is_gcp never sees
    one = tmp_path / "one.json"
    one.write_text(json.dumps(record))
    for path in (pair, same, one):
        code, out, err = run_cli(capsys, "verify", str(path), "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "tol" in err


def test_verify_rejects_malformed_file(tmp_path, capsys):
    record = {"values": {"re": [1], "im": [0]}}
    c, d = ({"id": "c", "values": {"re": [1, 1], "im": [0, 0]}},
            {"id": "d", "values": {"re": [1, -1], "im": [0, 0]}})
    bad = {"re": [1, "x"], "im": [0, 0]}
    for argv, text, code, message in [
        (["verify"], "{not json", 2, "cannot read"),
        (["verify"], "[]", 2, "expected a sequence record or a list of records"),
        (["verify"], '[{"id": "c"}]', 2, "record missing 'values'"),
        (["verify"], json.dumps({"values": {"re": [], "im": []}}), 2, "sequence must not be empty"),
        (["papr", "--index", "1"], json.dumps(record), 2, "--index 1 out of range for 1 records"),
        # arrays are read as json parses them: an array refused there is
        # refused again where it is read, after the checks before it
        (["verify"], json.dumps([{"values": bad}, d]), 2,
         "bad complex array: re/im arrays take numbers only"),
        (["papr", "--index", "1"], json.dumps([c, {"values": bad}]), 2, "bad complex array"),
        (["verify"], json.dumps([{"values": bad}, {"id": "d"}]), 2, "record missing 'values'"),
        (["verify"], json.dumps([{"values": bad}, d])[:-2], 2, "cannot read"),
        (["verify"], json.dumps(c["values"]), 2, "record missing 'values'"),
        # keys outside the record's id and values are not read
        (["verify"], json.dumps([{**c, "values": {**c["values"], "extra": 1}}, d]), 0,
         '"gcp_ok":true'),
        (["verify"], json.dumps([{**c, "params": {"seed": {"a": bad, "b": bad}}}, d]), 0,
         '"gcp_ok":true'),
        (["verify"], json.dumps([{**c, "id": 2**64 + 1}, d]), 0, f'"id":{2**64 + 1},'),
    ]:
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        got, out, err = run_cli(capsys, *argv, str(broken))
        assert got == code, text
        if code:
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        else:
            assert err == "" and message in out


def test_verify_rejects_non_finite_values(tmp_path, capsys):
    path = write_params(tmp_path, multilevel_doc())
    _, out, _ = run_cli(capsys, "encode", "--params", path)
    # 1e160 is finite, but the record's power (2 * length * energy) overflows
    for value in (float("nan"), 1e160):
        records = json.loads(out)
        records[0]["values"]["re"][2] = value
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(records))
        for command in ("verify", "papr"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, bad_out, err = run_cli(capsys, command, str(bad_file))
            assert code == 2
            assert bad_out == ""
            assert err.count("\n") == 1 and "non-finite" in err


@pytest.mark.parametrize("re", [["1", "1"], [True, 1], [1, False], [[1], [1]], "11", [1, None]])
def test_records_take_only_json_numbers(tmp_path, capsys, re):
    # ["1", "1"] was read as [1, 1], and verify exited 1 on a failed check
    records = [{"values": {"re": re, "im": [0, 0]}}, {"values": {"re": [1, 1], "im": [0, 0]}}]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    codebook = tmp_path / "codebook.json"
    codebook.write_text(json.dumps({"sequences": [r["values"] for r in records]}))
    simulate = ["simulate", "--ebn0", "inf", "--trials", "4", "--codebook"]
    # both codebook forms: a sequences list and a record list
    for argv in (["verify", str(path)], ["papr", str(path)], simulate + [str(codebook)],
                 simulate + [str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "numbers" in err


def test_records_refuse_integers_beyond_float(tmp_path, capsys):
    # json reads 10**400 as an int that no float holds
    path = tmp_path / "records.json"
    path.write_text('[{"values": {"re": [1%s, 1], "im": [0, 0]}}]' % ("0" * 400))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "bad complex array" in err


def test_verify_reports_gap_layout(tmp_path, capsys):
    doc = multilevel_doc()
    doc["d"] = [0, 60, 0]
    doc["seed"] = {"a": {"re": [1, 0, 1], "im": [0, 1, 0]}, "b": {"re": [1, 1, -1], "im": [0, 0, 0]}}
    path = write_params(tmp_path, doc)
    _, out, _ = run_cli(capsys, "encode", "--params", path)
    pair_file = tmp_path / "gapped.json"
    pair_file.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(pair_file))
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert [c["length"] for c in rec["clusters"]] == [12, 12]
    assert rec["gaps"] == [{"start": 12, "length": 60}]


def test_enumerate_report(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 768
    assert report["bits"] == 9
    assert report["length"] == 8
    assert report["unit"] == "G0"


def test_enumerate_total_and_multiseed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--s", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rule"] == "total"
    assert report["count"] == 38 * 64
    code, out, _ = run_cli(capsys, "enumerate", "--s", "2", "--m", "2", "--N", "3")
    report = json.loads(out)
    assert report["n_class"] == "N>1"
    assert report["length"] == 3 * 4


@pytest.mark.parametrize("n", ["0", "-3"])
def test_enumerate_rejects_seed_length_below_one(capsys, n):
    code, out, err = run_cli(capsys, "enumerate", "--s", "2", "--m", "2", "--N", n)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--N" in err


def test_enumerate_dedup(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "2", "--dedup")
    assert code == 0
    report = json.loads(out)
    assert report["dedup"] == 64
    assert report["dedup_matches_formula"] is True


# the member walks refuse these (5.9e7 to 5.7e8 combinations); the count admits them
@pytest.mark.parametrize("rule, s, m, n", [
    ("yellow", 2, 6, 1), ("blue", 2, 6, 1), ("orange", 2, 6, 1), ("cyan", 3, 5, 1),
    ("green", 1, 7, 1), ("yellow", 2, 3, 4),
])
def test_enumerate_dedup_reports_its_groups(capsys, rule, s, m, n):
    code, out, err = run_cli(capsys, "enumerate", "--rule", rule, "--s", str(s), "--m", str(m),
                             "--N", str(n), "--dedup")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["dedup"] == report["count"] and report["dedup_matches_formula"] is True
    group = 4 ** (m + 1)
    assert report["dedup"] == report["distinct_groups"] * group
    assert report["groups"] * group == qam.enumeration_size(rule, s, m)
    assert report["distinct_groups"] <= report["groups"]
    # the two keys follow the parent's report
    assert list(report)[-4:] == ["dedup", "dedup_matches_formula", "groups", "distinct_groups"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_dedup_walks_the_stock_seed(capsys, n):
    code, out, _ = run_cli(capsys, "enumerate", "--rule", "yellow", "--s", "2", "--m", "2",
                           "--N", str(n), "--dedup")
    assert code == 0
    report = json.loads(out)
    assert report["n_class"] == "N>1" and report["length"] == 4 * n
    assert report["dedup"] == report["count"] and report["dedup_matches_formula"] is True


def test_enumerate_dedup_refuses_seed_lengths_above_four(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "2",
                             "--N", "5", "--dedup")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--N" in err


def test_enumerate_dedup_yellow_s2_m5(capsys):
    # 4,915,200 walk rows of length 32; no row is stored, so no memory guard refuses it
    code, out, err = run_cli(capsys, "enumerate", "--rule", "yellow", "--s", "2", "--m", "5",
                             "--dedup")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["dedup"] == report["count"] == 2_949_120
    assert report["dedup_matches_formula"] is True


@pytest.mark.parametrize("m", ["100000", "1e7", str(MAX_COUNT_VARS + 1)])
def test_enumerate_bounds_m(capsys, m):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--s", "1", "--m", m)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(MAX_COUNT_VARS) in err


def test_enumerate_at_the_m_bound(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--s", "1", "--m", str(MAX_COUNT_VARS))
    assert code == 0
    assert json.loads(out)["length"] == 2**MAX_COUNT_VARS


@pytest.mark.parametrize("argv, name", [
    (["--s", "9" * 1100, "--m", "2"], "count"),  # the count is about s^4
    (["--s", "1", "--m", str(MAX_COUNT_VARS), "--N", "9" * 4100], "length"),  # N * 2^1000
])
def test_enumerate_bounds_report_digits(capsys, argv, name):
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert code == 3
    assert out == ""
    need = {"count": qam.count_sequences("total", int(argv[1]), 2).count,
            "length": int(argv[-1]) * 2**MAX_COUNT_VARS}[name]
    limit = 10**cli.MAX_REPORT_DIGITS - 1
    assert err == (f"error: report {name} ({cli.MAX_REPORT_DIGITS} digits at most): "
                   f"at least 2^{need.bit_length() - 1} exceeds the guard limit of "
                   f"at least 2^{limit.bit_length() - 1}\n")


def test_enumerate_guard_exit(capsys, monkeypatch):
    # the count reads the key guard: 2 cells of 64-byte keys and their overhead
    monkeypatch.setattr(qam, "WALK_KEY_BYTES", 16)
    code, _, err = run_cli(
        capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "2", "--dedup"
    )
    assert code == 3
    assert "guard" in err


def test_enumerate_dedup_refuses_many_orders_at_once(capsys):
    # 17! orders: the walk is refused before it lists them
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "17",
                             "--dedup")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "guard" in err


def test_enumerate_dedup_refuses_many_small_keys(capsys, monkeypatch):
    # green s=2896 m=1: 8.4M cells of 32-byte keys, 268 MB of key bytes alone
    # and several GB with the objects that hold them; refused before any build
    def build_spy(*args, **kwargs):
        raise AssertionError("the refused count built params")

    monkeypatch.setattr(qam, "green_params", build_spy)
    code, out, err = run_cli(capsys, "enumerate", "--rule", "green", "--s", "2896", "--m", "1",
                             "--dedup")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "green walk key bytes at m=1" in err


def test_enumerate_dedup_without_choices_lists_no_orders(capsys):
    # cyan has no choice below s = 3; the walk listed all 30! orders first
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "enumerate", "--rule", "cyan", "--s", "2", "--m", "30",
                           "--dedup")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["dedup"] == 0


@pytest.mark.parametrize("command", ["encode", "verify", "papr"])
def test_oversample_bounded_before_any_grid(tmp_path, capsys, command):
    # 10^11 grid points per element: refused before the FFT allocates anything
    pair = tmp_path / "pair.json"
    assert run_cli(capsys, "encode", "--m", "2", "--H", "4", "--out", str(pair))[0] == 0
    argv = {"encode": ["encode", "--m", "2", "--H", "4"], "verify": ["verify", str(pair)],
            "papr": ["papr", str(pair)]}[command]
    code, out, err = run_cli(capsys, *argv, "--oversample", "100000000000")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(MAX_GRID_POINTS) in err


def test_papr_report_and_trace(tmp_path, capsys):
    path = write_params(tmp_path, multilevel_doc())
    _, out, _ = run_cli(capsys, "encode", "--params", path)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(out)
    trace_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "papr", str(pair_file), "--oversample", "8", "--out", str(trace_file)
    )
    assert code == 0
    report = json.loads(out)
    assert report["papr_db"] <= report["papr_bound_db"] + 1e-9
    lines = trace_file.read_text().strip().splitlines()
    assert lines[0] == "t_norm,power"
    assert len(lines) == 1 + 8 * 8


def direct_papr_db(values, oversample):
    """The ratio from one complex FFT of the whole grid, independent of the autocorrelation."""
    power = np.abs(np.fft.fft(np.conj(values), oversample * len(values))) ** 2
    return 10.0 * np.log10(power.max() / power.mean())


@pytest.mark.parametrize("pad", [None, "1,0,2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_written_papr_matches_the_direct_evaluation(tmp_path, capsys, n, pad):
    seed = known_seed(n)
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({
        name: {"re": part.values.real.tolist(), "im": part.values.imag.tolist()}
        for name, part in (("a", seed.a), ("b", seed.b))
    }))
    pair = tmp_path / "pair.json"
    argv = ["encode", "--m", "3", "--H", "4", "--pi", "2,3,1", "--seed-pair", str(seed_file)]
    assert run_cli(capsys, *argv, *(["--d", pad] if pad else []), "--out", str(pair))[0] == 0
    records = json.loads(pair.read_text())
    assert len(records[0]["values"]["re"]) == n * 8 + (3 if pad else 0)
    code, out, _ = run_cli(capsys, "verify", str(pair), "--oversample", "5")
    assert code == 0
    verified = json.loads(out)["records"]
    for index, record in enumerate(records):
        values = values_of(record)
        assert record["papr_db"] == pytest.approx(direct_papr_db(values, 16), rel=1e-12)
        assert verified[index]["papr_db"] == pytest.approx(direct_papr_db(values, 5), rel=1e-12)
        code, out, _ = run_cli(capsys, "papr", str(pair), "--index", str(index),
                               "--oversample", "7")
        assert code == 0
        assert json.loads(out)["papr_db"] == pytest.approx(direct_papr_db(values, 7), rel=1e-12)


# a file holding null is refused, not read as the default seed
@pytest.mark.parametrize("doc", [[1, 2], "str", None])
@pytest.mark.parametrize("path", [
    ["--m", "2", "--H", "4"], ["--rule", "green", "--s", "1", "--m", "2", "--indices", "1,1"],
])
def test_seed_pair_must_be_an_object(tmp_path, capsys, doc, path):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "encode", *path, "--seed-pair", str(seed_file))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "seed pair" in err


@pytest.mark.parametrize("oversample", [4, 7, 16])
def test_papr_trace_csv_keeps_its_time_column(tmp_path, capsys, oversample):
    # the t_norm column is i / G written with repr(float), G = oversample * length
    pair = tmp_path / "pair.json"
    code, _, _ = run_cli(capsys, "encode", "--m", "2", "--H", "4", "--d", "0,1", "--out", str(pair))
    assert code == 0
    trace = tmp_path / "trace.csv"
    argv = ["papr", str(pair), "--oversample", str(oversample), "--out", str(trace)]
    assert run_cli(capsys, *argv)[0] == 0
    header, *rows = trace.read_text().splitlines()
    assert header == "t_norm,power"
    n_grid = oversample * 5
    assert [row.split(",")[0] for row in rows] == [repr(i / n_grid) for i in range(n_grid)]
    assert min(float(row.split(",")[1]) for row in rows) >= 0


def test_simulate_noiseless_and_deterministic(tmp_path, capsys):
    words = [{"re": [1, 1], "im": [0, 0]}, {"re": [1, -1], "im": [0, 0]}]
    cb_file = tmp_path / "codebook.json"
    cb_file.write_text(json.dumps({"sequences": words}))
    # the record-list form, with the keys a record carries, and bare words
    for doc in ([{"id": "c", "values": words[0], "support": [0, 1]}, {"values": words[1]}], words):
        other = tmp_path / "records.json"
        other.write_text(json.dumps(doc))
        argv = ("simulate", "--ebn0", "0,5", "--trials", "200", "--codebook")
        assert run_cli(capsys, *argv, str(other)) == run_cli(capsys, *argv, str(cb_file))
    code, out1, _ = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf",
        "--trials", "1000", "--rng-seed", "11",
    )
    assert code == 0
    assert json.loads(out1)["ber"] == [0.0]
    assert '"ebn0_db":[Infinity]' in out1  # the noiseless point
    assert json.loads(out1)["ebn0_db"] == [math.inf]
    code, out2, _ = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "0,5",
        "--trials", "2000", "--rng-seed", "11",
    )
    code, out3, _ = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "0,5",
        "--trials", "2000", "--rng-seed", "11",
    )
    assert out2 == out3


def test_simulate_guard_on_large_m(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--rule", "green", "--s", "1", "--m", "5",
        "--ebn0", "inf", "--trials", "10",
    )
    assert code == 3
    assert err == "error: m of a simulate --rule codebook: 5 exceeds the guard limit of 4\n"


def test_simulate_guard_on_a_large_rule_codebook(capsys):
    # blue s=2 m=4 walks more than 2^16 distinct words
    code, out, err = run_cli(
        capsys, "simulate", "--rule", "blue", "--s", "2", "--m", "4", "--ebn0", "inf",
        "--trials", "10",
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "guard" in err and str(MAX_CODEBOOK) in err


@pytest.mark.parametrize("rule, s, first", [("cyan", "2", 3), ("cyan", "1", 3), ("yellow", "1", 2)])
def test_simulate_names_the_first_lattice_with_choices(capsys, rule, s, first):
    code, out, err = run_cli(
        capsys, "simulate", "--rule", rule, "--s", s, "--m", "2", "--ebn0", "inf", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {rule} has no admissible indices below s = {first}\n"


def test_simulate_guard_on_a_walk_of_a_huge_lattice(capsys):
    # the walk's 10^4400 combinations have more digits than Python writes out
    code, out, err = run_cli(
        capsys, "simulate", "--rule", "green", "--s", str(10**2200), "--m", "1", "--ebn0", "1",
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "guard" in err


def test_simulate_rule_codebook(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "simulate", "--rule", "green", "--s", "1", "--m", "2",
        "--ebn0", "inf", "--trials", "200", "--rng-seed", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["codebook_size"] == 64
    assert report["bits_per_word"] == 6
    assert report["ber"] == [0.0]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_rejects_trials_below_one(capsys, trials):
    code, out, err = run_cli(
        capsys, "simulate", "--rule", "green", "--s", "1", "--m", "1",
        "--ebn0", "inf", "--trials", trials,
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "trials" in err


@pytest.mark.parametrize("ebn0", ["nan", "0,nan", "-inf"])
def test_simulate_rejects_nan_and_minus_inf(capsys, ebn0):
    # a grid given as its own argument, such as -inf, is a value, not an option
    for grid in ([f"--ebn0={ebn0}"], ["--ebn0", ebn0]):
        code, out, err = run_cli(
            capsys, "simulate", "--rule", "green", "--s", "1", "--m", "1",
            *grid, "--trials", "10",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Eb/N0" in err


@pytest.mark.parametrize("flag, value", [("--m", "-3"), ("--m", "0"), ("--s", "0"), ("--s", "-2")])
def test_simulate_rule_refuses_m_and_s_below_one(capsys, flag, value):
    sizes = {"--s": "2", "--m": "2", flag: value}
    # encode --rule runs the same check, before it reads --indices
    for command in (["simulate", "--ebn0", "inf", "--trials", "10"], ["encode"]):
        code, out, err = run_cli(
            capsys, *command, "--rule", "green", *(x for kv in sizes.items() for x in kv),
        )
        assert code == 2
        assert out == ""
        assert err == "error: s and m must be positive\n"


@pytest.mark.parametrize("ebn0", ["4000", "-4000", "0,4000"])
def test_simulate_rejects_an_eb_n0_without_a_noise_level(capsys, ebn0):
    # 10^400 overflows a float and 10^-400 is 0, so N0 would be 0 or unbounded
    code, out, err = run_cli(
        capsys, "simulate", "--rule", "green", "--s", "1", "--m", "2",
        f"--ebn0={ebn0}", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "noise level" in err


@pytest.mark.parametrize("words, reason", [
    ([{"re": [], "im": []}] * 2, "empty"),
    ([{"re": [0, 0], "im": [0, 0]}] * 4, "energy"),
])
def test_simulate_rejects_codebooks_without_energy(tmp_path, capsys, words, reason):
    # Eb = 0 in both, so an Eb/N0 point has no meaning
    cb_file = tmp_path / "codebook.json"
    cb_file.write_text(json.dumps({"sequences": words}))
    code, out, err = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and reason in err


def test_simulate_rejects_codebook_words_of_unequal_lengths(tmp_path, capsys):
    cb_file = tmp_path / "codebook.json"
    words = [{"re": [1, 1], "im": [0, 0]}, {"re": [1, -1], "im": [0, 0]}, {"re": [1], "im": [0]}]
    cb_file.write_text(json.dumps({"sequences": words}))
    code, out, err = run_cli(capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf")
    assert code == 2
    assert out == ""
    assert err == "error: codebook words differ in length: word 0 has 2 entries, word 2 has 1\n"


def test_simulate_rejects_malformed_codebook(tmp_path, capsys):
    cb_file = tmp_path / "codebook.json"
    word, bad = {"re": [1, 1], "im": [0, 0]}, {"re": [1, "x"], "im": [0, 0]}
    needs = "error: codebook file needs 'sequences' or a record list: "
    for doc, message in [
        ([1, 2], needs + "AttributeError(\"'int' object has no attribute 'get'\")\n"),
        ({"words": [word]}, needs + "KeyError('sequences')\n"),
        ({"sequences": 3}, needs + "TypeError(\"'int' object is not iterable\")\n"),
        ({"sequences": [word, bad]}, "error: bad complex array: re/im arrays take numbers only\n"),
        ([{"values": word}, {"values": bad}],
         "error: bad complex array: re/im arrays take numbers only\n"),
        ([{"values": word}, {"id": "d"}], "error: bad complex array: 're'\n"),
    ]:
        cb_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf")
        assert code == 2
        assert out == ""
        assert err == message


def test_simulate_codebook_file_guard(tmp_path, capsys):
    cb_file = tmp_path / "codebook.json"
    word = {"re": [1.0], "im": [0.0]}
    cb_file.write_text(json.dumps({"sequences": [word] * (MAX_CODEBOOK + 1)}))
    code, out, err = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf", "--trials", "1",
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and str(MAX_CODEBOOK) in err


def test_missing_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "encode")
    assert code == 2
    code, _, err = run_cli(capsys, "simulate", "--ebn0", "0")
    assert code == 2
    for argv, message in [
        (["encode", "--m", "2"], "need --params, --rule, or both --m and --H"),
        (["encode", "--rule", "green", "--m", "2", "--indices", "1,1"], "--rule needs --m and --s"),
        (["simulate", "--rule", "green", "--s", "1", "--ebn0", "0"], "--rule needs --m and --s"),
        # a zero is given, not missing: the encoder refuses it
        (["encode", "--m", "0", "--H", "4"], "m must be in 1..16"),
        (["encode", "--m", "2", "--H", "0"], "H must be a positive even integer, got 0"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["encode", "simulate", "papr"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(run_cli(capsys, "encode", "--m", "2", "--H", "4")[1])
    argv = {
        "encode": ["encode", "--m", "3", "--H", "4"],
        "simulate": ["simulate", "--rule", "green", "--s", "1", "--m", "1", "--ebn0", "inf",
                     "--trials", "10"],
        "papr": ["papr", str(pair_file)],
    }[command]
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target}: ")
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))  # a directory
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("argv, same", [
    (["encode", "--m", "3.0", "--H", "4"], ["encode", "--m", "3", "--H", "4"]),
    (["encode", "--m", "3", "--H", "4e0"], ["encode", "--m", "3", "--H", "4"]),
    (["encode", "--rule", "blue", "--s", "2.0", "--m", "3", "--indices", "1,2,1",
      "--ell", "2.0", "--z", "1.0"],
     ["encode", "--rule", "blue", "--s", "2", "--m", "3", "--indices", "1,2,1",
      "--ell", "2", "--z", "1"]),
    (["enumerate", "--rule", "green", "--s", "1.0", "--m", "2.0", "--N", "2.0", "--dedup"],
     ["enumerate", "--rule", "green", "--s", "1", "--m", "2", "--N", "2", "--dedup"]),
    (["simulate", "--rule", "green", "--s", "1.0", "--m", "2.0", "--ebn0", "0,inf",
      "--trials", "100"],
     ["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "0,inf",
      "--trials", "100"]),
    (["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "0,4",
      "--trials", "1e3", "--rng-seed", "1.1e1"],
     ["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "0,4",
      "--trials", "1000", "--rng-seed", "11"]),
    (["encode", "--rule", "green", "--s", "2", "--m", "2", "--indices", "1,2",
      "--sign", "-1.0", "--sign-b", "-1e0", "--oversample", "8.0"],
     ["encode", "--rule", "green", "--s", "2", "--m", "2", "--indices", "1,2",
      "--sign", "-1", "--sign-b", "-1", "--oversample", "8"]),
])
def test_integer_flags_take_integral_floats(capsys, argv, same):
    got = run_cli(capsys, *argv)
    assert got[0] == 0
    assert got == run_cli(capsys, *same)


def test_file_command_integer_flags_take_integral_floats(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(run_cli(capsys, "encode", "--m", "2", "--H", "4")[1])
    for argv, same in [
        (["verify", str(pair), "--oversample", "8.0"], ["verify", str(pair), "--oversample", "8"]),
        (["papr", str(pair), "--index", "1.0", "--oversample", "4e0"],
         ["papr", str(pair), "--index", "1", "--oversample", "4"]),
    ]:
        got = run_cli(capsys, *argv)
        assert got[0] == 0
        assert got == run_cli(capsys, *same)


@pytest.mark.parametrize("argv", [
    ["encode", "--m", "3.5", "--H", "4"],
    ["encode", "--m", "3", "--H", "nan"],
    ["enumerate", "--s", "1", "--m", "2", "--N", "1e400"],
    ["simulate", "--rule", "green", "--s", "0.5", "--m", "2", "--ebn0", "inf"],
    ["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "inf", "--trials", "1.5"],
    ["encode", "--rule", "green", "--s", "2", "--m", "2", "--indices", "1,2", "--sign", "0.5"],
])
def test_integer_flags_refuse_fractions_in_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.count("\n") == 1 and "invalid integer value" in out.err


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def checked_run(capsys, argv, codes=(0, 2, 3), parse_constant=_no_constants):
    """Run the CLI and check the exit contract: an exit code in ``codes``, no
    traceback, at most one stderr line counting numpy's warnings (each would
    print its own lines), and strict JSON on stdout on exit 0 (with the
    constants ``parse_constant`` takes)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error, such as --sign=2
            code = exc.code
    out, err = capsys.readouterr()
    if currently_in_test_context():
        event(f"exit {code}")
    assert code in codes, (code, err)
    assert "Traceback" not in err
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.count("\n") + len(numeric) <= 1, (err, numeric)
    if code == 0:
        json.loads(out, parse_constant=parse_constant)
    return code, out, err


HUGE_GRID_RECORD = {"values": {"re": [0, 1e-200, 0.5], "im": [1e150, 3e153, 2]}}


@pytest.mark.parametrize("argv, code", [
    # w * e overflows to -inf in a block whose coefficient is 0 anyway
    (["encode", "--params", {"m": 1, "H": 2, "e": [-1e308], "e_prime": 16}], 0),
    # every envelope power is finite, but their total over the grid is not
    (["encode", "--m", "1", "--H", "4", "--e-prime", "225"], 2),
    (["papr", HUGE_GRID_RECORD], 2),
    (["verify", HUGE_GRID_RECORD], 2),
])
def test_overflows_print_no_numpy_warnings(tmp_path, capsys, argv, code):
    # each printed two RuntimeWarnings; the refusals then failed to write inf as JSON
    argv = [write_params(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    _, out, err = checked_run(capsys, argv, (code,))
    if code == 0:
        assert err == ""
        assert json.loads(out)[0]["values"]["re"] == [pytest.approx(6.76e21, rel=1e-3), 0.0]
    else:
        assert out == "" and "overflows" in err


MODERATE = st.floats(-50.0, 50.0)
KNOB = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-500.0, 500.0),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, -1e308]),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_encode_knob_fuzz(capsys, data):
    m = data.draw(st.integers(1, 8), label="m")
    # half the draws keep every knob in range, so that exit 0 is common too
    knob = data.draw(st.sampled_from([MODERATE, KNOB]), label="knob range")
    knobs = st.lists(knob, min_size=m, max_size=m)
    # a pad is small, negative or past the length guard: a pair between the
    # two would only slow the test down
    pad = st.one_of(st.integers(0, 3), st.just(-1), st.integers(MAX_SEQUENCE_LENGTH, 10**12))
    pads = st.one_of(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                     st.lists(pad, min_size=m, max_size=m))
    H = st.one_of(st.sampled_from([2, 4, 8]), st.integers(-8, 10**6),
                  st.sampled_from([10**400, 2**1024]))
    argv = [
        "encode", f"--m={m}",
        f"--H={data.draw(H, label='H')}",
        f"--pi={','.join(map(str, data.draw(st.permutations(range(1, m + 1)), label='pi')))}",
        f"--e={','.join(map(repr, data.draw(knobs, label='e')))}",
        f"--k={','.join(map(repr, data.draw(knobs, label='k')))}",
        f"--d={','.join(map(str, data.draw(pads, label='d')))}",
    ]
    for flag in ("--e-prime", "--k-prime", "--k-dprime"):
        argv.append(f"{flag}={data.draw(knob, label=flag)!r}")
    code, out, _ = checked_run(capsys, argv)
    if code == 0:
        assert [r["id"] for r in json.loads(out)] == ["c", "d"]


# an index, lattice size, step or constant: in range, zero, negative, or an
# integer no float holds
RULE_INT = st.one_of(st.integers(-2, 6), st.sampled_from([10**6, 2**1024, -(10**400), 10**400]))
RULE_STEP = st.one_of(MODERATE, st.integers(-8, 8), st.sampled_from([math.inf, math.nan]),
                      st.sampled_from([2**1024, -(10**400)]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_encode_rule_fuzz(capsys, data):
    rule = data.draw(st.sampled_from(qam.RULES), label="rule")
    entry = qam.rule_entry(rule)
    m = data.draw(st.integers(1, 4), label="m")
    # half the draws keep every value in range, so that exit 0 is common too
    wide = data.draw(st.booleans(), label="out of range")

    def draw(label, good, bad):
        return data.draw(st.one_of(good, bad) if wide else good, label=label)

    s = draw("s", st.integers(3, 4), RULE_INT)
    choices = entry.choices(s) if s in (3, 4) else []
    choice = draw("choice", st.sampled_from(choices), st.none()) if choices else None
    n = len(entry.indices)
    indices = [choice[name] for name in entry.indices] if choice else data.draw(
        st.lists(RULE_INT, min_size=n - 1, max_size=n + 1), label="indices")
    argv = ["encode", f"--rule={rule}", f"--m={m}", f"--s={s}",
            f"--indices={','.join(map(str, indices))}"]
    for flag, good, bad in (
        ("--ell", st.integers(1, m), RULE_INT),
        ("--sign", st.sampled_from([1, -1]), st.sampled_from([0, 2, 10**400])),
        ("--sign-b", st.sampled_from([1, -1]), st.sampled_from([0, 2, 10**400])),
        ("--z", st.integers(0, 3), RULE_INT),
        ("--k", st.lists(st.integers(0, 3), min_size=m, max_size=m),
         st.lists(RULE_STEP, min_size=m - 1, max_size=m + 1)),
        ("--pi", st.permutations(range(1, m + 1)), st.lists(RULE_INT, min_size=m, max_size=m)),
    ):
        if data.draw(st.booleans(), label=f"{flag} given"):
            value = draw(flag, good, bad)
            argv.append(f"{flag}={','.join(map(str, value)) if isinstance(value, list) else value}")
    code, out, _ = checked_run(capsys, argv)
    if code == 0:
        assert [r["id"] for r in json.loads(out)] == ["c", "d"]


# a value beyond any knob's range: an integer no float holds, a float near the
# largest, a wrong JSON type, or null (the knob's default)
PARAM_BAD = st.one_of(
    st.sampled_from([10**400, -(10**400), 2**1024, 1e308, -1e308, 1.7e308, -1.7e308]),
    st.sampled_from(["4", True, [1], {"a": 1}, []]),
    st.none(),
)
SEEDS = [known_seed(1), known_seed(2)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_params_file_fuzz(tmp_path, capsys, data):
    m = data.draw(st.integers(1, 4), label="m")
    # half the draws keep every knob in range, so that exit 0 is common too
    wide = data.draw(st.booleans(), label="out of range")

    def knob(label, good, entry=None):
        if entry is not None:  # a list knob: a bad entry, or a bad value for the whole list
            good = st.one_of(good, st.lists(st.one_of(entry, PARAM_BAD), min_size=m, max_size=m))
        return data.draw(st.one_of(good, PARAM_BAD) if wide else good, label=label)

    moderate = st.lists(MODERATE, min_size=m, max_size=m)
    seed = data.draw(st.sampled_from(SEEDS), label="seed")
    doc = {
        "m": knob("m", st.just(m)),
        "H": knob("H", st.sampled_from([2, 4, 8])),
        "pi": knob("pi", st.permutations(range(1, m + 1)), st.integers(1, m)),
        "e": knob("e", moderate, MODERATE),
        "e_prime": knob("e_prime", MODERATE),
        "k": knob("k", moderate, MODERATE),
        "k_prime": knob("k_prime", MODERATE),
        "k_dprime": knob("k_dprime", MODERATE),
        "d": knob("d", st.lists(st.integers(0, 3), min_size=m, max_size=m), st.integers(0, 3)),
        "seed": knob("seed", st.just({"a": complex_lists(seed.a.values),
                                      "b": complex_lists(seed.b.values)})),
    }
    path = write_params(tmp_path, doc)
    code, out, _ = checked_run(capsys, ["encode", "--params", path])
    if code == 0:
        assert [r["id"] for r in json.loads(out)] == ["c", "d"]


# a record entry: zero, a number from 1e-200 to 1e154 of either sign, or a wrong type
RECORD_VALUE = st.one_of(
    st.just(0),
    st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([1, -1]),
              st.floats(-200.0, 154.0)),
    st.sampled_from(["1", True, None, [1]]),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_record_fuzz(tmp_path, capsys, data):
    length = data.draw(st.integers(1, 4), label="length")
    parts = st.lists(RECORD_VALUE, min_size=length, max_size=length)
    # now and then the imaginary parts have a length of their own
    im = st.one_of(parts, st.lists(RECORD_VALUE, min_size=1, max_size=4))
    values = data.draw(st.lists(st.fixed_dictionaries({"re": parts, "im": im}),
                                min_size=1, max_size=3), label="records")
    records = tmp_path / "records.json"
    records.write_text(json.dumps([{"values": v} for v in values]))
    codebook = tmp_path / "codebook.json"
    codebook.write_text(json.dumps({"sequences": values}))
    # verify exits 1 when two records are no complementary pair
    checked_run(capsys, ["verify", str(records)], (0, 1, 2, 3) if len(values) == 2 else (0, 2, 3))
    checked_run(capsys, ["papr", str(records)])
    # finite points only: the noiseless point +inf is written as Infinity
    checked_run(capsys, ["simulate", "--codebook", str(codebook), "--ebn0", "0,20",
                         "--trials", "4"])


def _infinity_only(name):
    # simulate writes its noiseless point +inf as Infinity, and no other constant
    if name != "Infinity":
        _no_constants(name)
    return math.inf


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_enumerate_fuzz(capsys, data):
    # half the draws keep every value in range, so that exit 0 is common too;
    # no mid-size s is drawn, since a --dedup walk at m = 1 admits s up to
    # about 1,300, which takes tens of seconds
    wide = data.draw(st.booleans(), label="out of range")

    def draw(label, good, *bad):
        return data.draw(st.one_of(good, st.sampled_from([0, -1, 10**2200, *bad]))
                         if wide else good, label=label)

    rule = data.draw(st.sampled_from(qam.RULES + ("total",)), label="rule")
    s = draw("s", st.integers(1, 4))
    m = draw("m", st.integers(1, 4), MAX_COUNT_VARS + 1)
    n = draw("N", st.integers(1, 4), 5)
    dedup = data.draw(st.booleans(), label="--dedup")
    argv = ["enumerate", f"--rule={rule}", f"--s={s}", f"--m={m}", f"--N={n}"]
    code, out, err = checked_run(capsys, argv + ["--dedup"] * dedup)
    if code:
        assert out == ""
        assert err.startswith("error: ")
        return
    report = json.loads(out)
    assert (report["rule"], report["s"], report["m"], report["N"]) == (rule, s, m, n)
    if dedup:
        group = 4 ** (m + 1)
        assert report["dedup"] == report["distinct_groups"] * group
        assert report["groups"] * group == qam.enumeration_size(rule, s, m)


# an Eb/N0 point: a level, the noiseless point (1e999 reads as inf), or one
# the simulation refuses
EBN0_POINT = st.sampled_from(["0", "2", "6", "-3", "inf", "1e999"])
EBN0_BAD = st.sampled_from(["-inf", "nan", "4000", "x", ""])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_simulate_rule_fuzz(capsys, data):
    # half the draws keep every value in range, so that exit 0 is common too
    wide = data.draw(st.booleans(), label="out of range")

    def draw(label, good, bad):
        return data.draw(st.one_of(good, bad) if wide else good, label=label)

    rule = data.draw(st.sampled_from(qam.RULES), label="rule")
    s = draw("s", st.integers(1, 4), st.sampled_from([0, -1, 10**2200]))
    m = draw("m", st.integers(1, 4), st.sampled_from([0, -1, 5, 10**2200]))
    ebn0 = data.draw(st.lists(st.one_of(EBN0_POINT, EBN0_BAD) if wide else EBN0_POINT,
                              min_size=1, max_size=4), label="ebn0")
    trials = data.draw(st.integers(1, 64), label="trials")
    argv = ["simulate", f"--rule={rule}", f"--s={s}", f"--m={m}", f"--ebn0={','.join(ebn0)}",
            f"--trials={trials}"]
    if data.draw(st.booleans(), label="--rng-seed given"):
        seed = draw("--rng-seed", st.integers(0, 2**32), st.sampled_from([-1, 2**64, 10**400]))
        argv.append(f"--rng-seed={seed}")
    code, out, err = checked_run(capsys, argv, parse_constant=_infinity_only)
    if code:
        assert out == ""
        assert err.startswith(("error: ", "csforge simulate: error: "))
    else:
        assert json.loads(out)["trials"] == trials
