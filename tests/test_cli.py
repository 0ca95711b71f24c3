import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from csforge import cli
from csforge.encoder import MAX_ENCODE_VARS, MAX_SEQUENCE_LENGTH
from csforge.qam import on_lattice
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
    code, out, _ = run_cli(capsys, "encode", "--m", "1", "--H", "2", "--seed-trivial")
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
])
def test_malformed_params_file_exits_2(tmp_path, capsys, change):
    doc = multilevel_doc()
    doc.update(change)
    code, out, err = run_cli(capsys, "encode", "--params", write_params(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


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
])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("csforge") and ": error: " in out.err


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


def test_emit_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._emit({"papr_db": float("nan")}, None)


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


def test_verify_rejects_malformed_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(broken))
    assert code == 2
    assert "cannot read" in err


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


def test_enumerate_dedup_memory_guard_exit(capsys):
    # 1,572,864 sequences of length 64: under the count guard, over the key-set limit
    code, out, err = run_cli(capsys, "enumerate", "--rule", "green", "--s", "8", "--m", "4",
                             "--N", "4", "--dedup")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "bytes" in err


def test_enumerate_guard_exit(capsys, monkeypatch):
    monkeypatch.setenv("CS_FORGE_MAX_ENUM", "16")
    code, _, err = run_cli(
        capsys, "enumerate", "--rule", "green", "--s", "1", "--m", "2", "--dedup"
    )
    assert code == 3
    assert "guard" in err


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


def test_simulate_noiseless_and_deterministic(tmp_path, capsys):
    cb_file = tmp_path / "codebook.json"
    cb_file.write_text(
        json.dumps({"sequences": [{"re": [1, 1], "im": [0, 0]}, {"re": [1, -1], "im": [0, 0]}]})
    )
    code, out1, _ = run_cli(
        capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf",
        "--trials", "1000", "--rng-seed", "11",
    )
    assert code == 0
    assert json.loads(out1)["ber"] == [0.0]
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
    assert "m <= 4" in err


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
    code, out, err = run_cli(
        capsys, "simulate", "--rule", "green", "--s", "1", "--m", "1",
        f"--ebn0={ebn0}", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Eb/N0" in err


def test_simulate_rejects_malformed_codebook(tmp_path, capsys):
    cb_file = tmp_path / "codebook.json"
    cb_file.write_text(json.dumps([1, 2]))
    code, out, err = run_cli(capsys, "simulate", "--codebook", str(cb_file), "--ebn0", "inf")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


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


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


MODERATE = st.floats(-50.0, 50.0)
KNOB = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-500.0, 500.0),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]),
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
    H = st.one_of(st.sampled_from([2, 4, 8]), st.integers(-8, 10**6))
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
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    # each numpy warning would print its own lines on stderr
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.count("\n") + len(numeric) <= 1, (err, numeric)
    if code == 0:
        records = json.loads(out, parse_constant=_no_constants)
        assert [r["id"] for r in records] == ["c", "d"]
