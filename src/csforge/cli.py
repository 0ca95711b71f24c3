"""Command-line front end: encode, verify, enumerate, papr, simulate.

Exit codes: 0 success, 1 verification failure, 2 input validation error,
3 resource guard exceeded.  Every output is one compact line of JSON (pipe it
through ``python -m json.tool`` to read it).  Documents carry ``schema: 1``
and floats serialize via shortest round-trip representation, so records
re-read from disk are bit-identical to what was written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import qam
from .analysis import is_gcp, papr_bound_db, papr_oversampled_db
from .encoder import EncoderParams, SeedPair, encode_pair, known_seed
from .sequences import ComplexSequence, GuardError, guard, integral, tolerance
from .simulate import MAX_CODEBOOK, min_distance_sim

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

_SIM_MAX_VARS = 4

# Most decimal digits of an integer in a report: Python writes no integer of
# more than 4,300 digits as text
MAX_REPORT_DIGITS = 4000


# -- JSON forms ---------------------------------------------------------------


def _complex_to_json(values) -> dict:
    """The ``re``/``im`` form of a complex array: float64 arrays, which ``_emit`` writes as lists."""
    arr = np.asarray(values, dtype=complex)
    return {"re": arr.real, "im": arr.imag}


def _real_array(values) -> np.ndarray:
    """A list of JSON numbers as floats; strings, booleans and nested lists
    are refused (the type check is one C-level pass over the list)."""
    if not set(map(type, values)) <= {int, float}:
        raise ValueError("re/im arrays take numbers only")
    return np.asarray(values, dtype=float)


def _complex_from_json(obj) -> np.ndarray:
    try:
        re = _real_array(obj["re"])
        im = _real_array(obj["im"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad complex array: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError("re/im arrays differ in length")
    values = re + 1j * im
    # the bound encode_pair checks: 2 * length * energy bounds every
    # autocorrelation sum and envelope power the metrology computes
    with np.errstate(over="ignore", invalid="ignore"):
        power = 2.0 * values.size * np.vdot(values, values).real
    if not np.isfinite(power):
        raise ValueError("complex array holds a non-finite value or its power overflows")
    return values


_PARAM_FIELDS = tuple(field.name for field in dataclasses.fields(EncoderParams))


def params_to_dict(p: EncoderParams) -> dict:
    """The parameter document of ``p``: each field, with the seed in its JSON form."""
    seed = {"a": _complex_to_json(p.seed.a.values), "b": _complex_to_json(p.seed.b.values)}
    return {**{name: getattr(p, name) for name in _PARAM_FIELDS}, "seed": seed}


def _seed_pair(doc) -> SeedPair:
    """A seed pair from its JSON form: an object with 'a' and 'b' complex arrays."""
    if not isinstance(doc, dict) or not {"a", "b"} <= doc.keys():
        raise ValueError("seed pair must be a JSON object with 'a' and 'b' arrays")
    a, b = _complex_from_json(doc["a"]), _complex_from_json(doc["b"])
    try:
        return SeedPair(a, b)
    except ValueError as exc:
        raise ValueError(f"bad seed pair: {exc}") from exc


def params_from_dict(doc: dict) -> EncoderParams:
    """Encoder params from a parameter document; a missing or null knob takes its default."""
    try:
        knobs = {name: doc[name] for name in _PARAM_FIELDS if doc.get(name) is not None}
    except AttributeError as exc:
        raise ValueError(f"params must be a JSON object: {exc}") from exc
    if "m" not in knobs or "H" not in knobs:
        raise ValueError("params need integer m and H")
    if "seed" in knobs:
        knobs["seed"] = _seed_pair(knobs["seed"])
    try:
        return EncoderParams(**knobs)
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc


def sequence_record(seq_id: str, seq: ComplexSequence, oversample: int, gcp_residual: float,
                    params: dict, overlap: bool) -> dict:
    papr_db, _ = papr_oversampled_db(seq, oversample)
    return {
        "schema": 1,
        "id": seq_id,
        "length": len(seq),
        "values": _complex_to_json(seq.values),
        "support": seq.support.tolist(),
        "clusters": [{"start": a, "length": b - a} for a, b in seq.clusters()],
        "papr_db": papr_db,
        "gcp_residual": gcp_residual,
        "params": params,
        "overlap": overlap,
    }


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(doc, out_path: str | None, allow_nan: bool = False) -> None:
    """Write ``doc``, a dict or an iterable of list items, as one line of compact JSON.

    Items are dumped and written one at a time, in the bytes of one ``dumps``
    of the list, so items built on demand are never all held at once.  The
    first is dumped before ``out_path`` is opened: if that fails, no file
    is written and nothing is printed.  A float64 array in a dict is written
    as the list it holds (``_floats_text``).
    """
    # compact separators keep json.dumps on its C encoder; indent, or
    # json.dump to a file, runs the pure-Python one
    dumps = functools.partial(json.dumps, separators=(",", ":"), allow_nan=allow_nan)
    is_list = not isinstance(doc, dict)
    texts = (_json_text(item, dumps) for item in (doc if is_list else (doc,)))
    first = next(texts, None)
    with contextlib.ExitStack() as stack:
        fh = sys.stdout
        if out_path:
            stack.enter_context(_writing(out_path))
            fh = stack.enter_context(open(out_path, "w"))
        if is_list:
            fh.write("[")
        if first is not None:
            fh.write(first)
            del first  # freed before the next item is built
            for text in texts:
                fh.write(",")
                fh.write(text)
        fh.write("]\n" if is_list else "\n")


def _json_text(value, dumps) -> str:
    """``dumps(value)``, where ``value`` may hold float64 arrays in its dicts (string keys)."""
    if isinstance(value, np.ndarray):
        return _floats_text(value, dumps)
    if isinstance(value, dict) and any(isinstance(v, (dict, np.ndarray)) for v in value.values()):
        return "{" + ",".join(f"{dumps(key)}:{_json_text(item, dumps)}"
                              for key, item in value.items()) + "}"
    return dumps(value)


def _floats_text(values: np.ndarray, dumps) -> str:
    """``dumps(values.tolist())`` for a float64 array, each distinct value rendered once.

    Values are told apart by their bits, so -0.0 keeps its own text; the
    distinct ones are dumped as one list, which spells each as json does and
    meets ``allow_nan`` as the whole list would, and their texts are gathered
    in element order.  Arrays with more than half of their values distinct
    are dumped as a list: rendering each distinct value once no longer pays
    for the sort and the gather there.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(values):
        return dumps(values.tolist())
    texts = np.array(dumps(bits.view(np.float64).tolist())[1:-1].split(","), dtype=object)
    return "[" + ",".join(texts[where].tolist()) + "]"


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write to ``path`` as bad input: one line and exit 2."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


# -- argument helpers ---------------------------------------------------------


def _integer(text: str) -> int:
    """An integer literal, or an integral float literal such as 1.0 or 1e3."""
    try:
        return int(text)
    except ValueError:
        return integral(float(text), "entry")


_integer.__name__ = "integer"  # argparse names the type in "invalid integer value: '3.5'"


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}") from exc


_LIST_KNOBS = (("pi", _int_list), ("e", _float_list), ("k", _float_list), ("d", _int_list))


def _rule_sizes(args) -> None:
    """Refuse a ``--rule`` command without positive ``--s`` and ``--m``."""
    if args.m is None or args.s is None:
        raise ValueError("--rule needs --m and --s")
    if args.m < 1 or args.s < 1:
        raise ValueError("s and m must be positive")


def _rule_knobs(args) -> dict:
    """The ``--rule`` flags as ``qam.rule_params`` knobs: the indices, then
    the knobs the rule reads, with ``--ell`` defaulting to ``--m``."""
    entry = qam.rule_entry(args.rule)
    indices = _int_list(args.indices) if args.indices else ()
    if len(indices) != len(entry.indices):
        raise ValueError(f"{args.rule} rule needs --indices {','.join(entry.indices)}")
    flags = {"ell": args.m if args.ell is None else args.ell, "z": args.z,
             "sign_a": args.sign, "sign_b": args.sign_b}
    # a flag the rule does not read is dropped, not refused: the benchmark's
    # ladder (perfbench/workloads.py) passes all four to every rule
    return {**dict(zip(entry.indices, indices)),
            **{name: flags[name] for name in entry.knobs if flags.get(name) is not None}}


# The flags each parameter source reads, its own included, by command; any
# other of these flags given beside the source is refused
_SOURCE_READS = {
    "encode": {
        "--params": "--params",
        "--rule": "--rule --s --m --indices --ell --sign --sign-b --z --pi --k --seed-pair",
        "--m and --H": "--m --H --pi --e --e-prime --k --k-prime --k-dprime --d --seed-pair",
    },
    "simulate": {"--codebook": "--codebook", "--rule": "--rule --s --m"},
}


def _refuse_unread(args, source: str) -> None:
    table = _SOURCE_READS[args.command]
    for flag in " ".join(table.values()).split():
        if flag not in table[source].split() and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is not read with {source}")


def _params_from_args(args) -> EncoderParams:
    if args.params:
        _refuse_unread(args, "--params")
        return params_from_dict(_load_json(args.params))
    if args.rule:
        _refuse_unread(args, "--rule")
        _rule_sizes(args)
        knobs = _rule_knobs(args)
        k = _float_list(args.k or "") or None  # "--k ," gives no k
        pi = _int_list(args.pi) if args.pi else None
        seed = _seed_pair(_load_json(args.seed_pair)) if args.seed_pair else None
        return qam.rule_params(args.rule, args.s, args.m, pi=pi, k=k, seed=seed, **knobs)
    if args.m is None or args.H is None:
        raise ValueError("need --params, --rule, or both --m and --H")
    _refuse_unread(args, "--m and --H")
    lists = {name: parse(text) for name, parse in _LIST_KNOBS if (text := getattr(args, name))}
    seed = (_load_json(args.seed_pair) or {}) if args.seed_pair else None  # null is refused
    return params_from_dict({"m": args.m, "H": args.H, "e_prime": args.e_prime, "seed": seed,
                             "k_prime": args.k_prime, "k_dprime": args.k_dprime, **lists})


# -- subcommands --------------------------------------------------------------


def cmd_encode(args) -> int:
    params = _params_from_args(args)
    result = encode_pair(params)
    check = is_gcp(result.c, result.d)
    doc = params_to_dict(params)
    # built one at a time as _emit writes them
    _emit((sequence_record(seq_id, seq, args.oversample, check.residual, doc, result.overlap)
           for seq_id, seq in (("c", result.c), ("d", result.d))), args.out)
    return EXIT_OK


def _records_from_file(path: str) -> list[dict]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not doc:
        raise ValueError("expected a sequence record or a list of records")
    for rec in doc:
        if not isinstance(rec, dict) or "values" not in rec:
            raise ValueError("record missing 'values'")
    return doc


def cmd_verify(args) -> int:
    tolerance(args.tol)  # also when a single record never reaches is_gcp
    records = _records_from_file(args.file)
    ids = [rec.get("id") for rec in records]
    seqs = [ComplexSequence(_complex_from_json(rec["values"])) for rec in records]
    del records  # the parsed lists hold several times the arrays' memory
    report: dict = {"schema": 1, "records": []}
    for seq_id, seq in zip(ids, seqs):
        papr_db, trace = papr_oversampled_db(seq, args.oversample)
        clusters = seq.clusters()
        report["records"].append(
            {
                "id": seq_id,
                "length": len(seq),
                "clusters": [{"start": a, "length": b - a} for a, b in clusters],
                "gaps": [
                    {"start": prev_stop, "length": start - prev_stop}
                    for (_, prev_stop), (start, _) in zip(clusters, clusters[1:])
                ],
                "papr_db": papr_db,
                "papr_bound_db": papr_bound_db(trace.profile),
            }
        )
    ok = True
    if len(seqs) == 2:
        check = is_gcp(seqs[0], seqs[1], args.tol)
        report["gcp_residual"] = check.residual
        report["gcp_ok"] = check.ok
        ok = check.ok
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_enumerate(args) -> int:
    if args.N < 1:
        raise ValueError(f"--N must be at least 1, got {args.N}")
    n_class = "N=1" if args.N == 1 else "N>1"
    count = qam.count_sequences(args.rule, args.s, args.m, n_class)
    report = {
        "schema": 1,
        "rule": args.rule,
        "s": args.s,
        "m": args.m,
        "N": args.N,
        "n_class": n_class,
        "unit": count.unit,
        "units": count.units,
        "count": count.count,
        "bits": count.count.bit_length() - 1 if count.count > 0 else 0,
        "length": args.N * 2**args.m,
    }
    for name in ("count", "length"):
        guard(report[name], 10**MAX_REPORT_DIGITS - 1,
              f"report {name} ({MAX_REPORT_DIGITS} digits at most)")
    if args.dedup:
        if args.rule not in qam.RULES:
            raise ValueError("--dedup applies to a single rule")
        try:
            seed = known_seed(args.N)
        except ValueError as exc:
            raise ValueError(f"--dedup walks the stock seeds only, --N 1..4: {exc}") from exc
        distinct = qam.distinct_sequences(args.rule, args.s, args.m, seed=seed)
        report["dedup"] = distinct
        report["dedup_matches_formula"] = distinct == count.count
        # (choice, ell, pi) cells walked and kept, 4^(m+1) words each
        group = 4 ** (args.m + 1)
        report["groups"] = qam.enumeration_size(args.rule, args.s, args.m) // group
        report["distinct_groups"] = distinct // group
    _emit(report, args.out)
    return EXIT_OK


def cmd_papr(args) -> int:
    records = _records_from_file(args.file)
    if not 0 <= args.index < len(records):
        raise ValueError(f"--index {args.index} out of range for {len(records)} records")
    seq = ComplexSequence(_complex_from_json(records[args.index]["values"]))
    papr_db, trace = papr_oversampled_db(seq, args.oversample)
    report = {
        "schema": 1,
        "length": len(seq),
        "oversample": args.oversample,
        "papr_db": papr_db,
        "papr_bound_db": papr_bound_db(trace.profile),
        "peak_power": trace.peak,
        "mean_power": trace.mean,
    }
    if args.out:
        with _writing(args.out):
            trace.write_csv(args.out)
        report["trace_csv"] = args.out
    _emit(report, None)
    return EXIT_OK


def _codebook_from_args(args) -> np.ndarray:
    if args.codebook:
        _refuse_unread(args, "--codebook")
        doc = _load_json(args.codebook)
        try:
            if isinstance(doc, dict):
                entries = doc["sequences"]
            else:
                entries = [rec.get("values", rec) for rec in doc]
            words = [_complex_from_json(e) for e in entries]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"codebook file needs 'sequences' or a record list: {exc!r}") from exc
        for index, word in enumerate(words):
            if len(word) != len(words[0]):
                raise ValueError(f"codebook words differ in length: word 0 has {len(words[0])} "
                                 f"entries, word {index} has {len(word)}")
        return np.asarray(words, dtype=complex)
    if args.rule:
        _refuse_unread(args, "--rule")
        _rule_sizes(args)
        guard(args.m, _SIM_MAX_VARS, "m of a simulate --rule codebook")
        if not qam.enumeration_size(args.rule, args.s, args.m):
            first = next(s for s in itertools.count(args.s + 1)
                         if qam.enumeration_size(args.rule, s, args.m))
            raise ValueError(f"{args.rule} has no admissible indices below s = {first}")
        blocks: list[np.ndarray] = []
        for block in qam.distinct_blocks(args.rule, args.s, args.m):
            blocks.append(block)
            guard(sum(map(len, blocks)), MAX_CODEBOOK,
                  "simulate --rule codebook words walked so far")
        return np.concatenate(blocks)
    raise ValueError("need --codebook or --rule")


def cmd_simulate(args) -> int:
    codebook = _codebook_from_args(args)
    ebn0 = tuple(float(x) for x in args.ebn0.split(","))
    report = min_distance_sim(codebook, ebn0, args.trials, args.rng_seed)
    # the noiseless point +inf is written as Infinity
    _emit(report.to_dict(), args.out, allow_nan=True)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e3``, ``-1,0`` or ``-inf`` as a value, and reports a usage error in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only -1 and -1.5 for negative numbers;
        # -inf, -infinity and -nan are values too, for the value checks to refuse
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``csforge`` parser, built on first use and shared by every call of ``main``."""
    parser = _Parser(
        prog="csforge",
        description="Synthesize and verify complementary sequence pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common_params(p):
        p.add_argument("--params", help="JSON parameter file")
        p.add_argument("--rule", choices=qam.RULES, help="QAM synthesis rule")
        p.add_argument("--s", type=_integer, help="lattice size parameter (4s^2 points)")
        p.add_argument("--indices", help="rule lattice indices, e.g. 2,1,4,2")
        p.add_argument("--ell", type=_integer, help="rule step index (default m)")
        p.add_argument("--sign", type=_integer, choices=(1, -1))
        p.add_argument("--sign-b", dest="sign_b", type=_integer, choices=(1, -1))
        p.add_argument("--z", type=_integer, help="quadrant phase offset")
        p.add_argument("--m", type=_integer)
        p.add_argument("--H", type=_integer)
        p.add_argument("--pi", help="bit order, e.g. 2,1,3")
        p.add_argument("--e", help="amplitude exponents")
        p.add_argument("--e-prime", dest="e_prime", type=float)
        p.add_argument("--k", help="phase steps")
        p.add_argument("--k-prime", dest="k_prime", type=float)
        p.add_argument("--k-dprime", dest="k_dprime", type=float)
        p.add_argument("--d", help="zero-padding amounts")
        p.add_argument("--seed-pair", dest="seed_pair", help="JSON seed pair file")
        p.add_argument("--out", help="write output to a file instead of stdout")

    enc = sub.add_parser("encode", help="synthesize a pair from parameters")
    add_common_params(enc)
    enc.add_argument("--oversample", type=_integer, default=16)
    enc.set_defaults(func=cmd_encode)

    ver = sub.add_parser("verify", help="re-check a stored pair or sequence")
    ver.add_argument("file")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--oversample", type=_integer, default=16)
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    enu = sub.add_parser("enumerate", help="family sizes and uncoded bits")
    enu.add_argument("--rule", default="total", choices=qam.RULES + ("total",))
    enu.add_argument("--s", type=_integer, required=True)
    enu.add_argument("--m", type=_integer, required=True)
    enu.add_argument("--N", type=_integer, default=1,
                     help="seed length class; --dedup walks the stock seed of this length (1..4)")
    enu.add_argument("--dedup", action="store_true",
                     help="also count the distinct sequences of the stock seed's "
                          "walk, by group key")
    enu.add_argument("--out")
    enu.set_defaults(func=cmd_enumerate)

    pap = sub.add_parser("papr", help="peak power report and envelope trace")
    pap.add_argument("file")
    pap.add_argument("--index", type=_integer, default=0, help="record index in the file")
    pap.add_argument("--oversample", type=_integer, default=16)
    pap.add_argument("--out", help="write the power trace CSV here")
    pap.set_defaults(func=cmd_papr)

    sim = sub.add_parser("simulate", help="AWGN minimum-distance detection")
    sim.add_argument("--codebook", help="JSON codebook file")
    sim.add_argument("--rule", choices=qam.RULES)
    sim.add_argument("--s", type=_integer)
    sim.add_argument("--m", type=_integer)
    sim.add_argument("--ebn0", required=True, help="Eb/N0 grid in dB, e.g. 0,2,inf")
    sim.add_argument("--trials", type=_integer, default=10000)
    sim.add_argument("--rng-seed", dest="rng_seed", type=_integer, default=0)
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
