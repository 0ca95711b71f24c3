"""Workload inputs, the items they run, and per-item correctness checks.

Every item is a short list of ``csforge`` command lines run in-process
through ``cli.main``.  Work comes in whole units (a ladder, a pass over the
dedup pool, a round of detection jobs), and unit ``u`` of workload seed
``s`` always has the same inputs, so two runs of one seed do the same work.

* ``synth-verify``: ``encode`` -> ``verify`` round trips on the length ladder
  2^6 .. 2^16, many per small rung and one per large rung.  Block placement,
  the 2^m-entry component tables, the O(n^2) metrology and the MB-scale JSON
  grow with the rung.
* ``family-dedup``: one ``enumerate --dedup`` job per pool entry, tens of
  thousands of tiny encodes with key-based dedup and no metrology on the
  results -- the encoder used the opposite way from ``synth-verify``.
* ``detect``: one ``simulate --rule`` job per codebook; the chunked distance
  tensor of the minimum-distance detector dominates time and memory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("synth-verify", "family-dedup", "detect")

RUNGS = tuple(range(6, 17))
SMALL_RUNG = 10  # round trips at rungs <= 2^10 feed the small-pair latency
SEED_LENGTHS = (1, 2, 3, 4)
MODES = ("params", "rule")
# Every ladder has the same make-up in what sets its cost, and the seed draws
# the rest (order, moduli, permutations, phases, amplitudes, rules, gaps).
# Each small rung has every (N, mode) pair SMALL_COPIES times: 80 latency
# samples per ladder.
SMALL_COPIES = 2
SMALL_REPEATS = SMALL_COPIES * len(SEED_LENGTHS) * len(MODES)
# From rung 14 up one round trip costs seconds: the metrology grows as n^2 and
# the component tables as 2^m, so there N is fixed per rung (m = r - log2 N)
# and nothing is padded: a draw of N there moved a ladder's cost by several
# per cent.  Rung 16 has N = 1, m = 16.
EXACT_RUNG = 14
EXACT_SEEDS = {14: 4, 15: 2, 16: 1}
MODULI = (2, 4, 8)
MAX_AMP_EXP = 0.25
MAX_GAP_SHARE = 0.25
RULE_LATTICES = (2, 4)

# every (rule, s, m) whose exhaustive dedup count equals count_sequences
DEDUP_POOL = (("green", 2, 3), ("yellow", 2, 3), ("blue", 2, 2), ("cyan", 3, 2), ("orange", 2, 3))

# M = 256 words for green, yellow and orange and M = 1024 for blue; a codebook
# of 49,152 words would ask the distance tensor for tens of GiB
DETECT_JOBS = (("green", 2, 2), ("yellow", 2, 2), ("orange", 2, 2), ("blue", 2, 2))
EBN0 = (0.0, 2.0, 4.0, 6.0, math.inf)
# sized so the codebook build (about 0.5 s) stays near a tenth of a job
DETECT_TRIALS = 30_000

GCP_TOL = 1e-9
DB_TOL = 1e-9


@dataclass
class Item:
    """One unit of user-visible work and what its outputs must satisfy."""

    label: str
    argvs: list[list[str]]
    work: int  # workload work units this item completes when it verifies
    # items of one kind do like work; the item latency is the mean over
    # kinds of each kind's median time, and None leaves an item out of it
    kind: str | None
    expect: dict = field(default_factory=dict)
    rung: int | None = None


def unit_rng(seed: int, unit: int) -> random.Random:
    return random.Random(seed * 1_000_003 + unit)


# -- synth-verify ---------------------------------------------------------------


def gap_shifts(rng: random.Random, pi: list[int], length: int) -> list[int]:
    """Zero padding that keeps seed copies disjoint and adds <= 25 % length.

    Padding at level L (the step with pi = L) forces every lower level to
    cover the padding above it, so levels 1..L carry g, g, 2g, 4g, ...
    (2^(L-1) g in total) and the levels above L carry none.
    """
    m = len(pi)
    budget = int(MAX_GAP_SHARE * length)
    top = rng.randint(1, min(3, m))
    g = rng.randint(1, budget >> (top - 1))
    d = [0] * m
    d[pi.index(top)] = g
    for j in range(1, top):
        d[pi.index(top - j)] = g << (j - 1)
    return d


def _complex_doc(values) -> dict:
    arr = np.asarray(values, dtype=complex)
    return {"re": [float(x) for x in arr.real], "im": [float(x) for x in arr.imag]}


def _rule_indices(rng: random.Random, rule: str, s: int) -> list[int]:
    def offdiag():
        a = rng.randint(2, s)
        return a, rng.randint(1, a - 1)

    if rule == "green":
        return [rng.randint(1, s), rng.randint(1, s)]
    if rule == "yellow":
        return rng.sample(range(1, s + 1), 2)
    if rule == "blue":
        return [rng.randint(1, s), *offdiag()]
    if rule == "cyan":
        first = offdiag()
        second = offdiag()
        while second == first:
            second = offdiag()
        return [*first, *second]
    return list(offdiag())  # orange


def ladder_specs(seed: int, unit: int) -> list[dict]:
    """The round trips of one ladder, as plain data.

    Rungs up to 2^SMALL_RUNG carry SMALL_REPEATS round trips each, every seed
    length N with ``--params`` and with ``--rule`` alike; the larger rungs
    carry one, half of them with ``--params``.  N is drawn below EXACT_RUNG
    and fixed from there up.  One round trip in four has disjoint-support
    gaps, the same number on every small rung.

    Each spec holds the CLI arguments (a ``params`` document or ``rule``
    arguments), the stock seed pair of length N and the expected length.
    """
    from csforge.encoder import known_seed

    rng = unit_rng(seed, unit)
    small_rungs = [r for r in RUNGS if r <= SMALL_RUNG]
    small = [(r, n_seed, mode) for r in small_rungs
             for n_seed in SEED_LENGTHS for mode in MODES for _ in range(SMALL_COPIES)]
    large = [r for r in RUNGS if r > SMALL_RUNG]
    large_modes = [MODES[i % 2] for i in range(len(large))]
    rng.shuffle(large_modes)
    large = [(r, EXACT_SEEDS.get(r) or rng.choice(SEED_LENGTHS), mode)
             for r, mode in zip(large, large_modes)]
    rungs, seeds, modes = zip(*small, *large)
    # only --params items can carry padding (rules fix d = 0): the same share
    # on each small rung, and the rest of the quota anywhere below EXACT_RUNG
    quota = len(rungs) // 4
    gapped = set()
    for r in small_rungs:
        params = [i for i, (rung, mode) in enumerate(zip(rungs, modes))
                  if rung == r and mode == "params"]
        gapped |= set(rng.sample(params, SMALL_REPEATS // 4))
    eligible = [i for i, (r, mode) in enumerate(zip(rungs, modes))
                if mode == "params" and r < EXACT_RUNG and i not in gapped]
    gapped |= set(rng.sample(eligible, quota - len(gapped)))
    specs = []
    for i, (r, mode, n_seed) in enumerate(zip(rungs, modes, seeds)):
        m = r - (n_seed.bit_length() - 1)
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        pair = known_seed(n_seed)
        seed_doc = {"a": _complex_doc(pair.a.values), "b": _complex_doc(pair.b.values)}
        spec = {"rung": r, "N": n_seed, "m": m, "mode": mode, "seed_pair": seed_doc}
        if mode == "params":
            H = rng.choice(MODULI)
            d = gap_shifts(rng, pi, n_seed << m) if i in gapped else [0] * m
            spec["params"] = {
                "m": m,
                "H": H,
                "pi": pi,
                "e": [rng.uniform(-MAX_AMP_EXP, MAX_AMP_EXP) for _ in range(m)],
                "e_prime": rng.uniform(-MAX_AMP_EXP, MAX_AMP_EXP),
                "k": [rng.randrange(H) for _ in range(m)],
                "k_prime": rng.randrange(H),
                "k_dprime": rng.randrange(H),
                "d": d,
                "seed": seed_doc,
            }
        else:
            s = rng.choice(RULE_LATTICES)
            rules = ("green", "yellow", "blue", "cyan", "orange") if s >= 3 else (
                "green", "yellow", "blue", "orange")
            rule = rng.choice(rules)
            d = [0] * m
            spec["rule_args"] = [
                "--rule", rule, "--s", str(s), "--m", str(m),
                "--indices", ",".join(map(str, _rule_indices(rng, rule, s))),
                "--ell", str(rng.randint(1, m)),
                "--sign", str(rng.choice((1, -1))),
                "--sign-b", str(rng.choice((1, -1))),
                "--z", str(rng.randrange(4)),
                "--pi", ",".join(map(str, pi)),
            ]
        spec["length"] = (n_seed << m) + sum(d)
        specs.append(spec)
    # interleaved, so the small round trips sample the whole run, not one stretch of it
    rng.shuffle(specs)
    return specs


def synth_items(seed: int, unit: int, workdir: Path) -> list[Item]:
    items = []
    for i, spec in enumerate(ladder_specs(seed, unit)):
        tag = f"{i:02d}-r{spec['rung']:02d}"
        enc = workdir / f"{tag}-pair.json"
        ver = workdir / f"{tag}-verify.json"
        if spec["mode"] == "params":
            path = workdir / f"{tag}-params.json"
            path.write_text(json.dumps(spec["params"]))
            encode = ["encode", "--params", str(path)]
        else:
            encode = ["encode", *spec["rule_args"]]
            if spec["N"] > 1:
                path = workdir / f"{tag}-seed.json"
                path.write_text(json.dumps(spec["seed_pair"]))
                encode += ["--seed-pair", str(path)]
        items.append(Item(
            label=f"{tag} N={spec['N']} m={spec['m']} {spec['mode']}",
            argvs=[encode + ["--out", str(enc)], ["verify", str(enc), "--out", str(ver)]],
            work=1,
            kind=f"r{spec['rung']:02d}" if spec["rung"] <= SMALL_RUNG else None,
            expect={"length": spec["length"], "pair": enc, "report": ver},
            rung=spec["rung"],
        ))
    return items


def check_synth(item: Item) -> str | None:
    report = json.loads(Path(item.expect["report"]).read_text())
    if report.get("gcp_ok") is not True:
        return "verify reports gcp_ok false"
    if not report["gcp_residual"] <= GCP_TOL:
        return f"gcp_residual {report['gcp_residual']:.3e} > {GCP_TOL:g}"
    pair = json.loads(Path(item.expect["pair"]).read_text())
    energies = []
    for rec in pair:
        if rec["length"] != item.expect["length"]:
            return f"length {rec['length']} != {item.expect['length']}"
        values = rec["values"]
        energies.append(float(np.sum(np.square(values["re"])) + np.sum(np.square(values["im"]))))
    total = sum(energies)
    for rec, energy in zip(report["records"], energies):
        if not rec["papr_db"] <= rec["papr_bound_db"] + DB_TOL:
            return f"{rec['id']}: papr_db {rec['papr_db']} above bound {rec['papr_bound_db']}"
        pair_bound = 10.0 * math.log10(total / energy)
        if not rec["papr_db"] <= pair_bound + DB_TOL:
            return f"{rec['id']}: papr_db {rec['papr_db']} above pair bound {pair_bound}"
    return None


# -- family-dedup -----------------------------------------------------------------


def dedup_jobs(seed: int, unit: int) -> list[tuple[str, int, int]]:
    jobs = list(DEDUP_POOL)
    unit_rng(seed, unit).shuffle(jobs)
    return jobs


def dedup_items(seed: int, unit: int, workdir: Path) -> list[Item]:
    from csforge import qam

    items = []
    for rule, s, m in dedup_jobs(seed, unit):
        out = workdir / f"enumerate-{rule}-s{s}-m{m}.json"
        items.append(Item(
            label=f"{rule} s={s} m={m}",
            argvs=[["enumerate", "--rule", rule, "--s", str(s), "--m", str(m), "--dedup",
                    "--out", str(out)]],
            # fixed by the formula, so a walk that skips combinations still counts right
            work=qam.enumeration_size(rule, s, m),
            kind=f"{rule} s={s} m={m}",
            expect={"report": out},
        ))
    return items


def check_dedup(item: Item) -> str | None:
    report = json.loads(Path(item.expect["report"]).read_text())
    if report.get("dedup_matches_formula") is not True:
        return f"dedup {report.get('dedup')} != formula {report.get('count')}"
    return None


# -- detect -----------------------------------------------------------------------


def detect_jobs(seed: int, unit: int) -> list[tuple[str, int, int, int]]:
    # a fixed order: the peak memory of the M = 1024 job depends on what ran before it
    rng = unit_rng(seed, unit)
    return [(rule, s, m, rng.randrange(2**31)) for rule, s, m in DETECT_JOBS]


def detect_items(seed: int, unit: int, workdir: Path) -> list[Item]:
    from csforge import qam

    grid = ",".join("inf" if math.isinf(x) else f"{x:g}" for x in EBN0)
    items = []
    for rule, s, m, rng_seed in detect_jobs(seed, unit):
        out = workdir / f"simulate-{rule}-s{s}-m{m}.json"
        words = qam.count_sequences(rule, s, m).count
        items.append(Item(
            label=f"{rule} s={s} m={m} rng={rng_seed}",
            argvs=[["simulate", "--rule", rule, "--s", str(s), "--m", str(m), "--ebn0", grid,
                    "--trials", str(DETECT_TRIALS), "--rng-seed", str(rng_seed),
                    "--out", str(out)]],
            work=DETECT_TRIALS * len(EBN0),
            kind=f"{rule} s={s} m={m}",
            expect={"report": out, "codebook_size": 1 << (words.bit_length() - 1)},
        ))
    return items


def check_detect(item: Item) -> str | None:
    report = json.loads(Path(item.expect["report"]).read_text())
    if report["codebook_size"] != item.expect["codebook_size"]:
        return f"codebook_size {report['codebook_size']} != {item.expect['codebook_size']}"
    noiseless = [e for x, e in zip(report["ebn0_db"], report["bit_errors"]) if math.isinf(x)]
    if noiseless != [0]:
        return f"noiseless bit errors {noiseless}"
    finite = [b for x, b in zip(report["ebn0_db"], report["ber"]) if not math.isinf(x)]
    if any(later > earlier for earlier, later in zip(finite, finite[1:])):
        return f"BER rises with Eb/N0: {finite}"
    return None


# -- dispatch -----------------------------------------------------------------------


def build_items(workload: str, seed: int, unit: int, workdir: Path) -> list[Item]:
    """Write the input files of one unit and return its items."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, unit, workdir)


# csforge is imported inside the builders, so that timing a fresh import of it
# is left to the caller
BUILDERS = {"synth-verify": synth_items, "family-dedup": dedup_items, "detect": detect_items}
CHECKS = {"synth-verify": check_synth, "family-dedup": check_dedup, "detect": check_detect}
