"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to stream
them) and enforces its runtime budget.  Expected values come from frozen
golden vectors, closed forms, and independent oracles (symbolic expansion,
brute-force search, analytic error rates) computed apart from the code
paths they check.
"""

import itertools
import json
import math
import time

import numpy as np

from _factories import pair_matches, random_encoder_params, random_recursion_params
from csforge import (
    EncoderParams,
    cli,
    encode_pair,
    is_gcp,
    papr_oversampled_db,
    qam,
    recursion_to_encoder,
    run_recursion,
)
from csforge.recursion import all_configs, construction_function, expand_recursion
from csforge.simulate import min_distance_sim, pairwise_error_rate

E1 = (2.0 / math.pi) * math.log(3.0)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.seconds else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s) {detail}")
        assert ok, f"{self.name}: {detail}"
        assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget"


def test_criterion_01_golden_vectors():
    gate = Budget("acceptance-01 golden vectors", 1.0)
    ok = True
    res = encode_pair(EncoderParams(m=3, H=4, pi=(2, 1, 3), e=(E1, 0, 0)))
    ok &= pair_matches([1, 1, 3, 3, 3, -3, -1, 1], res.c.values)

    a = np.array([1, 1j, 1, 1, 1, -1])
    b = np.array([1, 1j, 1, -1, -1, 1])
    res = encode_pair(EncoderParams(m=3, H=4, pi=(2, 1, 3), e=(E1, 0, 0), seed=(a, b)))
    ok &= pair_matches(np.concatenate([a, a, 3 * b, 3 * b, 3 * a, -3 * a, -b, b]), res.c.values)

    res = encode_pair(EncoderParams(m=3, H=4, pi=(3, 1, 2), e=(0, E1, 0), seed=(a, b)))
    ok &= pair_matches(np.concatenate([a, b, 3 * a, 3 * b, 3 * a, -3 * b, -a, b]), res.c.values)

    a3 = np.array([1, 1j, 1])
    b3 = np.array([1, 1, -1])
    res = encode_pair(
        EncoderParams(m=3, H=4, pi=(2, 1, 3), e=(E1, 0, 0), d=(0, 60, 0), seed=(a3, b3))
    )
    expected = np.concatenate([a3, a3, 3 * b3, 3 * b3, np.zeros(60), 3 * a3, -3 * a3, -b3, b3])
    ok &= pair_matches(expected, res.c.values)
    ok &= res.c.clusters() == [(0, 12), (72, 84)]
    gate.finish(ok)


def test_criterion_02_complementarity_randomized():
    gate = Budget("acceptance-02 complementarity", 30.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        p = random_encoder_params(rng, m_max=6, moduli=(2, 4, 8), seed_lengths=(1, 2, 3))
        res = encode_pair(p)
        check = is_gcp(res.c, res.d, tol=1e-9)
        worst = max(worst, check.residual)
        if not check.ok:
            gate.finish(False, f"residual {check.residual:.3e} for {p}")
    gate.finish(True, f"worst residual {worst:.2e} over 1000 draws")


def test_criterion_03_oracle_equivalence():
    gate = Budget("acceptance-03 oracle equivalence", 10.0)
    rng = np.random.default_rng(333)
    for _ in range(200):
        rp = random_recursion_params(rng, m_max=5)
        direct_c, direct_d = run_recursion(rp)
        res = encode_pair(recursion_to_encoder(rp))
        if not (pair_matches(direct_c.values, res.c.values)
                and pair_matches(direct_d.values, res.d.values)):
            gate.finish(False, f"mismatch for {rp}")
    gate.finish(True, "200 random draws, both outputs, 1e-9 relative")


def test_criterion_04_construction_functions_exhaustive():
    gate = Budget("acceptance-04 construction functions", 30.0)
    rng = np.random.default_rng(4)
    checked = 0
    configs_pool = all_configs()

    def verify(configs, psi):
        nonlocal checked
        f_idx, g_idx = expand_recursion(configs, psi)
        for n in range(1, len(psi) + 1):
            ft = construction_function(n, configs[n - 1], psi, "f").table()
            gt = construction_function(n, configs[n - 1], psi, "g").table()
            checked += 1
            if not (np.array_equal(ft, f_idx[:, n - 1]) and np.array_equal(gt, g_idx[:, n - 1])):
                gate.finish(False, f"step {n}, configs {configs}, psi {psi}")

    # full config product for small m
    for m in (1, 2):
        for psi in itertools.permutations(range(m)):
            for configs in itertools.product(configs_pool, repeat=m):
                verify(configs, psi)
    # every vector at every step position, random backgrounds, for m = 3, 4
    for m in (3, 4):
        for psi in itertools.permutations(range(m)):
            for pos in range(m):
                for vec in configs_pool:
                    for _ in range(2):
                        configs = [configs_pool[rng.integers(16)] for _ in range(m)]
                        configs[pos] = vec
                        verify(configs, psi)
    gate.finish(True, f"{checked} step comparisons")


def test_criterion_05_papr_bound():
    gate = Budget("acceptance-05 peak power bound", 60.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    gapped = 0
    for _ in range(500):
        # equal-energy stock seeds; gaps drawn to keep seed copies disjoint
        mode = "disjoint" if rng.random() < 0.5 else "none"
        p = random_encoder_params(rng, m_max=5, shift_mode=mode)
        res = encode_pair(p)
        gapped += bool(sum(p.d))
        for seq in (res.c, res.d):
            db, _ = papr_oversampled_db(seq, 16)
            worst = max(worst, db)
        if worst > 3.02:
            gate.finish(False, f"{worst:.4f} dB for {p}")
    gate.finish(True, f"worst {worst:.4f} dB over 500 draws ({gapped} non-contiguous)")


def test_criterion_06_standard_binary_reduction():
    gate = Budget("acceptance-06 standard binary set", 60.0)
    # brute-force reference: every +/-1 sequence of length 8 belonging to
    # some complementary pair, by scanning all pairs
    seqs = np.array(list(itertools.product((1, -1), repeat=8)), dtype=float)
    rho = np.stack([[float(np.dot(s[:-k], s[k:])) for k in range(1, 8)] for s in seqs])
    worst_pair = np.abs(rho[:, None, :] + rho[None, :, :]).max(axis=2)
    brute = {
        tuple(int(v) for v in seqs[i])
        for i in range(len(seqs))
        if bool((worst_pair[i] <= 1e-9 * 16).any())
    }

    generated = set()
    for pi in itertools.permutations((1, 2, 3)):
        for k in itertools.product((0, 1), repeat=3):
            for k_prime in (0, 1):
                p = EncoderParams(m=3, H=2, pi=pi, k=k, k_prime=k_prime)
                c = encode_pair(p).c.values
                generated.add(tuple(int(round(v.real)) for v in c))
    gate.finish(
        generated == brute,
        f"{len(generated)} generated vs {len(brute)} brute-force",
    )


def test_criterion_07_alphabet_closure():
    gate = Budget("acceptance-07 alphabet closure", 10.0)
    rng = np.random.default_rng(77)
    m = 3
    covered = []
    for rule in qam.RULES:
        for s in (2, 4):
            combos = qam.rule_entry(rule).choices(s)
            if not combos:
                continue  # no admissible indices (cyan needs two distinct points)
            for _ in range(100):
                combo = combos[rng.integers(len(combos))]
                spec = qam.RuleSpec(
                    rule=rule,
                    u=combo.get("u", 1),
                    v=combo.get("v", 1),
                    w=combo.get("w", 1),
                    t=combo.get("t", 1),
                    ell=int(rng.integers(1, m + 1)),
                    sign_a=combo.get("sign", combo.get("sign_a", 1)),
                    sign_b=combo.get("sign_b", 1),
                    rotate_b_half=combo.get("rotate_b_half", True),
                    z=int(rng.integers(4)),
                    k=tuple(int(x) for x in rng.integers(0, 4, m)),
                )
                pi = tuple(int(x) for x in rng.permutation(np.arange(1, m + 1)))
                values = encode_pair(qam.rule_params(spec, s, m, pi=pi)).c.values
                if not qam.on_lattice(values, s, tol=1e-6):
                    gate.finish(False, f"{rule} s={s} spec={spec}")
            covered.append(f"{rule}/s={s}")
    gate.finish(True, f"100 draws each: {', '.join(covered)}")


def test_criterion_08_count_reconciliation():
    gate = Budget("acceptance-08 count reconciliation", 300.0)
    for s in range(1, 9):
        for m in range(1, 7):
            for n_class in ("N=1", "N>1"):
                total = sum(qam.count_sequences(r, s, m, n_class).count for r in qam.RULES)
                expected = qam.count_sequences("total", s, m, n_class).count
                if total != expected:
                    gate.finish(False, f"s={s} m={m} {n_class}: {total} != {expected}")
    # exhaustive dedup for every rule the formulas cover (m >= 2: the closed
    # forms bake in the order-reversal pairing, which is void at m = 1)
    report = []
    for rule in qam.RULES:
        for s in (1, 2):
            for m in (2, 3):
                distinct = qam.distinct_sequences(rule, s, m)
                formula = qam.count_sequences(rule, s, m).count
                if distinct != formula:
                    gate.finish(False, f"{rule} s={s} m={m}: dedup {distinct} != {formula}")
                report.append(f"{rule}[s={s},m={m}]={distinct}")
    gate.finish(True, f"identity s<=8,m<=6; dedup: {len(report)} cases match")


def test_criterion_09_enumeration_reports(capsys):
    gate = Budget("acceptance-09 enumeration reports", 1.0)
    m = 4
    for s in (1, 2, 4, 8):
        for n in (1, 3):
            code = cli.main(["enumerate", "--s", str(s), "--m", str(m), "--N", str(n)])
            out = capsys.readouterr().out
            if code != 0:
                gate.finish(False, f"exit {code} for s={s} N={n}")
            report = json.loads(out)
            n_class = "N=1" if n == 1 else "N>1"
            expected = qam.count_sequences("total", s, m, n_class).count
            ok = (
                report["count"] == expected
                and report["bits"] == math.floor(math.log2(expected))
                and report["length"] == n * 2**m
            )
            if not ok:
                gate.finish(False, f"report {report} for s={s} N={n}")
    gate.finish(True, "bits and lengths consistent for s in {1,2,4,8}, N in {1,3}")


def test_criterion_10_detection_harness():
    gate = Budget("acceptance-10 detection harness", 30.0)
    codebook = [(1, 1), (1, -1)]
    noiseless = min_distance_sim(codebook, [float("inf")], trials=10_000, rng_seed=5)
    if noiseless.ber != (0.0,):
        gate.finish(False, f"noiseless ber {noiseless.ber}")
    first = min_distance_sim(codebook, [-10.0, 0.0], trials=20_000, rng_seed=9)
    second = min_distance_sim(codebook, [-10.0, 0.0], trials=20_000, rng_seed=9)
    if first != second:
        gate.finish(False, "replay with fixed seed diverged")
    analytic = pairwise_error_rate(codebook[0], codebook[1], ebn0_db=-10.0)
    sim = min_distance_sim(codebook, [-10.0], trials=100_000, rng_seed=17)
    gap = abs(sim.ber[0] - analytic)
    gate.finish(
        gap <= 0.02,
        f"analytic {analytic:.4f} vs simulated {sim.ber[0]:.4f} (gap {gap:.4f})",
    )
