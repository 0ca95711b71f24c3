import math
from dataclasses import replace

import numpy as np
import pytest

from _factories import (
    pair_matches,
    random_encoder_params,
    random_recursion_params,
    reference_encode,
)
from csforge import (
    EncoderParams,
    GuardError,
    RecursionParams,
    SeedPair,
    component_functions,
    encode_family,
    encode_pair,
    is_gcp,
    known_seed,
    papr_oversampled_db,
    qam,
    recursion_to_encoder,
    run_recursion,
    shifts_avoid_overlap,
)
from csforge.encoder import MAX_ENCODE_VARS, MAX_SEQUENCE_LENGTH

E1 = (2.0 / math.pi) * math.log(3.0)


def multilevel_params(seed=None, d=None):
    return EncoderParams(m=3, H=4, pi=(2, 1, 3), e=(E1, 0, 0), seed=seed, d=d)


def test_component_tables_of_worked_configuration():
    comp = component_functions(multilevel_params())
    assert np.allclose(comp.amp_c.table(), [0, 0, E1, E1, E1, E1, 0, 0], atol=1e-12)
    # phase table consistent with the golden output signs
    assert np.array_equal(np.mod(comp.phase_c.table(), 4), [0, 0, 0, 0, 0, 2, 2, 0])
    assert np.array_equal(comp.shift.table(), np.zeros(8))


def test_zero_amplitude_knobs_give_zero_function():
    p = EncoderParams(m=3, H=4)
    comp = component_functions(p)
    assert np.array_equal(comp.amp_c.table(), np.zeros(8))
    assert np.array_equal(comp.amp_d.table(), np.zeros(8))


def test_golden_multilevel_sequence():
    res = encode_pair(multilevel_params())
    expected = np.array([1, 1, 3, 3, 3, -3, -1, 1], dtype=complex)
    assert pair_matches(expected, res.c.values)
    assert not res.overlap
    assert is_gcp(res.c, res.d).ok


def test_golden_blockwise_with_length6_seed():
    a = np.array([1, 1j, 1, 1, 1, -1])
    b = np.array([1, 1j, 1, -1, -1, 1])
    res = encode_pair(multilevel_params(seed=(a, b)))
    expected = np.concatenate([a, a, 3 * b, 3 * b, 3 * a, -3 * a, -b, b])
    assert pair_matches(expected, res.c.values)


def test_golden_blockwise_reversed_order():
    # reversing pi moves the amplitude knob to the mirrored step
    a = np.array([1, 1j, 1, 1, 1, -1])
    b = np.array([1, 1j, 1, -1, -1, 1])
    p = EncoderParams(m=3, H=4, pi=(3, 1, 2), e=(0, E1, 0), seed=(a, b))
    res = encode_pair(p)
    expected = np.concatenate([a, b, 3 * a, 3 * b, 3 * a, -3 * b, -a, b])
    assert pair_matches(expected, res.c.values)


def test_golden_two_cluster_layout():
    a = np.array([1, 1j, 1])
    b = np.array([1, 1, -1])
    res = encode_pair(multilevel_params(seed=(a, b), d=(0, 60, 0)))
    expected = np.concatenate(
        [a, a, 3 * b, 3 * b, np.zeros(60), 3 * a, -3 * a, -b, b]
    )
    assert pair_matches(expected, res.c.values)
    assert len(res.c) == 3 * 8 + 60
    assert res.c.clusters() == [(0, 12), (72, 84)]
    assert not res.overlap
    assert is_gcp(res.c, res.d).ok
    assert papr_oversampled_db(res.c, 16)[0] <= 3.02


def test_trivial_single_step_pair():
    res = encode_pair(EncoderParams(m=1, H=2))
    assert pair_matches([1, 1], res.c.values)
    assert pair_matches([1, -1], res.d.values)


def test_direct_recursion_single_step():
    c, d = run_recursion(RecursionParams(H=2, psi=(0,)))
    assert pair_matches([1, 1], c.values)
    assert pair_matches([1, -1], d.values)


def test_direct_recursion_reproduces_golden_vector():
    rp = RecursionParams(H=4, psi=(1, 2, 0), scale_b=(E1, 0.0, 0.0))
    c, _ = run_recursion(rp)
    assert pair_matches([1, 1, 3, 3, 3, -3, -1, 1], c.values)
    converted = recursion_to_encoder(rp)
    assert converted.pi == (2, 1, 3)
    assert converted.e == (E1, 0.0, 0.0)


def test_conversion_identity_on_neutral_params():
    rp = RecursionParams(H=4, psi=(3, 2, 1, 0))
    p = recursion_to_encoder(rp)
    assert p.pi == (1, 2, 3, 4)
    assert p.e == (0.0,) * 4
    assert p.e_prime == 0.0
    assert p.k == (0.0,) * 4
    assert p.k_prime == 0.0 and p.k_dprime == 0.0


def test_conversion_single_scale_knob():
    target = (4.0 / (2.0 * math.pi)) * math.log(3.0)
    rp = RecursionParams(H=4, psi=(0, 1, 2), scale_b=(0.0, target, 0.0))
    p = recursion_to_encoder(rp)
    assert p.e == (0.0, pytest.approx(target), 0.0)
    assert p.e_prime == 0.0


@pytest.mark.parametrize("trial", range(40))
def test_oracle_equivalence_random(trial):
    rng = np.random.default_rng(1000 + trial)
    rp = random_recursion_params(rng)
    direct_c, direct_d = run_recursion(rp)
    res = encode_pair(recursion_to_encoder(rp))
    assert pair_matches(direct_c.values, res.c.values)
    assert pair_matches(direct_d.values, res.d.values)


def test_length_formula():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_encoder_params(rng, m_max=5)
        res = encode_pair(p)
        assert len(res.c) == len(p.seed) * 2**p.m + sum(p.d)
        assert len(res.d) == len(res.c)


def test_overlap_is_summed_and_flagged():
    p = EncoderParams(m=2, H=4, pi=(1, 2), d=(0, 1))
    assert not shifts_avoid_overlap(p.d, p.pi)
    res = encode_pair(p)
    assert res.overlap
    assert len(res.c) == 4 + 1
    assert is_gcp(res.c, res.d).ok  # collisions sum, complementarity survives


def test_disjoint_shifts_do_not_flag():
    p = multilevel_params(seed=(np.array([1, 1j, 1]), np.array([1, 1, -1])), d=(0, 60, 0))
    assert shifts_avoid_overlap(p.d, p.pi)
    assert not encode_pair(p).overlap


def test_phase_functions_differ_by_top_variable():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_encoder_params(rng, m_max=5)
        comp = component_functions(p)
        top = np.array([(x >> (p.m - p.pi[-1])) & 1 for x in range(2**p.m)])
        delta = comp.phase_d.table() - comp.phase_c.table()
        expected = (p.H / 2.0) * top + (p.k_dprime - p.k_prime)
        wrapped = np.mod(delta - expected, p.H)
        assert np.allclose(np.minimum(wrapped, p.H - wrapped), 0.0, atol=1e-9)


def test_amplitude_alphabet_preserved_without_overlap():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = random_encoder_params(rng, m_max=4, shift_mode="disjoint")
        res = encode_pair(p)
        comp = component_functions(p)
        w = 2.0 * math.pi / p.H
        seed_mags = np.abs(np.concatenate([p.seed.a.values, p.seed.b.values]))
        allowed = np.unique(
            np.round(np.outer(np.exp(w * comp.amp_c.table()), seed_mags).ravel(), 9)
        )
        observed = np.round(np.abs(res.c.values[res.c.support]), 9)
        assert np.all(np.isin(observed, allowed))


def test_seed_validation():
    with pytest.raises(ValueError):
        SeedPair((1, 1), (1, 1))
    with pytest.raises(ValueError):
        SeedPair((1, 1), (1,))
    assert len(known_seed(3)) == 3
    with pytest.raises(ValueError):
        known_seed(5)


def test_params_validation():
    with pytest.raises(ValueError):
        EncoderParams(m=2, H=3)  # odd modulus
    with pytest.raises(ValueError):
        EncoderParams(m=2, H=4, pi=(1, 1))
    with pytest.raises(ValueError):
        EncoderParams(m=2, H=4, d=(-1, 0))
    with pytest.raises(ValueError):
        EncoderParams(m=2, H=4, e=(0.0,))
    for m in (0, MAX_ENCODE_VARS + 1):
        with pytest.raises(ValueError, match=f"m must be in 1..{MAX_ENCODE_VARS}"):
            EncoderParams(m=m, H=4)


def test_seed_pairs_and_their_sequences_are_immutable():
    seed = known_seed(2)
    with pytest.raises(AttributeError, match="SeedPair is immutable"):
        seed.a = seed.b
    with pytest.raises(AttributeError, match="ComplexSequence is immutable"):
        seed.a.values = seed.b.values
    with pytest.raises(ValueError, match="read-only"):
        seed.a.values[0] = 0


def test_phase_normalization():
    p = EncoderParams(m=2, H=4, k=(5.0, -1.0), k_prime=9.0, k_dprime=-0.5)
    assert p.k == (1.0, 3.0)
    assert p.k_prime == 1.0
    assert p.k_dprime == 3.5


def test_matches_blockwise_reference():
    rng = np.random.default_rng(2024)
    overlaps = 0
    for _ in range(500):
        p = random_encoder_params(rng, m_max=7, seed_lengths=(1, 2, 3, 4), shift_mode="mixed")
        ref = reference_encode(p)
        res = encode_pair(p)
        assert pair_matches(ref.c.values, res.c.values)
        assert pair_matches(ref.d.values, res.d.values)
        assert res.overlap == ref.overlap
        overlaps += res.overlap
    assert 0 < overlaps < 500


def test_oracle_equivalence_at_max_vars():
    rp = random_recursion_params(np.random.default_rng(16), m_min=16, m_max=16)
    direct_c, direct_d = run_recursion(rp)
    res = encode_pair(recursion_to_encoder(rp))
    assert pair_matches(direct_c.values, res.c.values)
    assert pair_matches(direct_d.values, res.d.values)


@pytest.mark.parametrize("knob", ["e", "k", "e_prime", "k_prime", "k_dprime"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_params_reject_non_finite(knob, value):
    with pytest.raises(ValueError, match="finite"):
        EncoderParams(m=2, H=4, **{knob: (value, 0.0) if knob in ("e", "k") else value})


@pytest.mark.parametrize("knob", ["scale_a", "scale_b", "phase_a", "phase_b", "phase_joint"])
def test_recursion_params_reject_non_finite(knob):
    with pytest.raises(ValueError, match="finite"):
        RecursionParams(H=4, psi=(0, 1), **{knob: (0.0, math.nan)})


@pytest.mark.parametrize("field, value", [
    ("m", 2.5), ("H", 4.5), ("pi", (1.7, 2)), ("d", (0.9, 0)), ("d", (0, float("inf"))),
])
def test_params_reject_non_integral(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        replace(EncoderParams(m=2, H=4), **{field: value})


@pytest.mark.parametrize("field, value", [("H", 4.5), ("psi", (0.5, 1)), ("shifts", (0.9, 0))])
def test_recursion_params_reject_non_integral(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        replace(RecursionParams(H=4, psi=(0, 1)), **{field: value})


def test_params_take_integral_floats():
    p = replace(EncoderParams(m=2, H=4), m=2.0, H=4.0, pi=(2.0, 1.0), d=(np.float64(1), 0.0))
    assert p == EncoderParams(m=2, H=4, pi=(2, 1), d=(1, 0))
    assert all(type(v) is int for v in (p.m, p.H, *p.pi, *p.d))
    rp = replace(RecursionParams(H=4, psi=(0, 1)), H=4.0, psi=(1.0, 0.0), shifts=(2.0, 0.0))
    assert rp == RecursionParams(H=4, psi=(1, 0), shifts=(2, 0))


@pytest.mark.parametrize("field, value", [
    ("m", True), ("H", "4"), ("pi", "21"), ("pi", ("2", "1")), ("d", (True, False)),
    ("e", ("0.5", 0.0)), ("k", "13"), ("e_prime", "0.5"), ("k_prime", False),
    ("k_dprime", np.True_),
])
def test_params_take_only_numbers(field, value):
    # strings and booleans were converted before: "21" read as the order
    # (2, 1), "13" as the steps (1, 3) and True as 1
    with pytest.raises(ValueError, match=f"{field} takes numbers only"):
        replace(EncoderParams(m=2, H=4), **{field: value})
    # numpy scalars are numbers
    p = replace(EncoderParams(m=2, H=4), m=np.int64(2), pi=(np.int32(2), np.float64(1.0)),
                k=(np.float32(0.5), 1), e_prime=np.float64(0.25))
    assert (p.m, p.pi, p.k, p.e_prime) == (2, (2, 1), (0.5, 1.0), 0.25)


@pytest.mark.parametrize("e_prime", [1000.0, 300.0, -1e300])
def test_unrepresentable_power_is_rejected(e_prime):
    with pytest.raises(ValueError, match="power"):
        encode_pair(EncoderParams(m=2, H=4, e_prime=e_prime))
    with pytest.raises(ValueError, match="power"):
        encode_family(EncoderParams(m=2, H=4, e_prime=e_prime))


def test_power_counts_the_second_output():
    # m = 1: block 0 takes seed a with amplitude exponent 0 in c and e_1 in d,
    # block 1 takes seed b with e_1 in c and 0 in d.  With |b|^2 = 1e-200,
    # c's energy is 1 + 8.7e307 * 1e-200 and d's 8.7e307 + 1e-200: c's power
    # 2 * length * energy is representable, the pair's is not
    seed = SeedPair([1.0], [1e-100])
    params = EncoderParams(m=1, H=4, e=(225.7,), seed=seed)
    scale = math.exp(math.pi * 225.7)
    assert 4 * (1 + scale * 1e-200) < 1e110
    assert math.isinf(4 * (1 + scale * 1e-200 + scale))
    with pytest.raises(ValueError, match="power"):
        encode_pair(params)
    with pytest.raises(ValueError, match="power"):
        encode_family(params)


def test_family_stacks_of_sets_and_orders_match_single_encodes():
    # G sets that share m, H, d and the seed, under P orders: row g * P + p
    # is the first output of the set g re-ordered by pis[p], to rounding
    rng = np.random.default_rng(29)
    for _ in range(60):
        first = random_encoder_params(rng, m_max=5, seed_lengths=(1, 2, 3, 4), shift_mode="mixed")
        ps = [first] + [replace(random_encoder_params(rng, m_min=first.m, m_max=first.m),
                                H=first.H, d=first.d, seed=first.seed)
                        for _ in range(int(rng.integers(0, 3)))]
        pis = [tuple(int(v) for v in rng.permutation(np.arange(1, first.m + 1)))
               for _ in range(int(rng.integers(1, 4)))]
        stacked = encode_family(ps, pis)
        assert stacked.shape == (len(ps) * len(pis), (len(first.seed) << first.m) + sum(first.d))
        single = [encode_pair(replace(p, pi=pi)).c.values for p in ps for pi in pis]
        assert pair_matches(stacked, np.array(single), rtol=1e-12)
    assert np.array_equal(encode_family(first), [encode_pair(first).c.values])


def test_family_rule_stacks_are_bit_for_bit():
    # rule parameters have at most two nonzero steps, so stacking them moves no bit
    entry = qam.rule_entry("cyan")
    ps = [entry.build(s=3, m=3, ell=ell, pi=None, k=k, z=z, seed=known_seed(3), **choice)
          for choice in entry.choices(3)[:4] for ell in (1, 3)
          for k, z in (((0, 0, 0), 0), ((1, 3, 2), 3))]
    pis = [(3, 1, 2), (1, 2, 3), (2, 3, 1)]
    stacked = encode_family(ps, pis)
    single = np.array([encode_pair(replace(p, pi=pi)).c.values for p in ps for pi in pis])
    assert stacked.tobytes() == single.tobytes()


@pytest.mark.parametrize("other", [
    dict(m=2, H=8), dict(m=2, H=4, d=(1, 0)), dict(m=2, H=4, seed=known_seed(2)), dict(m=3, H=4),
])
def test_family_stack_must_share_the_tables(other):
    with pytest.raises(ValueError, match="share"):
        encode_family([EncoderParams(m=2, H=4), EncoderParams(**other)])
    with pytest.raises(ValueError):
        encode_family([])


@pytest.mark.parametrize("pis", [[(1, 1)], [(1, 3)], [(1, 2, 3)], [1, 2], [(1.0, 2.0)], [[(1, 2)]]])
def test_family_rejects_bad_orders(pis):
    with pytest.raises(ValueError, match="pis"):
        encode_family(EncoderParams(m=2, H=4), pis)


def test_length_guard():
    with pytest.raises(GuardError):
        EncoderParams(m=2, H=4, d=(10**9, 0))
    with pytest.raises(GuardError):
        RecursionParams(H=4, psi=(0, 1), shifts=(0, MAX_SEQUENCE_LENGTH))
    EncoderParams(m=2, H=4, d=(MAX_SEQUENCE_LENGTH - 4, 0))  # exactly at the limit


def test_length_guard_does_not_write_out_a_huge_length():
    # Python writes no integer of more than 4,300 digits
    with pytest.raises(GuardError, match="limit") as info:
        EncoderParams(m=2, H=4, d=(10**5000, 0))
    assert "\n" not in str(info.value)
