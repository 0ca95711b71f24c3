import ast
import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import reference_distinct_keys, reference_distinct_rows, reference_walk
from csforge import (
    GuardError,
    RecursionParams,
    SeedPair,
    encode_family,
    encode_pair,
    is_gcp,
    known_seed,
    qam,
    recursion_to_encoder,
)
from csforge.qam import (
    count_sequences,
    distinct_blocks,
    distinct_sequences,
    enumerate_rule,
    is_qam_point,
    lattice_geometry,
    lattice_points,
    on_lattice,
    rule_params,
    sequence_key,
)

SCALE = 4.0 / (2.0 * math.pi)


def test_geometry_diagonal_point():
    g = lattice_geometry(1, 1)
    assert g.distance == pytest.approx(math.sqrt(2))
    assert g.gamma == pytest.approx(1.0)
    assert g.theta == pytest.approx(math.pi / 4)
    assert g.phi == pytest.approx(0.0)
    assert g.mu == pytest.approx(0.0)


def test_geometry_reference_values():
    g12 = lattice_geometry(1, 2)
    assert g12.gamma == pytest.approx(math.sqrt(5))
    assert g12.phi == pytest.approx(-0.4636, abs=5e-5)
    g42 = lattice_geometry(4, 2)
    assert g42.phi == pytest.approx(0.3805, abs=5e-5)
    assert SCALE * g42.phi == pytest.approx(0.2422, abs=5e-5)
    g21 = lattice_geometry(2, 1)
    assert SCALE * g21.phi == pytest.approx(0.2952, abs=5e-5)
    assert SCALE * math.log(3.0) == pytest.approx(0.6994, abs=5e-5)
    assert SCALE * math.log(math.sqrt(5)) == pytest.approx(0.5123, abs=5e-5)
    assert SCALE * math.log(math.sqrt(29)) == pytest.approx(1.0718, abs=5e-5)


def test_geometry_identities_full_grid():
    for u in range(1, 9):
        for v in range(1, 9):
            g = lattice_geometry(u, v)
            assert g.mu == pytest.approx(2 * g.phi)
            assert g.phi == pytest.approx(math.pi / 4 - g.theta)
            assert g.gamma == pytest.approx(g.distance / math.sqrt(2))


def test_point_counts():
    for s in range(1, 9):
        assert len(lattice_points(s)) == 4 * s * s


def test_is_qam_point():
    assert is_qam_point(3 - 3j, 2)
    assert is_qam_point(1 + 1j, 1)
    assert not is_qam_point(3 + 1j, 1)
    assert not is_qam_point(1.01 + 1j, 2)
    assert is_qam_point(1 + 1e-8 + 1j, 2)
    assert not is_qam_point(0.5 + 0.5j, 4)


def test_lattice_points_all_pass():
    for s in (1, 2, 4):
        assert all(is_qam_point(complex(p), s) for p in lattice_points(s))


def test_golden_output_maps_into_lattice():
    vals = np.array([1, 1, 3, 3, 3, -3, -1, 1], dtype=complex)
    assert on_lattice(vals, 2)
    assert not on_lattice(vals, 1)


def test_green_rule_reference_params():
    p = qam.green_params(s=2, u=1, v=2, m=3, z=0)
    assert p.e_prime == pytest.approx(SCALE * math.log(math.sqrt(5)))
    assert p.k_prime == pytest.approx((-SCALE * lattice_geometry(1, 2).phi) % 4)
    assert p.H == 4 and p.e == (0.0, 0.0, 0.0)


def test_yellow_rule_reference_params():
    p = qam.yellow_params(s=2, u=1, v=2, ell=3, m=3)
    assert p.e[2] == pytest.approx(SCALE * math.log(3.0))
    assert p.e[:2] == (0.0, 0.0)
    assert p.e_prime == pytest.approx(0.0)


def test_cyan_rule_reference_params():
    p = qam.cyan_params(s=4, u=2, t=1, v=4, w=2, ell=3, m=3)
    scale_a = SCALE * math.log(math.sqrt(5))
    scale_b = SCALE * math.log(math.sqrt(29))
    assert p.e[2] == pytest.approx(scale_b - scale_a)
    assert p.e_prime == pytest.approx(scale_a)


def test_rule_spec_dispatch_matches_builders():
    via_name = rule_params("cyan", s=4, m=3, u=2, t=1, v=4, w=2, ell=2, sign_a=-1)
    direct = qam.cyan_params(s=4, u=2, t=1, v=4, w=2, ell=2, m=3, sign_a=-1)
    assert via_name == direct


@pytest.mark.parametrize("rule", qam.RULES)
def test_rule_params_matches_the_builder_on_every_choice(rule):
    # every choice, every ell and both values of each binary knob, at s <= 4
    # and m <= 3, with and without the order, steps and constant
    entry = qam.rule_entry(rule)
    for s, m in itertools.product(range(1, 5), range(1, 4)):
        extras = ({}, {"pi": tuple(range(m, 0, -1)), "k": (1.5,) * m, "z": 3})
        for choice, ell, extra in itertools.product(
                entry.choices(s), range(1, m + 1) if entry.has_ell else (None,), extras):
            knobs = {**choice, **({"ell": ell} if ell else {}), **extra}
            assert rule_params(rule, s, m, **knobs) == entry.build(s=s, m=m, **knobs)


@pytest.mark.parametrize("rule, knobs, named", [
    ("green", {"u": 1, "v": 2, "ell": 3, "sign_a": -1}, "no knob 'ell'"),
    ("green", {"u": 1, "v": 2, "sign_a": -1}, "no knob 'sign_a'"),
    ("yellow", {"u": 1, "v": 2, "ell": 1, "w": 1}, "no knob 'w'"),
    ("blue", {"u": 1, "v": 2, "w": 1, "ell": 1, "sign_b": 1}, "no knob 'sign_b'"),
    ("orange", {"u": 2, "v": 1, "ell": 1, "rotate_b_half": True}, "no knob 'rotate_b_half'"),
    ("cyan", {"u": 2, "t": 1, "v": 4, "ell": 1}, "needs w"),
    ("green", {"v": 1}, "needs u"),
    ("blue", {"u": 1, "v": 2, "w": 1}, "needs ell"),
    ("orange", {"u": 2, "v": 1, "z": 1}, "needs ell"),
])
def test_rule_params_refuses_knobs_outside_the_record(monkeypatch, rule, knobs, named):
    # refused before the builder runs
    monkeypatch.setattr(qam, qam.rule_entry(rule).builder, lambda **_: pytest.fail("built"))
    with pytest.raises(ValueError) as raised:
        rule_params(rule, 4, 2, **knobs)
    assert named in str(raised.value) and "\n" not in str(raised.value)


def test_rule_index_constraints():
    with pytest.raises(ValueError):
        qam.yellow_params(s=2, u=1, v=1, ell=1, m=2)
    with pytest.raises(ValueError):
        qam.blue_params(s=2, u=1, v=1, w=2, ell=1, m=2)
    with pytest.raises(ValueError):
        qam.cyan_params(s=2, u=2, t=1, v=2, w=1, ell=1, m=2)
    with pytest.raises(ValueError):
        qam.orange_params(s=2, u=1, v=2, ell=1, m=2)
    with pytest.raises(ValueError):
        qam.green_params(s=2, u=3, v=1, m=2)


@pytest.mark.parametrize("rule", qam.RULES)
@pytest.mark.parametrize("s", range(5))
def test_builders_accept_exactly_the_choices(rule, s):
    # every index in 0..s+1 and every binary knob value, with values outside
    # the set: 0 and 2, and 1 for a boolean knob, which a truthy check took
    entry = qam.rule_entry(rule)
    names = entry.indices + tuple(name for name, _ in entry.binary)
    knob_values = [values + ((0, 2, 1) if isinstance(values[0], bool) else (0, 2))
                   for _, values in entry.binary]
    step = {"ell": 1} if entry.has_ell else {}
    accepted = []
    for point in itertools.product(range(s + 2), repeat=len(entry.indices)):
        for values in itertools.product(*knob_values):
            choice = dict(zip(names, point + values))
            try:
                entry.build(s=s, m=2, **step, **choice)
            except ValueError:
                continue
            accepted.append(choice)
    assert accepted == entry.choices(s)


@pytest.mark.parametrize("call", [
    lambda: qam.green_params(s=2, u=1, v=1, m=2, z=2**1030),
    lambda: qam.yellow_params(s=2, u=1, v=2, ell=1, m=2, z=-(10**400)),
    lambda: qam.orange_params(s=2, u=2, v=1, ell=1, m=2, k=(10**400, 0)),
    lambda: qam.green_params(s=10**400, u=10**400, v=1, m=2),
    lambda: qam.cyan_params(s=10**400, u=10**400, t=1, v=3, w=1, ell=1, m=2),
    lambda: lattice_geometry(1, 2**1024),
])
def test_values_beyond_float_range_are_refused(call):
    with pytest.raises(ValueError, match="beyond float range"):
        call()


@pytest.mark.parametrize("rule", [rule for rule in qam.RULES if qam.rule_entry(rule).has_ell])
def test_builders_refuse_m_before_building_step_lists(rule):
    # [0.0] * m at m = 10**18 raised MemoryError, and at 10**30 OverflowError
    choice = qam.rule_entry(rule).choices(3)[0]
    for m in (17, 10**18, 10**30):
        with pytest.raises(ValueError, match="m must be in"):
            qam.rule_entry(rule).build(s=3, ell=m, m=m, **choice)


@pytest.mark.parametrize("rule", qam.RULES)
def test_rule_outputs_stay_on_lattice_and_complementary(rule):
    rng = np.random.default_rng(qam.RULES.index(rule))
    for s in (2, 4):
        combos = qam.rule_entry(rule).choices(s)
        if not combos:
            continue
        for _ in range(12):
            combo = combos[rng.integers(len(combos))]
            m = int(rng.integers(1, 5))
            pi = tuple(int(x) for x in rng.permutation(np.arange(1, m + 1)))
            k = tuple(int(x) for x in rng.integers(0, 4, m))
            ell = int(rng.integers(1, m + 1))
            step = {"ell": ell} if qam.rule_entry(rule).has_ell else {}
            params = rule_params(rule, s, m, pi=pi, k=k, z=int(rng.integers(4)), **combo, **step)
            res = encode_pair(params)
            assert on_lattice(res.c.values, s)
            assert is_gcp(res.c, res.d).ok


def test_count_reference_values():
    assert count_sequences("green", 3, 4).units == 9
    assert count_sequences("total", 1, 5).units == 1  # only one family survives s=1
    assert count_sequences("total", 2, 2).units == 38
    assert count_sequences("total", 2, 2).count == 38 * 64
    assert count_sequences("blue", 2, 2).units == 2 * 4 * 1 * 3
    assert count_sequences("green", 1, 3).count == 768
    assert count_sequences("green", 1, 3, "N>1").unit == "A0"
    with pytest.raises(ValueError):
        count_sequences("green", 1, 3, "N=2")
    with pytest.raises(ValueError):
        count_sequences("purple", 1, 3)


def test_rule_counts_sum_to_total():
    for s in range(1, 9):
        for m in range(1, 7):
            for n_class in ("N=1", "N>1"):
                total = sum(count_sequences(r, s, m, n_class).count for r in qam.RULES)
                assert total == count_sequences("total", s, m, n_class).count


def test_dedup_matches_formula_small():
    assert distinct_sequences("green", 1, 2) == count_sequences("green", 1, 2).count == 64
    assert distinct_sequences("orange", 2, 2) == count_sequences("orange", 2, 2).count
    assert distinct_sequences("yellow", 2, 2) == count_sequences("yellow", 2, 2).count


def test_single_variable_counts_undercount():
    # the closed forms assume the reversal pairing, which is void at m=1
    assert count_sequences("green", 1, 1).count == 8
    assert distinct_sequences("green", 1, 1) == 16


def test_enumeration_guard(monkeypatch):
    # the guard is read when the walk starts
    monkeypatch.setattr(qam, "DEFAULT_ENUM_GUARD", 10)
    for walk in (enumerate_rule, distinct_blocks):
        with pytest.raises(GuardError, match="combinations at m=2: 128 exceeds"):
            list(walk("green", 1, 2))
    # the count reads WALK_KEY_BYTES instead
    assert distinct_sequences("green", 1, 2) == 64


def test_walk_takes_only_rule_s_m_and_a_seed():
    seed = known_seed(2)
    for walk in (enumerate_rule, distinct_blocks, distinct_sequences):
        for knob in ({"pis": [(1, 2)]}, {"ells": [1]}, {"guard": 10**30}):
            with pytest.raises(TypeError):
                walk("green", 1, 2, **knob)
        # the seed is keyword-only: a fourth positional argument is never read as one
        with pytest.raises(TypeError):
            walk("green", 1, 2, seed)
    with pytest.raises(TypeError):
        qam.enumeration_size("yellow", 2, 2, 1)


def test_walk_guard_does_not_write_out_a_huge_count():
    # 10^4400 combinations: Python writes no integer of more than 4,300 digits
    with pytest.raises(GuardError, match="guard") as info:
        distinct_sequences("green", 10**2200, 1)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_lattice_checks_refuse_a_bad_tolerance(tol):
    # each returned True for these values, inf and nan alike
    with pytest.raises(ValueError, match="tol"):
        is_qam_point(1.3 + 1j, 1, tol=tol)
    for values in ([0.5 + 0.2j], [0]):
        with pytest.raises(ValueError, match="tol"):
            on_lattice(values, 1, tol=tol)


@pytest.mark.parametrize(
    "rule, s, m",
    [("green", 2, 2), ("yellow", 2, 2), ("blue", 2, 2), ("cyan", 3, 1), ("orange", 2, 2)],
)
def test_guard_formula_matches_walk(rule, s, m):
    rows = sum(len(values) for *_, values in enumerate_rule(rule, s, m))
    assert rows == qam.enumeration_size(rule, s, m)


def test_enumeration_is_deterministic():
    first = [sequence_key(row) for *_, values in enumerate_rule("green", 1, 1) for row in values]
    second = [sequence_key(row) for *_, values in enumerate_rule("green", 1, 1) for row in values]
    assert first == second


def test_sequence_key_normalizes():
    a = np.array([1.0 + 0j, -0.0 - 0.0j])
    b = np.array([1.0 + 1e-14j, 0.0 + 0.0j])
    assert sequence_key(a) == sequence_key(b)


def _phases_agree(a, b, H=4, tol=1e-12):
    """Phase steps equal mod H within ``tol``."""
    gap = np.mod(np.subtract(a, b) + H / 2, H) - H / 2
    return bool(np.all(np.abs(gap) <= tol))


@pytest.mark.parametrize("rule, s, m, n_seed, pis", [
    ("green", 1, 2, 1, None), ("green", 2, 2, 3, None), ("yellow", 2, 2, 1, None),
    ("yellow", 2, 2, 4, None), ("blue", 2, 2, 1, None), ("cyan", 3, 1, 2, None),
    ("orange", 2, 2, 1, None), ("orange", 2, 3, 1, [(2, 3, 1)]),
])
def test_walk_matches_member_loop(rule, s, m, n_seed, pis):
    # the walk takes every order; its rows of the orders ``pis`` (all when
    # None) are checked, in lexicographic order as the walk lists them
    seed = known_seed(n_seed)
    rows = [
        (replace(params, pi=tuple(pi)), K[i], z[i], values[j * len(K) + i])
        for params, orders, K, z, values in enumerate_rule(rule, s, m, seed=seed)
        for j, pi in enumerate(orders.tolist()) if pis is None or tuple(pi) in pis
        for i in range(len(K))
    ]
    reference = list(reference_walk(rule, s, m, seed, pis and sorted(pis)))
    assert len(rows) == len(reference)
    for (params, k, z, row), (ref_k, ref_z, member, expected) in zip(rows, reference):
        assert tuple(k) == ref_k and z == ref_z
        # the block's params differ from the member's in the linear phase only
        assert replace(params, k=member.k, k_prime=member.k_prime, k_dprime=member.k_dprime) == member
        assert _phases_agree(np.add(params.k, k), member.k)
        assert _phases_agree(params.k_prime + z, member.k_prime)
        assert _phases_agree(params.k_dprime + z, member.k_dprime)
        assert np.max(np.abs(row - expected)) <= 1e-12
        assert sequence_key(row) == sequence_key(expected)
    distinct = np.concatenate(list(distinct_blocks(rule, s, m, seed=seed)))
    keys = [sequence_key(v) for v in distinct]
    assert keys == reference_distinct_keys(rule, s, m, seed)


@pytest.mark.parametrize("rule, s, m, pis", [
    ("green", 1, 3, [(3, 1, 2), (1, 2, 3)]), ("yellow", 2, 2, [(2, 1), (1, 2)]),
    ("blue", 2, 2, [(2, 1)]), ("cyan", 3, 2, [(2, 1)]), ("orange", 2, 2, [(2, 1), (1, 2)]),
])
@pytest.mark.parametrize("n_seed", [1, 2, 3, 4])
def test_tensor_walk_matches_reference_walk(rule, s, m, pis, n_seed):
    # at m = 2 a block stacks many (choice, ell) groups and both orders; at
    # m = 3 and N = 4 each order of a group is a block of its own.  The walk
    # takes every order; its rows of the orders ``pis`` are checked, in
    # lexicographic order as the walk lists them
    seed = known_seed(n_seed)
    rows = [
        (tuple(pi), tuple(K[i]), z[i], values[j * len(K) + i])
        for _, orders, K, z, values in enumerate_rule(rule, s, m, seed=seed)
        for j, pi in enumerate(orders.tolist()) if tuple(pi) in pis
        for i in range(len(K))
    ]
    reference = list(reference_walk(rule, s, m, seed, sorted(pis)))
    assert len(rows) == len(reference)
    for (pi, k, z, row), (ref_k, ref_z, member, expected) in zip(rows, reference):
        assert (pi, k, z) == (member.pi, ref_k, ref_z)
        assert sequence_key(row) == sequence_key(expected)
        assert np.max(np.abs(row - expected)) <= 1e-12
    # the first row of each key of the whole walk
    expected = reference_distinct_rows(enumerate_rule(rule, s, m, seed=seed))
    distinct = np.concatenate(list(distinct_blocks(rule, s, m, seed=seed)))
    assert [sequence_key(v) for v in distinct] == [sequence_key(v) for v in expected]


def test_choice_count_is_the_unit_count_at_one_step():
    # enumeration_size counts the choices without listing them
    for rule in qam.RULES:
        entry = qam.rule_entry(rule)
        for s in range(0, 7):
            steps = 2 if entry.has_ell else 1
            assert qam.enumeration_size(rule, s, 2) == len(entry.choices(s)) * steps * 2 * 64


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_family_rows_match_members(data):
    rule = data.draw(st.sampled_from(qam.RULES), label="rule")
    entry = qam.rule_entry(rule)
    s = data.draw(st.integers(3 if rule == "cyan" else 2, 4), label="s")
    choice = data.draw(st.sampled_from(entry.choices(s)), label="choice")
    m = data.draw(st.integers(1, 5), label="m")
    step = {"ell": data.draw(st.integers(1, m), label="ell")} if entry.has_ell else {}
    pi = tuple(data.draw(st.permutations(range(1, m + 1)), label="pi"))
    seed = known_seed(data.draw(st.integers(1, 4), label="N"))
    B = data.draw(st.integers(1, 6), label="rows")
    phase = st.integers(-4, 7)
    K = np.array(data.draw(st.lists(st.lists(phase, min_size=m, max_size=m),
                                    min_size=B, max_size=B), label="K"))
    z = np.array(data.draw(st.lists(phase, min_size=B, max_size=B), label="z"))
    fixed = dict(choice, **step, s=s, m=m, pi=pi, seed=seed)
    family = qam._members(encode_family(entry.build(k=None, z=0, **fixed)), np.array([pi]), K, z)
    assert family.shape == (B, len(seed) << m)
    for i in range(B):
        expected = encode_pair(entry.build(k=tuple(K[i]), z=int(z[i]), **fixed)).c.values
        assert np.max(np.abs(family[i] - expected)) <= 1e-12
        assert sequence_key(family[i]) == sequence_key(expected)


def _two_halves_oracle(ell, m, pi, k, z, seed, half_a, half_b):
    """The rule's params through a RecursionParams and recursion_to_encoder."""
    def at_ell(value):
        steps = [0.0] * m
        steps[ell - 1] = value
        return tuple(steps)

    rp = RecursionParams(
        4, psi=tuple(m - p for p in pi), scale_a=at_ell(half_a[0]), scale_b=at_ell(half_b[0]),
        phase_a=at_ell(half_a[1]), phase_b=at_ell(half_b[1]),
        phase_joint=tuple(k) if k is not None else None, seed=seed,
    )
    params = recursion_to_encoder(rp)
    return replace(params, k_prime=params.k_prime + z, k_dprime=params.k_dprime + z)


def test_two_halves_matches_recursion_oracle(monkeypatch):
    calls = []
    two_halves = qam._two_halves

    def spy(*args):
        calls.append(args)
        return two_halves(*args)

    monkeypatch.setattr(qam, "_two_halves", spy)
    rng = np.random.default_rng(6)
    s = 3
    for rule in ("yellow", "blue", "cyan"):
        entry = qam.rule_entry(rule)
        for m in range(1, 7):
            for ell in range(1, m + 1):
                for choice in entry.choices(s):
                    pi = tuple(int(v) for v in rng.permutation(np.arange(1, m + 1)))
                    k = tuple(rng.uniform(-4, 8, m)) if rng.integers(2) else None
                    z = int(rng.integers(-4, 8))
                    seed = known_seed(int(rng.integers(1, 5)))
                    calls.clear()
                    got = entry.build(s=s, ell=ell, m=m, pi=pi, k=k, z=z, seed=seed, **choice)
                    (args,) = calls
                    want = _two_halves_oracle(*args)
                    assert (got.m, got.H, got.pi, got.d, got.seed) == (
                        want.m, want.H, want.pi, want.d, want.seed)
                    assert np.allclose(got.e, want.e, rtol=0, atol=1e-12)
                    assert abs(got.e_prime - want.e_prime) <= 1e-12
                    assert _phases_agree(got.k, want.k)
                    assert _phases_agree(got.k_prime, want.k_prime)
                    assert _phases_agree(got.k_dprime, want.k_dprime)


_EXHAUSTIVE = (
    # s = 3 is cyan's first non-empty family
    [(rule, 3, 2, 1) for rule in qam.RULES]
    + [(rule, s, 4, 1) for rule in qam.RULES for s in (1, 2)]
    # the N>1 class (A0 units), with the stock seeds of lengths 2 to 4
    + [(rule, s, 2, n) for rule in qam.RULES for s in (1, 2, 3) for n in (2, 3, 4)]
)


# sha256 of the key rows (``sequence_key`` bytes, in order) of each walk's
# distinct rows, as the hash-and-compare dedup store that first ran these
# walks yielded them
_PINNED_KEYS = {
    ("green", 2, 4, 1): "41fe925bfdd0c8d6b0d93ca0d07413dc48cb5d728cf857359f8ba4a0726b28ca",
    ("yellow", 2, 4, 1): "9d52afff8d3ed6a0ddb329a72851b798822eafa82c869ce78b81b91524e405c2",
    ("blue", 2, 4, 1): "2eb0dadf2ab32157f826515583a74860d6f69e18bd81685a139c026ae6701de3",
    ("orange", 2, 4, 1): "cdcab291ee5b9d5f29593d6d97bc81614fb05cf16b4847c36549c789e5024304",
    # the 14 walks of 0.5 to 3 million rows that a 32-byte-per-row store admitted
    ("green", 1, 5, 4): "886d8ec829e1ee43233523c36e9b80b2a0cb8340b13f1b3424bc2013b0dee435",
    ("green", 2, 5, 1): "7810faafb1350bc4a3c2a449fd4531d151dbbb6b20ceb5e000a8694ccc04b66f",
    ("green", 7, 4, 3): "1b67a0d3a2bb27f0007c76ebd3361e506360571a82117d8d2286ddb2f3a0fd92",
    ("yellow", 4, 4, 3): "ca9c71ef238984f90f97614ac055af47cfc731c91721d3c5102e31f45f033225",
    ("yellow", 5, 4, 2): "27a1f5526c40dffa12a724db5dcfc15cf17de1f9b6db654eb11cb6a9f6ab6113",
    ("yellow", 6, 4, 1): "1cc94102ed8c8bdfc457a813d0ed67fdb7ca2ef0d3b1c8b33d19245779ae5b35",
    ("blue", 3, 4, 1): "9787dafbf57d003191b97348a4c895e9824d94b85cd5192c50aa2d3656abfff3",
    ("blue", 6, 3, 4): "d0c961a7336cf851f9834d1fd4397aad6f6a1798986b1786eef0e27bb3c749bf",
    ("blue", 7, 3, 2): "a9c3d7037d89498e1482c402f3d8bcc58a48704b841351ea346a0dad53c82ee0",
    ("blue", 8, 3, 1): "b6d0327cd2abb6cde0a524d97c1b14341a267b062857f21c7c6a8f633a92b39e",
    ("cyan", 5, 3, 4): "198a36bb006c2c98a83efbeba4225bc2453ae19d39c58f2d9419b73bcd9233a7",
    ("orange", 4, 4, 3): "acf9d2d93d00a46dca97f9daf3e37deb2e4d7b5d5b7c4983b651a898f383b302",
    ("orange", 5, 4, 2): "8560d4d5e887f59e949ba7c94e15fc17980c034ed3e132b521fdf02e7f8c9e97",
    ("orange", 6, 4, 1): "2f45b63b85e07ea86834d78bcae7cc0e208bc782c7e46c1df5149d3030d9d934",
}


def _count_and_digest(rule, s, m, n_seed):
    digest, count = hashlib.sha256(), 0
    for block in qam.distinct_blocks(rule, s, m, seed=known_seed(n_seed)):
        digest.update(qam._key_values(block))
        count += len(block)
    return count, digest.hexdigest()


@pytest.mark.parametrize("rule, s, m, n_seed", _EXHAUSTIVE)
def test_dedup_matches_formula_exhaustive(rule, s, m, n_seed):
    n_class = "N=1" if n_seed == 1 else "N>1"
    distinct, digest = _count_and_digest(rule, s, m, n_seed)
    assert distinct == count_sequences(rule, s, m, n_class).count
    assert digest == _PINNED_KEYS.get((rule, s, m, n_seed), digest)


@pytest.mark.parametrize("rule, s, m, n_seed", list(_PINNED_KEYS)[4:])
def test_large_walks_keep_their_distinct_rows(rule, s, m, n_seed):
    distinct, digest = _count_and_digest(rule, s, m, n_seed)
    assert distinct == count_sequences(rule, s, m, "N=1" if n_seed == 1 else "N>1").count
    assert digest == _PINNED_KEYS[rule, s, m, n_seed]


_ORACLE_WALKS = (
    [(rule, s, m, n, None, None) for rule, s, m, n in _EXHAUSTIVE
     if qam.enumeration_size(rule, s, m) <= 40_000]
    # m = 1, where the closed forms undercount
    + [(rule, s, 1, n, None, None) for rule in qam.RULES for s in (2, 3) for n in (1, 3)]
    # m = 3, 9,216 to 36,864 combinations, and the cyan walk's members of
    # one order and one step
    + [
        ("yellow", 2, 3, 1, None, None),
        ("yellow", 2, 3, 2, None, None),
        ("orange", 2, 3, 1, None, None),
        ("orange", 3, 3, 3, None, None),
        ("blue", 2, 3, 1, None, None),
        ("cyan", 3, 2, 4, [(2, 1)], [2]),
        ("green", 2, 3, 3, None, None),
    ]
)


# every walk takes all orders and steps; ``pis`` and ``ells``, when given,
# pick the reference members whose keys the distinct rows must hold
@pytest.mark.parametrize("rule, s, m, n_seed, pis, ells", _ORACLE_WALKS)
def test_distinct_rows_are_the_first_rows_of_the_walk(rule, s, m, n_seed, pis, ells):
    seed = known_seed(n_seed)
    expected = reference_distinct_rows(enumerate_rule(rule, s, m, seed=seed))
    rows = list(qam.distinct_blocks(rule, s, m, seed=seed))
    rows = np.concatenate(rows) if rows else expected
    # bit-identical rows in the same order
    assert len(rows) == len(expected) and rows.tobytes() == expected.tobytes()
    if pis or ells:
        # no member of the picked orders and steps has a key the rows lack
        picked = reference_distinct_keys(rule, s, m, seed, pis, ells)
        assert picked and set(picked) <= {sequence_key(row) for row in rows}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_key_is_shared_by_the_whole_group(data):
    rule = data.draw(st.sampled_from(qam.RULES), label="rule")
    entry = qam.rule_entry(rule)
    s = data.draw(st.integers(3 if rule == "cyan" else 2, 4), label="s")
    choice = data.draw(st.sampled_from(entry.choices(s)), label="choice")
    m = data.draw(st.integers(1, 4), label="m")
    step = {"ell": data.draw(st.integers(1, m), label="ell")} if entry.has_ell else {}
    pi = tuple(data.draw(st.permutations(range(1, m + 1)), label="pi"))
    seed = known_seed(data.draw(st.integers(1, 4), label="N"))
    params = entry.build(k=None, z=0, pi=pi, s=s, m=m, seed=seed, **choice, **step)
    keys = qam._key_values(qam._members(encode_family(params), np.array([pi]), *qam._phase_grid(m)))
    # the 4^(m+1) members of the group are pairwise distinct
    assert len({row.tobytes() for row in keys}) == 4 ** (m + 1)
    group = qam._canonical(keys.copy(), m)
    assert np.array_equal(group, np.broadcast_to(group[0], group.shape))
    # the key is a member of the group
    assert any(np.array_equal(group[0], row) for row in keys)


def _cell(params, pi):
    return (params.e, params.e_prime, params.k, params.k_prime, params.k_dprime, tuple(pi))


@pytest.mark.parametrize("rule, s, m, n_seed", [
    ("green", 2, 3, 1), ("yellow", 2, 3, 1), ("blue", 2, 2, 1), ("cyan", 3, 2, 1),
    ("orange", 2, 3, 1), ("blue", 2, 2, 3), ("orange", 2, 2, 4),
    # one order per block
    ("yellow", 2, 4, 1),
])
def test_distinct_walk_encodes_no_earlier_group(monkeypatch, rule, s, m, n_seed):
    seed = known_seed(n_seed)
    # the oracle: every (choice, ell, pi) cell of the walk, and the cells
    # none of whose rows an earlier cell has, in walk order
    seen, cells, first = set(), [], []
    for params, orders, K, _, values in enumerate_rule(rule, s, m, seed=seed):
        for pi, rows in zip(orders, np.split(values, len(orders))):
            keys = {sequence_key(row) for row in rows}
            cells.append(_cell(params, pi))
            if not keys & seen:
                first.append(cells[-1])
            seen |= keys
    encoded, expanded = [], []
    members = qam._members

    def encode_spy(stack, pis=None):
        encoded.extend(_cell(params, pi) for params in stack for pi in pis)
        return encode_family(stack, pis)

    def members_spy(base, pis, K, z):
        expanded.append(len(base))
        return members(base, pis, K, z)

    monkeypatch.setattr(qam, "encode_family", encode_spy)
    monkeypatch.setattr(qam, "_members", members_spy)
    walk = qam._blocks(rule, s, m, seed, distinct=True)
    assert [_cell(params, pi) for params, orders, *_ in walk for pi in orders] == first
    # each cell's first output is encoded once; only the first cells' are turned
    assert encoded == cells
    assert sum(expanded) == len(first)


def test_distinct_walk_refuses_a_zero_seed_sequence():
    seed = SeedPair([0], [1])
    # each group of this walk holds 8 distinct words, not 4^(m+1) = 64
    assert sum(len(values) for *_, values in enumerate_rule("green", 1, 2, seed=seed)) == 128
    with pytest.raises(ValueError, match="zero") as info:
        distinct_sequences("green", 1, 2, seed=seed)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match="zero"):
        next(distinct_blocks("yellow", 2, 2, seed=SeedPair([1, 0], [0, 0])))


def test_walk_is_refused_before_its_orders_are_listed():
    # green s=1 m=9 has 9! orders; listing them before the refusal held 77.5 MiB
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="guard"):
            distinct_sequences("green", 1, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    # the exact count of m = 10^4 has more digits than Python writes out
    with pytest.raises(GuardError, match=str(qam.MAX_COUNT_VARS)):
        distinct_sequences("green", 1, 10**4)


@pytest.mark.parametrize("rule, s", [("cyan", 2), ("yellow", 1), ("blue", 1), ("orange", 1)])
def test_walk_without_choices_lists_no_orders(rule, s):
    # no admissible choice at this s: the walk listed all 9! orders (26 MB) to yield nothing
    tracemalloc.start()
    try:
        assert distinct_sequences(rule, s, 9) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_distinct_walk_peak_does_not_grow_with_the_walk():
    # one fixed bound for a walk of 9,216 rows and one of 196,608 (50 MB of
    # rows, 31 MB of them distinct): no row store, one block at a time
    bound = 4 << 20
    for m, distinct in ((3, 6144), (4, 122_880)):
        tracemalloc.start()
        try:
            assert sum(map(len, distinct_blocks("yellow", 2, m))) == distinct
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
    assert 122_880 * 16 * 16 > 7 * bound


def _dedup_pool():
    """The (rule, s, m) jobs of the benchmark's family-dedup workload, read from its source."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "DEDUP_POOL")


def test_count_makes_no_members(monkeypatch):
    def members_spy(*args):
        raise AssertionError("the count made members")

    monkeypatch.setattr(qam, "_members", members_spy)
    assert distinct_sequences("yellow", 2, 3) == count_sequences("yellow", 2, 3).count
    assert distinct_sequences("cyan", 3, 2, seed=known_seed(4)) == count_sequences(
        "cyan", 3, 2, "N>1").count


@pytest.mark.parametrize("rule, s, m, n_seed", [
    *((rule, s, m, 1) for rule, s, m in _dedup_pool()),
    *((rule, 3 if rule == "cyan" else 2, m, n) for rule in qam.RULES for m in (1, 2, 3)
      for n in (1, 2, 3, 4)),
])
def test_count_equals_the_member_walk(rule, s, m, n_seed):
    seed = known_seed(n_seed)
    rows = sum(map(len, distinct_blocks(rule, s, m, seed=seed)))
    assert rows and distinct_sequences(rule, s, m, seed=seed) == rows


# 5.9e7 to 5.7e8 combinations: the count admits these (tests/test_cli.py)
@pytest.mark.parametrize("rule, s, m", [
    ("yellow", 2, 6), ("blue", 2, 6), ("orange", 2, 6), ("cyan", 3, 5), ("green", 1, 7),
])
def test_member_walks_refuse_what_the_count_admits(rule, s, m):
    for walk in (enumerate_rule, distinct_blocks):
        with pytest.raises(GuardError, match="combinations"):
            next(walk(rule, s, m))


def test_count_guards_the_key_bytes(monkeypatch):
    # green s=1 m=2: 2 cells, each a 64-byte key and its overhead
    held = 2 * (64 + qam._KEY_OVERHEAD)
    monkeypatch.setattr(qam, "WALK_KEY_BYTES", held - 1)
    with pytest.raises(GuardError, match=f"key bytes at m=2: {held} exceeds the guard limit"):
        distinct_sequences("green", 1, 2)
    monkeypatch.setattr(qam, "WALK_KEY_BYTES", held)
    assert distinct_sequences("green", 1, 2) == 64



def test_count_peak_stays_near_one_encode():
    # green s=1 m=7: one group of 5,040 orders, encoded in runs of 64, and
    # 5.2 MB of distinct keys; as one encode the walk's traced peak was 79 MB
    tracemalloc.start()
    try:
        assert distinct_sequences("green", 1, 7) == count_sequences("green", 1, 7).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20
