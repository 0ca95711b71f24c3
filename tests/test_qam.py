import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import reference_distinct_keys, reference_walk
from csforge import (
    RecursionParams,
    encode_family,
    encode_pair,
    is_gcp,
    known_seed,
    qam,
    recursion_to_encoder,
)
from csforge.qam import (
    EnumerationLimitError,
    QamGeometry,
    RuleSpec,
    count_sequences,
    distinct_sequences,
    distinct_values,
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
        geo = QamGeometry(s)
        assert geo.n_quadrant == s * s
        assert geo.n_diagonal == s
        assert geo.n_offdiagonal == s * (s - 1) // 2
        assert geo.n_triangle == s * (s + 1) // 2
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
    spec = RuleSpec(rule="cyan", u=2, t=1, v=4, w=2, ell=2, sign_a=-1)
    via_spec = rule_params(spec, s=4, m=3)
    direct = qam.cyan_params(s=4, u=2, t=1, v=4, w=2, ell=2, m=3, sign_a=-1)
    assert via_spec == direct


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
            spec = RuleSpec(
                rule=rule,
                u=combo.get("u", 1),
                v=combo.get("v", 1),
                w=combo.get("w", 1),
                t=combo.get("t", 1),
                ell=ell,
                sign_a=combo.get("sign", combo.get("sign_a", 1)),
                sign_b=combo.get("sign_b", 1),
                rotate_b_half=combo.get("rotate_b_half", True),
                z=int(rng.integers(4)),
                k=k,
            )
            params = rule_params(spec, s, m, pi=pi)
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


def test_yellow_top_step_doubles_inner_steps():
    # the amplitude knob on the last step breaks the order-reversal pairing
    inner = distinct_sequences("yellow", 2, 2, ells=[1])
    top = distinct_sequences("yellow", 2, 2, ells=[2])
    assert top == 2 * inner


def test_single_variable_counts_undercount():
    # the closed forms assume the reversal pairing, which is void at m=1
    assert count_sequences("green", 1, 1).count == 8
    assert distinct_sequences("green", 1, 1) == 16


def test_enumeration_guard(monkeypatch):
    with pytest.raises(EnumerationLimitError):
        list(enumerate_rule("green", 1, 2, guard=10))
    monkeypatch.setenv(qam.ENUM_GUARD_ENV, "10")
    with pytest.raises(EnumerationLimitError):
        list(enumerate_rule("green", 1, 2))
    monkeypatch.setenv(qam.ENUM_GUARD_ENV, "1000")
    assert distinct_sequences("green", 1, 2) == 64


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
    seed = known_seed(n_seed)
    rows = [
        (params, K[i], z[i], values[i])
        for params, K, z, values in enumerate_rule(rule, s, m, pis=pis, seed=seed)
        for i in range(len(K))
    ]
    reference = list(reference_walk(rule, s, m, seed, pis))
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
    keys = [sequence_key(v) for v in distinct_values(rule, s, m, pis=pis, seed=seed)]
    assert keys == reference_distinct_keys(rule, s, m, seed, pis)


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
    family = encode_family(entry.build(k=None, z=0, **fixed), K, z)
    assert family.shape == (B, len(seed) << m)
    for i in range(B):
        expected = encode_pair(entry.build(k=tuple(K[i]), z=int(z[i]), **fixed)).c.values
        assert np.max(np.abs(family[i] - expected)) <= 1e-12
        assert sequence_key(family[i]) == sequence_key(expected)


def _two_halves_oracle(s, ell, m, pi, k, z, seed, half_a, half_b):
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


def test_dedup_memory_guard_raises_before_any_encode(monkeypatch):
    encodes = []

    def spy(params, K, z):
        encodes.append(params)
        return np.zeros((len(K), len(params.seed) << params.m), dtype=complex)

    monkeypatch.setattr(qam, "encode_family", spy)
    # green at s=8, m=4: 1,572,864 keys take at most 629 MB at length 16
    # and 1.84 GB at length 64, both under the count guard
    size = qam.enumeration_size("green", 8, 4)
    assert size <= qam.DEFAULT_ENUM_GUARD
    assert size * (16 * 16 + qam._KEY_OVERHEAD_BYTES) <= qam.MAX_DEDUP_BYTES
    assert size * (16 * 64 + qam._KEY_OVERHEAD_BYTES) > qam.MAX_DEDUP_BYTES
    with pytest.raises(EnumerationLimitError, match="bytes"):
        next(distinct_values("green", 8, 4, seed=known_seed(4)))
    assert encodes == []
    # the streaming walk holds one block at a time and is not refused
    next(enumerate_rule("green", 8, 4, seed=known_seed(4)))
    next(distinct_values("green", 8, 4))
    assert len(encodes) == 2
    # the guard counts only the orders and steps walked
    next(distinct_values("green", 8, 4, pis=[(1, 2, 3, 4)], seed=known_seed(4)))
    assert len(encodes) == 3


def test_distinct_rows_do_not_hold_their_block():
    rows = list(distinct_values("green", 1, 2))
    assert all(row.base is None for row in rows)


_EXHAUSTIVE = (
    # s = 3 is cyan's first non-empty family
    [(rule, 3, 2, 1) for rule in qam.RULES]
    + [(rule, s, 4, 1) for rule in qam.RULES for s in (1, 2)]
    # the N>1 class (A0 units), with the stock seeds of lengths 2 to 4
    + [(rule, s, 2, n) for rule in qam.RULES for s in (1, 2, 3) for n in (2, 3, 4)]
)


@pytest.mark.parametrize("rule, s, m, n_seed", _EXHAUSTIVE)
def test_dedup_matches_formula_exhaustive(rule, s, m, n_seed):
    n_class = "N=1" if n_seed == 1 else "N>1"
    distinct = distinct_sequences(rule, s, m, seed=known_seed(n_seed))
    assert distinct == count_sequences(rule, s, m, n_class).count
