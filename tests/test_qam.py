import math

import numpy as np
import pytest

from csforge import encode_pair, is_gcp, qam
from csforge.qam import (
    EnumerationLimitError,
    QamGeometry,
    RuleSpec,
    count_sequences,
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
    assert len(list(enumerate_rule(rule, s, m))) == qam.enumeration_size(rule, s, m)


def test_enumeration_is_deterministic():
    first = [sequence_key(v) for _, v in enumerate_rule("green", 1, 1)]
    second = [sequence_key(v) for _, v in enumerate_rule("green", 1, 1)]
    assert first == second


def test_sequence_key_normalizes():
    a = np.array([1.0 + 0j, -0.0 - 0.0j])
    b = np.array([1.0 + 1e-14j, 0.0 + 0.0j])
    assert sequence_key(a) == sequence_key(b)
