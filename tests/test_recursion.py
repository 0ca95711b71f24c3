import itertools

import numpy as np
import pytest

from csforge.boolean import BooleanPolynomial, xor_expand
from csforge.recursion import (
    MAX_SYMBOLIC_VARS,
    all_configs,
    construction_function,
    expand_recursion,
    operator_config,
    pi_from_psi,
)

SIGN_CONFIG = (0, 0, 0, 1)


def test_pi_from_psi():
    assert pi_from_psi((0, 1)) == (2, 1)
    assert pi_from_psi((2, 0, 1)) == (1, 3, 2)
    with pytest.raises(ValueError):
        pi_from_psi((0, 0, 1))


def test_sign_config_step_tables_m2():
    psi = (0, 1)
    assert np.array_equal(construction_function(1, SIGN_CONFIG, psi, "f").table(),
                          [0, 0, 0, 1])
    assert np.array_equal(construction_function(2, SIGN_CONFIG, psi, "f").table(),
                          [0, 0, 0, 0])
    assert np.array_equal(construction_function(2, SIGN_CONFIG, psi, "g").table(),
                          [0, 0, 1, 1])


def test_sign_config_first_step_is_product_anf():
    # step below the top expands to the product of the two ordered variables
    f = construction_function(1, SIGN_CONFIG, (0, 1), "f")
    assert f.coeffs == {0b11: 1.0}


def test_symbolic_expand_reference_pattern():
    f_idx, g_idx = expand_recursion([SIGN_CONFIG, SIGN_CONFIG], (0, 1))
    assert np.array_equal(f_idx[:, 0], [0, 0, 0, 1])
    assert np.array_equal(f_idx[:, 1], [0, 0, 0, 0])
    assert np.array_equal(g_idx[:, 0], [0, 0, 0, 1])
    assert np.array_equal(g_idx[:, 1], [0, 0, 1, 1])


def test_symbolic_expand_single_step():
    f_idx, g_idx = expand_recursion([(0, 1, 0, 1)], (0,))
    assert np.array_equal(f_idx[:, 0], [0, 1])
    assert np.array_equal(g_idx[:, 0], [0, 1])


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_matches_oracle_exhaustive(m):
    for psi in itertools.permutations(range(m)):
        for configs in itertools.product(all_configs(), repeat=m):
            f_idx, g_idx = expand_recursion(configs, psi)
            for n in range(1, m + 1):
                ft = construction_function(n, configs[n - 1], psi, "f").table()
                gt = construction_function(n, configs[n - 1], psi, "g").table()
                assert np.array_equal(ft, f_idx[:, n - 1])
                assert np.array_equal(gt, g_idx[:, n - 1])


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_matches_oracle_sampled(m):
    rng = np.random.default_rng(m)
    configs_pool = all_configs()
    for psi in itertools.permutations(range(m)):
        for _ in range(20):
            configs = [configs_pool[rng.integers(16)] for _ in range(m)]
            f_idx, g_idx = expand_recursion(configs, psi)
            for n in range(1, m + 1):
                assert np.array_equal(
                    construction_function(n, configs[n - 1], psi, "f").table(),
                    f_idx[:, n - 1],
                )
                assert np.array_equal(
                    construction_function(n, configs[n - 1], psi, "g").table(),
                    g_idx[:, n - 1],
                )


def test_construction_functions_are_boolean_valued():
    for psi in itertools.permutations(range(3)):
        for config in all_configs():
            for n in (1, 2, 3):
                for branch in ("f", "g"):
                    poly = construction_function(n, config, psi, branch)
                    assert poly.is_boolean_valued()


def test_degenerate_configs():
    for psi in itertools.permutations(range(3)):
        for n in (1, 2, 3):
            for branch in ("f", "g"):
                zero = construction_function(n, (0, 0, 0, 0), psi, branch)
                ones = construction_function(n, (1, 1, 1, 1), psi, branch)
                assert np.array_equal(zero.table(), np.zeros(8))
                assert np.array_equal(ones.table(), np.ones(8))


def test_operator_config_table():
    assert operator_config("scale_a") == (1, 0, 0, 1)
    assert operator_config("scale_b") == (0, 1, 1, 0)
    assert operator_config("sign") == (0, 0, 0, 1)
    assert operator_config("phase_a") == (1, 0, 0, 0)
    assert operator_config("phase_a_conj") == (0, 0, 0, 1)
    assert operator_config("phase_b") == (0, 1, 0, 0)
    assert operator_config("phase_b_conj") == (0, 0, 1, 0)
    assert operator_config("phase_joint") == (0, 1, 0, 1)
    assert operator_config("shift") == (0, 1, 0, 1)
    assert operator_config("order_a") == (1, 0, 1, 0)
    assert operator_config("order_b") == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        operator_config("mystery")


def test_scale_a_inner_step_expansion():
    # the scale_a slot pattern expands to the mod-2 complement of a pair sum
    psi = (0, 1, 2)
    pi = pi_from_psi(psi)
    m = 3
    poly = construction_function(1, operator_config("scale_a"), psi, "f")
    xa = BooleanPolynomial.variable(m, pi[0])
    xb = BooleanPolynomial.variable(m, pi[1])
    complement = 1 - xor_expand(xa, xb)
    assert np.array_equal(poly.table(), complement.table())


def test_order_slot_pattern_all_steps():
    psi = (1, 0, 2)
    pi = pi_from_psi(psi)
    for n in (1, 2, 3):
        fa = construction_function(n, operator_config("order_a"), psi, "f")
        fb = construction_function(n, operator_config("order_b"), psi, "f")
        x = BooleanPolynomial.variable(3, pi[n - 1])
        assert np.array_equal(fa.table(), (1 - x).table())
        assert np.array_equal(fb.table(), x.table())


def test_shared_slot_pattern_matches_between_branches():
    # slots (0,1,0,1) drive both branches with the same variable
    psi = (2, 1, 0)
    for n in (1, 2, 3):
        f = construction_function(n, operator_config("shift"), psi, "f")
        g = construction_function(n, operator_config("shift"), psi, "g")
        assert np.array_equal(f.table(), g.table())


def test_validation_errors():
    with pytest.raises(ValueError):
        construction_function(0, SIGN_CONFIG, (0, 1))
    with pytest.raises(ValueError):
        construction_function(3, SIGN_CONFIG, (0, 1))
    with pytest.raises(ValueError):
        construction_function(1, (0, 1, 2, 1), (0, 1))
    with pytest.raises(ValueError):
        construction_function(1, SIGN_CONFIG, (0, 1), branch="h")
    with pytest.raises(ValueError):
        expand_recursion([SIGN_CONFIG], (0, 1))


def test_configuration_entries_are_not_truncated():
    with pytest.raises(ValueError, match="integer"):
        construction_function(1, (0.5, 0, 0, 1.9), (0, 1))
    with pytest.raises(ValueError, match="integer"):
        expand_recursion([(0.7, 0, 0, 1), (0, 0, 0, 1)], (0, 1))
    # integral floats read as their integers
    assert np.array_equal(construction_function(1, (0.0, 0, 0, 1.0), (0, 1)).table(),
                          construction_function(1, SIGN_CONFIG, (0, 1)).table())


def test_symbolic_size_cap():
    m = MAX_SYMBOLIC_VARS + 1
    with pytest.raises(ValueError):
        expand_recursion([SIGN_CONFIG] * m, tuple(range(m)))
