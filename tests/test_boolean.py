import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csforge.boolean import BooleanPolynomial, bits_to_index, index_to_bits, xor_expand


def var(m, j):
    return BooleanPolynomial.variable(m, j)


def test_bit_index_bijection():
    for m in (1, 2, 3, 4):
        seen = set()
        for bits in itertools.product((0, 1), repeat=m):
            x = bits_to_index(bits)
            assert index_to_bits(x, m) == bits
            seen.add(x)
        assert seen == set(range(2**m))


def test_first_bit_is_most_significant():
    assert bits_to_index((1, 0, 0)) == 4
    assert index_to_bits(4, 3) == (1, 0, 0)


def test_single_monomial_eval():
    f = var(2, 1) * var(2, 2)
    assert f.evaluate((1, 1)) == 1.0
    assert f.evaluate((1, 0)) == 0.0


def test_product_table():
    f = var(2, 1) * var(2, 2)
    assert np.array_equal(f.table(), [0, 0, 0, 1])


def test_basis_tables_m3():
    # single variable x_3 toggles fastest
    assert np.array_equal(var(3, 3).table(), [0, 1, 0, 1, 0, 1, 0, 1])
    # mod-2 sum of x_2 and x_1
    mixed = xor_expand(var(3, 2), var(3, 1))
    assert np.array_equal(mixed.table(), [0, 0, 1, 1, 1, 1, 0, 0])
    assert np.array_equal(xor_expand(var(3, 1), var(3, 3)).table(),
                          [0, 1, 0, 1, 1, 0, 1, 0])
    ones = BooleanPolynomial.constant(3, 1.0)
    assert np.array_equal(ones.table(), np.ones(8))


def test_xor_expand_coefficients():
    f = xor_expand(var(2, 1), var(2, 2))
    assert f.coeffs == {0b10: 1.0, 0b01: 1.0, 0b11: -2.0}


def test_xor_expand_self_cancels():
    f = var(3, 2)
    assert xor_expand(f, f).coeffs == {}


def test_xor_expand_identity_case():
    zero = BooleanPolynomial.constant(2, 0.0)
    f = xor_expand(var(2, 1), zero, scale=5.0)
    assert f.coeffs == {0b10: 5.0}


def test_xor_expand_rejects_non_boolean():
    with pytest.raises(ValueError):
        xor_expand(2.0 * var(2, 1), var(2, 2))


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        var(3, 1).evaluate((0, 1))


def test_mask_out_of_range():
    with pytest.raises(ValueError):
        BooleanPolynomial(2, {4: 1.0})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xor_identity_exhaustive(m):
    rng = np.random.default_rng(m)
    for _ in range(25):
        ft = rng.integers(0, 2, 2**m)
        gt = rng.integers(0, 2, 2**m)
        c = float(rng.uniform(-3, 3))
        f = BooleanPolynomial.from_table(ft)
        g = BooleanPolynomial.from_table(gt)
        combined = xor_expand(f, g, c)
        expected = c * ((ft + gt) % 2)
        assert np.allclose(combined.table(), expected, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_difference_identity_exhaustive(m):
    # c*f - c*g equals the mod-2 split c*(f(1+g))_2 - c*((1+f)g)_2, and the
    # minus variant works without any reduction at all
    rng = np.random.default_rng(10 + m)
    for _ in range(25):
        ft = rng.integers(0, 2, 2**m)
        gt = rng.integers(0, 2, 2**m)
        c = float(rng.uniform(-3, 3))
        f = BooleanPolynomial.from_table(ft)
        g = BooleanPolynomial.from_table(gt)
        fg = f * g
        plus = c * xor_expand(f, fg) - c * xor_expand(g, fg)
        minus = c * (f - fg) - c * (g - fg)
        expected = c * (ft - gt)
        assert np.allclose(plus.table(), expected, atol=1e-12)
        assert np.allclose(minus.table(), expected, atol=1e-12)


def test_table_eval_round_trip():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3, 4):
        coeffs = {int(mask): float(rng.normal()) for mask in rng.integers(0, 2**m, 5)}
        f = BooleanPolynomial(m, coeffs)
        t = f.table()
        for x in range(2**m):
            assert t[x] == pytest.approx(f.evaluate(index_to_bits(x, m)), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_from_table_interpolates_exactly(m, data):
    values = data.draw(st.lists(st.integers(-4, 4), min_size=2**m, max_size=2**m))
    f = BooleanPolynomial.from_table(values)
    assert np.array_equal(f.table(), np.asarray(values, dtype=float))


@pytest.mark.parametrize("call, message", [
    (lambda: bits_to_index((0, 2)), "bits must be 0 or 1, got 2"),
    (lambda: index_to_bits(4, 2), "index 4 out of range for m=2"),
    (lambda: BooleanPolynomial(0, {}), "need at least one variable"),
    (lambda: var(2, 3), "variable index 3 out of range for m=2"),
    (lambda: BooleanPolynomial.from_table([1, 0, 1]), "table length must be a power of two"),
    (lambda: var(2, 1) + var(3, 1), "variable counts differ"),
    (lambda: var(2, 1) * var(3, 1), "variable counts differ"),
])
def test_out_of_range_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_immutability():
    f = var(2, 1)
    with pytest.raises(AttributeError):
        f.m = 3
