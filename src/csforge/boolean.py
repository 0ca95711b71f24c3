"""Multilinear polynomials on {0,1}^m and their length-2^m value tables.

Functions from {0,1}^m to the reals are kept in algebraic normal form: a
sparse map from monomial masks to real coefficients.  The index bijection
is x = sum_j x_j * 2^(m-j), so x_1 is the most significant bit of a table
index, and bit (m-j) of a monomial mask selects the variable x_j.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "BooleanPolynomial",
    "bits_to_index",
    "index_to_bits",
    "xor_expand",
]

_BOOL_TOL = 1e-9


def bits_to_index(bits: Iterable[int]) -> int:
    """Table index of the bit vector (x_1, ..., x_m), x_1 most significant."""
    x = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        x = (x << 1) | b
    return x


def index_to_bits(x: int, m: int) -> tuple[int, ...]:
    """Bit vector (x_1, ..., x_m) of a table index in [0, 2^m)."""
    if not 0 <= x < (1 << m):
        raise ValueError(f"index {x} out of range for m={m}")
    return tuple((x >> (m - j)) & 1 for j in range(1, m + 1))


class BooleanPolynomial:
    """Immutable real-coefficient multilinear polynomial in m binary variables."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Mapping[int, float]):
        if m < 1:
            raise ValueError("need at least one variable")
        limit = 1 << m
        clean: dict[int, float] = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < limit:
                raise ValueError(f"monomial mask {mask} out of range for m={m}")
            c = float(c)
            if c != 0.0:
                clean[int(mask)] = c
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BooleanPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, m: int, value: float) -> "BooleanPolynomial":
        return cls(m, {0: value})

    @classmethod
    def variable(cls, m: int, j: int) -> "BooleanPolynomial":
        """The coordinate function x_j, 1-indexed."""
        if not 1 <= j <= m:
            raise ValueError(f"variable index {j} out of range for m={m}")
        return cls(m, {1 << (m - j): 1.0})

    @classmethod
    def from_table(cls, values) -> "BooleanPolynomial":
        """Interpolate the unique multilinear polynomial matching a value table.

        Uses the subset Moebius transform, which is exact for integer tables.
        """
        vals = np.array(values, dtype=float)
        n = len(vals)
        m = n.bit_length() - 1
        if n != 1 << m or n < 2:
            raise ValueError("table length must be a power of two, at least 2")
        for j in range(m):
            bit = 1 << j
            for mask in range(n):
                if mask & bit:
                    vals[mask] -= vals[mask ^ bit]
        return cls(m, {k: v for k, v in enumerate(vals) if v != 0.0})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, bits: Iterable[int]) -> float:
        """Value at one point of {0,1}^m."""
        bits = tuple(bits)
        if len(bits) != self.m:
            raise ValueError(f"expected {self.m} bits, got {len(bits)}")
        x = bits_to_index(bits)
        val = 0.0
        for mask, c in self.coeffs.items():
            if (x & mask) == mask:
                val += c
        return val

    def table(self) -> np.ndarray:
        """Values at all 2^m points, index x holding the value at bits-of-x."""
        idx = np.arange(1 << self.m)
        out = np.zeros(1 << self.m)
        for mask, c in self.coeffs.items():
            out[(idx & mask) == mask] += c
        return out

    def is_boolean_valued(self, tol: float = _BOOL_TOL) -> bool:
        """True when every table entry is 0 or 1."""
        raw = self.table()
        return bool(np.all((np.abs(raw) <= tol) | (np.abs(raw - 1.0) <= tol)))

    # -- algebra (all operations return new objects) -----------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = BooleanPolynomial.constant(self.m, other)
        if other.m != self.m:
            raise ValueError("variable counts differ")
        coeffs = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            coeffs[mask] = coeffs.get(mask, 0.0) + c
        return BooleanPolynomial(self.m, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return BooleanPolynomial(self.m, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return BooleanPolynomial(self.m, {k: c * other for k, c in self.coeffs.items()})
        if other.m != self.m:
            raise ValueError("variable counts differ")
        coeffs: dict[int, float] = {}
        # x_j is idempotent, so the product of two monomials is their mask union
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                mask = ka | kb
                coeffs[mask] = coeffs.get(mask, 0.0) + ca * cb
        return BooleanPolynomial(self.m, coeffs)

    __rmul__ = __mul__

    def __repr__(self):
        terms = ", ".join(f"{mask:#b}: {c:g}" for mask, c in sorted(self.coeffs.items()))
        return f"BooleanPolynomial(m={self.m}, {{{terms}}})"


def xor_expand(f: BooleanPolynomial, g: BooleanPolynomial, scale: float = 1.0) -> BooleanPolynomial:
    """Multilinear expansion of scale * ((f + g) mod 2) for 0/1-valued f and g.

    The mod-2 sum of two indicator-valued polynomials expands exactly to
    f + g - 2*f*g, which stays exact in floating point for small integers.
    """
    if not f.is_boolean_valued() or not g.is_boolean_valued():
        raise ValueError("xor_expand needs 0/1-valued operands")
    out = f + g - 2.0 * (f * g)
    return scale * out
