"""Complex coefficient sequences with explicit support, and the checks on knobs.

The element at index i is the coefficient of z^i in the polynomial view of
the sequence, so index order equals subcarrier order.  Zero entries are
structural: support is decided by exact comparison, never by rounding.

The checks below are the one definition of an admissible knob: a finite
real, an integer (integral floats such as 2.0 included), a list of m finite
reals, a permutation, m non-negative pads, and a tolerance.  Every entry
must be a real number: strings and booleans are refused, not converted.
``None`` in place of a list means its default: zeros, or the identity order.
``guard`` is the one resource refusal.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "ComplexSequence",
    "GuardError",
    "MAX_SEQUENCE_LENGTH",
    "as_array",
    "finite",
    "finite_steps",
    "guard",
    "integral",
    "pads",
    "permutation",
    "tolerance",
]


# Longest pair the encoder builds: 4M elements, 64 MiB per complex output.
MAX_SEQUENCE_LENGTH = 1 << 22


class GuardError(RuntimeError):
    """A job beyond a resource guard: a grid, pair, walk or codebook too large to build."""


def _size(n: int) -> str:
    # Python writes no integer of more than 4,300 digits: give a large one's size
    return str(n) if n <= 1 << 64 else f"at least 2^{n.bit_length() - 1}"


def guard(need, limit, what: str) -> None:
    """Return when ``need <= limit``; otherwise raise GuardError, naming ``what``."""
    need, limit = int(need), int(limit)
    if need > limit:
        raise GuardError(f"{what}: {_size(need)} exceeds the guard limit of {_size(limit)}")


class ComplexSequence:
    """A finite complex sequence plus queries about its nonzero structure."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise ValueError("sequence must not be empty")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexSequence is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, ComplexSequence):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"ComplexSequence(len={len(self)}, support={len(self.support)})"

    @property
    def support(self) -> np.ndarray:
        """Indices of exactly nonzero entries."""
        return np.flatnonzero(self.values != 0)

    def clusters(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive support indices as (start, stop) pairs.

        ``stop`` is exclusive, so a run's length is stop - start.
        """
        sup = self.support
        if len(sup) == 0:
            return []
        breaks = np.flatnonzero(np.diff(sup) > 1)
        starts = np.concatenate(([sup[0]], sup[breaks + 1]))
        stops = np.concatenate((sup[breaks] + 1, [sup[-1] + 1]))
        return [(int(a), int(b)) for a, b in zip(starts, stops)]


def as_array(seq) -> np.ndarray:
    """Coerce a ComplexSequence or array-like to a 1-D complex ndarray."""
    if isinstance(seq, ComplexSequence):
        return seq.values
    arr = np.asarray(seq, dtype=complex).reshape(-1)
    return arr


def _number(value, name: str):
    """``value``, refusing the strings and booleans that float() and operator.index() take."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise ValueError(f"{name} takes numbers only, got {value!r}")
    return value


def finite(value, name: str) -> float:
    """``value`` as a float; nan, the infinities and integers beyond float range are refused."""
    try:
        value = float(_number(value, name))
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number beyond float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def integral(value, name: str) -> int:
    """``value`` as an int; integral floats such as 2.0 pass, 1.7 is refused."""
    try:
        return operator.index(_number(value, name))
    except TypeError:
        number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def finite_steps(values, m: int, name: str) -> tuple[float, ...]:
    """``m`` finite reals; ``None`` means ``m`` zeros."""
    if values is None:
        return (0.0,) * m
    out = tuple(finite(v, name) for v in values)
    if len(out) != m:
        raise ValueError(f"{name} must have {m} entries, got {len(out)}")
    return out


def tolerance(tol) -> float:
    """``tol`` as a float; nan, the infinities and negative values are refused."""
    value = finite(tol, "tol")
    if value < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    return value


def permutation(values, m: int, first: int, name: str) -> tuple[int, ...]:
    """A permutation of first..first+m-1; ``None`` means the identity order."""
    if values is None:
        return tuple(range(first, first + m))
    out = tuple(integral(v, name) for v in values)
    if sorted(out) != list(range(first, first + m)):
        raise ValueError(f"{name} must be a permutation of {first}..{first + m - 1}, got {out}")
    return out


def pads(values, m: int, name: str) -> tuple[int, ...]:
    """``m`` non-negative integer pads; ``None`` means ``m`` zeros."""
    if values is None:
        return (0,) * m
    out = tuple(integral(v, name) for v in values)
    if len(out) != m or any(v < 0 for v in out):
        raise ValueError(f"{name} must be m non-negative integers")
    return out
