"""Closed-form synthesis of complementary sequence pairs.

Five multilinear component functions over the block index drive the encoder:
two amplitude exponents (one per output), two phase exponents, and a shift
function that pads zeros between seed copies.  The same pairs can be built by
literally running the underlying two-branch recursion; ``run_recursion`` does
exactly that and acts as the independent oracle for ``encode_pair``, with
``recursion_to_encoder`` translating between the two parameter sets.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from .analysis import GCP_TOL, is_gcp
from .boolean import BooleanPolynomial, xor_expand
from .sequences import ComplexSequence, as_array

__all__ = [
    "ComponentFunctions",
    "EncodedPair",
    "EncoderParams",
    "MAX_SEQUENCE_LENGTH",
    "RecursionParams",
    "SeedPair",
    "SequenceLengthError",
    "component_functions",
    "encode_pair",
    "known_seed",
    "recursion_to_encoder",
    "run_recursion",
]

MAX_ENCODE_VARS = 16

# Longest pair the encoder builds: 4M elements, 64 MiB per complex output.
MAX_SEQUENCE_LENGTH = 1 << 22


class SequenceLengthError(RuntimeError):
    """Raised when the requested pair exceeds ``MAX_SEQUENCE_LENGTH``."""


class SeedPair:
    """A verified complementary pair used to seed the synthesis.

    Construction fails unless the off-peak autocorrelations cancel within
    ``tol`` relative to the combined zero-lag energy.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b, tol: float = GCP_TOL):
        a = ComplexSequence(as_array(a))
        b = ComplexSequence(as_array(b))
        if len(a) != len(b):
            raise ValueError(f"seed lengths differ: {len(a)} vs {len(b)}")
        check = is_gcp(a, b, tol)
        if not check.ok:
            raise ValueError(
                f"seed pair is not complementary: residual {check.residual:.3e} > {tol:.1e}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("SeedPair is immutable")

    def __len__(self) -> int:
        return len(self.a)

    def __eq__(self, other):
        if not isinstance(other, SeedPair):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"SeedPair(length={len(self)})"


_KNOWN_SEEDS = {
    1: ((1,), (1,)),
    2: ((1, 1), (1, -1)),
    3: ((1, 1j, 1), (1, 1, -1)),
    4: ((1, 1, 1, -1), (1, 1, -1, 1)),
}


def known_seed(length: int) -> SeedPair:
    """A stock complementary pair of the requested length (1 to 4)."""
    try:
        a, b = _KNOWN_SEEDS[length]
    except KeyError:
        raise ValueError(f"no stock seed of length {length}; have {sorted(_KNOWN_SEEDS)}") from None
    return SeedPair(a, b)


def _finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def integral(value, name: str) -> int:
    """``value`` as an int; integral floats such as 2.0 pass, 1.7 is refused."""
    try:
        return operator.index(value)
    except TypeError:
        number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _as_float_tuple(values, m: int, name: str) -> tuple[float, ...]:
    out = tuple(_finite(v, name) for v in values)
    if len(out) != m:
        raise ValueError(f"{name} must have {m} entries, got {len(out)}")
    return out


def _check_length(seed: SeedPair, m: int, pads: tuple[int, ...]) -> None:
    length = len(seed) * (1 << m) + sum(pads)
    if length > MAX_SEQUENCE_LENGTH:
        raise SequenceLengthError(
            f"pair length {length} exceeds the limit of {MAX_SEQUENCE_LENGTH}"
        )


@dataclass(frozen=True)
class EncoderParams:
    """Full parameter set of the closed-form pair encoder.

    ``pi`` orders the block-index bits; ``e``/``e_prime`` are amplitude
    exponents (free reals); ``k``/``k_prime``/``k_dprime`` are phase steps,
    normalized into [0, H); ``d`` holds non-negative zero-padding amounts.
    """

    m: int
    H: int
    pi: tuple[int, ...]
    e: tuple[float, ...]
    e_prime: float
    k: tuple[float, ...]
    k_prime: float
    k_dprime: float
    d: tuple[int, ...]
    seed: SeedPair

    def __post_init__(self):
        m = integral(self.m, "m")
        if m < 1 or m > MAX_ENCODE_VARS:
            raise ValueError(f"m must be in 1..{MAX_ENCODE_VARS}")
        H = integral(self.H, "H")
        if H <= 0 or H % 2 != 0:
            raise ValueError(f"H must be a positive even integer, got {self.H}")
        pi = tuple(integral(v, "pi") for v in self.pi)
        if sorted(pi) != list(range(1, m + 1)):
            raise ValueError(f"pi must be a permutation of 1..{m}, got {pi}")
        d = tuple(integral(v, "d") for v in self.d)
        if len(d) != m or any(v < 0 for v in d):
            raise ValueError("d must be m non-negative integers")
        seed = self.seed
        if not isinstance(seed, SeedPair):
            seed = SeedPair(*seed)
        _check_length(seed, m, d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "e", _as_float_tuple(self.e, m, "e"))
        object.__setattr__(self, "e_prime", _finite(self.e_prime, "e_prime"))
        object.__setattr__(self, "k", tuple(v % H for v in _as_float_tuple(self.k, m, "k")))
        object.__setattr__(self, "k_prime", _finite(self.k_prime, "k_prime") % H)
        object.__setattr__(self, "k_dprime", _finite(self.k_dprime, "k_dprime") % H)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def basic(cls, m, H, pi=None, e=None, e_prime=0.0, k=None, k_prime=0.0,
              k_dprime=0.0, d=None, seed=None) -> "EncoderParams":
        """Build params with zero defaults and a trivial length-1 seed."""
        pi = tuple(pi) if pi is not None else tuple(range(1, m + 1))
        return cls(
            m=m,
            H=H,
            pi=pi,
            e=tuple(e) if e is not None else (0.0,) * m,
            e_prime=e_prime,
            k=tuple(k) if k is not None else (0.0,) * m,
            k_prime=k_prime,
            k_dprime=k_dprime,
            d=tuple(d) if d is not None else (0,) * m,
            seed=seed if seed is not None else known_seed(1),
        )

    def replace(self, **changes) -> "EncoderParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class RecursionParams:
    """Per-step knobs of the two-branch recursion.

    ``scale_a``/``scale_b`` are exponents of the real scalars, the three
    phase lists are steps on the H-th roots of unity, ``shifts`` pads the
    second operand, and ``psi`` orders the power-of-two spreading factors.
    """

    H: int
    psi: tuple[int, ...]
    scale_a: tuple[float, ...]
    scale_b: tuple[float, ...]
    phase_a: tuple[float, ...]
    phase_b: tuple[float, ...]
    phase_joint: tuple[float, ...]
    shifts: tuple[int, ...]
    seed: SeedPair

    def __post_init__(self):
        m = len(self.psi)
        H = integral(self.H, "H")
        if H <= 0 or H % 2 != 0:
            raise ValueError(f"H must be a positive even integer, got {self.H}")
        psi = tuple(integral(v, "psi") for v in self.psi)
        if sorted(psi) != list(range(m)):
            raise ValueError(f"psi must be a permutation of 0..{m - 1}, got {psi}")
        shifts = tuple(integral(v, "shifts") for v in self.shifts)
        if len(shifts) != m or any(v < 0 for v in shifts):
            raise ValueError("shifts must be m non-negative integers")
        seed = self.seed
        if not isinstance(seed, SeedPair):
            seed = SeedPair(*seed)
        _check_length(seed, m, shifts)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "scale_a", _as_float_tuple(self.scale_a, m, "scale_a"))
        object.__setattr__(self, "scale_b", _as_float_tuple(self.scale_b, m, "scale_b"))
        object.__setattr__(self, "phase_a", _as_float_tuple(self.phase_a, m, "phase_a"))
        object.__setattr__(self, "phase_b", _as_float_tuple(self.phase_b, m, "phase_b"))
        object.__setattr__(self, "phase_joint", _as_float_tuple(self.phase_joint, m, "phase_joint"))
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "seed", seed)

    @property
    def m(self) -> int:
        return len(self.psi)

    @classmethod
    def neutral(cls, m, H, psi=None, seed=None, **overrides) -> "RecursionParams":
        """All-zero knobs; keyword overrides replace whole per-step lists."""
        fields = {
            "scale_a": (0.0,) * m,
            "scale_b": (0.0,) * m,
            "phase_a": (0.0,) * m,
            "phase_b": (0.0,) * m,
            "phase_joint": (0.0,) * m,
            "shifts": (0,) * m,
        }
        fields.update(overrides)
        return cls(
            H=H,
            psi=tuple(psi) if psi is not None else tuple(range(m)),
            seed=seed if seed is not None else known_seed(1),
            **fields,
        )


class ComponentFunctions(NamedTuple):
    """The five position functions driving the encoder."""

    amp_c: BooleanPolynomial
    amp_d: BooleanPolynomial
    phase_c: BooleanPolynomial
    phase_d: BooleanPolynomial
    shift: BooleanPolynomial


def component_functions(params: EncoderParams) -> ComponentFunctions:
    """Build the amplitude, phase, and shift functions of the block index.

    The mod-2 sums inside the amplitude functions and the parity inside the
    second phase function are expanded into exact multilinear form, so the
    tables can be read off directly.
    """
    p = params
    m = p.m
    half_h = p.H / 2.0
    var = lambda j: BooleanPolynomial.variable(m, j)
    one = BooleanPolynomial.constant(m, 1.0)

    x_last = var(p.pi[m - 1])
    pair_sum = BooleanPolynomial.constant(m, 0.0)
    for n in range(m - 1):
        pair_sum = pair_sum + xor_expand(var(p.pi[n]), var(p.pi[n + 1]), p.e[n])

    amp_c = p.e[m - 1] * x_last + pair_sum + p.e_prime
    amp_d = p.e[m - 1] * (one - x_last) + pair_sum + p.e_prime

    linear = BooleanPolynomial.constant(m, 0.0)
    for n in range(m):
        linear = linear + p.k[n] * var(p.pi[n])
    quad = BooleanPolynomial.constant(m, 0.0)
    for n in range(m - 1):
        quad = quad + var(p.pi[n]) * var(p.pi[n + 1])

    phase_c = half_h * quad + linear + p.k_prime
    # the second output wraps its sign terms mod 2 before the H/2 scaling
    parity = reduce(xor_expand, [var(p.pi[n]) * var(p.pi[n + 1]) for n in range(m - 1)], x_last)
    phase_d = half_h * parity + linear + p.k_dprime

    shift = BooleanPolynomial.constant(m, 0.0)
    for n in range(m):
        shift = shift + p.d[n] * var(p.pi[n])

    return ComponentFunctions(amp_c, amp_d, phase_c, phase_d, shift)


class EncodedPair(NamedTuple):
    """Encoder output: the sequence pair plus an overlap diagnostic."""

    c: ComplexSequence
    d: ComplexSequence
    overlap: bool


def encode_pair(params: EncoderParams) -> EncodedPair:
    """Synthesize a complementary pair of length N * 2^m + sum(d).

    Each block index x contributes one copy of seed a or b, scaled by the
    amplitude/phase coefficient of that output, placed at degree offset
    shift(x) + x*N.  Colliding placements are summed, which keeps the pair
    complementary; ``overlap`` reports whether any collision happened.

    The five component tables are read straight off the index bits
    b_n = bit pi_n of x: with q = sum b_n b_(n+1),

        amp_c   = e_m b_m + sum e_n (b_n xor b_(n+1)) + e'
        amp_d   = the same with 1 - b_m in place of b_m
        phase_c = (H/2) q + sum k_n b_n + k'
        phase_d = (H/2) (b_m xor (q mod 2)) + sum k_n b_n + k''
        shift   = sum d_n b_n

    and block x takes seed a where b_1 = 0.  ``component_functions`` builds
    the same tables symbolically and serves as the oracle for this one.
    """
    p = params
    m = p.m
    x = np.arange(1 << m)
    bits = (x[:, None] >> (m - np.asarray(p.pi))) & 1  # column n holds b_(n+1)
    top = bits[:, -1]
    quad = np.sum(bits[:, :-1] & bits[:, 1:], axis=1)
    linear = bits @ np.asarray(p.k)
    n_seed = len(p.seed)
    total = n_seed * len(x) + sum(p.d)
    positions = ((bits @ np.asarray(p.d) + x * n_seed)[:, None] + np.arange(n_seed)).ravel()
    blocks = np.stack([p.seed.a.values, p.seed.b.values]).astype(complex)[bits[:, 0]]
    w = 2.0 * math.pi / p.H

    def place(amp, phase):
        values = blocks * np.exp(w * amp + 1j * w * np.mod(phase, p.H))[:, None]
        return (np.bincount(positions, weights=values.real.ravel(), minlength=total)
                + 1j * np.bincount(positions, weights=values.imag.ravel(), minlength=total))

    e = np.asarray(p.e)
    # huge amplitude exponents overflow to inf or nan here; the power check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        pair_sum = (bits[:, :-1] ^ bits[:, 1:]) @ e[:-1] + p.e_prime
        c = place(e[-1] * top + pair_sum, p.H / 2 * quad + linear + p.k_prime)
        d = place(e[-1] * (1 - top) + pair_sum,
                  p.H / 2 * (top ^ (quad & 1)) + linear + p.k_dprime)
        # 2 * length * energy bounds every autocorrelation sum and envelope power
        power = 2.0 * total * (np.vdot(c, c).real + np.vdot(d, d).real)
    if not 0.0 < power < math.inf:
        raise ValueError("amplitude exponents out of range: the pair's power is zero or overflows")

    return EncodedPair(
        c=ComplexSequence(c),
        d=ComplexSequence(d),
        overlap=bool(np.max(np.bincount(positions, minlength=total)) > 1),
    )


def run_recursion(params: RecursionParams) -> tuple[ComplexSequence, ComplexSequence]:
    """Literal polynomial evaluation of the two-branch recursion.

    Independent of the closed form: coefficients evolve step by step, with
    the second operand scaled, phase-rotated, and shifted by the padding
    plus N * 2^psi_n.  Serves as the oracle for ``encode_pair``.
    """
    rp = params
    w = 2.0 * math.pi / rp.H
    cur_a = rp.seed.a.values.astype(complex)
    cur_b = rp.seed.b.values.astype(complex)
    n_seed = len(cur_a)

    for n in range(rp.m):
        shift = rp.shifts[n] + n_seed * (1 << rp.psi[n])
        scale_a = math.exp(w * rp.scale_a[n])
        scale_b = math.exp(w * rp.scale_b[n])
        rot_a = cmath.exp(1j * w * rp.phase_a[n])
        rot_b = cmath.exp(1j * w * rp.phase_b[n])
        rot_joint = cmath.exp(1j * w * rp.phase_joint[n])

        length = max(len(cur_a), shift + len(cur_b))
        next_a = np.zeros(length, dtype=complex)
        next_b = np.zeros(length, dtype=complex)
        next_a[: len(cur_a)] = rot_a * scale_a * cur_a
        next_a[shift : shift + len(cur_b)] += rot_b * scale_b * rot_joint * cur_b
        next_b[: len(cur_a)] = np.conj(rot_b) * scale_b * cur_a
        next_b[shift : shift + len(cur_b)] -= np.conj(rot_a) * scale_a * rot_joint * cur_b
        cur_a, cur_b = next_a, next_b

    return ComplexSequence(cur_a), ComplexSequence(cur_b)


def recursion_to_encoder(params: RecursionParams) -> EncoderParams:
    """Translate recursion knobs into the equivalent closed-form parameters.

    The amplitude exponents become per-step differences plus a shared offset;
    phase steps telescope so neighbouring steps share their rotation history;
    the bit order flips from shift order to pi_n = m - psi_n.
    """
    rp = params
    m = rp.m
    e = tuple(rp.scale_b[n] - rp.scale_a[n] for n in range(m))
    e_prime = sum(rp.scale_a)
    k = [rp.phase_joint[0] + rp.phase_b[0] - rp.phase_a[0]]
    for n in range(1, m):
        k.append(
            rp.phase_joint[n]
            + rp.phase_b[n]
            - rp.phase_a[n]
            - rp.phase_b[n - 1]
            - rp.phase_a[n - 1]
        )
    k_prime = sum(rp.phase_a)
    k_dprime = -rp.phase_b[m - 1] + sum(rp.phase_a[: m - 1])
    return EncoderParams(
        m=m,
        H=rp.H,
        pi=tuple(m - p for p in rp.psi),
        e=e,
        e_prime=e_prime,
        k=tuple(k),
        k_prime=k_prime,
        k_dprime=k_dprime,
        d=rp.shifts,
        seed=rp.seed,
    )
