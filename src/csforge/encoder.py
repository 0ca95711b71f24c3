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
from dataclasses import dataclass
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .analysis import GCP_TOL, is_gcp
from .boolean import BooleanPolynomial, xor_expand
from .sequences import (
    ComplexSequence, GuardError, as_array, finite, finite_steps, integral, pads, permutation,
)

__all__ = [
    "ComponentFunctions",
    "EncodedPair",
    "EncoderParams",
    "MAX_SEQUENCE_LENGTH",
    "RecursionParams",
    "SeedPair",
    "component_functions",
    "encode_family",
    "encode_pair",
    "known_seed",
    "recursion_to_encoder",
    "run_recursion",
]

MAX_ENCODE_VARS = 16

# Longest pair the encoder builds: 4M elements, 64 MiB per complex output.
MAX_SEQUENCE_LENGTH = 1 << 22


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


@cache
def known_seed(length: int) -> SeedPair:
    """A stock complementary pair of the requested length (1 to 4).

    Pairs are immutable, so each length is built and checked once.
    """
    try:
        a, b = _KNOWN_SEEDS[length]
    except KeyError:
        raise ValueError(f"no stock seed of length {length}; have {sorted(_KNOWN_SEEDS)}") from None
    return SeedPair(a, b)


def _modulus(value) -> int:
    H = integral(value, "H")
    if H <= 0 or H % 2 != 0:
        raise ValueError(f"H must be a positive even integer, got {value}")
    finite(H, "H")  # phase steps are reduced mod H as floats
    return H


def _seed(seed) -> SeedPair:
    if seed is None:
        return known_seed(1)
    return seed if isinstance(seed, SeedPair) else SeedPair(*seed)


def _check_length(seed: SeedPair, m: int, pads: tuple[int, ...]) -> None:
    length = len(seed) * (1 << m) + sum(pads)
    if length > MAX_SEQUENCE_LENGTH:
        raise GuardError(f"pair length {length} exceeds the limit of {MAX_SEQUENCE_LENGTH}")


@dataclass(frozen=True)
class EncoderParams:
    """Full parameter set of the closed-form pair encoder.

    ``pi`` orders the block-index bits; ``e``/``e_prime`` are amplitude
    exponents (free reals); ``k``/``k_prime``/``k_dprime`` are phase steps,
    normalized into [0, H); ``d`` holds non-negative zero-padding amounts.
    Only ``m`` and ``H`` are required: ``pi`` defaults to the identity
    order, the other knobs to zero and ``seed`` to the length-1 pair.
    """

    m: int
    H: int
    pi: tuple[int, ...] | None = None
    e: tuple[float, ...] | None = None
    e_prime: float = 0.0
    k: tuple[float, ...] | None = None
    k_prime: float = 0.0
    k_dprime: float = 0.0
    d: tuple[int, ...] | None = None
    seed: SeedPair | None = None

    def __post_init__(self):
        m = integral(self.m, "m")
        if m < 1 or m > MAX_ENCODE_VARS:
            raise ValueError(f"m must be in 1..{MAX_ENCODE_VARS}")
        H = _modulus(self.H)
        pi = permutation(self.pi, m, 1, "pi")
        d = pads(self.d, m, "d")
        seed = _seed(self.seed)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "e", finite_steps(self.e, m, "e"))
        object.__setattr__(self, "e_prime", finite(self.e_prime, "e_prime"))
        object.__setattr__(self, "k", tuple(v % H for v in finite_steps(self.k, m, "k")))
        object.__setattr__(self, "k_prime", finite(self.k_prime, "k_prime") % H)
        object.__setattr__(self, "k_dprime", finite(self.k_dprime, "k_dprime") % H)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "seed", seed)
        # checked last, so that a bad knob is an input error, not a guard
        _check_length(seed, m, d)


@dataclass(frozen=True)
class RecursionParams:
    """Per-step knobs of the two-branch recursion.

    ``scale_a``/``scale_b`` are exponents of the real scalars, the three
    phase lists are steps on the H-th roots of unity, ``shifts`` pads the
    second operand, and ``psi`` orders the power-of-two spreading factors.
    Only ``H`` and ``psi`` are required: the per-step lists default to
    ``len(psi)`` zeros and ``seed`` to the length-1 pair.
    """

    H: int
    psi: tuple[int, ...]
    scale_a: tuple[float, ...] | None = None
    scale_b: tuple[float, ...] | None = None
    phase_a: tuple[float, ...] | None = None
    phase_b: tuple[float, ...] | None = None
    phase_joint: tuple[float, ...] | None = None
    shifts: tuple[int, ...] | None = None
    seed: SeedPair | None = None

    def __post_init__(self):
        m = len(self.psi)
        H = _modulus(self.H)
        psi = permutation(self.psi, m, 0, "psi")
        shifts = pads(self.shifts, m, "shifts")
        seed = _seed(self.seed)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "psi", psi)
        for name in ("scale_a", "scale_b", "phase_a", "phase_b", "phase_joint"):
            object.__setattr__(self, name, finite_steps(getattr(self, name), m, name))
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "seed", seed)
        _check_length(seed, m, shifts)

    @property
    def m(self) -> int:
        return len(self.psi)


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


class _Tables(NamedTuple):
    """The block tables of an encoding, with one leading entry per cell: a
    parameter set under one bit order."""

    amp_c: np.ndarray  # (Q, 2^m) amplitude exponents per block
    amp_d: np.ndarray
    phase_c: np.ndarray  # (Q, 2^m) (H/2) q + sum k_n b_n + k' per block
    phase_d: np.ndarray  # (Q, 2^m) (H/2) (b_m xor (q mod 2)) + sum k_n b_n + k''
    blocks: np.ndarray  # (Q, 2^m, N): the seed copy of each block
    # (Q, 2^m * N): where each block element lands; None when d = 0, where
    # block x fills elements x * N to x * N + N - 1 and nothing overlaps
    positions: np.ndarray | None
    total: int  # output length


def _index_bits(m: int, pis: np.ndarray) -> np.ndarray:
    """(P, 2^m, m) int8: under the order pis[p], column n holds b_(n+1) of
    block x, which is bit pi_(n+1) of x counted from the most significant."""
    # one byte per bit: the matrix products of an encode cast their operands
    # to float anyway, and int64 bits made its largest temporaries
    bits = np.arange(1 << m)[:, None] >> (m - pis[:, None, :])
    bits &= 1
    return bits.astype(np.int8)


def _tables(ps: list[EncoderParams], pis: np.ndarray) -> _Tables:
    """Read the phase-free tables off the index bits b_n = bit pi_n of x.

    ``ps`` share m, H, d and the seed; cell g * P + p is ps[g] under the
    order pis[p].  Raises ValueError when the pair's power is zero or
    overflows in any cell.  The power 2 * length * (energy of c + energy of
    d) bounds every autocorrelation sum and envelope power.  It does not
    depend on the phases: the energy of c plus that of d is the sum over
    blocks of the seed copy's energy times |coefficient of c|^2 +
    |coefficient of d|^2, whether copies overlap or not (each recursion
    step scales the pair's energy by the sum of its two squared scales), so
    it is computed from the amplitudes.
    """
    p = ps[0]
    m = p.m
    x = np.arange(1 << m)
    bits = np.tile(_index_bits(m, pis), (len(ps), 1, 1))
    top = bits[..., -1]
    quad = np.sum(bits[..., :-1] & bits[..., 1:], axis=-1)
    n_seed = len(p.seed)
    total = n_seed * len(x) + sum(p.d)
    positions = None
    if total > n_seed * len(x):
        positions = ((bits @ np.asarray(p.d) + x * n_seed)[..., None]
                     + np.arange(n_seed)).reshape(len(bits), -1)
    blocks = np.stack([p.seed.a.values, p.seed.b.values]).astype(complex)[bits[..., 0]]
    w = 2.0 * math.pi / p.H
    # per cell: e (m), e', k (m), k', k''
    knobs = np.repeat([[*q.e, q.e_prime, *q.k, q.k_prime, q.k_dprime] for q in ps], len(pis), axis=0)
    e, e_prime, k, k_prime, k_dprime = np.split(knobs, [m, m + 1, 2 * m + 1, 2 * m + 2], axis=1)
    # huge amplitude exponents overflow to inf or nan here; the power check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        pair_sum = ((bits[..., :-1] ^ bits[..., 1:]) @ e[:, :-1, None])[..., 0] + e_prime
        amp_c = e[:, -1:] * top + pair_sum
        amp_d = e[:, -1:] * (1 - top) + pair_sum
        scale = np.exp(2 * w * amp_c) + np.exp(2 * w * amp_d)
        power = 2.0 * total * np.sum(np.abs(blocks) ** 2 * scale[..., None], axis=(1, 2))
    if not np.all((0.0 < power) & (power < math.inf)):
        raise ValueError("amplitude exponents out of range: the pair's power is zero or overflows")
    linear = (bits @ k[..., None])[..., 0]
    return _Tables(amp_c, amp_d, p.H / 2 * quad + linear + k_prime,
                   p.H / 2 * (top ^ (quad & 1)) + linear + k_dprime, blocks, positions, total)


def _coefficients(H: int, amp, phase) -> np.ndarray:
    """exp(w amp + j w (phase mod H)) with w = 2 pi / H, elementwise."""
    w = 2.0 * math.pi / H
    # the power check bounds amp above, so w * amp overflows only to -inf,
    # where the coefficient is 0 either way
    with np.errstate(over="ignore"):
        return np.exp(w * amp + 1j * w * np.mod(phase, H))


def _place(t: _Tables, coef, out) -> None:
    """Scale each cell's seed copies by its block coefficients and sum them into ``out``.

    ``coef`` (Q, 2^m) holds the block coefficients of the Q cells of ``t``;
    ``out`` (Q, length) gets one output row per cell.  Colliding elements
    are summed in element order, and every sum starts from +0.0, so no
    element is -0.0.
    """
    if t.positions is None:
        copies = out.view()
        copies.shape = t.blocks.shape  # raises rather than copy
        np.multiply(t.blocks, coef[..., None], out=copies)
        np.add(out, 0.0, out=out)
        return
    values = t.blocks * coef[..., None]
    index = (np.arange(len(coef))[:, None] * t.total + t.positions).ravel()
    out[...] = (np.bincount(index, weights=values.real.ravel(), minlength=out.size)
                + 1j * np.bincount(index, weights=values.imag.ravel(), minlength=out.size)
                ).reshape(out.shape)


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
    t = _tables([p], np.array([p.pi]))
    c, d = np.empty((2, 1, t.total), dtype=complex)
    _place(t, _coefficients(p.H, t.amp_c, t.phase_c), c)
    _place(t, _coefficients(p.H, t.amp_d, t.phase_d), d)
    overlap = t.positions is not None and np.max(np.bincount(t.positions[0])) > 1
    return EncodedPair(c=ComplexSequence(c[0]), d=ComplexSequence(d[0]), overlap=bool(overlap))


def encode_family(params, pis=None) -> np.ndarray:
    """First outputs of stacked parameter sets under stacked bit orders.

    ``params`` is one EncoderParams or a sequence of G of them that share
    m, H, d and the seed; ``pis`` (P, m) stacks bit orders (default: the
    first set's order alone).  Row g * P + p of the (G * P, L) result is
    ``encode_pair(params[g]).c.values`` with the order pis[p]: only the
    amplitudes, the phases and the order move between cells, so the tables
    are built once for the whole stack.  Rows agree with the scalar path to
    rounding.  Raises the power ValueError that ``encode_pair`` raises, for
    any set and order.
    """
    ps = [params] if isinstance(params, EncoderParams) else list(params)
    if not ps:
        raise ValueError("need at least one parameter set")
    p = ps[0]
    if any((q.m, q.H, q.d) != (p.m, p.H, p.d) or q.seed is not p.seed and q.seed != p.seed
           for q in ps):
        raise ValueError("stacked parameter sets must share m, H, d and the seed")
    pis = np.asarray([p.pi] if pis is None else pis)
    if pis.ndim != 2 or not np.issubdtype(pis.dtype, np.integer) or any(
            sorted(pi) != list(range(1, p.m + 1)) for pi in pis.tolist()):
        raise ValueError(f"pis must be rows of permutations of 1..{p.m}, got {pis.tolist()}")
    t = _tables(ps, pis)
    out = np.empty((len(t.amp_c), t.total), dtype=complex)
    _place(t, _coefficients(p.H, t.amp_c, t.phase_c), out)
    return out


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
