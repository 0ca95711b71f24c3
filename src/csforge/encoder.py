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
from .sequences import ComplexSequence, as_array, finite, finite_steps, integral, pads, permutation

__all__ = [
    "ComponentFunctions",
    "EncodedPair",
    "EncoderParams",
    "MAX_SEQUENCE_LENGTH",
    "RecursionParams",
    "SeedPair",
    "SequenceLengthError",
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
    return H


def _seed(seed) -> SeedPair:
    if seed is None:
        return known_seed(1)
    return seed if isinstance(seed, SeedPair) else SeedPair(*seed)


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


# Scratch memory ``encode_family`` may use at once; rows are encoded in
# chunks that fit it (the (B, L) result is the caller's).
FAMILY_CHUNK_BYTES = 16 << 20


class _Tables(NamedTuple):
    """The parts of one encoding that the linear phase does not touch."""

    bits: np.ndarray  # (2^m, m): column n holds b_(n+1) of block x
    amp_c: np.ndarray  # amplitude exponents per block
    amp_d: np.ndarray
    quad_c: np.ndarray  # (H/2) q per block; callers add sum k_n b_n and k'
    quad_d: np.ndarray  # (H/2) (b_m xor (q mod 2)); callers add sum k_n b_n and k''
    blocks: np.ndarray  # (2^m, N): the seed copy of each block
    positions: np.ndarray  # (2^m * N,): where each block element lands
    total: int  # output length


def _tables(p: EncoderParams) -> _Tables:
    """Read the phase-free tables off the index bits b_n = bit pi_n of x.

    Raises ValueError when the pair's power is zero or overflows.  The power
    2 * length * (energy of c + energy of d) bounds every autocorrelation
    sum and envelope power.  It does not depend on the phases: the energy
    of c plus that of d is the sum over blocks of the seed copy's energy
    times |coefficient of c|^2 + |coefficient of d|^2, whether copies
    overlap or not (each recursion step scales the pair's energy by the
    sum of its two squared scales), so it is computed from the amplitudes.
    """
    m = p.m
    x = np.arange(1 << m)
    bits = (x[:, None] >> (m - np.asarray(p.pi))) & 1
    top = bits[:, -1]
    quad = np.sum(bits[:, :-1] & bits[:, 1:], axis=1)
    n_seed = len(p.seed)
    total = n_seed * len(x) + sum(p.d)
    positions = ((bits @ np.asarray(p.d) + x * n_seed)[:, None] + np.arange(n_seed)).ravel()
    blocks = np.stack([p.seed.a.values, p.seed.b.values]).astype(complex)[bits[:, 0]]
    w = 2.0 * math.pi / p.H
    e = np.asarray(p.e)
    # huge amplitude exponents overflow to inf or nan here; the power check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        pair_sum = (bits[:, :-1] ^ bits[:, 1:]) @ e[:-1] + p.e_prime
        amp_c = e[-1] * top + pair_sum
        amp_d = e[-1] * (1 - top) + pair_sum
        scale = np.exp(2 * w * amp_c) + np.exp(2 * w * amp_d)
        power = 2.0 * total * np.vdot(blocks, blocks * scale[:, None]).real
    if not 0.0 < power < math.inf:
        raise ValueError("amplitude exponents out of range: the pair's power is zero or overflows")
    return _Tables(bits, amp_c, amp_d, p.H / 2 * quad, p.H / 2 * (top ^ (quad & 1)),
                   blocks, positions, total)


def _place(t: _Tables, H: int, amp, phase) -> np.ndarray:
    """Scale each row's seed copies by exp(w amp + j w phase) and sum them into place.

    ``phase`` holds one row of block phases per output; the result has one
    row of length ``t.total`` per phase row.
    """
    w = 2.0 * math.pi / H
    coef = np.exp(w * amp + 1j * w * np.mod(phase, H))
    values = (t.blocks * coef[:, :, None]).reshape(len(phase), -1)
    index = (np.arange(len(phase))[:, None] * t.total + t.positions).ravel()
    size = len(phase) * t.total
    out = (np.bincount(index, weights=values.real.ravel(), minlength=size)
           + 1j * np.bincount(index, weights=values.imag.ravel(), minlength=size))
    return out.reshape(len(phase), t.total)


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
    t = _tables(p)
    linear = t.bits @ np.asarray(p.k)
    c = _place(t, p.H, t.amp_c, (t.quad_c + linear + p.k_prime)[None])[0]
    d = _place(t, p.H, t.amp_d, (t.quad_d + linear + p.k_dprime)[None])[0]
    return EncodedPair(
        c=ComplexSequence(c),
        d=ComplexSequence(d),
        overlap=bool(np.max(np.bincount(t.positions, minlength=t.total)) > 1),
    )


def encode_family(params: EncoderParams, K, z) -> np.ndarray:
    """First outputs of a whole phase family, one row per member.

    Row b is ``encode_pair(params).c.values`` with the phase steps k + K[b]
    and both constants k' + z[b] and k'' + z[b]: only the linear phase
    sum k_n b_n + k' moves between members, so the amplitude, quadratic,
    position and seed tables are built once, and all rows take one
    ``K @ bits.T`` product.  Rows agree with the scalar path to rounding.
    Rows are encoded in chunks under ``FAMILY_CHUNK_BYTES`` of scratch
    memory.  Raises the power ValueError that ``encode_pair`` raises.
    """
    p = params
    K = np.asarray(K, dtype=float)
    z = np.asarray(z, dtype=float)
    if K.ndim != 2 or K.shape[1] != p.m or z.shape != (len(K),):
        raise ValueError(f"K must be (B, {p.m}) and z (B,), got {K.shape} and {z.shape}")
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(z))):
        raise ValueError("K and z must be finite")
    t = _tables(p)
    base = t.quad_c + t.bits @ np.asarray(p.k) + p.k_prime
    out = np.empty((len(K), t.total), dtype=complex)
    # per row: phases and coefficients per block, values, weights and index
    # per element, two bincount sums and the complex result per output slot
    row_bytes = 56 * len(t.bits) + 48 * t.positions.size + 32 * t.total
    rows = max(1, FAMILY_CHUNK_BYTES // row_bytes)
    for lo in range(0, len(K), rows):
        chunk = slice(lo, lo + rows)
        phase = base + K[chunk] @ t.bits.T + z[chunk, None]
        out[chunk] = _place(t, p.H, t.amp_c, phase)
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
