"""Square QAM lattices and the five synthesis rules that reach them.

A 4s^2-point lattice holds the odd-integer grid points (2u-1) + j(2v-1) over
all four quadrants.  Encoder outputs use a unit-amplitude convention in which
the innermost diagonal point maps to 1; multiplying an output by (1 + j)
moves it onto the lattice, which is what ``on_lattice`` checks.

Each rule fixes the amplitude knobs (and, for some, irrational phase steps)
of the pair encoder so every nonzero output element lands on the lattice:

* green scales and rotates the whole quaternary family onto one radius;
* yellow gives the two halves independent diagonal radii;
* blue additionally rotates one half off the diagonal;
* cyan rotates both halves off the diagonal;
* orange keeps one radius but sends the halves to mirror angles.

Counting helpers return family sizes in units of G0 = (m!/2) 4^(m+1) for
length-1 seeds and A0 = m! 4^(m+1) for longer seeds.  ``enumerate_rule``
walks the full parameter space for small cases, and ``distinct_sequences``
counts its distinct words by group key, so the formulas can be checked by
exhaustive deduplication.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

# encode_pair and recursion_to_encoder are not called here; they stay bound in
# this module because perfbench/tracing.py wraps them under these names
from .encoder import (  # noqa: F401
    MAX_ENCODE_VARS, EncoderParams, SeedPair, _index_bits, encode_family, encode_pair,
    recursion_to_encoder,
)
from .sequences import finite, finite_steps, guard, tolerance

__all__ = [
    "DEFAULT_ENUM_GUARD",
    "Geometry",
    "MAX_COUNT_VARS",
    "RULES",
    "RuleCount",
    "RuleEntry",
    "WALK_BLOCK_BYTES",
    "WALK_KEY_BYTES",
    "blue_params",
    "count_sequences",
    "cyan_params",
    "distinct_blocks",
    "distinct_sequences",
    "enumerate_rule",
    "enumeration_size",
    "green_params",
    "is_qam_point",
    "lattice_geometry",
    "lattice_points",
    "on_lattice",
    "orange_params",
    "rule_entry",
    "rule_params",
    "sequence_key",
    "to_lattice",
    "yellow_params",
]

RULE_MODULUS = 4  # all five rules live on quaternary phases

# exponent units per radian and per neper when H = 4
_SCALE = 4.0 / (2.0 * math.pi)

# Most combinations the member walks (enumerate_rule, distinct_blocks) visit
DEFAULT_ENUM_GUARD = 10_000_000

# Most bytes of group keys the counting walk may hold: one 16 * N * 2^m byte
# key per (choice, ell, pi) cell and _KEY_OVERHEAD beside it, 256 MiB
WALK_KEY_BYTES = 1 << 28

# Bytes a held key costs beyond its own: its bytes object's header and its
# slot in the set of seen keys, 63-75 measured, with room for the set's growth
_KEY_OVERHEAD = 128

# About how many bytes of first outputs one encode of the walk writes (one
# order at least), and the most bytes of members in one of its
# blocks (one order at least); at 128 KiB its scratch stays under about 1 MB
WALK_BLOCK_BYTES = 1 << 17

# Largest m the closed-form counts take: m! * 4^(m+1) has 3,171 digits at
# m = 1000, so a count and its 2^m length stay under Python's 4,300-digit
# int-to-str limit for every s below about 10^250
MAX_COUNT_VARS = 1000

QAM_POINT_TOL = 1e-6


class Geometry(NamedTuple):
    """Polar data of the first-quadrant lattice point (2u-1) + j(2v-1)."""

    distance: float  # to the origin
    gamma: float  # distance ratio against the innermost diagonal point
    theta: float  # angle from the real axis
    phi: float  # angle from the diagonal
    mu: float  # angle to the mirror point across the diagonal


def lattice_geometry(u: int, v: int) -> Geometry:
    if u < 1 or v < 1:
        raise ValueError(f"lattice indices must be >= 1, got ({u}, {v})")
    re = finite(2 * u - 1, "lattice point")
    im = finite(2 * v - 1, "lattice point")
    distance = math.hypot(re, im)
    theta = math.atan2(im, re)
    phi = math.pi / 4 - theta
    return Geometry(distance, distance / math.sqrt(2.0), theta, phi, 2 * phi)


def lattice_points(s: int) -> np.ndarray:
    """All 4s^2 lattice points over the four quadrants."""
    odd = 2 * np.arange(-s + 1, s + 1) - 1
    re, im = np.meshgrid(odd, odd)
    return (re + 1j * im).reshape(-1)


def is_qam_point(value: complex, s: int, tol: float = QAM_POINT_TOL) -> bool:
    """Whether a complex value sits on the 4s^2 lattice within ``tol``."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    tol = tolerance(tol)

    def nearest_odd(x: float) -> float:
        return 2.0 * round((x - 1.0) / 2.0) + 1.0

    re = nearest_odd(value.real)
    im = nearest_odd(value.imag)
    if abs(value.real - re) > tol or abs(value.imag - im) > tol:
        return False
    return abs(re) <= 2 * s - 1 and abs(im) <= 2 * s - 1


def to_lattice(values) -> np.ndarray:
    """Map encoder outputs onto lattice coordinates (multiply by 1 + j)."""
    return np.asarray(values, dtype=complex) * (1 + 1j)


def on_lattice(values, s: int, tol: float = QAM_POINT_TOL) -> bool:
    """Whether every nonzero element, mapped to lattice coordinates, is a point."""
    tol = tolerance(tol)  # also when no element is nonzero
    mapped = to_lattice(values)
    return all(is_qam_point(complex(v), s, tol) for v in mapped if v != 0)


# -- rule parameter builders -------------------------------------------------


def _admit(rule, s, m, indices, ell=None, z=0, **binary):
    """Refuse what the table record of ``rule`` does not admit: indices
    outside 1..s or failing the record's predicate, a binary knob outside
    its values (only booleans for a boolean knob, only numbers for a sign),
    ell outside 1..m or m above MAX_ENCODE_VARS, and a non-finite z.

    Returns z, an integral one reduced mod 4 exactly: z and z + 4 are the
    same quadrant, and a z no float holds would be rounded in the sums."""
    entry = _RULE_TABLE[rule]
    for name, value in zip(entry.indices, indices):
        if not 1 <= value <= s:
            raise ValueError(f"{name}={value} out of range 1..{s}")
    if entry.admits is not None and not entry.admits(*indices):
        raise ValueError(entry.refusal)
    for name, values in entry.binary:
        value = binary[name]
        if value not in values or isinstance(value, _BOOLS) != isinstance(values[0], bool):
            raise ValueError(f"{name} must be one of {values}, got {value!r}")
    if entry.has_ell:
        if not 1 <= ell <= m:
            raise ValueError(f"ell={ell} out of range 1..{m}")
        if m > MAX_ENCODE_VARS:  # refused before the builder makes lists of m steps
            raise ValueError(f"m must be in 1..{MAX_ENCODE_VARS}")
    return z % RULE_MODULUS if finite(z, "z").is_integer() else z


def green_params(s, u, v, m, pi=None, k=None, z=0, seed=None) -> EncoderParams:
    """One radius for all elements: scale by gamma, rotate onto the point."""
    z = _admit("green", s, m, (u, v), z=z)
    g = lattice_geometry(u, v)
    const = z - _SCALE * g.phi
    return EncoderParams(
        m, RULE_MODULUS, pi, e_prime=_SCALE * math.log(g.gamma), k=k,
        k_prime=const, k_dprime=const, seed=seed,
    )


def _two_halves(ell, m, pi, k, z, seed, half_a, half_b) -> EncoderParams:
    """Scale and rotate each half at step ell; half_x is (scale, phase).

    ``recursion_to_encoder`` of a recursion whose only scales and rotations
    sit at step ell, with phase_joint = k: the amplitude difference lands on
    e[ell-1], the rotations telescope into k[ell-1] and k[ell], and the
    rotation of half a becomes the constant phase.
    """
    (scale_a, phase_a), (scale_b, phase_b) = half_a, half_b
    e = [0.0] * m
    e[ell - 1] = scale_b - scale_a
    steps = list(finite_steps(k, m, "k"))
    steps[ell - 1] = steps[ell - 1] + phase_b - phase_a
    if ell < m:
        steps[ell] = steps[ell] - phase_b - phase_a
    # the constants are reduced before z is added, which gives the same
    # floats as recursion_to_encoder followed by adding z
    return EncoderParams(
        m, RULE_MODULUS, pi, e=e, e_prime=scale_a, k=steps,
        k_prime=phase_a % RULE_MODULUS + z,
        k_dprime=(phase_a if ell < m else -phase_b) % RULE_MODULUS + z, seed=seed,
    )


def _diagonal(u) -> tuple[float, float]:
    """The half (scale, phase) on the diagonal point (u, u)."""
    return _SCALE * math.log(lattice_geometry(u, u).gamma), 0.0


def _rotated(u, v, sign) -> tuple[float, float]:
    """The half (scale, phase) on the off-diagonal point (u, v), turned by ``sign``."""
    g = lattice_geometry(u, v)
    return _SCALE * math.log(g.gamma), sign * _SCALE * g.phi


def yellow_params(s, u, v, ell, m, pi=None, k=None, z=0, seed=None) -> EncoderParams:
    """Two diagonal radii: the halves are scaled independently at step ell."""
    z = _admit("yellow", s, m, (u, v), ell, z)
    return _two_halves(ell, m, pi, k, z, seed, _diagonal(u), _diagonal(v))


def blue_params(
    s, u, v, w, ell, m, pi=None, k=None, z=0, sign_a=1, rotate_b_half=True, seed=None
) -> EncoderParams:
    """One diagonal radius and one off-diagonal point: rotate a single half."""
    z = _admit("blue", s, m, (u, v, w), ell, z, sign_a=sign_a, rotate_b_half=rotate_b_half)
    halves = _diagonal(u), _rotated(v, w, sign_a)
    return _two_halves(ell, m, pi, k, z, seed, *(halves if rotate_b_half else halves[::-1]))


def cyan_params(
    s, u, t, v, w, ell, m, pi=None, k=None, z=0, sign_a=1, sign_b=1, seed=None
) -> EncoderParams:
    """Two distinct off-diagonal points, one per half, each with its rotation."""
    z = _admit("cyan", s, m, (u, t, v, w), ell, z, sign_a=sign_a, sign_b=sign_b)
    return _two_halves(ell, m, pi, k, z, seed, _rotated(u, t, sign_a), _rotated(v, w, sign_b))


def orange_params(s, u, v, ell, m, pi=None, k=None, z=0, sign_a=1, seed=None) -> EncoderParams:
    """One off-diagonal radius; the halves sit at mirror angles.

    The step phase k[ell-1] is the quadrant offset of the mirror rotation.
    """
    z = _admit("orange", s, m, (u, v), ell, z, sign_a=sign_a)
    g = lattice_geometry(u, v)
    phases = list(finite_steps(k, m, "k"))
    phases[ell - 1] -= sign_a * _SCALE * g.mu
    const = z + sign_a * _SCALE * g.phi
    return EncoderParams(
        m, RULE_MODULUS, pi, e_prime=_SCALE * math.log(g.gamma), k=phases,
        k_prime=const, k_dprime=const, seed=seed,
    )


# -- the rule table ----------------------------------------------------------


class RuleEntry(NamedTuple):
    """Everything the package knows about one rule, in one record: its
    builder refuses (``_admit``) every choice that ``choices`` does not list."""

    builder: str  # name of the *_params function in this module
    indices: tuple[str, ...]  # lattice indices, in ``--indices`` order
    units: Callable[[int, int, int], int]  # family size in G0/A0 units at (s, m, span)
    has_ell: bool = True  # the builder takes a step index ell
    admits: Callable[..., bool] | None = None  # predicate on the indices; None admits all
    refusal: str = ""  # the ValueError text when ``admits`` is false
    binary: tuple[tuple[str, tuple], ...] = ()  # (knob, its two values in walk order)
    phase_last: bool = False  # the walk varies step phase k[ell-1] last

    @property
    def knobs(self) -> tuple[str, ...]:
        """The knobs the builder reads besides the indices."""
        return ("ell",) * self.has_ell + ("z",) + tuple(name for name, _ in self.binary)

    def choices(self, s: int) -> list[dict]:
        """Every admissible choice of indices and binary knobs at ``s``, in
        walk order: the indices lexicographically, then the binary knobs."""
        return list(self.iter_choices(s))

    def iter_choices(self, s: int) -> Iterator[dict]:
        """``choices``, one at a time."""
        names = self.indices + tuple(name for name, _ in self.binary)
        knob_values = list(itertools.product(*(values for _, values in self.binary)))
        return (
            dict(zip(names, point + values))
            for point in itertools.product(range(1, s + 1), repeat=len(self.indices))
            if self.admits is None or self.admits(*point)
            for values in knob_values
        )

    @property
    def build(self) -> Callable[..., EncoderParams]:
        # looked up in this module on each access, so a wrapper bound here
        # (a profiler, a test double) sees the calls
        return globals()[self.builder]


_SIGNS = (1, -1)
_BOOLS = (bool, np.bool_)

_RULE_TABLE = {
    "green": RuleEntry("green_params", ("u", "v"), lambda s, m, span: s**2, has_ell=False),
    "yellow": RuleEntry(
        "yellow_params", ("u", "v"), lambda s, m, span: s * (s - 1) * span,
        admits=lambda u, v: u != v,
        refusal="yellow rule needs two different diagonal radii (u != v)",
    ),
    "blue": RuleEntry(
        "blue_params", ("u", "v", "w"), lambda s, m, span: 2 * s**2 * (s - 1) * span,
        admits=lambda u, v, w: v > w,
        refusal="blue rule needs an off-diagonal pair with v > w",
        binary=(("rotate_b_half", (True, False)), ("sign_a", _SIGNS)),
    ),
    "cyan": RuleEntry(
        "cyan_params", ("u", "t", "v", "w"),
        lambda s, m, span: (s + 1) * s * (s - 1) * (s - 2) * span,
        admits=lambda u, t, v, w: u > t and v > w and (u, t) != (v, w),
        refusal="cyan rule needs two different off-diagonal points, u > t and v > w",
        binary=(("sign_a", _SIGNS), ("sign_b", _SIGNS)),
    ),
    "orange": RuleEntry(
        "orange_params", ("u", "v"), lambda s, m, span: s * (s - 1) * m,
        admits=lambda u, v: u > v, refusal="orange rule needs u > v",
        binary=(("sign_a", _SIGNS),), phase_last=True,
    ),
}

RULES = tuple(_RULE_TABLE)


def rule_entry(rule: str) -> RuleEntry:
    """The table record of one rule; ValueError for an unknown name."""
    try:
        return _RULE_TABLE[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}") from None


def rule_params(rule: str, s: int, m: int, *, pi=None, k=None, seed=None,
                **knobs) -> EncoderParams:
    """Encoder parameters of one rule choice (modulus fixed at 4).

    ``knobs`` are the rule's lattice indices and the knobs its table record
    lists (``rule_entry(rule).knobs``); the indices and, on a rule with a
    step, ``ell`` are required, and the others take the builder's defaults.
    ValueError naming the knob for any other knob or a missing one, before
    the builder runs.
    """
    entry = rule_entry(rule)
    for name in knobs:
        if name not in entry.indices + entry.knobs:
            raise ValueError(f"{rule} rule reads no knob {name!r}; "
                             f"it reads {', '.join(entry.indices + entry.knobs)}")
    for name in entry.indices + ("ell",) * entry.has_ell:
        if name not in knobs:
            raise ValueError(f"{rule} rule needs {name}")
    return entry.build(s=s, m=m, pi=pi, k=k, seed=seed, **knobs)


# -- family counting ---------------------------------------------------------


class RuleCount(NamedTuple):
    rule: str
    s: int
    m: int
    n_class: str
    unit: str
    units: int
    count: int


def _unit_value(m: int, n_class: str) -> tuple[str, int]:
    base = math.factorial(m) * 4 ** (m + 1)
    if n_class == "N=1":
        return "G0", base // 2
    if n_class == "N>1":
        return "A0", base
    raise ValueError(f"n_class must be 'N=1' or 'N>1', got {n_class!r}")


def count_sequences(rule: str, s: int, m: int, n_class: str = "N=1") -> RuleCount:
    """Closed-form family size for one rule (or 'total'), exact integers.

    The per-rule forms presume the reversal redundancy of the quadratic
    phase term, which needs m >= 2; at m = 1 the N=1 green and orange
    formulas undercount and exhaustive enumeration is the reference.
    """
    if s < 1 or m < 1:
        raise ValueError("s and m must be positive")
    guard(m, MAX_COUNT_VARS, "m of a family count")
    single = n_class == "N=1"
    unit, unit_count = _unit_value(m, n_class)
    span = (m + 1) if single else m
    if rule == "total":
        units = (s**4 - s**2) * span + (s if single else s**2)
    else:
        units = rule_entry(rule).units(s, m, span)
    return RuleCount(rule, s, m, n_class, unit, units, units * unit_count)


# -- exhaustive enumeration ---------------------------------------------------


def _key_values(values) -> np.ndarray:
    """Values rounded to 12 decimals, with -0.0 made 0.0."""
    keys = np.round(np.asarray(values, dtype=complex), 12)
    keys += 0.0
    return keys


def sequence_key(values) -> bytes:
    """Canonical dedup key: values rounded to 12 decimals, zero-normalized."""
    return _key_values(values).tobytes()


def enumeration_size(rule, s, m) -> int:
    """Raw combination count the exhaustive walk would visit.

    Per admissible choice: every step choice (rules without one have a
    single), every order, 4^m step phases and one free constant.  The
    choices are counted without listing them: there are as many as the
    family has units at m = 1 over a span of one.  GuardError above
    MAX_COUNT_VARS, as for the counts.
    """
    entry = rule_entry(rule)
    guard(m, MAX_COUNT_VARS, "m of a walk")
    n_choices = entry.units(s, 1, 1) if s >= 1 else 0
    n_ells = m if entry.has_ell else 1
    return n_choices * n_ells * math.factorial(m) * 4 ** (m + 1)


def _phase_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (k, z) in 4^m x 4: k in lexicographic order, z fastest."""
    digits = (np.arange(4**m)[:, None] >> (2 * np.arange(m - 1, -1, -1))) & 3
    K, z = np.repeat(digits, 4, axis=0), np.tile(np.arange(4), 4**m)
    K.flags.writeable = z.flags.writeable = False
    return K, z


def enumerate_rule(
    rule: str, s: int, m: int, *, seed: SeedPair | None = None
) -> Iterator[tuple[EncoderParams, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk every admitted parameter combination in lexicographic order.

    Yields (params, pis, K, z, values) blocks.  ``params`` is the (choice,
    ell) member with the identity order, k = 0 and z = 0; the rule builders
    do not read the order, so each (choice, ell) is built once.  Row
    i * len(K) + b of ``values`` is the first output of the member with the
    order pis[i], k = K[b] and z = z[b].  Blocks come in the order choice,
    ell, pi, each (choice, ell) split into runs of orders whose outputs fit
    WALK_BLOCK_BYTES (at least one order per block); rows in the order pi,
    k (lexicographic, orange's k[ell-1] last), then z.

    Raises GuardError before any encode when the raw combination count
    exceeds DEFAULT_ENUM_GUARD.
    """
    yield from _blocks(rule, s, m, seed, distinct=False)


def _row_bytes(m: int, seed) -> int:
    """Bytes of one first output of the walk: N * 2^m complex values."""
    return 16 * (1 if seed is None else len(seed)) << m


def _walk(rule, s, m, seed, distinct):
    """The (choice, ell, pi) groups of the walk, in walk order, unguarded.

    Yields (params, orders, r0, ell) runs: ``params`` is the (choice, ell)
    member with the identity order, k = 0 and z = 0, ``r0`` its first
    outputs under ``orders``, and ``ell`` its step (None for green).  When
    ``distinct``, only the groups whose ``_canonical`` key no earlier group
    has.  One encode gives the first outputs of about WALK_BLOCK_BYTES of
    groups under every order, or of one group under a run of its orders
    when all m! of them take more.  The params are built one encode's
    groups at a time, so the walk holds no list of all of them.
    """
    entry = rule_entry(rule)
    ells = range(1, m + 1) if entry.has_ell else (None,)
    groups = ((entry.build(**choice, **({"ell": ell} if ell else {}), s=s, m=m, pi=None,
                           k=None, z=0, seed=seed), ell)
              for choice in entry.iter_choices(s) for ell in ells)
    cells = max(1, WALK_BLOCK_BYTES // _row_bytes(m, seed))  # (group, order) cells an encode
    n_orders = math.factorial(m)
    per_encode, per_order = max(1, cells // n_orders), min(cells, n_orders)
    batch = list(itertools.islice(groups, per_encode))
    if not batch:  # no admissible choice: list no orders
        return
    pis = np.array(list(itertools.permutations(range(1, m + 1))), dtype=np.intp)
    pis.flags.writeable = False
    seen: set[bytes] = set()
    while batch:
        for lo in range(0, len(pis), per_order):
            orders = pis[lo : lo + per_order]
            base = encode_family([params for params, _ in batch], orders)
            kept = np.ones((len(batch), len(orders)), dtype=bool)
            if distinct:
                for cell, key in enumerate(map(np.ndarray.tobytes, _canonical(_key_values(base), m))):
                    kept.flat[cell] = key not in seen
                    seen.add(key)
            for (params, ell), r0, mine in zip(batch, np.split(base, len(batch)), kept):
                yield params, orders[mine], r0[mine], ell
        batch = list(itertools.islice(groups, per_encode))


def _blocks(rule, s, m, seed, distinct):
    """``enumerate_rule``'s blocks from ``_walk``'s groups: each group's
    members, in runs of orders whose members fit WALK_BLOCK_BYTES; a run
    never spans two encodes."""
    size = enumeration_size(rule, s, m)
    # checked before the m! orders are listed
    guard(size, DEFAULT_ENUM_GUARD, f"{rule} walk combinations at m={m}")
    if not size:  # no admissible choice: make no phase rows
        return
    K, z = _phase_grid(m)
    # orange varies its step phase k[ell-1] last
    step_rows = ({ell: _phase_last(K, ell) for ell in range(1, m + 1)}
                 if rule_entry(rule).phase_last else {})
    per_block = max(1, WALK_BLOCK_BYTES // (_row_bytes(m, seed) * len(K)))
    for params, orders, r0, ell in _walk(rule, s, m, seed, distinct):
        rows = step_rows.get(ell, K)
        for lo in range(0, len(orders), per_block):
            part = slice(lo, lo + per_block)
            block = _members(r0[part], orders[part], rows, z)
            block.flags.writeable = False
            yield params, orders[part], rows, z, block
            del block  # not held while the next block is made


def _phase_last(K: np.ndarray, ell: int) -> np.ndarray:
    """The rows of K with their last column, the fastest, moved to step phase k[ell-1]."""
    m = K.shape[1]
    rows = K[:, [*range(ell - 1), m - 1, *range(ell - 1, m - 1)]]
    rows.flags.writeable = False
    return rows


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _members(base: np.ndarray, pis: np.ndarray, K: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The members of one group under each order, from their first outputs.

    ``base`` (P, L) holds a gapless parameter set's first outputs under the
    P orders ``pis``, as ``encode_family`` returns them.  Row p * B + b of
    the result is the member with the phase steps k + K[b] and the constant
    z[b]: base row p turned block by block by j^(z[b] + sum K[b, n] b_n(x)),
    with the bits b_n of the order pis[p].  Every rule has H = 4, so the
    turns are exact and no exponential is taken again.
    """
    m = pis.shape[1]
    # (P, B, 2^m): the quarter turn of each member's block x
    turns = _QUARTER_TURNS[(K @ np.swapaxes(_index_bits(m, pis), 1, 2) + z[:, None]) & 3]
    members = base.reshape(len(pis), 1, 1 << m, -1) * turns[..., None]
    members += 0.0  # no element is -0.0, as in encode_pair
    return members.reshape(-1, base.shape[1])


def _canonical(keys: np.ndarray, m: int) -> np.ndarray:
    """The key of the group of each key row, in place.

    The members of a (choice, ell, pi) group are r * j^L(x), blockwise:
    r is any one of them, and L(x) = z + sum k_n b_n(x) runs over every
    Z4-affine function of the block index bits, whatever the order.  So
    two groups hold the same words or none in common.  Each row is turned
    blockwise by the quarter turns j^(t0 + sum t_n x_n) that put the first
    nonzero element of block 0 and of each block 2^n in the quadrant
    re > 0, im >= 0.  That is one member of the group, the same whichever
    member the row is (quarter turns are exact on rounded values), so equal
    keys mean equal groups.  ValueError when a block is zero at key
    precision: its group would hold fewer than 4^(m+1) distinct words.
    """
    blocks = keys.reshape(len(keys), 1 << m, -1)
    nonzero = blocks != 0
    if not nonzero.any(axis=2).all():
        raise ValueError("the distinct walk needs a nonzero element in every block; "
                         "a seed sequence is zero at 12 decimals")
    lead = np.take_along_axis(blocks, nonzero.argmax(axis=2)[..., None], axis=2)[..., 0]
    lead = lead[:, [0, *(1 << np.arange(m))]]  # blocks 0 and 2^n
    re, im = lead.real, lead.imag
    # quarter turns that take each lead into the quadrant re > 0, im >= 0
    turns = -(((re <= 0) & (im > 0)) + 2 * ((re < 0) & (im <= 0)) + 3 * ((re >= 0) & (im < 0)))
    turns[:, 1:] -= turns[:, :1]
    x_bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    blocks *= _QUARTER_TURNS[(turns[:, :1] + turns[:, 1:] @ x_bits.T) % 4][..., None]
    blocks += 0.0
    return keys


def distinct_blocks(rule, s, m, *, seed=None) -> Iterator[np.ndarray]:
    """First outputs of the walk, each distinct sequence once, in walk order.

    Yields (n, L) arrays of rows, those of ``enumerate_rule``; a row is
    distinct when its ``sequence_key`` bytes differ from every earlier
    row's.  Each (choice, ell, pi) group of the walk is 4^(m+1) distinct
    words, equal to or disjoint from every other group (``_canonical``), so
    the distinct rows are the rows of the groups whose key no earlier group
    has: only their members are made, and no row is stored.  GuardError as
    for ``enumerate_rule``; ValueError when a seed sequence is zero at 12
    decimals.
    """
    for *_, values in _blocks(rule, s, m, seed, distinct=True):
        yield values


def distinct_sequences(rule, s, m, *, seed=None) -> int:
    """Number of distinct first outputs over the full enumeration.

    4^(m+1) words for each group whose key no earlier group has, as in
    ``distinct_blocks``, counted by key: no member is made.  Raises
    GuardError before any encode when the keys of all (choice, ell, pi)
    cells, each with _KEY_OVERHEAD, would exceed WALK_KEY_BYTES; ValueError
    when a seed sequence is zero at 12 decimals.
    """
    group = 4 ** (m + 1)
    cells = enumeration_size(rule, s, m) // group
    # checked before any rule is built or the m! orders are listed
    guard(cells * (_row_bytes(m, seed) + _KEY_OVERHEAD), WALK_KEY_BYTES,
          f"{rule} walk key bytes at m={m}")
    return group * sum(len(orders) for _, orders, *_ in _walk(rule, s, m, seed, distinct=True))
