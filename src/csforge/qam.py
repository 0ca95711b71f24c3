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
length-1 seeds and A0 = m! 4^(m+1) for longer seeds, and ``enumerate_rule``
walks the full parameter space for small cases so the formulas can be
checked by exhaustive deduplication.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# encode_pair and recursion_to_encoder are not called here; they stay bound in
# this module because perfbench/tracing.py wraps them under these names
from .encoder import (  # noqa: F401
    EncoderParams, SeedPair, encode_family, encode_pair, recursion_to_encoder,
)
from .sequences import finite_steps

__all__ = [
    "DEFAULT_ENUM_GUARD",
    "ENUM_GUARD_ENV",
    "EnumerationLimitError",
    "Geometry",
    "MAX_DEDUP_BYTES",
    "QamGeometry",
    "RULES",
    "RuleCount",
    "RuleEntry",
    "RuleSpec",
    "blue_params",
    "count_sequences",
    "cyan_params",
    "distinct_sequences",
    "distinct_values",
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

ENUM_GUARD_ENV = "CS_FORGE_MAX_ENUM"
DEFAULT_ENUM_GUARD = 10_000_000
# Most bytes the dedup key set may take, counted for every combination of
# the walk as if all were distinct: each key holds 16 bytes per complex
# element plus _KEY_OVERHEAD_BYTES for its bytes object and its set slot
MAX_DEDUP_BYTES = 1 << 30
# Largest per-key cost above the key's own bytes that tracemalloc shows for a
# set of byte-string keys (CPython 3.11, 1,000 to 200,000 keys of 32 to 4,096
# bytes): 140 bytes, at set sizes just past a table resize
_KEY_OVERHEAD_BYTES = 144

QAM_POINT_TOL = 1e-6


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive walk would exceed the size guard."""


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
    re = 2 * u - 1
    im = 2 * v - 1
    distance = math.hypot(re, im)
    theta = math.atan2(im, re)
    phi = math.pi / 4 - theta
    return Geometry(distance, distance / math.sqrt(2.0), theta, phi, 2 * phi)


@dataclass(frozen=True)
class QamGeometry:
    """Derived structure of the 4s^2-point lattice."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be a positive integer")

    @property
    def n_quadrant(self) -> int:
        return self.s**2

    @property
    def n_diagonal(self) -> int:
        return self.s

    @property
    def n_offdiagonal(self) -> int:
        return self.s * (self.s - 1) // 2

    @property
    def n_triangle(self) -> int:
        return self.s * (self.s + 1) // 2

    def geometry(self, u: int, v: int) -> Geometry:
        if not (1 <= u <= self.s and 1 <= v <= self.s):
            raise ValueError(f"indices ({u}, {v}) out of range for s={self.s}")
        return lattice_geometry(u, v)


def lattice_points(s: int) -> np.ndarray:
    """All 4s^2 lattice points over the four quadrants."""
    odd = 2 * np.arange(-s + 1, s + 1) - 1
    re, im = np.meshgrid(odd, odd)
    return (re + 1j * im).reshape(-1)


def is_qam_point(value: complex, s: int, tol: float = QAM_POINT_TOL) -> bool:
    """Whether a complex value sits on the 4s^2 lattice within ``tol``."""
    if s < 1:
        raise ValueError("s must be a positive integer")

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
    mapped = to_lattice(values)
    return all(is_qam_point(complex(v), s, tol) for v in mapped if v != 0)


# -- rule parameter builders -------------------------------------------------


def _check_range(s, name, value):
    if not 1 <= value <= s:
        raise ValueError(f"{name}={value} out of range 1..{s}")


def green_params(s, u, v, m, pi=None, k=None, z=0, seed=None) -> EncoderParams:
    """One radius for all elements: scale by gamma, rotate onto the point."""
    _check_range(s, "u", u)
    _check_range(s, "v", v)
    g = lattice_geometry(u, v)
    const = z - _SCALE * g.phi
    return EncoderParams(
        m, RULE_MODULUS, pi, e_prime=_SCALE * math.log(g.gamma), k=k,
        k_prime=const, k_dprime=const, seed=seed,
    )


def _two_halves(s, ell, m, pi, k, z, seed, half_a, half_b) -> EncoderParams:
    """Scale and rotate each half at step ell; half_x is (scale, phase).

    ``recursion_to_encoder`` of a recursion whose only scales and rotations
    sit at step ell, with phase_joint = k: the amplitude difference lands on
    e[ell-1], the rotations telescope into k[ell-1] and k[ell], and the
    rotation of half a becomes the constant phase.
    """
    if not 1 <= ell <= m:
        raise ValueError(f"ell={ell} out of range 1..{m}")
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


def yellow_params(s, u, v, ell, m, pi=None, k=None, z=0, seed=None) -> EncoderParams:
    """Two diagonal radii: the halves are scaled independently at step ell."""
    _check_range(s, "u", u)
    _check_range(s, "v", v)
    if u == v:
        raise ValueError("yellow rule needs two different diagonal radii (u != v)")
    first = _SCALE * math.log(lattice_geometry(u, u).gamma)
    second = _SCALE * math.log(lattice_geometry(v, v).gamma)
    return _two_halves(s, ell, m, pi, k, z, seed, (first, 0.0), (second, 0.0))


def blue_params(
    s, u, v, w, ell, m, pi=None, k=None, z=0, sign_a=1, rotate_b_half=True, seed=None
) -> EncoderParams:
    """One diagonal radius and one off-diagonal point: rotate a single half."""
    _check_range(s, "u", u)
    _check_range(s, "v", v)
    _check_range(s, "w", w)
    if v <= w:
        raise ValueError("blue rule needs an off-diagonal pair with v > w")
    if sign_a not in (1, -1):
        raise ValueError("sign_a must be +1 or -1")
    diag = (_SCALE * math.log(lattice_geometry(u, u).gamma), 0.0)
    off = lattice_geometry(v, w)
    rotated = (_SCALE * math.log(off.gamma), sign_a * _SCALE * off.phi)
    if rotate_b_half:
        return _two_halves(s, ell, m, pi, k, z, seed, diag, rotated)
    return _two_halves(s, ell, m, pi, k, z, seed, rotated, diag)


def cyan_params(
    s, u, t, v, w, ell, m, pi=None, k=None, z=0, sign_a=1, sign_b=1, seed=None
) -> EncoderParams:
    """Two distinct off-diagonal points, one per half, each with its rotation."""
    for name, value in (("u", u), ("t", t), ("v", v), ("w", w)):
        _check_range(s, name, value)
    if u <= t or v <= w:
        raise ValueError("cyan rule needs off-diagonal pairs with u > t and v > w")
    if (u, t) == (v, w):
        raise ValueError("cyan rule needs two different off-diagonal points")
    if sign_a not in (1, -1) or sign_b not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    first = lattice_geometry(u, t)
    second = lattice_geometry(v, w)
    return _two_halves(
        s, ell, m, pi, k, z, seed,
        (_SCALE * math.log(first.gamma), sign_a * _SCALE * first.phi),
        (_SCALE * math.log(second.gamma), sign_b * _SCALE * second.phi),
    )


def orange_params(s, u, v, ell, m, pi=None, k=None, z=0, sign_a=1, seed=None) -> EncoderParams:
    """One off-diagonal radius; the halves sit at mirror angles.

    The step phase k[ell-1] is the quadrant offset of the mirror rotation.
    """
    _check_range(s, "u", u)
    _check_range(s, "v", v)
    if u <= v:
        raise ValueError("orange rule needs u > v")
    if sign_a not in (1, -1):
        raise ValueError("sign_a must be +1 or -1")
    if not 1 <= ell <= m:
        raise ValueError(f"ell={ell} out of range 1..{m}")
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
    """Everything the package knows about one rule, in one record."""

    builder: str  # name of the *_params function in this module
    indices: tuple[str, ...]  # lattice indices, in ``--indices`` order
    knobs: tuple[str, ...]  # the other RuleSpec fields the builder reads
    choices: Callable[[int], list[dict]]  # admissible indices and signs at s
    units: Callable[[int, int, int], int]  # family size in G0/A0 units at (s, m, span)
    phase_last: bool = False  # the walk varies step phase k[ell-1] last

    @property
    def has_ell(self) -> bool:
        return "ell" in self.knobs

    @property
    def build(self) -> Callable[..., EncoderParams]:
        # looked up in this module on each access, so a wrapper bound here
        # (a profiler, a test double) sees the calls
        return globals()[self.builder]


def _grid(s):
    return [(a, b) for a in range(1, s + 1) for b in range(1, s + 1)]


def _offdiag(s):
    return [(a, b) for a in range(1, s + 1) for b in range(1, a)]  # a > b


_SIGNS = (1, -1)

_RULE_TABLE = {
    "green": RuleEntry(
        "green_params", ("u", "v"), ("z",),
        lambda s: [dict(u=u, v=v) for u, v in _grid(s)],
        lambda s, m, span: s**2,
    ),
    "yellow": RuleEntry(
        "yellow_params", ("u", "v"), ("ell", "z"),
        lambda s: [dict(u=u, v=v) for u, v in _grid(s) if u != v],
        lambda s, m, span: s * (s - 1) * span,
    ),
    "blue": RuleEntry(
        "blue_params", ("u", "v", "w"), ("ell", "z", "sign_a", "rotate_b_half"),
        lambda s: [
            dict(u=u, v=v, w=w, rotate_b_half=half, sign_a=sign)
            for u in range(1, s + 1)
            for v, w in _offdiag(s)
            for half in (True, False)
            for sign in _SIGNS
        ],
        lambda s, m, span: 2 * s**2 * (s - 1) * span,
    ),
    "cyan": RuleEntry(
        "cyan_params", ("u", "t", "v", "w"), ("ell", "z", "sign_a", "sign_b"),
        lambda s: [
            dict(u=u, t=t, v=v, w=w, sign_a=sa, sign_b=sb)
            for u, t in _offdiag(s)
            for v, w in _offdiag(s)
            if (u, t) != (v, w)
            for sa in _SIGNS
            for sb in _SIGNS
        ],
        lambda s, m, span: (s + 1) * s * (s - 1) * (s - 2) * span,
    ),
    "orange": RuleEntry(
        "orange_params", ("u", "v"), ("ell", "z", "sign_a"),
        lambda s: [dict(u=u, v=v, sign_a=sign) for u, v in _offdiag(s) for sign in _SIGNS],
        lambda s, m, span: s * (s - 1) * m,
        phase_last=True,
    ),
}

RULES = tuple(_RULE_TABLE)


def rule_entry(rule: str) -> RuleEntry:
    """The table record of one rule; ValueError for an unknown name."""
    try:
        return _RULE_TABLE[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}") from None


@dataclass(frozen=True)
class RuleSpec:
    """Declarative form of one rule choice, convertible to encoder params."""

    rule: str
    u: int = 1
    v: int = 1
    w: int = 1
    t: int = 1
    ell: int = 1
    sign_a: int = 1
    sign_b: int = 1
    rotate_b_half: bool = True
    z: int = 0
    k: tuple = ()


def rule_params(spec: RuleSpec, s: int, m: int, pi=None, seed=None) -> EncoderParams:
    """Build encoder parameters from a rule spec (modulus fixed at 4)."""
    entry = rule_entry(spec.rule)
    knobs = {name: getattr(spec, name) for name in entry.indices + entry.knobs}
    return entry.build(s=s, m=m, pi=pi, k=spec.k or None, seed=seed, **knobs)


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
    return np.round(np.asarray(values, dtype=complex), 12) + 0.0


def sequence_key(values) -> bytes:
    """Canonical dedup key: values rounded to 12 decimals, zero-normalized."""
    return _key_values(values).tobytes()


def _enum_guard(guard: int | None) -> int:
    if guard is not None:
        return int(guard)
    return int(os.environ.get(ENUM_GUARD_ENV, DEFAULT_ENUM_GUARD))


def enumeration_size(rule, s, m, n_pis=None, n_ells=None) -> int:
    """Raw combination count the exhaustive walk would visit.

    Per admissible choice: every step choice (rules without one have a
    single), every order, 4^m step phases and one free constant.
    """
    entry = rule_entry(rule)
    n_pis = n_pis if n_pis is not None else math.factorial(m)
    n_ells = (n_ells if n_ells is not None else m) if entry.has_ell else 1
    return len(entry.choices(s)) * n_ells * n_pis * 4 ** (m + 1)


def _phase_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (k, z) in 4^m x 4: k in lexicographic order, z fastest."""
    digits = (np.arange(4**m)[:, None] >> (2 * np.arange(m - 1, -1, -1))) & 3
    K, z = np.repeat(digits, 4, axis=0), np.tile(np.arange(4), 4**m)
    K.flags.writeable = z.flags.writeable = False
    return K, z


def enumerate_rule(
    rule: str,
    s: int,
    m: int,
    pis: Iterable[Sequence[int]] | None = None,
    ells: Iterable[int] | None = None,
    seed: SeedPair | None = None,
    guard: int | None = None,
) -> Iterator[tuple[EncoderParams, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk every admitted parameter combination in lexicographic order.

    Yields one (params, K, z, values) block per (choice, ell, pi) group:
    ``params`` is the group's member with k = 0 and z = 0, and row i of
    ``values`` is the first output of the member built with k = K[i] and
    z = z[i].  Blocks come in the order choice, ell, pi; rows in the order
    k (lexicographic, orange's k[ell-1] last), then z.

    Raises EnumerationLimitError before any encode when the raw combination
    count exceeds the guard (default 1e7, overridable via the
    CS_FORGE_MAX_ENUM environment variable).
    """
    entry = rule_entry(rule)
    pis = [tuple(p) for p in pis] if pis is not None else list(
        itertools.permutations(range(1, m + 1))
    )
    ells = list(ells) if ells is not None else list(range(1, m + 1))
    size = enumeration_size(rule, s, m, len(pis), len(ells))
    limit = _enum_guard(guard)
    if size > limit:
        raise EnumerationLimitError(
            f"{rule} enumeration at s={s}, m={m} needs {size} combinations, guard is {limit}"
        )
    build = entry.build
    K, z = _phase_grid(m)
    steps = [{"ell": ell} for ell in ells] if entry.has_ell else [{}]
    for choice in entry.choices(s):
        for step in steps:
            fixed = dict(choice, **step, s=s, m=m, seed=seed)
            rows = K
            if entry.phase_last:
                ell = step["ell"]
                rows = K[:, [*range(ell - 1), m - 1, *range(ell - 1, m - 1)]]
                rows.flags.writeable = False
            for pi in pis:
                params = build(pi=pi, k=None, z=0, **fixed)
                values = encode_family(params, rows, z)
                values.flags.writeable = False
                yield params, rows, z, values


def distinct_values(rule, s, m, pis=None, ells=None, seed=None, guard=None) -> Iterator[np.ndarray]:
    """First outputs of the walk, each distinct sequence once, in walk order.

    Each row is keyed by the bytes ``sequence_key`` gives it, computed for
    the whole block at once.  Raises EnumerationLimitError before any encode
    when the key set could pass MAX_DEDUP_BYTES, that is when the walk's
    combinations, all taken as distinct, would.
    """
    pis = [tuple(p) for p in pis] if pis is not None else None
    ells = list(ells) if ells is not None else None
    size = enumeration_size(rule, s, m, None if pis is None else len(pis),
                            None if ells is None else len(ells))
    length = (1 if seed is None else len(seed)) << m
    need = size * (16 * length + _KEY_OVERHEAD_BYTES)
    if need > MAX_DEDUP_BYTES:
        raise EnumerationLimitError(
            f"{rule} dedup at s={s}, m={m} may hold {size} keys of length {length}, "
            f"{need} bytes; the limit is {MAX_DEDUP_BYTES}"
        )
    seen: set[bytes] = set()
    for _, _, _, values in enumerate_rule(rule, s, m, pis, ells, seed, guard):
        keys = _key_values(values).tobytes()
        width = len(keys) // len(values)
        for start in range(0, len(keys), width):
            key = keys[start : start + width]
            if key not in seen:
                seen.add(key)
                # a copy, so a kept row does not keep its whole block alive
                yield values[start // width].copy()


def distinct_sequences(rule, s, m, pis=None, ells=None, seed=None, guard=None) -> int:
    """Number of distinct first outputs over the full enumeration."""
    return sum(1 for _ in distinct_values(rule, s, m, pis, ells, seed, guard))
