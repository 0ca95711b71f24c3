"""Shared builders for randomized test parameters, a reference encoder and a reference walk."""

import cmath
import itertools
import math

import numpy as np

from csforge import (
    ComplexSequence,
    EncodedPair,
    EncoderParams,
    RecursionParams,
    encode_pair,
    known_seed,
    qam,
)
from csforge.encoder import component_functions


def random_pi(rng, m):
    return tuple(int(v) for v in rng.permutation(np.arange(1, m + 1)))


def overlap_free_shifts(rng, pi, base=3):
    """Shift vector satisfying the disjoint-support condition."""
    pi = list(pi)
    m = len(pi)
    d = [0] * m
    for level in range(m, 0, -1):
        pos = pi.index(level)
        if level == m:
            d[pos] = int(rng.integers(0, base + 1))
        else:
            tail = sum(d[i] for i in range(m) if pi[i] > level)
            d[pos] = tail + int(rng.integers(0, base + 1))
    return tuple(d)


def random_shifts(rng, pi, mode):
    m = len(pi)
    if mode == "none":
        return (0,) * m
    if mode == "disjoint":
        return overlap_free_shifts(rng, pi)
    if mode == "free":
        return tuple(int(v) for v in rng.integers(0, 5, m))
    # mixed: one of the three with equal odds
    return random_shifts(rng, pi, ("none", "disjoint", "free")[int(rng.integers(3))])


def random_encoder_params(rng, m_max=6, moduli=(2, 4, 8), seed_lengths=(1, 2, 3),
                          shift_mode="mixed", m_min=1):
    m = int(rng.integers(m_min, m_max + 1))
    H = int(rng.choice(moduli))
    pi = random_pi(rng, m)
    return EncoderParams(
        m=m,
        H=H,
        pi=pi,
        e=tuple(rng.uniform(-1, 1, m)),
        e_prime=float(rng.uniform(-1, 1)),
        k=tuple(rng.uniform(0, H, m)),
        k_prime=float(rng.uniform(0, H)),
        k_dprime=float(rng.uniform(0, H)),
        d=random_shifts(rng, pi, shift_mode),
        seed=known_seed(int(rng.choice(seed_lengths))),
    )


def random_recursion_params(rng, m_max=5, moduli=(2, 4, 8), seed_lengths=(1, 2, 3), m_min=1):
    m = int(rng.integers(m_min, m_max + 1))
    H = int(rng.choice(moduli))
    return RecursionParams(
        H=H,
        psi=tuple(int(v) for v in rng.permutation(m)),
        scale_a=tuple(rng.uniform(-1, 1, m)),
        scale_b=tuple(rng.uniform(-1, 1, m)),
        phase_a=tuple(rng.uniform(0, H, m)),
        phase_b=tuple(rng.uniform(0, H, m)),
        phase_joint=tuple(rng.uniform(0, H, m)),
        shifts=tuple(int(v) for v in rng.integers(0, 4, m)),
        seed=known_seed(int(rng.choice(seed_lengths))),
    )


def pair_matches(x, y, rtol=1e-9):
    """Elementwise agreement with an absolute floor tied to the peak value."""
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(float(np.max(np.abs(x))), 1.0)
    return x.shape == y.shape and np.allclose(x, y, rtol=rtol, atol=rtol * scale)


def reference_encode(params):
    """Block-by-block encoder over the symbolic component tables.

    Reads the five tables from ``component_functions`` and places one seed
    copy at a time, so it shares no table or placement code with
    ``encode_pair``.
    """
    p = params
    comp = component_functions(p)
    amp_c, amp_d = comp.amp_c.table(), comp.amp_d.table()
    phase_c, phase_d = comp.phase_c.table(), comp.phase_d.table()
    offsets = np.rint(comp.shift.table()).astype(int)
    w = 2.0 * math.pi / p.H
    a, b = p.seed.a.values, p.seed.b.values
    n_seed = len(a)
    total = n_seed * 2**p.m + sum(p.d)
    c_out = np.zeros(total, dtype=complex)
    d_out = np.zeros(total, dtype=complex)
    occupancy = np.zeros(total, dtype=int)
    for x in range(2**p.m):
        block = a if (x >> (p.m - p.pi[0])) & 1 == 0 else b
        start = offsets[x] + x * n_seed
        c_out[start : start + n_seed] += block * cmath.exp(w * amp_c[x] + 1j * w * (phase_c[x] % p.H))
        d_out[start : start + n_seed] += block * cmath.exp(w * amp_d[x] + 1j * w * (phase_d[x] % p.H))
        occupancy[start : start + n_seed] += 1
    return EncodedPair(ComplexSequence(c_out), ComplexSequence(d_out), bool(np.any(occupancy > 1)))


def reference_walk(rule, s, m, seed=None, pis=None, ells=None):
    """The exhaustive walk one member at a time, as ``qam.enumerate_rule`` once ran it.

    Yields (k, z, params, first output) per member: every member is built
    by the rule's builder and encoded by ``encode_pair``, in the order
    choice, ell, pi, k (lexicographic, orange's k[ell-1] last), z.  ``pis``
    and ``ells`` limit the orders and steps (default: all of them).
    """
    entry = qam.rule_entry(rule)
    pis = pis if pis is not None else list(itertools.permutations(range(1, m + 1)))
    ells = ells if ells is not None else range(1, m + 1)
    steps = [{"ell": ell} for ell in ells] if entry.has_ell else [{}]
    for choice in entry.choices(s):
        for step in steps:
            fixed = dict(choice, **step, s=s, m=m, seed=seed)
            for pi in pis:
                for k in itertools.product(range(4), repeat=m):
                    if entry.phase_last:
                        ell = step["ell"]
                        k = k[: ell - 1] + k[-1:] + k[ell - 1 : -1]
                    for z in range(4):
                        params = entry.build(pi=pi, k=k, z=z, **fixed)
                        yield k, z, params, encode_pair(params).c.values


def reference_distinct_keys(rule, s, m, seed=None, pis=None, ells=None):
    """``qam.sequence_key`` of each distinct first output of the reference walk, first seen first."""
    seen = {}
    for *_, values in reference_walk(rule, s, m, seed, pis, ells):
        seen.setdefault(qam.sequence_key(values), None)
    return list(seen)


def reference_distinct_rows(blocks):
    """The rows of walk blocks (as ``qam.enumerate_rule`` yields them) whose
    ``qam.sequence_key`` no earlier row has, in walk order, as one array."""
    seen = {}
    for *_, values in blocks:
        for row in values:
            seen.setdefault(qam.sequence_key(row), row)
    return np.array(list(seen.values()))
