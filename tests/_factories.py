"""Shared builders for randomized test parameters, and a reference encoder."""

import cmath
import math

import numpy as np

from csforge import ComplexSequence, EncodedPair, EncoderParams, RecursionParams, known_seed
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
