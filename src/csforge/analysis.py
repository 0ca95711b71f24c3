"""Sequence metrology.

Aperiodic autocorrelation, pair complementarity checks, the correlation-sum
peak-power bound, and the oversampled instantaneous envelope power of the
OFDM symbol whose frequency coefficients are the sequence.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import GuardError, as_array, integral, pads, permutation, tolerance

__all__ = [
    "ApacProfile",
    "GcpCheck",
    "MAX_GRID_POINTS",
    "PowerTrace",
    "apac",
    "is_gcp",
    "papr_bound_db",
    "papr_oversampled_db",
    "shifts_avoid_overlap",
]

GCP_TOL = 1e-9

# Most points an oversampled envelope grid may have: 16 times the longest
# pair the encoder builds (encoder.MAX_SEQUENCE_LENGTH), 512 MiB of real
# power values
MAX_GRID_POINTS = 16 << 22


def _grid_points(oversample: int, n: int) -> int:
    """The size of the grid, checked before anything is allocated; oversample is an integer >= 4."""
    try:
        factor = integral(oversample, "oversample")
    except TypeError:  # None and other non-numbers
        factor = 0
    if factor < 4:
        raise ValueError(f"oversample must be an integer >= 4, got {oversample!r}")
    points = factor * n
    if points > MAX_GRID_POINTS:
        # the oversample can have more digits than Python writes out: give the grid's size
        raise GuardError(f"oversampled grid of at least 2^{points.bit_length() - 1} points "
                         f"exceeds the limit of {MAX_GRID_POINTS}")
    return points


@dataclass(frozen=True)
class ApacProfile:
    """Aperiodic autocorrelation rho(k) on lags -(n-1)..(n-1)."""

    values: np.ndarray
    n: int

    def __len__(self) -> int:
        """The length n of the sequence, so that a profile counts as long as its sequence."""
        return self.n

    def lag(self, k: int) -> complex:
        if not -self.n < k < self.n:
            raise ValueError(f"lag {k} out of range for length {self.n}")
        return complex(self.values[self.n - 1 + k])

    @property
    def zero_lag(self) -> float:
        return float(self.values[self.n - 1].real)

    def offpeak(self) -> np.ndarray:
        """rho(k) for k = 1..n-1 (the negative side is its conjugate)."""
        return self.values[self.n :]


def _circular_apac(*seqs: np.ndarray) -> np.ndarray:
    """Summed autocorrelation of equal-length sequences, in circular order.

    Wiener-Khinchin: one forward FFT of all the sequences, zero-padded to
    the smallest power of two P >= 2n - 1 so that no lag wraps onto another,
    and one inverse FFT of their summed power spectra.  Lag k lands at index
    k, lag -k at index P - k.
    """
    n = len(seqs[0])
    if n == 0:
        raise ValueError("empty sequence")
    spec = np.fft.fft(seqs, 1 << (2 * n - 2).bit_length())
    spec *= spec.conj()
    return np.fft.ifft(spec.sum(axis=0))


def apac(seq) -> ApacProfile:
    """Aperiodic autocorrelation of a complex sequence, in O(n log n).

    rho(k) = sum_i conj(a_i) a_{i+k}; by construction rho(-k) = conj(rho(k)),
    and ``values[n - 1 + k]`` holds rho(k).
    """
    a = as_array(seq)
    n = len(a)
    circ = _circular_apac(a)
    return ApacProfile(values=np.concatenate((circ[len(circ) - n + 1 :], circ[:n])), n=n)


@dataclass(frozen=True)
class GcpCheck:
    """Outcome of a complementarity test of a sequence pair."""

    ok: bool
    violation: float  # max_k|rho_a(k) + rho_b(k)| over k != 0
    energy: float  # rho_a(0) + rho_b(0)

    @property
    def residual(self) -> float:
        return self.violation / self.energy if self.energy > 0 else float("inf")


def is_gcp(a, b, tol: float = GCP_TOL) -> GcpCheck:
    """Check that the off-peak autocorrelations of a and b cancel.

    Passes when max_{k!=0} |rho_a(k) + rho_b(k)| <= tol * (rho_a(0) + rho_b(0));
    ValueError unless tol is finite and >= 0.
    """
    tol = tolerance(tol)
    a = as_array(a)
    b = as_array(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    circ = _circular_apac(a, b)
    offpeak = circ[1 : len(a)]
    violation = float(np.max(np.abs(offpeak))) if len(offpeak) else 0.0
    energy = float(circ[0].real)
    return GcpCheck(ok=violation <= tol * energy, violation=violation, energy=energy)


def papr_bound_db(seq) -> float:
    """Peak-to-average upper bound from the autocorrelation magnitudes, in dB.

    ``seq`` may also be its ``ApacProfile``, such as ``PowerTrace.profile``,
    which saves computing the autocorrelation again.
    """
    prof = seq if isinstance(seq, ApacProfile) else apac(seq)
    r0 = prof.zero_lag
    if r0 <= 0:
        raise ValueError("zero sequence has no power ratio")
    bound = (r0 + 2.0 * float(np.sum(np.abs(prof.offpeak())))) / r0
    return 10.0 * np.log10(bound)


@dataclass(frozen=True)
class PowerTrace:
    """Envelope power on the grid of G = oversample * n points, sample i at t_norm = i / G.

    ``power`` is assembled from the phases that gave ``peak`` and ``mean``
    when it is first read, so ``power.max() == peak``.
    """

    profile: ApacProfile
    oversample: int
    peak: float
    mean: float

    @functools.cached_property
    def power(self) -> np.ndarray:
        """|sum_i a_i e^(j 2 pi i t/T)|^2 = sum_k rho(k) e^(j 2 pi k t/T), the
        spectral identity the complementarity bound rests on, at t = i T / G."""
        n_grid = _grid_points(self.oversample, self.profile.n)
        power = np.empty(n_grid)
        for where, phase in _phases(self.profile, n_grid):
            power[where] = phase
        return power

    @property
    def t_norm(self) -> np.ndarray:
        n_grid = _grid_points(self.oversample, self.profile.n)
        return np.arange(n_grid) / n_grid

    def write_csv(self, dest) -> None:
        """Write `t_norm,power` rows with a header to a path or file object."""
        if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
            with open(dest, "w", newline="") as fh:
                self.write_csv(fh)
            return
        writer = csv.writer(dest, lineterminator="\n")
        writer.writerow(["t_norm", "power"])
        for t, p in zip(self.t_norm, self.power):
            writer.writerow([repr(float(t)), repr(float(p))])


def papr_oversampled_db(seq, oversample: int = 16) -> tuple[float, PowerTrace]:
    """Measured peak-to-average power ratio of the time-domain symbol, in dB.

    The power |sum_i a_i e^(j 2 pi i t/T)|^2 at t = i T / (L * len(a)) is
    reduced to its peak and mean phase by phase (``_phases``), so no grid is
    held.  The grid mean equals rho(0), the time average over the whole symbol
    including structural zeros, so padding does not change the mean.  The
    sampled peak approaches the continuous-time peak from below.
    """
    profile = apac(seq)
    n_grid = _grid_points(oversample, profile.n)
    peak = total = 0.0
    # each power is at most n rho(0), but the grid's total, n_grid rho(0), can overflow
    with np.errstate(over="ignore"):
        for _, power in _phases(profile, n_grid):
            peak = max(peak, float(power.max()))
            total += float(power.sum())
    if total <= 0:
        raise ValueError("zero sequence has no power ratio")
    if total == math.inf:
        raise ValueError(f"the envelope's total power over {n_grid} grid points overflows")
    mean = total / n_grid
    return 10.0 * np.log10(peak / mean), PowerTrace(profile, oversample, peak, mean)


# Fewest points a phase of the envelope grid is cut to: 512 KiB of float64
# power and its transform stay in a core's L2 cache
_PHASE_POINTS = 1 << 16


def _phases(profile: ApacProfile, n_grid: int):
    """The grid's power in S interleaved phases, one at a time: (slice, power).

    Phase s holds samples s, s + S, ... of the grid.  Delaying t by s samples
    turns rho(k) into rho(k) e^(j 2 pi k s / G), and rho is Hermitian, so the
    phase is one real inverse FFT of those n coefficients onto G / S points.
    S is the largest power of two that divides G and leaves each phase at
    least 2 n points (fewer would alias lags: irfft keeps only the real part
    of the Nyquist bin) and at least ``_PHASE_POINTS``; grids below 2^17
    points and odd grids are one phase.  Rounding can leave about -1e-16 of
    the peak at nulls; the power is clipped at 0.
    """
    n = profile.n
    stride = 1
    while n_grid % (2 * stride) == 0 and n_grid // (2 * stride) >= max(2 * n, _PHASE_POINTS):
        stride *= 2
    rho = profile.values[n - 1 :]
    block = 1 << (n.bit_length() // 2)
    turn = 2j * np.pi / n_grid
    for s in range(stride):
        coeffs = rho
        if s:
            # e^(j 2 pi k s / G) for k = hi + lo, lo < block: the outer product
            # of two tables of about sqrt(n) exponentials, each angle k s
            # reduced mod G in integers
            hi = np.exp(np.arange(0, n, block) * s % n_grid * turn)
            lo = np.exp(np.arange(block) * s % n_grid * turn)
            coeffs = np.multiply.outer(hi, lo).ravel()[:n]
            coeffs *= rho
        power = np.fft.irfft(coeffs, n_grid // stride, norm="forward")
        yield slice(s, None, stride), np.maximum(power, 0.0, out=power)


def shifts_avoid_overlap(d: Sequence[int], pi: Sequence[int]) -> bool:
    """True when the per-step zero-padding keeps all seed copies disjoint.

    Requires, for each level a below the top, that the padding attached to
    the step with pi equal to a covers the total padding of all steps with
    larger pi.
    """
    m = len(pi)
    pi = permutation(pi, m, 1, "pi")
    d = pads(d, m, "shifts")
    for level in range(1, m):
        tail = sum(d[i] for i in range(m) if pi[i] > level)
        if d[pi.index(level)] < tail:
            return False
    return True
