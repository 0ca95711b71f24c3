"""Sequence metrology.

Aperiodic autocorrelation, pair complementarity checks, the correlation-sum
peak-power bound, and the oversampled instantaneous envelope power of the
OFDM symbol whose frequency coefficients are the sequence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import as_array, integral, pads, permutation

__all__ = [
    "ApacProfile",
    "GcpCheck",
    "GridLimitError",
    "MAX_GRID_POINTS",
    "PowerTrace",
    "apac",
    "is_gcp",
    "papr_bound_db",
    "papr_oversampled_db",
    "power_from_apac",
    "shifts_avoid_overlap",
]

GCP_TOL = 1e-9

# Most points an oversampled envelope grid may have: 16 times the longest
# pair the encoder builds (encoder.MAX_SEQUENCE_LENGTH), 512 MiB of real
# power values
MAX_GRID_POINTS = 16 << 22


class GridLimitError(RuntimeError):
    """Raised when oversample * length exceeds ``MAX_GRID_POINTS``."""


def _grid_points(oversample: int, n: int) -> int:
    """The size of the grid, checked before anything is allocated; oversample is an integer >= 4."""
    try:
        factor = integral(oversample, "oversample")
    except TypeError:  # None and other non-numbers
        factor = 0
    if factor < 4:
        raise ValueError(f"oversample must be an integer >= 4, got {oversample!r}")
    if factor * n > MAX_GRID_POINTS:
        raise GridLimitError(
            f"oversampled grid of {factor} x {n} points exceeds the limit of {MAX_GRID_POINTS}"
        )
    return factor * n


@dataclass(frozen=True)
class ApacProfile:
    """Aperiodic autocorrelation rho(k) on lags -(n-1)..(n-1)."""

    values: np.ndarray
    n: int

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
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
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
    """Peak-to-average upper bound from the autocorrelation magnitudes, in dB."""
    prof = apac(seq)
    r0 = prof.zero_lag
    if r0 <= 0:
        raise ValueError("zero sequence has no power ratio")
    bound = (r0 + 2.0 * float(np.sum(np.abs(prof.offpeak())))) / r0
    return 10.0 * np.log10(bound)


@dataclass(frozen=True)
class PowerTrace:
    """Envelope power ``power[i]`` at t_norm = t / T = i / len(power), an oversampled grid."""

    oversample: int
    power: np.ndarray

    @property
    def t_norm(self) -> np.ndarray:
        return np.arange(len(self.power)) / len(self.power)

    @property
    def peak(self) -> float:
        return float(np.max(self.power))

    @property
    def mean(self) -> float:
        return float(np.mean(self.power))

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

    ``power_from_apac`` gives |sum_i a_i e^(j 2 pi i t/T)|^2 at t = i T / (L * len(a)).
    The grid mean equals rho(0), the time average over the whole symbol including
    structural zeros, so padding does not change the mean.  The sampled peak
    approaches the continuous-time peak from below.
    """
    trace = PowerTrace(oversample=oversample, power=power_from_apac(apac(seq), oversample))
    if trace.mean <= 0:
        raise ValueError("zero sequence has no power ratio")
    return 10.0 * np.log10(trace.peak / trace.mean), trace


def power_from_apac(profile: ApacProfile, oversample: int = 16) -> np.ndarray:
    """Envelope power at t = i T / G, G = oversample * n >= 4 n, from the autocorrelation.

    |sum_i a_i e^(j 2 pi i t/T)|^2 = sum_k rho(k) e^(j 2 pi k t/T) is the spectral
    identity the complementarity bound rests on.  rho is Hermitian, so one real
    inverse FFT of rho(0..n-1) evaluates the sum on the whole grid.  Rounding can
    leave about -1e-16 of the peak at nulls; the power is clipped at 0.
    """
    n_grid = _grid_points(oversample, profile.n)
    power = np.fft.irfft(profile.values[profile.n - 1 :], n_grid, norm="forward")
    return np.maximum(power, 0.0, out=power)


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
