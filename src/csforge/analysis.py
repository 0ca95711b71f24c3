"""Sequence metrology.

Aperiodic autocorrelation, pair complementarity checks, the correlation-sum
peak-power bound, and the oversampled instantaneous envelope power of the
OFDM symbol whose frequency coefficients are the sequence.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import as_array, pads, permutation

__all__ = [
    "ApacProfile",
    "GcpCheck",
    "PowerTrace",
    "apac",
    "is_gcp",
    "papr_bound_db",
    "papr_oversampled_db",
    "power_from_apac",
    "shifts_avoid_overlap",
]

GCP_TOL = 1e-9


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

    Passes when max_{k!=0} |rho_a(k) + rho_b(k)| <= tol * (rho_a(0) + rho_b(0)).
    """
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
    """Instantaneous envelope power sampled on an oversampled symbol grid."""

    oversample: int
    t_norm: np.ndarray
    power: np.ndarray

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def papr_oversampled_db(seq, oversample: int = 16) -> tuple[float, PowerTrace]:
    """Measured peak-to-average power ratio of the time-domain symbol, in dB.

    Evaluates |sum_i a_i e^(j 2 pi i t/T)|^2 at t = n T / (L * len(a)).  The
    mean over the grid equals rho(0), i.e. the time average over the whole
    symbol including structural zeros, so padding does not change the mean.
    The sampled peak approaches the continuous-time peak from below.
    """
    a = as_array(seq)
    if oversample < 4:
        raise ValueError("oversampling factor must be at least 4")
    n_grid = oversample * len(a)
    # sum_i a_i e^{+j w i} == conj(FFT(conj(a))), and |.| is FFT-magnitude
    power = np.abs(np.fft.fft(np.conj(a), n_grid)) ** 2
    trace = PowerTrace(
        oversample=oversample,
        t_norm=np.arange(n_grid) / n_grid,
        power=power,
    )
    if trace.mean <= 0:
        raise ValueError("zero sequence has no power ratio")
    return 10.0 * np.log10(trace.peak / trace.mean), trace


def power_from_apac(profile: ApacProfile, oversample: int = 16) -> np.ndarray:
    """Envelope power rebuilt from the autocorrelation, on the same grid.

    sum_k rho(k) e^(j 2 pi k t/T) reproduces the directly evaluated power,
    which is the spectral identity the complementarity bound rests on.  With
    rho(k) placed at index k mod G on the G = oversample * n point grid, one
    inverse FFT evaluates that sum at every t = i T / G.
    """
    n_grid = oversample * profile.n
    spread = np.zeros(n_grid, dtype=complex)
    np.add.at(spread, np.arange(1 - profile.n, profile.n) % n_grid, profile.values)
    return np.real(n_grid * np.fft.ifft(spread))


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
