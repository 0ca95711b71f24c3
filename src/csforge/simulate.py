"""Minimum-distance detection of sequence codebooks over AWGN, desk scale.

Index bits map to codebook entries in enumeration order (entry i encodes the
bits of i).  Energy accounting: Eb is the mean codeword energy divided by the
bits per word, and the channel adds circular complex noise of variance
N0 = Eb / 10^(EbN0_dB/10) per element.  An Eb/N0 of +inf means noiseless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import as_array

__all__ = [
    "MAX_CODEBOOK",
    "SimReport",
    "min_distance_sim",
    "pairwise_error_rate",
]

MAX_CODEBOOK = 1 << 16

_CHUNK = 4096  # trials per noise draw

# size of one block of nearest-neighbour scores: rows of M float64 numbers
_BLOCK_BYTES = 1 << 24


class CodebookLimitError(RuntimeError):
    """Raised when a codebook exceeds the desk-scale guard."""


@dataclass(frozen=True)
class SimReport:
    """Detection outcome per Eb/N0 point; reproducible from the seed."""

    ebn0_db: tuple[float, ...]
    bit_errors: tuple[int, ...]
    trials: int
    codebook_size: int
    bits_per_word: int
    rng_seed: int

    @property
    def ber(self) -> tuple[float, ...]:
        total = self.trials * self.bits_per_word
        return tuple(e / total for e in self.bit_errors)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "ebn0_db": list(self.ebn0_db),
            "bit_errors": list(self.bit_errors),
            "ber": list(self.ber),
            "trials": self.trials,
            "codebook_size": self.codebook_size,
            "bits_per_word": self.bits_per_word,
            "rng_seed": self.rng_seed,
        }


def _prepare_codebook(codebook) -> np.ndarray:
    words = np.asarray([as_array(w) for w in codebook], dtype=complex)
    if words.ndim != 2 or len(words) < 2:
        raise ValueError("codebook must hold at least two equal-length sequences")
    if len(words) > MAX_CODEBOOK:
        raise CodebookLimitError(f"codebook of {len(words)} exceeds {MAX_CODEBOOK}")
    return words


def _popcount(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    v = values.copy()
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


def min_distance_sim(
    codebook,
    ebn0_db: Sequence[float],
    trials: int,
    rng_seed: int,
) -> SimReport:
    """Transmit random codewords over AWGN and decode by nearest neighbour.

    Only the first 2^floor(log2(M)) words carry bits, so the bit map is a
    bijection.  Given the same seed and arguments the report is identical.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for point in ebn0_db:
        if math.isnan(point) or point == -math.inf:
            raise ValueError(f"Eb/N0 must be a number or +inf, got {point}")
    words = _prepare_codebook(codebook)
    bits = int(math.floor(math.log2(len(words))))
    used = words[: 1 << bits]
    norms = np.sum(np.abs(used) ** 2, axis=1)
    eb = float(np.mean(norms)) / bits
    # ||r - c||^2 = ||r||^2 - (2 Re<r, c> - ||c||^2), and the first term is the
    # same for every candidate c.  Read r and c as real vectors
    # [Re x_0, Im x_0, Re x_1, ...] and append 1 to r: the bracket is then one
    # real product with the weight column [2 c; -||c||^2], so one matmul
    # scores a block of received rows and one argmax decides it (the first
    # maximum wins, as the first minimum of the distance would)
    weights = np.vstack([2.0 * used.view(float).T, -norms])
    rows = max(1, _BLOCK_BYTES // (8 * len(used)))

    rng = np.random.default_rng(rng_seed)
    errors: list[int] = []
    for point in ebn0_db:
        if point == math.inf:
            sigma = 0.0
        else:
            n0 = eb / 10.0 ** (point / 10.0)
            sigma = math.sqrt(n0 / 2.0)
        bit_errs = 0
        remaining = trials
        while remaining > 0:
            batch = min(_CHUNK, remaining)
            idx = rng.integers(0, len(used), size=batch)
            tx = used[idx]
            noise = sigma * (
                rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)
            )
            feats = np.empty((batch, len(weights)))
            feats[:, :-1] = (tx + noise).view(float)
            feats[:, -1] = 1.0
            decided = np.concatenate([
                np.argmax(feats[i : i + rows] @ weights, axis=1)
                for i in range(0, batch, rows)
            ])
            bit_errs += int(np.sum(_popcount(idx ^ decided)))
            remaining -= batch
        errors.append(bit_errs)

    return SimReport(
        ebn0_db=tuple(float(x) for x in ebn0_db),
        bit_errors=tuple(errors),
        trials=int(trials),
        codebook_size=len(used),
        bits_per_word=bits,
        rng_seed=int(rng_seed),
    )


def pairwise_error_rate(word_a, word_b, ebn0_db: float, bits: int = 1) -> float:
    """Exact decision error rate for a two-word codebook under this model.

    Projecting onto the difference direction leaves one real Gaussian, so
    the error rate is Q(dist / sqrt(2 N0)).
    """
    a = as_array(word_a)
    b = as_array(word_b)
    if len(a) != len(b):
        raise ValueError("codeword lengths differ")
    energy = 0.5 * float(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
    eb = energy / bits
    n0 = eb / 10.0 ** (ebn0_db / 10.0)
    dist = float(np.linalg.norm(a - b))
    return 0.5 * math.erfc(dist / math.sqrt(2.0 * n0) / math.sqrt(2.0))
