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

from .sequences import GuardError, as_array

__all__ = [
    "MAX_CODEBOOK",
    "SimReport",
    "min_distance_sim",
    "pairwise_error_rate",
]

MAX_CODEBOOK = 1 << 16

_CHUNK = 4096  # trials per noise draw

# size of one tile of nearest-neighbour scores, rows x cols float64 numbers:
# small enough to stay in a core's L2 cache while argmax reads it back.  Like
# each row-major weight tile, it starts on a 64-byte boundary (_TiledDetector)
_TILE_BYTES = 1 << 19
# fewest received rows per tile, so that each product call stays amortized; a
# codebook too large for this many rows of all M scores is split into column
# tiles of _TILE_BYTES // (8 * _TILE_MIN_ROWS) words
_TILE_MIN_ROWS = 64


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


def _prepare_codebook(codebook) -> tuple[np.ndarray, np.ndarray]:
    """The first 2^floor(log2(M)) words, the ones that carry bits, and their energies."""
    if isinstance(codebook, np.ndarray):
        words = np.ascontiguousarray(codebook, dtype=complex)
    else:
        words = np.asarray([as_array(w) for w in codebook], dtype=complex)
    if words.ndim != 2 or len(words) < 2:
        raise ValueError("codebook must hold at least two equal-length sequences")
    if len(words) > MAX_CODEBOOK:
        raise GuardError(f"codebook of {len(words)} exceeds {MAX_CODEBOOK}")
    if not words.shape[1]:
        raise ValueError("codebook words must not be empty")
    used = words[: 1 << (len(words).bit_length() - 1)]
    norms = np.sum(np.abs(used) ** 2, axis=1)
    energy = float(np.mean(norms))
    if not (math.isfinite(energy) and energy > 0.0):
        raise ValueError(f"codebook words need a finite positive mean energy, got {energy}")
    return used, norms


def _noise_level(eb: float, ebn0_db: float) -> float:
    """N0 = Eb / 10^(EbN0_dB/10); ValueError unless it is a finite positive number."""
    try:
        n0 = eb / 10.0 ** (ebn0_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no finite positive noise level")
    return n0


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-ordered float64 array whose data start on a 64-byte boundary."""
    count = math.prod(shape)
    raw = np.empty(count + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + count].reshape(shape)


def _tile_shape(size: int) -> tuple[int, int]:
    """Rows and columns of one score tile for a codebook of ``size`` words."""
    rows = _TILE_BYTES // (8 * size)
    if rows >= _TILE_MIN_ROWS:
        return rows, size
    return _TILE_MIN_ROWS, max(1, _TILE_BYTES // (8 * _TILE_MIN_ROWS))


class _TiledDetector:
    """First maximum of each row of ``feats @ [2 c; -||c||^2]``, one tile at a time.

    Each column tile holds a row-major copy of its weight columns, the
    ``(2n + 1) x cols`` matrix ``[2 Re c_0; 2 Im c_0; ...; -||c||^2]``, and it
    and the score tile start on a 64-byte boundary.  BLAS packs the right
    operand of every product row by row, which is slower from a
    Fortran-ordered copy (what ``np.vstack`` of ``words.T`` gives), and a
    weight or score buffer that straddles cache lines slows the product
    too.  The received rows gain nothing from alignment.

    Tiles after the first replace a row's running (best score, index) only
    where their own maximum is strictly greater, so the first maximum wins
    overall as ``argmax`` picks it within a tile.
    """

    def __init__(self, words: np.ndarray, norms: np.ndarray):
        size = len(words)
        self.rows, cols = _tile_shape(size)
        self.tiles = []
        for start in range(0, size, cols):
            tile = words[start : start + cols]
            weights = _aligned_empty((2 * tile.shape[1] + 1, len(tile)))
            np.multiply(tile.view(float).T, 2.0, out=weights[:-1])
            np.negative(norms[start : start + cols], out=weights[-1])
            self.tiles.append((start, weights))
        self.scores = _aligned_empty((self.rows * self.tiles[0][1].shape[1],))
        self.decided = np.empty(_CHUNK, dtype=np.intp)
        self.best = np.empty(_CHUNK)
        self.local = np.empty(self.rows, dtype=np.intp)
        self.row_index = np.arange(self.rows)

    def decide(self, feats: np.ndarray) -> np.ndarray:
        batch = len(feats)
        for t, (start, weights) in enumerate(self.tiles):
            cols = weights.shape[1]
            for i in range(0, batch, self.rows):
                block = feats[i : i + self.rows]
                n = len(block)
                scores = self.scores[: n * cols].reshape(n, cols)
                np.matmul(block, weights, out=scores)
                if len(self.tiles) == 1:
                    np.argmax(scores, axis=1, out=self.decided[i : i + n])
                    continue
                arg = self.local[:n]
                np.argmax(scores, axis=1, out=arg)
                top = scores[self.row_index[:n], arg]
                arg += start
                if t == 0:
                    self.best[i : i + n] = top
                    self.decided[i : i + n] = arg
                    continue
                better = top > self.best[i : i + n]
                np.copyto(self.best[i : i + n], top, where=better)
                np.copyto(self.decided[i : i + n], arg, where=better)
        return self.decided[:batch]


def _bit_errors(sent: np.ndarray, decided: np.ndarray) -> int:
    """Differing bits between two index vectors whose values are below 2^16."""
    return int(np.count_nonzero(np.unpackbits((sent ^ decided).astype(np.uint16).view(np.uint8))))


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
    used, norms = _prepare_codebook(codebook)
    bits = len(used).bit_length() - 1
    eb = float(np.mean(norms)) / bits
    sigmas = [
        0.0 if point == math.inf else math.sqrt(_noise_level(eb, point) / 2.0)
        for point in ebn0_db
    ]
    # ||r - c||^2 = ||r||^2 - (2 Re<r, c> - ||c||^2), and the first term is the
    # same for every candidate c.  Read r and c as real vectors
    # [Re x_0, Im x_0, Re x_1, ...] and append 1 to r: the bracket is then one
    # real product with the weight column [2 c; -||c||^2].  The detector
    # scores received rows against codewords tile by tile and keeps each
    # row's first maximum, as the first minimum of the distance would win
    detector = _TiledDetector(used, norms)
    real_words = used.view(float)
    # per call, filled in place chunk by chunk: the sent words as real rows,
    # the real and imaginary noise, and the received rows [Re r_0, Im r_0, ..., 1]
    sent_rows = np.empty((_CHUNK, real_words.shape[1]))
    noise = np.empty((2, _CHUNK, used.shape[1]))
    feats = np.empty((_CHUNK, real_words.shape[1] + 1))
    feats[:, -1] = 1.0
    # with a noiseless point: the detector's decision on each word received
    # exactly, filled as the word is first sent; -1 where not yet decided
    noiseless = np.full(len(used), -1, dtype=np.intp) if 0.0 in sigmas else None

    rng = np.random.default_rng(rng_seed)
    errors: list[int] = []
    for sigma in sigmas:
        bit_errs = 0
        remaining = trials
        while remaining > 0:
            batch = min(_CHUNK, remaining)
            idx = rng.integers(0, len(used), size=batch)
            # drawn at every point, noiseless ones too, so that each point
            # sees the same stream whatever the grid holds
            re, im = noise[0, :batch], noise[1, :batch]
            rng.standard_normal(out=re)
            rng.standard_normal(out=im)
            if sigma:
                rows = feats[:batch]
                # "clip" writes straight into the buffer; the indices are in range
                tx = np.take(real_words, idx, axis=0, out=sent_rows[:batch], mode="clip")
                np.add(tx[:, 0::2], np.multiply(re, sigma, out=re), out=rows[:, 0:-1:2])
                np.add(tx[:, 1::2], np.multiply(im, sigma, out=im), out=rows[:, 1:-1:2])
                decided = detector.decide(rows)
            else:
                # a noiseless trial receives its codeword exactly: score each
                # word once per call, when a chunk first sends it, and take
                # the detector's own decision, so that a repeated word still
                # decides its first copy
                sent = np.zeros(len(used), dtype=bool)
                sent[idx] = True
                sent = np.flatnonzero(sent & (noiseless < 0))
                rows = feats[: len(sent)]
                rows[:, :-1] = real_words[sent]
                noiseless[sent] = detector.decide(rows)
                decided = noiseless[idx]
            bit_errs += _bit_errors(idx, decided)
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
    if bits < 1:
        raise ValueError(f"bits must be at least 1, got {bits}")
    energy = 0.5 * float(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
    n0 = _noise_level(energy / bits, ebn0_db)
    dist = float(np.linalg.norm(a - b))
    return 0.5 * math.erfc(dist / math.sqrt(2.0 * n0) / math.sqrt(2.0))
