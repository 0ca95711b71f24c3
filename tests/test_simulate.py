import math
import tracemalloc

import numpy as np
import pytest

from csforge import GuardError, qam, simulate
from csforge.simulate import (
    MAX_CODEBOOK,
    min_distance_sim,
    pairwise_error_rate,
)

PAIR = [(1, 1), (1, -1)]


def test_noiseless_is_error_free():
    report = min_distance_sim(PAIR, [float("inf")], trials=2000, rng_seed=1)
    assert report.ber == (0.0,)


def test_same_seed_same_report():
    first = min_distance_sim(PAIR, [0.0, 3.0], trials=5000, rng_seed=42)
    second = min_distance_sim(PAIR, [0.0, 3.0], trials=5000, rng_seed=42)
    assert first == second
    third = min_distance_sim(PAIR, [0.0, 3.0], trials=5000, rng_seed=43)
    assert third != first


def test_matches_analytic_two_word_rate():
    analytic = pairwise_error_rate(PAIR[0], PAIR[1], ebn0_db=-10.0)
    report = min_distance_sim(PAIR, [-10.0], trials=30000, rng_seed=7)
    assert report.ber[0] == pytest.approx(analytic, abs=0.02)


def test_analytic_rate_reference_point():
    # equal-energy words at squared distance 4 with Eb = 2 give Q(sqrt(g))
    from math import erfc, sqrt

    g = 10 ** (-10.0 / 10.0)
    q = 0.5 * erfc(sqrt(g) / sqrt(2.0))
    assert pairwise_error_rate(PAIR[0], PAIR[1], -10.0) == pytest.approx(q)


def test_ber_decreases_with_snr():
    report = min_distance_sim(PAIR, [-10.0, 0.0, 10.0], trials=20000, rng_seed=3)
    assert report.ber[0] > report.ber[1] > report.ber[2]


def test_multibit_codebook_counts_bit_errors():
    rng = np.random.default_rng(0)
    words = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    report = min_distance_sim(words, [float("inf")], trials=500, rng_seed=5)
    assert report.bits_per_word == 2
    assert report.ber == (0.0,)


def test_non_power_of_two_codebook_truncates():
    rng = np.random.default_rng(1)
    words = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    report = min_distance_sim(words, [float("inf")], trials=100, rng_seed=2)
    assert report.codebook_size == 4
    assert report.bits_per_word == 2


@pytest.mark.parametrize("point", [float("nan"), float("-inf")])
def test_rejects_nan_and_minus_inf_ebn0(point):
    with pytest.raises(ValueError, match="Eb/N0"):
        min_distance_sim(PAIR, [0.0, point], trials=10, rng_seed=0)


def test_codebook_validation():
    with pytest.raises(ValueError):
        min_distance_sim([(1, 1)], [0.0], trials=10, rng_seed=0)
    big = np.ones((MAX_CODEBOOK + 1, 1), dtype=complex)
    with pytest.raises(GuardError):
        min_distance_sim(big, [0.0], trials=1, rng_seed=0)


def test_report_dict_round_trip():
    report = min_distance_sim(PAIR, [0.0], trials=100, rng_seed=9)
    doc = report.to_dict()
    assert doc["schema"] == 1
    assert doc["trials"] == 100
    assert doc["ber"][0] == report.ber[0]


def direct_bit_errors(words, ebn0_db, trials, rng_seed):
    """Bit errors of the detector from the full difference tensor ||r - c||^2.

    Draws its noise exactly as ``min_distance_sim`` does, in 4096-trial
    batches, so the two agree whenever their decisions do.
    """
    words = np.asarray(words, dtype=complex)
    bits = int(math.floor(math.log2(len(words))))
    used = words[: 1 << bits]
    eb = float(np.mean(np.sum(np.abs(used) ** 2, axis=1))) / bits
    rng = np.random.default_rng(rng_seed)
    errors = []
    for point in ebn0_db:
        sigma = 0.0 if point == math.inf else math.sqrt(eb / 10.0 ** (point / 10.0) / 2.0)
        total = 0
        for start in range(0, trials, 4096):
            idx = rng.integers(0, len(used), size=min(4096, trials - start))
            tx = used[idx]
            rx = tx + sigma * (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape))
            dist = np.sum(np.abs(rx[:, None, :] - used[None, :, :]) ** 2, axis=2)
            total += sum(bin(int(v)).count("1") for v in idx ^ np.argmin(dist, axis=1))
        errors.append(total)
    return tuple(errors)


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_decisions_match_the_difference_tensor(monkeypatch, block_rows):
    rng = np.random.default_rng(11)
    words = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    if block_rows is not None:
        monkeypatch.setattr(simulate, "_TILE_BYTES", 8 * len(words) * block_rows)
    ebn0 = [-2.0, 4.0, math.inf]
    report = min_distance_sim(words, ebn0, trials=5000, rng_seed=3)
    assert report.bit_errors == direct_bit_errors(words, ebn0, 5000, 3)
    assert report.bit_errors[0] > 0


def use_tiles(monkeypatch, rows, cols, size):
    """Patch the tile budget so that a ``size``-word codebook gets rows x cols tiles."""
    monkeypatch.setattr(simulate, "_TILE_MIN_ROWS", rows)
    monkeypatch.setattr(simulate, "_TILE_BYTES", 8 * rows * cols)
    assert simulate._tile_shape(size) == (rows, cols)


@pytest.mark.parametrize("rows, cols", [(1, 64), (7, 64), (7, 16), (5, 9)])
def test_tiles_that_split_trials_and_codewords_match_the_difference_tensor(
    monkeypatch, rows, cols
):
    rng = np.random.default_rng(12)
    words = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    use_tiles(monkeypatch, rows, cols, len(words))
    ebn0 = [-2.0, 4.0, math.inf]
    report = min_distance_sim(words, ebn0, trials=5000, rng_seed=4)
    assert report.bit_errors == direct_bit_errors(words, ebn0, 5000, 4)
    assert report.bit_errors[0] > 0


def test_copy_in_a_later_column_tile_decides_its_first_copy(monkeypatch):
    rng = np.random.default_rng(13)
    words = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    # 16-word column tiles: word 5 recurs in the same tile and in every later one
    first_copy = {7: 5, 21: 5, 40: 5, 63: 5, 33: 20}
    for copy, first in first_copy.items():
        words[copy] = words[first]
    use_tiles(monkeypatch, 64, 16, len(words))
    for seed in (1, 2):
        report = min_distance_sim(words, [math.inf], trials=4096, rng_seed=seed)
        idx = np.random.default_rng(seed).integers(0, len(words), size=4096)
        expected = sum(bin(int(i) ^ first_copy.get(int(i), int(i))).count("1") for i in idx)
        assert report.bit_errors == (expected,)
        assert expected > 0
        ebn0 = [0.0, 4.0, math.inf]
        report = min_distance_sim(words, ebn0, trials=500, rng_seed=seed)
        assert report.bit_errors == direct_bit_errors(words, ebn0, 500, seed)


def test_detector_scratch_does_not_grow_with_the_codebook():
    # beyond its weight tiles and norms (8 (2n + 1) + 8 bytes a word), the
    # detector holds one 512 KiB score tile and one chunk of trials at any M
    scratch = {}
    for size in (1 << 10, MAX_CODEBOOK):
        rng = np.random.default_rng(6)
        words = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
        tracemalloc.start()
        try:
            min_distance_sim(words, [3.0], trials=4096, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch[size] = peak - size * (8 * 5 + 8)
    assert simulate._tile_shape(MAX_CODEBOOK) == simulate._tile_shape(1 << 10)
    assert scratch[MAX_CODEBOOK] < scratch[1 << 10] + 2**18, scratch
    assert scratch[MAX_CODEBOOK] < 2 * 2**20, scratch


@pytest.mark.parametrize("point", [4000.0, -4000.0])
def test_pairwise_rate_rejects_an_eb_n0_without_a_noise_level(point):
    with pytest.raises(ValueError, match="noise level"):
        pairwise_error_rate(PAIR[0], PAIR[1], point)


@pytest.mark.parametrize("bits", [0, -1])
def test_pairwise_rate_needs_a_bit_per_word(bits):
    with pytest.raises(ValueError, match="bits"):
        pairwise_error_rate(PAIR[0], PAIR[1], 0.0, bits=bits)


@pytest.mark.parametrize("rule", ["green", "yellow", "orange", "blue"])
def test_decisions_match_the_difference_tensor_on_qam_codebooks(rule):
    words = np.concatenate(list(qam.distinct_blocks(rule, 2, 2)))
    ebn0 = [0.0, 2.0, 4.0, 6.0, math.inf]
    for seed in (1, 2):
        report = min_distance_sim(words, ebn0, trials=1000, rng_seed=seed)
        assert report.bit_errors == direct_bit_errors(words, ebn0, 1000, seed)
        assert report.bit_errors[0] > 0 and report.bit_errors[-1] == 0


@pytest.mark.parametrize("size", [257, 1024])
def test_repeated_word_decides_its_first_copy(size):
    rng = np.random.default_rng(size)
    words = rng.standard_normal((size, 8)) + 1j * rng.standard_normal((size, 8))
    copies = [1, size // 2, size - 1]
    words[copies] = words[0]
    used = 1 << int(math.log2(size))
    for seed in (1, 2):
        report = min_distance_sim(words, [math.inf], trials=4096, rng_seed=seed)
        # one chunk: the first draw of the seed is every transmitted index
        idx = np.random.default_rng(seed).integers(0, used, size=4096)
        first_copy = sum(bin(int(i)).count("1") for i in idx if i in copies)
        assert report.bit_errors == (first_copy,)
        assert first_copy > 0
        ebn0 = [0.0, 4.0, math.inf]
        report = min_distance_sim(words, ebn0, trials=500, rng_seed=seed)
        assert report.bit_errors == direct_bit_errors(words, ebn0, 500, seed)


def test_detector_memory_is_bounded():
    # the difference tensor of this case would take 1 GiB (4096 x 1024 x 16 complex)
    rng = np.random.default_rng(5)
    words = rng.standard_normal((1024, 16)) + 1j * rng.standard_normal((1024, 16))
    tracemalloc.start()
    try:
        min_distance_sim(words, [3.0], trials=4096, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"


# bit errors recorded before noiseless points scored only their distinct words:
# +inf first, in the middle and last, on two full chunks and a ragged one of 5 trials
PINNED_GRID = [math.inf, 0.0, math.inf, 4.0, math.inf]
PINNED_TRIALS = 2 * 4096 + 5


@pytest.mark.parametrize("rule, bit_errors", [
    ("green", (0, 11953, 0, 4106, 0)),
    ("yellow", (0, 14345, 0, 5076, 0)),
    ("orange", (0, 17665, 0, 6743, 0)),
    ("blue", (0, 20552, 0, 6879, 0)),
])
def test_detect_codebook_reports_are_pinned(rule, bit_errors):
    words = np.concatenate(list(qam.distinct_blocks(rule, 2, 2)))
    report = min_distance_sim(words, PINNED_GRID, trials=PINNED_TRIALS, rng_seed=1)
    assert report.bit_errors == bit_errors


# the benchmark's detect jobs (perfbench/workloads.py): its grid and trial count,
# one rng seed; bit errors recorded before the weights became row-major
@pytest.mark.parametrize("rule, bit_errors", [
    ("green", (43929, 27219, 14735, 6825, 0)),
    ("yellow", (52836, 34205, 18923, 8334, 0)),
    ("orange", (65105, 44115, 24643, 10521, 0)),
    ("blue", (75049, 49178, 24571, 8201, 0)),
])
def test_benchmark_detect_reports_are_pinned(rule, bit_errors):
    words = np.concatenate(list(qam.distinct_blocks(rule, 2, 2)))
    ebn0 = [0.0, 2.0, 4.0, 6.0, math.inf]
    report = min_distance_sim(words, ebn0, trials=30_000, rng_seed=1)
    assert report.bit_errors == bit_errors


@pytest.mark.parametrize("size, tiles", [(256, 1), (1024, 1), (4096, 4)])
def test_detector_weights_and_scores_are_row_major_and_aligned(size, tiles):
    # BLAS packs the weights by rows; a Fortran-ordered copy or a buffer off a
    # cache line makes every product slower
    rng = np.random.default_rng(size)
    words = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
    used, norms = simulate._prepare_codebook(words)
    detector = simulate._TiledDetector(used, norms)
    assert len(detector.tiles) == tiles
    for start, weights in detector.tiles:
        cols = weights.shape[1]
        assert weights.shape == (9, cols)
        assert weights.flags.c_contiguous and weights.ctypes.data % 64 == 0
        expected = np.vstack([2.0 * used[start : start + cols].view(float).T,
                              -norms[start : start + cols]])
        assert np.array_equal(weights, expected)
    assert detector.scores.flags.c_contiguous and detector.scores.ctypes.data % 64 == 0


def scored_bit_errors(words, ebn0_db, trials, rng_seed):
    """Bit errors when the detector scores every trial, noiseless ones too.

    Builds each chunk's received rows as ``(tx + noise).view(float)``, with the
    draws of ``min_distance_sim``, and hands all of them to one detector.
    """
    used, norms = simulate._prepare_codebook(words)
    bits = len(used).bit_length() - 1
    eb = float(np.mean(norms)) / bits
    detector = simulate._TiledDetector(used, norms)
    rng = np.random.default_rng(rng_seed)
    errors = []
    for point in ebn0_db:
        sigma = 0.0 if point == math.inf else math.sqrt(eb / 10.0 ** (point / 10.0) / 2.0)
        total = 0
        for start in range(0, trials, 4096):
            idx = rng.integers(0, len(used), size=min(4096, trials - start))
            tx = used[idx]
            rx = tx + sigma * (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape))
            feats = np.hstack([rx.view(float), np.ones((len(idx), 1))])
            total += sum(bin(int(v)).count("1") for v in idx ^ detector.decide(feats))
        errors.append(total)
    return tuple(errors)


def near_duplicate_codebook(scale):
    """64 words of length 8: word 0 at 3, 32 and 63 too, and word 0 plus 1e-12 at 5."""
    rng = np.random.default_rng(14)
    words = scale * (rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8)))
    words[[3, 32, 63]] = words[0]
    words[5] = words[0] + 1e-12
    return words


def test_near_duplicate_matches_the_difference_tensor():
    # at this scale a 1e-12 step is hundreds of ulps of the scores, so the
    # detector tells the near-duplicate from word 0 as the distances do
    words = near_duplicate_codebook(1e-6)
    ebn0 = [math.inf, 3.0]
    report = min_distance_sim(words, ebn0, trials=PINNED_TRIALS, rng_seed=2)
    assert report.bit_errors == direct_bit_errors(words, ebn0, PINNED_TRIALS, 2)
    idx = np.random.default_rng(2).integers(0, len(words), size=4096)
    assert report.bit_errors[0] > 0 and 5 in idx


def test_unresolved_near_duplicate_decides_as_a_scored_trial():
    # at unit scale the 1e-12 step is below an ulp of the scores: a sent word
    # must get the detector's own decision, whatever it is, not a lookup
    words = near_duplicate_codebook(1.0)
    ebn0 = [math.inf, 3.0]
    for seed in (1, 2):
        report = min_distance_sim(words, ebn0, trials=PINNED_TRIALS, rng_seed=seed)
        assert report.bit_errors == scored_bit_errors(words, ebn0, PINNED_TRIALS, seed)


def test_noiseless_points_decide_each_word_once_per_call(monkeypatch):
    # three noiseless points of three chunks each, around a noisy one: the
    # noiseless trials decide at most the 64 words, once each, in the call
    words = near_duplicate_codebook(1.0)
    decided = {"noiseless": 0, "noisy": 0}
    decide = simulate._TiledDetector.decide

    def spy(self, feats):
        decided["noisy" if len(feats) == 4096 else "noiseless"] += len(feats)
        return decide(self, feats)

    monkeypatch.setattr(simulate._TiledDetector, "decide", spy)
    ebn0 = [math.inf, 3.0, math.inf, math.inf]
    report = min_distance_sim(words, ebn0, trials=3 * 4096, rng_seed=3)
    assert decided == {"noiseless": 64, "noisy": 3 * 4096}
    monkeypatch.setattr(simulate._TiledDetector, "decide", decide)
    assert report.bit_errors == scored_bit_errors(words, ebn0, 3 * 4096, 3)
