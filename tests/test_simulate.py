import math
import tracemalloc

import numpy as np
import pytest

from csforge import simulate
from csforge.simulate import (
    MAX_CODEBOOK,
    CodebookLimitError,
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
    with pytest.raises(CodebookLimitError):
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
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", 16 * len(words) * block_rows)
    ebn0 = [-2.0, 4.0, math.inf]
    report = min_distance_sim(words, ebn0, trials=5000, rng_seed=3)
    assert report.bit_errors == direct_bit_errors(words, ebn0, 5000, 3)
    assert report.bit_errors[0] > 0


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
