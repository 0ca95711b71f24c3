import numpy as np
import pytest

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
