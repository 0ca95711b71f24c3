import csv
import io
import tracemalloc

import numpy as np
import pytest

from _factories import random_encoder_params
from csforge import (
    ComplexSequence,
    EncoderParams,
    GuardError,
    SeedPair,
    apac,
    encode_pair,
    is_gcp,
    papr_bound_db,
    papr_oversampled_db,
    shifts_avoid_overlap,
)
from csforge.analysis import GCP_TOL, PowerTrace


def correlate_apac(a):
    """Direct O(n^2) autocorrelation in the ``ApacProfile.values`` layout."""
    a = np.asarray(a, dtype=complex)
    return np.correlate(a, a, mode="full")


def correlate_gcp(a, b):
    """(violation, energy) of a pair from the direct autocorrelations."""
    n = len(a)
    combined = correlate_apac(a) + correlate_apac(b)
    return float(np.max(np.abs(combined[n:]), initial=0.0)), float(combined[n - 1].real)


def direct_power(a, n_grid):
    """|sum_i a_i e^(j 2 pi i t/T)|^2 on the n_grid-point grid, from one complex FFT."""
    return np.abs(np.fft.fft(np.conj(np.asarray(a, dtype=complex)), n_grid)) ** 2


def dft_power(a, n_grid):
    """The same power summed term by term, O(n n_grid)."""
    a = np.asarray(a, dtype=complex)
    phase = np.exp(2j * np.pi * np.outer(np.arange(n_grid), np.arange(len(a))) / n_grid)
    return np.abs(phase @ a) ** 2


def correlate_papr_bound_db(a):
    full = correlate_apac(a)
    r0 = full[len(a) - 1].real
    return 10.0 * np.log10((r0 + 2.0 * np.sum(np.abs(full[len(a) :]))) / r0)


def test_apac_simple():
    prof = apac([1, 1])
    assert prof.zero_lag == 2
    assert prof.lag(1) == 1
    assert prof.lag(-1) == 1


def test_apac_multilevel_energy():
    a = apac([1, 3, -1, 1])
    b = apac([1, 1, -1, -1])
    assert a.zero_lag == 12
    assert b.zero_lag == 4
    assert is_gcp([1, 3, -1, 1], [1, 1, -1, -1]).ok


def test_apac_hermitian_symmetry():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    prof = apac(a)
    for k in range(1, 9):
        assert prof.lag(-k) == pytest.approx(np.conj(prof.lag(k)), abs=1e-12)


def test_apac_lag_out_of_range():
    with pytest.raises(ValueError):
        apac([1, 1]).lag(2)


def test_apac_empty_rejected():
    with pytest.raises(ValueError):
        apac([])


ORACLE_KINDS = ("complex", "real", "pm1", "zero-runs", "wide")


def _oracle_input(rng, n, kind):
    if kind == "pm1":
        return rng.choice([-1.0, 1.0], n)
    if kind == "real":
        return rng.standard_normal(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "zero-runs":
        for _ in range(3):
            start = int(rng.integers(0, n))
            a[start : start + int(rng.integers(1, n // 3 + 2))] = 0.0
    elif kind == "wide":
        a *= 10.0 ** rng.uniform(-6, 6, n)
    return a


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_apac_matches_correlate_oracle(kind):
    rng = np.random.default_rng(ORACLE_KINDS.index(kind))
    for n in range(1, 301):
        a = _oracle_input(rng, n, kind)
        oracle = correlate_apac(a)
        prof = apac(a)
        assert prof.values.shape == oracle.shape
        assert np.max(np.abs(prof.values - oracle)) <= 1e-12 * oracle[n - 1].real


def test_metrology_matches_correlate_oracle_on_encoded_pairs():
    rng = np.random.default_rng(20)
    for m in range(1, 13):
        p = random_encoder_params(rng, m_min=m, m_max=m, seed_lengths=(1, 2, 3, 4))
        res = encode_pair(p)
        c, d = res.c.values, res.d.values
        broken = c.copy()
        broken[rng.choice(np.flatnonzero(c))] *= -1  # one sign flip breaks the pair
        for x in (c, broken):
            check = is_gcp(x, d)
            violation, energy = correlate_gcp(x, d)
            assert check.ok == (violation <= GCP_TOL * energy)
            assert check.violation == pytest.approx(violation, abs=1e-12 * energy)
            assert check.energy == pytest.approx(energy, rel=1e-12)
        assert is_gcp(c, d).ok and not is_gcp(broken, d).ok
        for x in (c, d):
            assert papr_bound_db(x) == pytest.approx(correlate_papr_bound_db(x), abs=1e-9)


def test_is_gcp_classic_pair():
    check = is_gcp([1, 1], [1, -1])
    assert check.ok and check.violation == pytest.approx(0.0, abs=1e-15)


def test_is_gcp_failure_reports_violation():
    check = is_gcp([1, 1], [1, 1])
    assert not check.ok
    assert check.violation == pytest.approx(2.0)
    assert check.energy == pytest.approx(4.0)
    assert check.residual == pytest.approx(0.5)


def test_is_gcp_length_mismatch():
    with pytest.raises(ValueError):
        is_gcp([1, 1], [1, 1, 1])


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_is_gcp_rejects_bad_tolerance(tol):
    # inf would pass any pair, nan and negative values none
    for pair in (([1, 1], [1, -1]), ([1, 1], [1, 1])):
        with pytest.raises(ValueError, match="tol"):
            is_gcp(*pair, tol)
        with pytest.raises(ValueError, match="tol"):
            SeedPair(*pair, tol)


def test_papr_bound_simple_values():
    assert papr_bound_db([5.0]) == pytest.approx(0.0)
    assert papr_bound_db([1, 1]) == pytest.approx(10 * np.log10(2.0))
    with pytest.raises(ValueError):
        papr_bound_db([0, 0])


def test_papr_bound_reads_the_trace_profile():
    # verify takes the bound from the profile papr_oversampled_db computed:
    # the same bits as the bound of the sequence
    rng = np.random.default_rng(11)
    gapped = encode_pair(EncoderParams(3, 4, d=(4, 2, 0))).c
    for a in ([5.0], [1, 1], gapped, rng.standard_normal(37) + 1j * rng.standard_normal(37),
              rng.choice([-3.0, -1.0, 1.0, 3.0], 256)):
        _, trace = papr_oversampled_db(a)
        assert len(trace.profile) == len(a)
        assert papr_bound_db(trace.profile) == papr_bound_db(a)


def test_bound_dominates_measurement():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        measured, _ = papr_oversampled_db(a, 8)
        assert measured <= papr_bound_db(a) + 1e-9


def test_single_tone_is_flat():
    db, trace = papr_oversampled_db([2.0], 16)
    assert db == pytest.approx(0.0, abs=1e-12)
    lone = np.zeros(8)
    lone[3] = 1.0
    db, _ = papr_oversampled_db(lone, 16)
    assert db == pytest.approx(0.0, abs=1e-9)


def test_trace_mean_equals_zero_lag():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if rng.random() < 0.5:  # structural zeros must not change the mean
            a[rng.integers(0, n)] = 0.0
        _, trace = papr_oversampled_db(a, 16)
        r0 = apac(a).zero_lag
        assert trace.mean == pytest.approx(r0, rel=1e-6)


def test_power_reconstruction_identity():
    # the envelope against the direct evaluation, on even and odd
    # grids (odd n with odd oversample), n = 1, prime n and gapped sequences;
    # grids of 2^17 points and more are evaluated in 2, 4 or 8 interleaved
    # phases (n = 65573 at oversample 16: phases of exactly 2 n points)
    rng = np.random.default_rng(8)
    cases = [(n, (4, 5, 7, 16, 17)) for n in (1, 2, 7, 11, 12, 97, 4096)]
    cases += [(n, (4, 5, 16, 17)) for n in (8192, 8197, 1 << 16, 65573)]
    for n, oversamples in cases:
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if n > 2:
            a[rng.choice(n, n // 3, replace=False)] = 0.0
        for oversample in oversamples:
            n_grid = oversample * n
            oracles = [direct_power(a, n_grid)] + ([dft_power(a, n_grid)] if n <= 97 else [])
            db, trace = papr_oversampled_db(a, oversample)
            assert len(trace.power) == n_grid
            assert trace.power.min() >= 0
            assert trace.power.max() == trace.peak
            for expected in oracles:
                tol = 1e-12 * expected.max()
                assert np.max(np.abs(trace.power - expected)) <= tol
                expected_db = 10 * np.log10(expected.max() / expected.mean())
                assert db == pytest.approx(expected_db, abs=1e-12)


def test_power_is_clipped_at_nulls():
    # [1, 1, 1, 1] has exact nulls at t = T/4, T/2 and 3T/4, where the
    # rebuilt sum lands about 4e-16 below 0 on the 5x grid before clipping
    for oversample in (4, 5, 16):
        power = papr_oversampled_db([1, 1, 1, 1], oversample)[1].power
        assert power.min() >= 0
        assert np.max(np.abs(power - direct_power([1, 1, 1, 1], 4 * oversample))) <= 1e-12 * 16


def test_envelope_scratch_is_two_real_grids_at_most():
    # the envelope is reduced phase by phase and holds no grid: at n = 2^16,
    # oversample 16 the bound is one 8 MiB real grid, which the phases meet
    # (the autocorrelation's own transforms set the peak, 6 MiB) and one
    # whole-grid irfft does not (10 MiB)
    n, oversample = 1 << 16, 16
    a = np.random.default_rng(9).standard_normal(n) * (1 + 1j)
    tracemalloc.start()
    try:
        papr_oversampled_db(a, oversample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * oversample * n, peak


def test_constant_combined_power_for_encoded_pairs():
    rng = np.random.default_rng(12)
    for _ in range(15):
        p = random_encoder_params(rng, m_max=4)
        res = encode_pair(p)
        _, tc = papr_oversampled_db(res.c, 8)
        _, td = papr_oversampled_db(res.d, 8)
        total = tc.power + td.power
        level = apac(res.c).zero_lag + apac(res.d).zero_lag
        assert np.allclose(total, level, rtol=1e-8)


def test_oversample_minimum():
    with pytest.raises(ValueError):
        papr_oversampled_db([1, 1], 2)


@pytest.mark.parametrize(
    "oversample", [4.5, 0, -4, 1, 2, 3, True, False, None, "16", float("nan"), [16]]
)
def test_oversample_must_be_an_integer_of_at_least_four(oversample):
    # both entry points refuse it with one line, where the grid is sized
    for measure in (lambda: papr_oversampled_db([1, 1j, -1], oversample),
                    lambda: PowerTrace(apac([1, 1j, -1]), oversample, 1.0, 1.0).power):
        with pytest.raises(ValueError, match="oversample") as info:
            measure()
        assert "\n" not in str(info.value)


def test_grid_guard_does_not_write_out_a_huge_oversample():
    # Python writes no integer of more than 4,300 digits
    with pytest.raises(GuardError, match="limit") as info:
        papr_oversampled_db([1, 1j, -1], 10**5000)
    assert "\n" not in str(info.value)


def test_integral_oversample_is_taken():
    seq = [1, 1j, -1]
    for integral_value in (4.0, np.int64(4)):
        db, trace = papr_oversampled_db(seq, integral_value)
        assert db == papr_oversampled_db(seq, 4)[0]
        assert np.array_equal(trace.power, papr_oversampled_db(seq, 4)[1].power)


def test_shifts_avoid_overlap_cases():
    assert shifts_avoid_overlap((0, 0, 0), (2, 1, 3))
    assert shifts_avoid_overlap((0, 60, 0), (2, 1, 3))
    assert not shifts_avoid_overlap((1, 0, 5), (1, 2, 3))
    with pytest.raises(ValueError):
        shifts_avoid_overlap((0, -1, 0), (2, 1, 3))
    with pytest.raises(ValueError):
        shifts_avoid_overlap((0, 0), (2, 1, 3))
    # a pad is an integer: 0.5 is refused, not truncated to 0, and 1.0 reads as 1
    with pytest.raises(ValueError, match="shifts must be an integer"):
        shifts_avoid_overlap((0, 0, 0.5), (1, 2, 3))
    assert shifts_avoid_overlap((0, 0, 1.0), (1, 2, 3)) == shifts_avoid_overlap((0, 0, 1), (1, 2, 3))


def test_violated_condition_example_collides():
    # the condition is sufficient, not necessary: the length-3 seed makes
    # this shift vector produce a real support collision
    from csforge import known_seed

    p = EncoderParams(m=3, H=4, pi=(1, 2, 3), d=(1, 0, 5), seed=known_seed(3))
    assert encode_pair(p).overlap
    assert is_gcp(encode_pair(p).c, encode_pair(p).d).ok


def test_condition_implies_disjoint_support():
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = random_encoder_params(rng, m_max=5, shift_mode="disjoint")
        assert shifts_avoid_overlap(p.d, p.pi)
        assert not encode_pair(p).overlap


def test_power_trace_csv_round_trip(tmp_path):
    _, trace = papr_oversampled_db([1, 1j, -1], 4)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_norm", "power"]
    assert len(rows) == 1 + len(trace.power)
    parsed = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.array_equal(parsed[:, 0], trace.t_norm)
    assert np.array_equal(parsed[:, 1], trace.power)
    buf = io.StringIO()
    trace.write_csv(buf)
    assert buf.getvalue() == path.read_text()


def test_clusters_and_support():
    seq = ComplexSequence([1, 0, 0, 2, 3, 0, 4])
    assert list(seq.support) == [0, 3, 4, 6]
    assert seq.clusters() == [(0, 1), (3, 5), (6, 7)]
    assert ComplexSequence([0, 0]).clusters() == []
