"""Minimum-distance detection of a sequence codebook over AWGN.

Index bits map to codebook entries in enumeration order; the receiver picks
the closest codeword in Euclidean distance.  For a two-word codebook the
error rate has a closed form, which the simulation tracks.
"""

import numpy as np

from csforge import min_distance_sim, pairwise_error_rate, qam

pair = [(1, 1), (1, -1)]
grid = [-10.0, -5.0, 0.0, 5.0]

print("two-word codebook: simulated BER versus the analytic rate")
report = min_distance_sim(pair, grid, trials=50_000, rng_seed=7)
for point, ber in zip(report.ebn0_db, report.ber):
    analytic = pairwise_error_rate(pair[0], pair[1], point)
    print(f"  Eb/N0 {point:+6.1f} dB: simulated {ber:.4f}, analytic {analytic:.4f}")

print("\nquaternary codebook from the green rule (s=1, m=2): 64 words, 6 bits")
words = np.concatenate(list(qam.distinct_blocks("green", 1, 2)))

report = min_distance_sim(words, [float("inf"), 0.0, 4.0], trials=20_000, rng_seed=3)
for point, ber in zip(report.ebn0_db, report.ber):
    label = "noiseless" if point == float("inf") else f"{point:+.1f} dB"
    print(f"  Eb/N0 {label:>9}: BER {ber:.5f}")
print("\nsame seed, same arguments: identical reports, so runs are replayable.")
