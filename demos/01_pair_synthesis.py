"""Build a two-amplitude complementary pair and inspect every moving part.

The encoder is driven by five functions of the 3-bit block index: amplitude
and phase exponents for each output, and a shift profile.  This script prints
their value tables, assembles the pair, and cross-checks the closed form
against the step-by-step recursion.
"""

import math

import numpy as np

from csforge import (
    EncoderParams,
    RecursionParams,
    component_functions,
    encode_pair,
    is_gcp,
    recursion_to_encoder,
    run_recursion,
)

# amplitude exponent that lands the scaled elements exactly on |value| = 3
e1 = (2.0 / math.pi) * math.log(3.0)

params = EncoderParams(m=3, H=4, pi=(2, 1, 3), e=(e1, 0.0, 0.0))
comp = component_functions(params)

print("component value tables over the block index x = 0..7")
print("  amplitude exponent (first output):", np.round(comp.amp_c.table(), 4))
print("  phase steps mod 4  (first output):", np.mod(comp.phase_c.table(), 4))
print("  zero padding offsets:             ", comp.shift.table().astype(int))

result = encode_pair(params)
print("\nfirst output :", np.round(result.c.values.real, 6))
print("second output:", np.round(result.d.values.real, 6))

check = is_gcp(result.c, result.d)
print(f"\ncomplementary: {check.ok} (residual {check.residual:.2e})")
print("off-peak autocorrelations cancel, so the pair bounds the OFDM peak power.")

# same pair through the literal recursion: one scaling knob on the first step
recursion = RecursionParams(H=4, psi=(1, 2, 0), scale_b=(e1, 0.0, 0.0))
direct_c, direct_d = run_recursion(recursion)
converted = recursion_to_encoder(recursion)
print("\nrecursion knobs translate to the same closed-form parameters:")
print("  pi =", converted.pi, " e =", tuple(round(v, 4) for v in converted.e))
print("  recursion output matches:", np.allclose(direct_c.values, result.c.values))
