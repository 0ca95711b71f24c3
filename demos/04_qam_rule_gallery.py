"""The five lattice rules, one constellation at a time.

Encoder outputs use a unit-amplitude convention; multiplying by (1 + j)
maps them onto the odd-integer QAM lattice.  Each rule pins the amplitude
knobs so every element lands on lattice points, while the phase freedom
keeps the family large.
"""

import numpy as np

from csforge import encode_pair, is_gcp, qam

S = 4
M = 3

knobs = {
    "green": dict(u=1, v=2),
    "yellow": dict(u=1, v=2, ell=M),
    "blue": dict(u=1, v=2, w=1, ell=M),
    "cyan": dict(u=2, t=1, v=4, w=2, ell=M),
    "orange": dict(u=2, v=1, ell=M),
}

for name, rule_knobs in knobs.items():
    params = qam.rule_params(name, s=S, m=M, **rule_knobs)
    result = encode_pair(params)
    points = sorted(
        set(np.round(qam.to_lattice(result.c.values), 6)),
        key=lambda z: (abs(z), np.angle(z)),
    )
    print(f"{name:6s} rule: {len(points)} distinct lattice points")
    print(f"        {[f'{p.real:+.0f}{p.imag:+.0f}j' for p in points]}")
    print(f"        on 4s^2 lattice (s={S}): {qam.on_lattice(result.c.values, S)}, "
          f"complementary: {is_gcp(result.c, result.d).ok}")

print("\ngreen keeps one radius; yellow splits the halves across two diagonal")
print("radii; blue rotates one half off the diagonal; cyan rotates both;")
print("orange mirrors half of the elements across the diagonal.")
