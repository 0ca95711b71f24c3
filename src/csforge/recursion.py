"""Per-step operator bookkeeping for two-branch linear recursions.

A two-branch recursion applies, at each step, one of two linear operators to
each (output branch, input branch) slot.  The four slot choices form a
configuration vector (v11, v12, v21, v22).  After m steps every coefficient
of the unrolled result has seen exactly one operator per step, and which of
the two it was is a Boolean function of the coefficient position.

``construction_function`` builds that position function in closed form.
``expand_recursion`` unrolls the recursion literally over abstract operator
symbols and serves as the independent check of the closed form.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .boolean import BooleanPolynomial
from .sequences import integral, permutation

__all__ = [
    "MAX_SYMBOLIC_VARS",
    "OPERATOR_CONFIGS",
    "all_configs",
    "construction_function",
    "expand_recursion",
    "operator_config",
    "pi_from_psi",
]

# words grow as 2^m; the symbolic path is an oracle, not a production encoder
MAX_SYMBOLIC_VARS = 12

# Slot conventions: v11 acts on the f-input of the f-output, v12 on the
# g-input of the f-output, v21/v22 likewise for the g-output.
OPERATOR_CONFIGS: dict[str, tuple[int, int, int, int]] = {
    "scale_a": (1, 0, 0, 1),
    "scale_b": (0, 1, 1, 0),
    "phase_a": (1, 0, 0, 0),
    "phase_a_conj": (0, 0, 0, 1),
    "phase_b": (0, 1, 0, 0),
    "phase_b_conj": (0, 0, 1, 0),
    "sign": (0, 0, 0, 1),
    "phase_joint": (0, 1, 0, 1),
    "shift": (0, 1, 0, 1),
    "order_a": (1, 0, 1, 0),
    "order_b": (0, 1, 0, 1),
}


def operator_config(kind: str) -> tuple[int, int, int, int]:
    """Configuration vector of one named recursion operator."""
    try:
        return OPERATOR_CONFIGS[kind]
    except KeyError:
        valid = ", ".join(sorted(OPERATOR_CONFIGS))
        raise ValueError(f"unknown operator kind {kind!r}; expected one of: {valid}") from None


def pi_from_psi(psi: Sequence[int]) -> tuple[int, ...]:
    """Variable order pi_n = m - psi_n induced by a shift order psi."""
    m = len(psi)
    return tuple(m - p for p in permutation(psi, m, 0, "psi"))


def _check_config(config) -> tuple[int, int, int, int]:
    config = tuple(integral(v, "configuration entry") for v in config)
    if len(config) != 4 or any(v not in (0, 1) for v in config):
        raise ValueError(f"configuration vector must be four bits, got {config}")
    return config


def construction_function(
    step: int,
    config: Sequence[int],
    psi: Sequence[int],
    branch: str = "f",
) -> BooleanPolynomial:
    """Closed-form operator-index function for one step of the recursion.

    Returns a 0/1-valued multilinear polynomial over the final coefficient
    position whose value says which operator the given step applied there.
    ``branch`` selects the first ("f") or second ("g") recursion output.
    """
    m = len(psi)
    pi = pi_from_psi(psi)
    v11, v12, v21, v22 = _check_config(config)
    if not 1 <= step <= m:
        raise ValueError(f"step {step} out of range 1..{m}")
    if branch not in ("f", "g"):
        raise ValueError(f"branch must be 'f' or 'g', got {branch!r}")

    one = BooleanPolynomial.constant(m, 1.0)
    xa = BooleanPolynomial.variable(m, pi[step - 1])
    if step == m:
        lo, hi = (v11, v12) if branch == "f" else (v21, v22)
        return lo * (one - xa) + hi * xa
    xb = BooleanPolynomial.variable(m, pi[step])
    return (
        v11 * (one - xa) * (one - xb)
        + v12 * xa * (one - xb)
        + v21 * (one - xa) * xb
        + v22 * xa * xb
    )


def expand_recursion(
    configs: Sequence[Sequence[int]],
    psi: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Unroll the recursion symbolically and report every operator choice.

    Starting from both branches equal to an abstract seed, each step applies
    indexed operator symbols per its configuration vector and shifts the
    second operand by 2^psi_n degrees.  Because psi covers every bit once,
    each final degree x carries exactly one composition word.

    Returns two (2^m, m) integer arrays, one per branch; entry [x, n-1] is
    the operator index applied at step n to the coefficient of degree x.
    """
    m = len(psi)
    if len(configs) != m:
        raise ValueError(f"need {m} configuration vectors, got {len(configs)}")
    if m > MAX_SYMBOLIC_VARS:
        raise ValueError(f"symbolic expansion capped at m={MAX_SYMBOLIC_VARS}")
    pi_from_psi(psi)  # validates psi

    f_words: dict[int, tuple[int, ...]] = {0: ()}
    g_words: dict[int, tuple[int, ...]] = {0: ()}
    for n in range(m):
        v11, v12, v21, v22 = _check_config(configs[n])
        shift = 1 << psi[n]
        new_f: dict[int, tuple[int, ...]] = {}
        new_g: dict[int, tuple[int, ...]] = {}
        for deg, word in f_words.items():
            new_f[deg] = word + (v11,)
            new_g[deg] = word + (v21,)
        for deg, word in g_words.items():
            new_f[deg + shift] = word + (v12,)
            new_g[deg + shift] = word + (v22,)
        f_words, g_words = new_f, new_g

    size = 1 << m
    f_idx = np.array([f_words[x] for x in range(size)], dtype=np.int8)
    g_idx = np.array([g_words[x] for x in range(size)], dtype=np.int8)
    return f_idx, g_idx


def all_configs() -> list[tuple[int, int, int, int]]:
    """All 16 configuration vectors in lexicographic order."""
    return list(itertools.product((0, 1), repeat=4))
