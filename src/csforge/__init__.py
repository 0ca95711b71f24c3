"""csforge: complementary sequence synthesis and verification.

Builds Golay complementary pairs from a closed-form Boolean-function encoder,
including QAM-alphabet families and non-contiguous (zero-gapped) sequences,
and checks the defining properties numerically: autocorrelation
complementarity, bounded OFDM peak power, and lattice alphabet membership.
"""

from .analysis import (
    ApacProfile,
    GcpCheck,
    PowerTrace,
    apac,
    is_gcp,
    papr_bound_db,
    papr_oversampled_db,
    shifts_avoid_overlap,
)
from .boolean import BooleanPolynomial, bits_to_index, index_to_bits, xor_expand
from .encoder import (
    ComponentFunctions,
    EncodedPair,
    EncoderParams,
    RecursionParams,
    SeedPair,
    component_functions,
    encode_family,
    encode_pair,
    known_seed,
    recursion_to_encoder,
    run_recursion,
)
from .qam import (
    RuleSpec,
    count_sequences,
    distinct_blocks,
    distinct_sequences,
    enumerate_rule,
    is_qam_point,
    lattice_geometry,
    on_lattice,
    rule_params,
    to_lattice,
)
from .recursion import construction_function, expand_recursion, operator_config
from .sequences import ComplexSequence, GuardError
from .simulate import SimReport, min_distance_sim, pairwise_error_rate

__version__ = "0.1.0"

__all__ = [
    "ApacProfile",
    "BooleanPolynomial",
    "ComplexSequence",
    "ComponentFunctions",
    "EncodedPair",
    "EncoderParams",
    "GcpCheck",
    "GuardError",
    "PowerTrace",
    "RecursionParams",
    "RuleSpec",
    "SeedPair",
    "SimReport",
    "apac",
    "bits_to_index",
    "component_functions",
    "construction_function",
    "count_sequences",
    "distinct_blocks",
    "distinct_sequences",
    "encode_family",
    "encode_pair",
    "enumerate_rule",
    "expand_recursion",
    "index_to_bits",
    "is_gcp",
    "is_qam_point",
    "known_seed",
    "lattice_geometry",
    "min_distance_sim",
    "on_lattice",
    "operator_config",
    "pairwise_error_rate",
    "papr_bound_db",
    "papr_oversampled_db",
    "recursion_to_encoder",
    "rule_params",
    "run_recursion",
    "shifts_avoid_overlap",
    "to_lattice",
    "xor_expand",
]
