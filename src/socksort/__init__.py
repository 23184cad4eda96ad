"""Pattern-avoiding stack sorting of sock sequences."""

from .core import (
    SockSeq,
    count_standardized,
    enumerate_standardized,
    equivalent,
    format_sequence,
    is_sorted,
    parse_sequence,
    partition_to_seq,
    random_standardized,
    seq_to_partition,
    standardize,
)
from .image_membership import (
    GammaStep,
    GammaTrace,
    Membership,
    gamma_trace,
    in_image_aba,
    in_image_cons,
    phi_aba_via_decomposition,
    phi_cons_via_sandwich,
    sandwich_decompose,
)
from .multipattern import (
    ABA_AAB_PINNED,
    CountTable,
    WitnessReport,
    build_one_stack_sortable,
    count_one_stack_sortable,
    mode_combination_survey,
    unsortable_witness,
)
from .patterns import (
    AAB_CLASSICAL,
    AAB_CONSECUTIVE,
    ABA_CLASSICAL,
    ABA_CONSECUTIVE,
    Mode,
    Pattern,
    PatternSet,
    avoids,
    contains,
    format_pattern,
    parse_pattern,
    parse_patterns,
)
from .preimage_fertility import (
    CLASSICAL_ABA,
    CONS_ABA,
    MAPS,
    PreimageReport,
    fertility_witness,
    preimages_of,
    staircase_count_formula,
    staircase_preimage_count,
    staircase_target,
)
from .stack_machine import (
    IterationOutcome,
    IterationResult,
    SortTrace,
    TraceEvent,
    is_one_stack_sortable,
    phi,
    phi_iterate,
    phi_trace,
    sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
