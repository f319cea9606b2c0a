"""Invariance-pressure invariants of quantized control systems on invariant partitions."""

from .errors import ConfigError, GuardError, PreconditionError
from .symbolic import (
    ControlRange,
    CylinderTree,
    ItineraryLanguage,
    PartitionSpec,
    PerSymbolWeights,
    SftLanguage,
    WordLanguage,
    build_cylinder_tree,
    combine_weights,
    derive_symbol_weights,
    zero_weights,
)
from .systems import (
    AffineIntervalSystem,
    FiniteStateSystem,
    PartitionValidationReport,
    compile_sft,
    itinerary_language,
    validate_invariant_partition,
)
from .capacity import (
    PressureEstimate,
    RootCertificate,
    bowen_root,
    capacity_pressure,
    cycle_mean_pressure,
    pressure_difference,
    spectral_pressure,
)
from .induced import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    CharacterizationResult,
    characterization_scan,
    characterization_sum,
    induced_sum,
    verdict_flip,
)
from .covers import (
    BsDimension,
    CorollaryReport,
    CoverSolution,
    FrostmanWeights,
    JumpEstimate,
    SandwichReport,
    SubsetSpec,
    bs_cover_value,
    bs_dimension,
    bs_jump,
    corollary_check,
    cover_solution,
    cover_value,
    frostman_measure,
    pp_pressure,
    sandwich_check,
    weighted_cover_value,
)
from .measures import (
    CylinderMeasure,
    LowerBsEstimate,
    MarkovMeasure,
    VpReport,
    bernoulli_measure,
    cylinder_masses,
    lower_bs_pressure,
    markov_measure,
    parry_measure,
    vp_check,
)

__version__ = "0.1.0"
