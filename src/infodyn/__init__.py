"""infodyn: information-theoretic measures of discrete dynamical systems.

Shannon-information based measures of emergence, self-organization,
complexity, and homeostasis at multiple bit-grouping scales, with random
Boolean network and elementary cellular automaton simulators and a
reproducible batch experiment harness.
"""

from .measures import (
    NORM_CONSTANT,
    MeasureSet,
    SymbolSequence,
    complexity,
    emergence,
    estimate_distribution,
    expand_to_bits,
    hamming_distance,
    homeostasis,
    multiscale_profile,
    normalized_information,
    rescale,
    self_organization,
    shannon_information,
    simplified_measures,
    uncorrelated_homeostasis,
)
from .trajectory import (
    Trajectory,
    node_series,
    series_matrix_measures,
    trajectory_csv,
    trajectory_pbm,
)
from .rbn import (
    BooleanNetwork,
    RbnConfig,
    generate_rbn,
    network_measures,
    parse_network,
    rbn_step,
    run_rbn,
    run_rbn_many,
    serialize_network,
)
from .eca import (
    EcaConfig,
    as_boolean_network,
    eca_measures,
    eca_step,
    rule_table,
    run_eca,
    run_eca_many,
)
from .experiments import (
    DEFAULT_K_GRID,
    DEFAULT_RULES,
    PROFILE_RULES,
    ProfileResult,
    SeedSchedule,
    SweepResult,
    aggregate,
    eca_class_survey,
    multiscale_profiles,
    rbn_sweep,
    write_sweep_files,
)

__version__ = "0.1.0"
