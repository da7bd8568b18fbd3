"""Cluster-based decoding of surface-code graphs with soft-output gaps.

The package is organized around one pipeline: build or load a decoding
graph (``graphs``), sample errors and syndromes (``sampling``), run the
union-find cluster decoder (``decoder``), attach soft-output confidence
estimates to the result (``softout``), and sweep/fit/report at scale
(``harness``, ``fitting``).
"""

from .graphs import (
    WEIGHT_SCALE,
    SCALED_PER_NAT,
    Edge,
    DecodingGraph,
    GraphFormatError,
    InvalidParameterError,
    InvalidProbabilityError,
    build_phenomenological,
    db_to_nat,
    db_to_scaled,
    load_graph,
    nat_to_db,
    nat_to_scaled,
    save_graph,
    scaled_to_db,
    scaled_to_nat,
    weight_from_prob,
)
from .sampling import (
    ErrorPattern,
    MissingProbabilityError,
    SeedSpec,
    Syndrome,
    sample_errors,
    sample_syndrome,
    syndrome_of,
)
from .decoder import (
    ClusterState,
    InvariantViolationError,
    decode,
    max_growth_radius,
    nodes_in_clusters,
    peel,
)
from .softout import (
    ContractedView,
    GapResult,
    Growth,
    bounded_cluster_gap,
    cluster_gap,
    cluster_gaps,
    contract,
    extra_cluster_gap,
    extra_cluster_gap_cg,
    extra_gaps,
    grow_clusters,
    multi_boundary_extra_gap,
)
from .fitting import FitResult, InsufficientDataError, fit_exponential, fit_power_law
from .harness import (
    AggregateRow,
    ConfigError,
    ConsistencyReport,
    SweepConfig,
    SweepRecord,
    SwitchCheck,
    aggregate,
    emit,
    parse_csv_metadata,
    parse_records_csv,
    records_to_csv,
    records_to_json,
    run_consistency,
    run_sweep,
    switch_check,
    wilson_interval,
)

__version__ = "0.1.0"
