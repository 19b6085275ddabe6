"""Clustering of random-walk panels via rank + histogram representations.

Pipeline: load a level panel, difference it, project each increment series
onto (rank vector, shared-grid histogram), compute the blended
dependence/distribution distance matrix, cluster it, and summarize. A
synthetic generator with planted ground truth supports end-to-end checks.
"""

from .clustering import (
    ClusterAssignment,
    ClusterSummary,
    ClusterSummaryRow,
    StabilityReport,
    adjusted_rand,
    cluster,
    cluster_summary,
    fit,
    minimal_matching,
    stability_select_k,
)
from .distance import (
    DistanceMatrix,
    distance_matrices,
)
from .errors import (
    BinningRangeError,
    DegenerateSampleError,
    DimensionError,
    PanelFormatError,
    ParameterError,
    RwclustError,
    ValidationError,
)
from .ingestion import (
    IncrementPanel,
    IngestionOptions,
    SeriesPanel,
    load_panel,
    to_increments,
)
from .representation import (
    BinningConfig,
    NonParamRepresentation,
    represent,
    shared_grid,
)
from .synthetic import (
    CorrelationBlock,
    DistributionGroup,
    GroundTruth,
    SyntheticSpec,
    generate_panel,
    score_recovery,
)

__version__ = "0.1.0"

__all__ = [
    "BinningConfig",
    "BinningRangeError",
    "ClusterAssignment",
    "ClusterSummary",
    "ClusterSummaryRow",
    "CorrelationBlock",
    "DegenerateSampleError",
    "DimensionError",
    "DistanceMatrix",
    "DistributionGroup",
    "GroundTruth",
    "IncrementPanel",
    "IngestionOptions",
    "NonParamRepresentation",
    "PanelFormatError",
    "ParameterError",
    "RwclustError",
    "SeriesPanel",
    "StabilityReport",
    "SyntheticSpec",
    "ValidationError",
    "adjusted_rand",
    "cluster",
    "cluster_summary",
    "distance_matrices",
    "fit",
    "generate_panel",
    "load_panel",
    "minimal_matching",
    "represent",
    "score_recovery",
    "shared_grid",
    "stability_select_k",
    "to_increments",
]
