"""Scalable stress-minimization embedding with incremental cluster updates.

Embeds N objects into a low-dimensional Euclidean space by processing
dissimilarity measurements in small random clusters, one Laplacian solve per
cluster per slot. Includes a batch majorization solver, an averaged companion
recursion for analysis, a mobile-network localization simulator built on the
same update, and streaming data providers for larger-than-memory datasets.
"""

from .observations import ObservationBatch, StepConfig
from .graph_linalg import (
    algebraic_connectivity,
    build_laplacian,
)
from .stress_core import (
    averaged_step,
    closed_form_b_average,
    sgd_step,
    smacof_iterate,
    spe_step,
    stochastic_step,
    stress,
    upsilon,
)
from .sampling import (
    SamplerConfig,
    assign_weights,
    partition_nodes,
)
from .embedder import (
    MuSchedule,
    RunTrace,
    estimate_scale,
    hovering_deviation,
    random_init,
    run_averaged_oracle,
    run_batch_smacof,
    run_stochastic,
    steady_state_stats,
)
from .localization import (
    MobileNetworkState,
    MobilityConfig,
    ProtocolConfig,
    anchor_align,
    deploy_network,
    localization_error,
    measure_distances,
    protocol_round,
    run_localization,
    step_mobility,
)
from .rng import substream

__version__ = "0.1.0"
