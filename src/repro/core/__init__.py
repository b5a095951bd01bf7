"""The paper's contribution: BCRS scheduling, Eq. 6 coefficients, the
degree-of-overlap metric, the OPWA mask, and the aggregation rules."""

from repro.core.aggregation import apply_server_update, weighted_sparse_sum
from repro.core.bcrs import BCRSSchedule, schedule_ratios
from repro.core.coefficients import adjusted_coefficients, fedavg_coefficients, normalize_ratios
from repro.core.opwa import opwa_mask, opwa_mask_from_updates
from repro.core.overlap import OverlapDistribution, overlap_counts, overlap_distribution
from repro.core.server_opt import ServerAdam, ServerOptimizer, ServerSGD, make_server_optimizer

__all__ = [
    "BCRSSchedule",
    "schedule_ratios",
    "normalize_ratios",
    "fedavg_coefficients",
    "adjusted_coefficients",
    "overlap_counts",
    "OverlapDistribution",
    "overlap_distribution",
    "opwa_mask",
    "opwa_mask_from_updates",
    "weighted_sparse_sum",
    "apply_server_update",
    "ServerOptimizer",
    "ServerSGD",
    "ServerAdam",
    "make_server_optimizer",
]
