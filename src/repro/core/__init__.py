"""Analytical model of collision avoidance with directional antennas.

This package is the paper's primary contribution: closed-form (up to one
numerical integral) saturation-throughput models for three MAC schemes
in a 2-D Poisson multi-hop network —

* :class:`~repro.core.orts_octs.OrtsOcts` — everything omni-directional,
* :class:`~repro.core.drts_dcts.DrtsDcts` — everything directional,
* :class:`~repro.core.drts_octs.DrtsOcts` — directional RTS/data/ACK
  with an omni-directional CTS,

plus a :class:`~repro.core.csma.NonPersistentCsma` baseline, geometry
helpers, the shared node Markov chain, and sweep/optimisation utilities
that regenerate Fig. 5.
"""

from .btma import IdealizedBtma
from .channel_model import ChannelFeedback, airtime_fraction, attempt_probability
from .csma import NonPersistentCsma
from .drts_dcts import DrtsDcts
from .fastpath import p_ws_curve, throughput_curve
from .drts_octs import DrtsOcts
from .geometry import (
    DrtsDctsAreas,
    DrtsOctsAreas,
    disk_overlap_area,
    drts_dcts_areas,
    drts_octs_areas,
    hidden_area,
    q_takagi_kleinrock,
)
from .markov import StationaryDistribution, solve_node_chain, stationary_from_matrix
from .montecarlo import (
    MonteCarloEstimate,
    estimate_p_ws,
    estimate_p_ws_at_distance,
    simulate_node_chain,
)
from .optimize import ThroughputOptimum, maximize_throughput
from .orts_octs import OrtsOcts
from .params import PAPER_PARAMETERS, ProtocolParameters
from .schemes import CollisionAvoidanceScheme
from .sweep import (
    SCHEME_FACTORIES,
    SweepPoint,
    SweepSeries,
    beamwidth_sweep,
    fig5_series,
    paper_beamwidths,
)
from .truncgeom import truncated_geometric_mean, truncated_geometric_pmf

__all__ = [
    "CollisionAvoidanceScheme",
    "OrtsOcts",
    "DrtsDcts",
    "DrtsOcts",
    "NonPersistentCsma",
    "IdealizedBtma",
    "p_ws_curve",
    "throughput_curve",
    "ProtocolParameters",
    "PAPER_PARAMETERS",
    "StationaryDistribution",
    "solve_node_chain",
    "stationary_from_matrix",
    "ThroughputOptimum",
    "maximize_throughput",
    "SweepPoint",
    "SweepSeries",
    "SCHEME_FACTORIES",
    "beamwidth_sweep",
    "fig5_series",
    "paper_beamwidths",
    "truncated_geometric_mean",
    "truncated_geometric_pmf",
    "ChannelFeedback",
    "airtime_fraction",
    "attempt_probability",
    "MonteCarloEstimate",
    "estimate_p_ws",
    "estimate_p_ws_at_distance",
    "simulate_node_chain",
    "q_takagi_kleinrock",
    "hidden_area",
    "disk_overlap_area",
    "drts_dcts_areas",
    "drts_octs_areas",
    "DrtsDctsAreas",
    "DrtsOctsAreas",
]
