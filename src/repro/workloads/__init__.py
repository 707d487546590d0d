"""Workloads: published flow-size distributions and synthetic patterns.

The traffic-matrix and flow-list builders live in
:mod:`repro.workloads.patterns`, imported from there: they need numpy,
which the packet experiments never load otherwise.
"""

from .arrivals import FlowArrival, PoissonArrivals
from .distributions import (
    ALL_WORKLOADS,
    DATAMINING,
    HADOOP,
    WEBSEARCH,
    FlowSizeDistribution,
)

__all__ = [
    "FlowArrival",
    "PoissonArrivals",
    "ALL_WORKLOADS",
    "DATAMINING",
    "HADOOP",
    "WEBSEARCH",
    "FlowSizeDistribution",
]
