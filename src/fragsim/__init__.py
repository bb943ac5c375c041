"""Vectored fragmentation metric and dynamic-traffic simulation for
elastic optical network spectrum."""

__version__ = "0.1.0"

from .metrics import (FragmentationReport, MetricBounds, compute_alpha,
                      compute_beta, compute_bounds, compute_lefm, compute_vfm,
                      normalize, snapshot_report)
from .spectrum import SliceRange, SpectrumState
from .topology import (BetaPathSet, Link, Topology, build_beta_paths,
                       load_beta_paths, load_topology)
from .traffic import Demand, DemandGenerator, DemandProfile, EventQueue
from .engine import Simulation, run_steady_sweep, run_transient, run_utilization_scan
