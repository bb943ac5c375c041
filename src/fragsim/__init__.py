"""Vectored fragmentation metric and dynamic-traffic simulation for elastic
optical network spectrum. The package exports what the README's Library
section uses; everything else is imported from its module."""

__version__ = "0.1.0"

from .metrics import compute_bounds, snapshot_report
from .spectrum import SpectrumState
from .topology import build_beta_paths, load_beta_paths, load_topology
from .traffic import DemandProfile
from .engine import Simulation
