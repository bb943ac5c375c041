"""Fragmentation quantities over a spectrum snapshot.

alpha: mean over links holding free slices of (longest free run / free count),
the contiguity component. beta: over designated link-covering trails, the
per-slice-index continuity component. vfm is their Euclidean resultant;
nvfm its min-max normalization and avfm = 1 - nvfm (higher = more
fragmented). lefm is the link-based external fragmentation baseline.

All functions are pure over read-only snapshots. The "no free slice"
situation is reported as None; snapshot_report maps it to the
no-fragmentation convention (a fully busy spectrum is not fragmented).

snapshot_report makes one pass over the links: it takes each link's longest
free run once and feeds those runs to both alpha and lefm, and beta reads
one free matrix of all links. compute_alpha and compute_lefm wrap the same
private helpers, so each gives exactly the value snapshot_report reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectrumState
from .topology import BetaPathSet, Topology


@dataclass(frozen=True)
class MetricBounds:
    alpha_min: float
    beta_min: float
    vfm_min: float
    vfm_max: float = math.sqrt(2.0)


@dataclass
class FragmentationReport:
    alpha: float
    beta: float
    vfm: float
    nvfm: float
    avfm: float
    a_alpha: float
    a_beta: float
    lefm: float
    utilization: float
    el_size: int
    clamped: bool = False  # raw nvfm fell outside [0,1]


CSV_HEADER = "t,arrivals,utilization,alpha,beta,vfm,nvfm,avfm,a_alpha,a_beta,lefm,br_tr"


def report_csv_row(t: float, arrivals: int, rep: FragmentationReport, br_tr: float) -> str:
    vals = [rep.utilization, rep.alpha, rep.beta, rep.vfm, rep.nvfm, rep.avfm,
            rep.a_alpha, rep.a_beta, rep.lefm, br_tr]
    return f"{t:.6f},{arrivals}," + ",".join(f"{v:.6f}" for v in vals)


def _longest_runs(state: SpectrumState) -> list[int]:
    return [state.max_contiguous_free(lid) for lid in range(state.link_count)]


def _alpha(free: list[int], runs: list[int]) -> float | None:
    total = 0.0
    n = 0
    for ss, cg in zip(free, runs):
        if ss:
            total += cg / ss
            n += 1
    if n == 0:
        return None
    return total / n


def _lefm(total_free: int, runs: list[int]) -> float | None:
    if total_free == 0:
        return None
    return 1.0 - sum(runs) / total_free


def compute_alpha(state: SpectrumState) -> float | None:
    """Contiguity component; None when no link has a free slice."""
    return _alpha(state.free, _longest_runs(state))


def compute_beta(state: SpectrumState, paths: BetaPathSet) -> float | None:
    """Continuity component over the trail cover; None when nothing is free
    on any trail. A trail with no free slice anywhere contributes its
    no-fragmentation value 1."""
    free = state.free_matrix().astype(np.int32)
    vals = []
    any_free = False
    for hops in paths.paths:
        mat = free[hops]
        avail = mat.sum(axis=0)               # AS per slice index
        run = np.zeros(mat.shape[1], dtype=np.int32)
        best = np.zeros(mat.shape[1], dtype=np.int32)
        for row in mat:                       # CN per slice index
            run = (run + row) * row
            np.maximum(best, run, out=best)
        mask = avail > 0
        if mask.any():
            any_free = True
            vals.append(float(np.mean(best[mask] / avail[mask])))
        else:
            vals.append(1.0)
    if not any_free:
        return None
    return sum(vals) / len(vals)


def beta_path_bound(hops: int) -> float:
    """Worst-case (chequered) lower bound of the continuity component for one trail."""
    if hops == 1:
        return 1.0  # a single hop cannot break continuity
    if hops % 2 == 0:
        return 2.0 / hops
    return 2.0 * hops / (hops * hops - 1)


def compute_bounds(t: Topology, paths: BetaPathSet) -> MetricBounds:
    """Analytic worst-case (chequered spectrum) lower bounds.

    The alpha bound uses the per-link slice count S: the chequered pattern
    leaves floor(S/2) free slices with longest run 1, so alpha_min =
    1/floor(S/2) (= 2/S for even S). The beta bound is averaged over trails,
    mirroring the outer average of the component itself.
    """
    s = t.slice_count
    alpha_min = 1.0 / (s // 2)
    beta_min = sum(beta_path_bound(h) for h in paths.hop_counts) / len(paths.hop_counts)
    return MetricBounds(alpha_min, beta_min, math.hypot(alpha_min, beta_min))


def compute_vfm(alpha: float, beta: float) -> float:
    return math.hypot(alpha, beta)


def normalize(vfm: float, bounds: MetricBounds) -> tuple[float, float]:
    """(nvfm, avfm) with nvfm clamped to [0,1].

    Simulated states can land marginally below the analytic chequered bound;
    use raw_nvfm to detect clamping."""
    nvfm = min(1.0, max(0.0, raw_nvfm(vfm, bounds)))
    return nvfm, 1.0 - nvfm


def raw_nvfm(vfm: float, bounds: MetricBounds) -> float:
    return (vfm - bounds.vfm_min) / (bounds.vfm_max - bounds.vfm_min)


def adapted_components(alpha: float, beta: float, bounds: MetricBounds) -> tuple[float, float]:
    """Per-component min-max normalization inverted so higher = more fragmented.

    A degenerate bound of 1 (single-hop paths, or a 2-slice grid) means the
    component cannot express fragmentation at all; it reports 0."""
    clamp = lambda x: min(1.0, max(0.0, x))
    a_alpha = 0.0 if bounds.alpha_min >= 1.0 else \
        clamp(1.0 - (alpha - bounds.alpha_min) / (1.0 - bounds.alpha_min))
    a_beta = 0.0 if bounds.beta_min >= 1.0 else \
        clamp(1.0 - (beta - bounds.beta_min) / (1.0 - bounds.beta_min))
    return a_alpha, a_beta


def compute_lefm(state: SpectrumState) -> float | None:
    """Link-based external fragmentation: 1 - (sum of longest free runs over
    all links) / (total free slices network-wide)."""
    return _lefm(sum(state.free), _longest_runs(state))


def snapshot_report(state: SpectrumState, paths: BetaPathSet,
                    bounds: MetricBounds) -> FragmentationReport:
    """Bundle every metric for one observation instant.

    A component with nothing free contributes its no-fragmentation value 1;
    a fully busy spectrum reports avfm = 0."""
    util = state.utilization()
    el = sum(1 for ss in state.free if ss > 0)
    runs = _longest_runs(state)
    alpha = _alpha(state.free, runs)
    beta = compute_beta(state, paths)
    lefm = _lefm(sum(state.free), runs)
    if alpha is None and beta is None:
        return FragmentationReport(1.0, 1.0, bounds.vfm_max, 1.0, 0.0, 0.0, 0.0,
                                   0.0, util, el)
    alpha = 1.0 if alpha is None else alpha
    beta = 1.0 if beta is None else beta
    vfm = compute_vfm(alpha, beta)
    raw = raw_nvfm(vfm, bounds)
    nvfm, avfm = normalize(vfm, bounds)
    a_alpha, a_beta = adapted_components(alpha, beta, bounds)
    return FragmentationReport(alpha, beta, vfm, nvfm, avfm, a_alpha, a_beta,
                               0.0 if lefm is None else lefm, util, el,
                               clamped=not (0.0 <= raw <= 1.0))
