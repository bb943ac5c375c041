"""Fragmentation quantities over a spectrum snapshot.

alpha: mean over links holding free slices of (longest free run / free count),
the contiguity component. beta: over designated link-covering trails, the
per-slice-index continuity component. vfm is their Euclidean resultant;
nvfm its min-max normalization and avfm = 1 - nvfm (higher = more
fragmented). lefm is the link-based external fragmentation baseline.

All functions are pure over read-only snapshots. The "no free slice"
situation is reported as None; snapshot_report maps it to the
no-fragmentation convention (a fully busy spectrum is not fragmented).

Alpha and beta both take longest free runs over the same free map, alpha
along each link's slices and beta along each trail's hops at every slice
index; `_free_runs` takes both in one numpy pass, and its link runs feed
both alpha and lefm. compute_alpha, compute_beta and compute_lefm wrap the
same private helpers, so each gives exactly the value snapshot_report
reports.
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


# The reported FragmentationReport fields in output column order; every list
# of metric names (CSV columns, summaries, the snapshot printout) derives
# from this tuple.
METRICS = ("utilization", "alpha", "beta", "vfm", "nvfm", "avfm", "a_alpha",
           "a_beta", "lefm")
# Runner summaries add the blocking ratio since the start and over the
# trailing admission window; per-sample CSVs carry only the first.
SUMMARY_METRICS = METRICS + ("br_tr", "br_tr_win")
CSV_HEADER = ",".join(("t", "arrivals") + SUMMARY_METRICS[:-1])


def report_csv_row(t: float, arrivals: int, rep: FragmentationReport, br_tr: float) -> str:
    vals = [getattr(rep, name) for name in METRICS] + [br_tr]
    return f"{t:.6f},{arrivals}," + ",".join(f"{v:.6f}" for v in vals)


# the trail index of no trail, for the link-only metrics
_NO_TRAILS = np.zeros((0, 0), dtype=np.intp)


def _free_runs(state: SpectrumState, hop_index: np.ndarray):
    """Each link's longest run of free slices (a list), and per (trail,
    slice index) the longest run of free hops (CN) and the free hop count
    (AS) as (trails x slices) arrays.

    One flat 0/1 vector holds a leading 0, every link row, then every
    (trail, slice index) column of hops, each followed by a 0. The -1 that
    pads `hop_index` names a busy row after the links, so all columns have
    one length, and one comparison with the vector shifted by one finds
    where every run starts and ends."""
    links, s = state.link_count, state.slice_count
    trails, width = hop_index.shape
    split = 1 + (links + 1) * (s + 1)
    v = np.zeros(split + trails * s * (width + 1), dtype=np.uint8)
    rows = v[1:split].reshape(links + 1, s + 1)       # the last row stays busy
    rows[:links, :s] = state.free_matrix()
    hops = rows[hop_index, :s]                        # (trails, hops, slices)
    v[split:].reshape(trails, s, width + 1)[:, :, :width] = hops.transpose(0, 2, 1)
    b = v.view(bool)
    # counted from v[1], run i covers [edges[2i], edges[2i + 1])
    edges = np.flatnonzero(b[1:] != b[:-1])
    seg, lengths = edges[::2], edges[1::2]
    lengths -= seg
    # each run's segment, in place of its start: true division truncated on
    # assignment is exact below 2**52 and, unlike //, pages in no numpy loop
    # that the simulation does not already use
    k = np.count_nonzero(seg < split - 1)             # runs on links
    seg[:k] = seg[:k] / (s + 1)
    cols = seg[k:]
    cols -= split - 1
    cols[:] = cols / (width + 1)
    cols += links + 1
    best = np.zeros(links + 1 + trails * s, dtype=np.intp)
    np.maximum.at(best, seg, lengths)
    return (best[:links].tolist(), best[links + 1:].reshape(trails, s),
            hops.sum(axis=1, dtype=np.intp))


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


def _beta(cn: np.ndarray, avail: np.ndarray) -> float | None:
    """Mean over trails of the mean CN/AS over slice indices with AS > 0; a
    trail with no free slice anywhere contributes its no-fragmentation
    value 1."""
    mask = avail > 0
    # trail by trail: each trail's ratios are one contiguous slice, and
    # np.add.reduce over it sums them in np.mean's order
    ratios = cn[mask] / avail[mask]
    vals = []
    at = 0
    for n in mask.sum(axis=1).tolist():
        vals.append(float(np.add.reduce(ratios[at:at + n]) / n) if n else 1.0)
        at += n
    if not at:
        return None
    return sum(vals) / len(vals)


def compute_alpha(state: SpectrumState) -> float | None:
    """Contiguity component; None when no link has a free slice."""
    return _alpha(state.free_counts(), _free_runs(state, _NO_TRAILS)[0])


def compute_beta(state: SpectrumState, paths: BetaPathSet) -> float | None:
    """Continuity component over the trail cover; None when nothing is free
    on any trail. A trail with no free slice anywhere contributes its
    no-fragmentation value 1."""
    _, cn, avail = _free_runs(state, paths.hop_index)
    return _beta(cn, avail)


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
    if s < 2:
        raise ValueError(f"{t.name}: slice_count {s} has no chequered pattern; need >= 2")
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
    return _lefm(sum(state.free_counts()), _free_runs(state, _NO_TRAILS)[0])


def snapshot_report(state: SpectrumState, paths: BetaPathSet,
                    bounds: MetricBounds) -> FragmentationReport:
    """Bundle every metric for one observation instant.

    A component with nothing free contributes its no-fragmentation value 1;
    a fully busy spectrum reports avfm = 0."""
    free = state.free_counts()
    total = state.link_count * state.slice_count
    util = (total - sum(free)) / total      # the same integers as state.utilization()
    el = sum(1 for ss in free if ss > 0)
    runs, cn, avail = _free_runs(state, paths.hop_index)
    alpha = _alpha(free, runs)
    beta = _beta(cn, avail)
    lefm = _lefm(sum(free), runs)
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
