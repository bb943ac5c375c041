"""Fragmentation quantities over a spectrum snapshot.

alpha: mean over links holding free slices of (longest free run / free count),
the contiguity component. beta: over designated link-covering trails, the
per-slice-index continuity component. vfm is their Euclidean resultant;
nvfm its min-max normalization and avfm = 1 - nvfm (higher = more
fragmented). lefm is the link-based external fragmentation baseline.

All functions are pure over read-only snapshots. The "no free slice"
situation is reported as None; snapshot_report maps it to the
no-fragmentation convention (a fully busy spectrum is not fragmented).
`snapshot_reports` scores a batch of states, and snapshot_report,
compute_alpha, compute_beta and compute_lefm each give exactly the value
it reports for a batch of one. `mean_ci99` summarizes replicated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, is_not, or_

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


# the trail index of no trail, for the link-only metrics
_NO_TRAILS = np.zeros((0, 0), dtype=np.intp)


def left_sum(values) -> float:
    """Sum of floats added left to right. Python 3.12's sum() compensates
    rounding, so using it would make the outputs depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


# two-sided 99% Student-t critical values for df 1..20
_T99 = (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845)
_Z995 = 2.5758293035489  # the standard normal 0.995 quantile


def t99(df: int) -> float:
    """Two-sided 99% Student-t critical value: the table up to df 20, above
    it the Cornish-Fisher expansion of the quantile in 1/df to four terms
    (within 3e-6 of the exact value for df > 20). There is none below df 1."""
    if df < 1:
        raise ValueError(f"t99 needs df >= 1, got {df}")
    if df <= len(_T99):
        return _T99[df - 1]
    z, z2 = _Z995, _Z995 * _Z995
    g = ((z2 + 1) * z / 4,
         ((5 * z2 + 16) * z2 + 3) * z / 96,
         (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384,
         ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160)
    return z + left_sum(gk / df ** k for k, gk in enumerate(g, 1))


def mean_ci99(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 99% confidence half-width over axis 0 of a float array: the
    replications of a transient's points (replications x points x metrics)
    or of a sweep's cells (replications x metrics), or the samples of a
    sweep window (samples x metrics), each row in SUMMARY_METRICS order as
    `Sample.values` gives it. Both sums add left to right, as `left_sum`
    does: np.add.accumulate is sequential along its axis. One value has no
    spread to estimate, so its half-width is nan, not 0."""
    a = np.asarray(values, dtype=float)
    n = len(a)
    mean = np.add.accumulate(a, axis=0)[-1] / n
    if n < 2:
        return mean, np.full(np.shape(mean), np.nan)
    dev = a - mean
    return mean, t99(n - 1) * np.sqrt(np.add.accumulate(dev * dev, axis=0)[-1] / (n - 1) / n)


def _batch_runs(occupancies: list[list[int]], slice_count: int, hop_index: np.ndarray):
    """For each state of a batch, given as its busy bitmaps: each link's
    longest run of free slices and its free slice count, as (states x
    links) arrays, and per (trail, slice index) the longest run of free hops
    (CN) and the free hop count (AS), as (states x trails x slices) arrays.

    Each distinct bitmap of the batch is packed and scanned once, and every
    (state, link) gathers its results through `_distinct`'s index. Every
    state also holds a fully busy last link, the hop that pads short
    trails. The free maps are packed into one bit string, one row per
    distinct bitmap and each row at least one busy pad bit longer than the
    spectrum, so no run crosses a row."""
    full = (1 << slice_count) - 1
    bitmaps, index = _distinct(occupancies, full)
    rows = len(bitmaps)
    nbytes = slice_count // 8 + 1
    size = rows * nbytes
    busy = b"".join(map(int.to_bytes, bitmaps, repeat(nbytes), repeat("little")))
    spectra = full.to_bytes(nbytes, "little") * rows
    free = int.from_bytes(busy, "little") ^ int.from_bytes(spectra, "little")
    # each temporary is dropped once used: the batch's can set the peak RSS
    del busy, spectra
    packed = np.frombuffer(free.to_bytes(size, "little"), dtype=np.uint8).reshape(rows, nbytes)
    longest, count = _link_runs(free, size, rows, 8 * nbytes)
    del free
    link_index = index[:-1].T
    return (longest[link_index], count[link_index],
            *_trail_counts(packed, index[hop_index.T], slice_count))


def _distinct(occupancies: list[list[int]], pad: int) -> tuple[list[int], np.ndarray]:
    """The distinct bitmaps of a batch, link by link and then the one of
    `pad`, a last link that every state holds, and the index among them of
    each (link, state) cell's bitmap, as a (links + 1 x states) array.

    Cells are taken link by link, each link's in state order, and a cell
    whose int is the one before it repeats it, so its index is that of the
    last new cell. By `SpectrumState`'s rule, a link that kept its spectrum
    between two states repeats; equal ints held as distinct objects count
    twice."""
    states = len(occupancies)
    cells = list(chain.from_iterable(zip(*occupancies)))
    cells += [pad] * states
    keep = [True] + list(map(is_not, cells[1:], cells))
    rank = np.cumsum(np.frombuffer(bytes(keep), dtype=bool))
    return list(compress(cells, keep)), (rank - 1).reshape(-1, states)


def _link_runs(free: int, size: int, rows: int, width: int):
    """Longest run of one bits and one-bit count of each of the `rows` rows
    of `width` bits in `free`, a bit string of `size` bytes.

    One XOR of the bit string with itself shifted by one marks where every
    run starts and ends; bit 0 is preceded by a busy bit."""
    marks = np.frombuffer((free ^ (free << 1)).to_bytes(size + 1, "little"), dtype=np.uint8)
    edges = np.flatnonzero(np.unpackbits(marks, bitorder="little").view(bool))
    # run i covers [edges[2i], edges[2i + 1]); its row replaces its start:
    # true division truncated on assignment is exact below 2**52 and, unlike
    # //, pages in no numpy loop that the simulation does not already use
    starts, lengths = edges[::2], edges[1::2]
    lengths -= starts
    starts[:] = starts / width
    longest = np.zeros(rows, dtype=np.intp)
    np.maximum.at(longest, starts, lengths)
    # float64 counts, exact below 2**53
    return longest, np.bincount(starts, weights=lengths, minlength=rows)


def _trail_counts(packed: np.ndarray, at: np.ndarray, slice_count: int):
    """CN and AS of every (state, trail, slice index), from the packed free
    maps (bitmaps x bytes) and `at`, the row in `packed` of hop i of each
    (trail, state) (hops x trails x states).

    Trails are bit-sliced: hop i of every (trail, state) is one int, and
    layer r holds the slices where some r consecutive hops are free, the OR
    over i of the AND of hops i to i+r-1. Layers are nested, so CN counts
    the layers that hold a slice, and AS the hops that do."""
    span, trails, states = at.shape
    nbytes = packed.shape[1]
    shape = (trails, states, nbytes)
    size = trails * states * nbytes
    hop_maps = packed[at].tobytes()
    hops = [int.from_bytes(hop_maps[i * size:(i + 1) * size], "little") for i in range(span)]
    layers = []
    window = hops                   # before layer r: AND of hops i .. i+r-1
    for r in range(span):
        layers.append(reduce(or_, window))
        window = list(map(and_, window, hops[r + 1:]))
    nested = b"".join(m.to_bytes(size, "little") for m in layers)
    # dropped before counting: the unpacked bits of a count set the peak
    del hops, window, layers
    cn = _bit_counts(nested, span, shape)
    del nested
    avail = _bit_counts(hop_maps, span, shape)
    # (trails, states, bits) -> (states, trails, slices)
    return [c[..., :slice_count].transpose(1, 0, 2) for c in (cn, avail)]


def _bit_counts(raw: bytes, n: int, shape: tuple[int, int, int]) -> np.ndarray:
    """How many of the `n` bit maps in `raw` hold each bit: the maps follow
    one another, each with its bytes laid out as `shape`, and the result is
    indexed like a map's bits."""
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n, *shape),
                         axis=-1, bitorder="little")
    # eight bits to an int64, one byte lane each: a sum of up to 255 maps
    # never carries from one lane into the next
    words = bits.view(np.int64)
    sums = [words[i:i + 255].sum(axis=0).view(np.uint8) for i in range(0, max(n, 1), 255)]
    return sums[0] if len(sums) == 1 else sum(c.astype(np.intp) for c in sums)


def _link_components(longest: np.ndarray, free: np.ndarray, slice_count: int):
    """Per state: (alpha, lefm, utilization, el_size), alpha and lefm None
    when no link has a free slice. Alpha is the mean of longest run / free
    count over links with a free slice, added left to right over links."""
    held = longest > 0              # exactly the links with a free slice
    terms = np.divide(longest, free, out=np.zeros(free.shape), where=held)
    # adding 0.0 for a link without a free slice changes no partial sum
    sums = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    total = free.shape[1] * slice_count
    out = []
    for s, el, runs, nfree in zip(sums, np.count_nonzero(held, axis=1).tolist(),
                                  longest.sum(axis=1).tolist(), free.sum(axis=1).tolist()):
        util = (total - nfree) / total
        out.append((s / el, 1.0 - runs / nfree, util, el) if el else (None, None, util, 0))
    return out


def _betas(cn: np.ndarray, avail: np.ndarray) -> list[float | None]:
    """Per state, the mean over trails of the mean CN/AS over slice indices
    with AS > 0; a trail with no free slice anywhere contributes its
    no-fragmentation value 1, and a state with none on any trail gets None."""
    mask = avail > 0
    cn, avail = cn[mask], avail[mask]
    out = []
    at = 0
    # counted in the least type that holds the slice count, not in int64
    for counts in mask.sum(axis=2, dtype=np.min_scalar_type(mask.shape[2])).tolist():
        # one state's ratios at a time; each trail's are one contiguous
        # slice, and np.add.reduce over it sums them in np.mean's order
        end = at + sum(counts)
        ratios = cn[at:end] / avail[at:end]
        at = end
        vals = []
        i = 0
        for n in counts:
            vals.append(float(np.add.reduce(ratios[i:i + n])) / n if n else 1.0)
            i += n
        out.append(left_sum(vals) / len(vals) if i else None)
    return out


def compute_alpha(state: SpectrumState) -> float | None:
    """Contiguity component; None when no link has a free slice."""
    longest, free, _, _ = _batch_runs([state.occ], state.slice_count, _NO_TRAILS)
    return _link_components(longest, free, state.slice_count)[0][0]


def compute_beta(state: SpectrumState, paths: BetaPathSet) -> float | None:
    """Continuity component over the trail cover, as `_betas` takes it;
    None when nothing is free on any trail."""
    _, _, cn, avail = _batch_runs([state.occ], state.slice_count, paths.hop_index)
    return _betas(cn, avail)[0]


def beta_path_bound(hops: int) -> float:
    """Worst-case (chequered) lower bound of the continuity component for one trail."""
    if hops == 1:
        return 1.0  # a single hop cannot break continuity
    if hops % 2 == 0:
        return 2.0 / hops
    return 2.0 * hops / (hops * hops - 1)


def compute_bounds(t: Topology, paths: BetaPathSet) -> MetricBounds:
    """Analytic worst-case lower bounds of alpha and beta.

    alpha_min = 1/ceil(S/2) for a per-link slice count S, the least alpha of
    any one link: a link with f free slices in k runs has a longest run of
    at least f/k, and k <= ceil(S/2) runs fit in S slices, so the ratio is
    at least 1/ceil(S/2), which the chequered pattern that starts free
    reaches. For even S that is 2/S.

    beta_min is the mean over trails of `beta_path_bound`, mirroring the
    outer average of the component itself. For an odd hop count h that
    bound is 2h/(h^2 - 1), the mean of the two chequered phases 2/(h - 1)
    and 2/(h + 1), not the least value of one trail (2/(h + 1)); a state
    below it has a raw nvfm below 0, is clamped, and counts as one of a
    run's `clamp_events`.
    """
    s = t.slice_count
    if s < 2:
        raise ValueError(f"{t.name}: slice_count {s} has no chequered pattern; need >= 2")
    alpha_min = 1.0 / ((s + 1) // 2)
    beta_min = left_sum(beta_path_bound(h) for h in paths.hop_counts) / len(paths.hop_counts)
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
    """(vfm - vfm_min) / (vfm_max - vfm_min). Bounds with no range (alpha_min
    and beta_min both 1: two slices and one-hop trails only) leave nothing
    to express, so every state reads 1, the no-fragmentation value."""
    if bounds.vfm_min >= bounds.vfm_max:
        return 1.0
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
    longest, free, _, _ = _batch_runs([state.occ], state.slice_count, _NO_TRAILS)
    return _link_components(longest, free, state.slice_count)[0][1]


def snapshot_report(state: SpectrumState, paths: BetaPathSet,
                    bounds: MetricBounds) -> FragmentationReport:
    """Bundle every metric for one observation instant: snapshot_reports on
    a batch of one."""
    return snapshot_reports([state.occ], state.slice_count, paths, bounds)[0]


def snapshot_reports(occupancies: list[list[int]], slice_count: int, paths: BetaPathSet,
                     bounds: MetricBounds) -> list[FragmentationReport]:
    """The report of each state in a batch, each state given as its list of
    per-link busy bitmaps (`SpectrumState.occ`), scored together by
    `_batch_runs`."""
    longest, free, cn, avail = _batch_runs(occupancies, slice_count, paths.hop_index)
    return [_report(alpha, beta, lefm, util, el, bounds)
            for (alpha, lefm, util, el), beta
            in zip(_link_components(longest, free, slice_count), _betas(cn, avail))]


def _report(alpha: float | None, beta: float | None, lefm: float | None, util: float,
            el: int, bounds: MetricBounds) -> FragmentationReport:
    alpha = 1.0 if alpha is None else alpha
    beta = 1.0 if beta is None else beta
    vfm = compute_vfm(alpha, beta)
    raw = raw_nvfm(vfm, bounds)
    nvfm, avfm = normalize(vfm, bounds)
    a_alpha, a_beta = adapted_components(alpha, beta, bounds)
    return FragmentationReport(alpha, beta, vfm, nvfm, avfm, a_alpha, a_beta,
                               0.0 if lefm is None else lefm, util, el,
                               clamped=not (0.0 <= raw <= 1.0))
