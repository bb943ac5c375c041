"""Discrete-event simulation: admit/route/allocate/release connections and
sample fragmentation metrics.

One Simulation is a single replication: its own spectrum state, demand
stream and heap of pending departures. `_advance` is the one event loop,
fed by `run` from the stream and by `step_arrival` with one demand. Each
demand first releases the connections due by its arrival time (also those
due at it), then takes the first window free on its route or is blocked.
An active connection is recorded once, as its departure heap entry
(departure time, id, route, mask), route and mask as `SpectrumState` takes
and returns them, so the loop builds no `SliceRange` and keeps no dict in
step with the heap. `step_arrival` answers from the loop's own (route,
mask); `Simulation.connections` is an inspection view of the heap, built
when read in O(active). The routes are the topology's cached table.
A sample saves a copy of the bitmap list and the counters, and the count
of its new bitmaps: the links whose int is not the previous pending
sample's. The saved states are scored a batch at a time by one
`snapshot_reports` call, which scans each distinct bitmap once; a batch
ends once the next sample could take its distinct bitmaps past
SAMPLE_BATCH states' worth, or at 2 * SAMPLE_BATCH samples. Whatever is
still pending is scored before `run` or a runner returns; `clamp_events`
counts the scored samples that were clamped. Runners below repeat
replications with independent RNG streams. A sample's values are
`Sample.values`, in SUMMARY_METRICS order, and every summary (mean and 99%
Student-t half-width) is one `mean_ci99` reduction over axis 0 of rows of
them: replications x points x metrics for a transient, samples x metrics
per sweep window and replications x metrics per sweep cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from operator import is_not
from typing import NamedTuple

import numpy as np

# snapshot_report and all_pairs_routes are not called here;
# bench/trace_layers.py and bench/selftest.py look them up in this module by name
from .metrics import (METRICS, SUMMARY_METRICS, FragmentationReport,
                      compute_bounds, left_sum, snapshot_report, snapshot_reports)
from .spectrum import SliceRange, SpectrumState
from .topology import BetaPathSet, Topology, all_pairs_routes
from .traffic import Demand, DemandGenerator, DemandProfile, EventQueue

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
    """Mean and 99% confidence half-width over axis 0 (the replications) of
    a float array. Both sums add left to right, as `left_sum` does:
    np.add.accumulate is sequential along its axis. One value has no
    spread to estimate, so its half-width is nan, not 0."""
    a = np.asarray(values, dtype=float)
    n = len(a)
    mean = np.add.accumulate(a, axis=0)[-1] / n
    if n < 2:
        return mean, np.full(np.shape(mean), np.nan)
    dev = a - mean
    return mean, t99(n - 1) * np.sqrt(np.add.accumulate(dev * dev, axis=0)[-1] / (n - 1) / n)


class Connection(NamedTuple):
    """An active connection: the link ids of its route and the bitmask of
    the slices it holds on each of them."""
    route: list[int]
    mask: int

    @property
    def range(self) -> SliceRange:
        return SliceRange.from_mask(self.mask)


# arrivals behind br_tr_win; 1000 resolves a blocking ratio to 0.001
BR_WINDOW = 1000
# the states' worth of distinct bitmaps that one snapshot_reports call
# scores, in at most 2 * SAMPLE_BATCH samples. More states per call share
# its fixed numpy cost, but its link-run temporaries grow with the distinct
# bitmaps and its trail temporaries with the samples: this keeps a call's
# traced peak at 0.12-0.13 MB on German and NSFNET states, while a flat batch
# of 8 raised the benchmark's peak RSS by 0.15-0.2 MB on sweep_nsfnet.
# Steady NSFNET samples change nearly every link and stay 4 to a call;
# transient German ones, 5 arrivals apart, reach 8.
SAMPLE_BATCH = 4


@dataclass
class Sample:
    t: float
    arrivals: int
    report: FragmentationReport
    br_tr: float        # cumulative blocked/total
    br_tr_win: float    # over the trailing BR_WINDOW arrivals

    def values(self) -> list[float]:
        """This sample's values in SUMMARY_METRICS order."""
        return [getattr(self.report, name) for name in METRICS] + [self.br_tr, self.br_tr_win]


class Simulation:
    """One replication of the dynamic-traffic experiment."""

    def __init__(self, topology: Topology, profile: DemandProfile,
                 paths: BetaPathSet, replication: int = 0):
        self.paths = paths
        self.bounds = compute_bounds(topology, paths)
        self.routes = topology.routes
        self.state = SpectrumState(topology.link_count, topology.slice_count)
        self.gen = DemandGenerator(profile, topology.node_count, replication)
        self.queue = EventQueue()
        self.total_requests = 0
        self.blocked_requests = 0
        self.clock = 0.0
        self._window = deque(maxlen=BR_WINDOW)
        self.samples: list[Sample] = []
        # (t, arrivals, occ copy, br_tr, br_tr_win, new bitmaps) of samples
        # not yet scored
        self._pending: list[tuple] = []

    @property
    def connections(self) -> dict[int, Connection]:
        """Active connections by id, for inspection: a copy built from the heap."""
        return {conn_id: Connection(route, mask)
                for _, conn_id, route, mask in self.queue.heap}

    @property
    def clamp_events(self) -> int:
        """Scored samples whose report was clamped to the bounds."""
        return sum(s.report.clamped for s in self.samples)

    def _advance(self, demands, sample_every: int):
        """Handle each (id, src, dst, width, arrival_time, holding_time) demand,
        sampling after every `sample_every`-th (0: never); the last one's
        (route, mask), mask None if it was blocked. The counters and the
        clock are locals, written back before each sample and at the end."""
        state, routes = self.state, self.routes
        heap, window = self.queue.heap, self._window
        # looked up on the instance now, so wrappers set on it are seen
        first_fit, allocate, release = state.find_first_fit, state.allocate, state.release
        total, blocked, t = self.total_requests, self.blocked_requests, self.clock
        due = sample_every
        route = mask = None
        for n, (demand_id, src, dst, width, t, holding) in enumerate(demands, 1):
            while heap and heap[0][0] <= t:  # due by t, also at t: leave first
                _, _, route, mask = heappop(heap)
                release(route, mask)
            total += 1
            route = routes[src, dst]
            mask = first_fit(route, width)
            if mask is None:
                blocked += 1
                window.append(1)
            else:
                window.append(0)
                allocate(route, mask)
                heappush(heap, (t + holding, demand_id, route, mask))
            if n == due:
                due += sample_every
                self.total_requests, self.blocked_requests, self.clock = total, blocked, t
                self.take_sample()
        self.total_requests, self.blocked_requests, self.clock = total, blocked, t
        return route, mask

    def step_arrival(self, demand: Demand) -> Connection | None:
        """Handle one demand as `run` does; its connection, or None if blocked."""
        route, mask = self._advance((demand,), 0)
        return None if mask is None else Connection(route, mask)

    def br_tr(self) -> float:
        return self.blocked_requests / self.total_requests if self.total_requests else 0.0

    def take_sample(self) -> None:
        """Save the spectrum and the counters for a sample; its report is
        computed with those of other pending samples, in `flush_samples`."""
        window, pending = self._window, self._pending
        occ = self.state.occ.copy()
        # the links whose int is not the previous sample's: SpectrumState
        # replaces a link's int exactly when the link changes
        new = sum(map(is_not, occ, pending[-1][2])) if pending else len(occ)
        pending.append((self.clock, self.total_requests, occ, self.br_tr(),
                        sum(window) / len(window) if window else 0.0, new))
        if (len(pending) >= 2 * SAMPLE_BATCH
                or sum(p[5] for p in pending) + len(occ) > SAMPLE_BATCH * len(occ)):
            self.flush_samples()

    def flush_samples(self) -> None:
        """Score every pending sample and append it to `samples`."""
        pending = self._pending
        if not pending:
            return
        reports = snapshot_reports([p[2] for p in pending], self.state.slice_count,
                                   self.paths, self.bounds)
        self.samples += (Sample(t, arrivals, rep, br_tr, br_tr_win) for
                         (t, arrivals, _, br_tr, br_tr_win, _), rep in zip(pending, reports))
        pending.clear()

    def run(self, arrivals: int, sample_every: int) -> list[Sample]:
        """Process `arrivals` demands, sampling after every `sample_every`-th
        of them (counted from the start of this call)."""
        if arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        first = len(self.samples) + len(self._pending)
        self._advance(islice(self.gen.stream, arrivals), sample_every)
        self.flush_samples()
        return self.samples[first:]


def _replicate(topology: Topology, paths: BetaPathSet, profiles: list[DemandProfile],
               replications: int, drive) -> list[tuple[list, int]]:
    """drive(sim) on one fresh Simulation per (profile, replication index),
    as (results over replications, their summed clamp events) per profile.

    Every Simulation reads the topology's one route table. Each replication
    index keys its own Philox stream, so every run is independent of the
    others."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    out = []
    for p in profiles:
        # built one at a time, so each is freed once its run is done
        sims = (Simulation(topology, p, paths, replication=r) for r in range(replications))
        runs = [(drive(sim), sim.clamp_events) for sim in sims]
        out.append(([res for res, _ in runs], sum(c for _, c in runs)))
    return out


@dataclass
class TransientResult:
    sample_arrivals: list[int]
    # metric -> list over sample points of (mean, ci99 half-width)
    series: dict[str, list[tuple[float, float]]]
    replication_samples: list[list[Sample]]
    clamp_events: int


def run_transient(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                  arrivals: int, sample_every: int, replications: int) -> TransientResult:
    """Evolution from an empty network until `arrivals` requests, averaged
    across replications at fixed arrival counts."""
    if not 1 <= sample_every <= arrivals:
        raise ValueError(f"arrivals ({arrivals}) must be >= sample_every "
                         f"({sample_every}) >= 1, or the run takes no sample")
    [(samples, clamps)] = _replicate(topology, paths, [profile], replications,
                                     lambda sim: sim.run(arrivals, sample_every))
    mean, hw = mean_ci99([[s.values() for s in rep] for rep in samples])
    # (points x metrics) -> metric -> list over points of (mean, half-width)
    series = {name: list(zip(m, h)) for name, m, h
              in zip(SUMMARY_METRICS, mean.T.tolist(), hw.T.tolist())}
    return TransientResult([s.arrivals for s in samples[0]], series, samples, clamps)


@dataclass
class SweepCell:
    profile: DemandProfile
    # metric -> (mean, ci99 half-width) of the steady-state window average
    stats: dict[str, tuple[float, float]]
    clamp_events: int


def make_grid(loads: list[float] | None, max_demands: list[int], seed: int,
              arrival_rate: float | None = None,
              mean_holding: float | None = None) -> list[DemandProfile]:
    """One profile per (load, max_demand), in that nesting order, each
    resolved by DemandProfile.resolve. loads=None takes the one load that
    the (arrival_rate, mean_holding) pair gives."""
    return [DemandProfile.resolve(md, seed, arrival_rate, mean_holding, load)
            for load in loads or [None] for md in max_demands]


def run_steady_sweep(topology: Topology, profiles: list[DemandProfile],
                     paths: BetaPathSet, warmup: int, measure: int, replications: int,
                     sample_every: int) -> list[SweepCell]:
    """Steady-state metric averages per grid point: discard `warmup` arrivals,
    average samples over the next `measure` arrivals, aggregate over
    replications with a 99% CI. br_tr here is measured within the window."""
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not 1 <= sample_every <= measure:
        raise ValueError(f"measure ({measure}) must be >= sample_every "
                         f"({sample_every}) >= 1, or the window holds no sample")

    def window_means(sim: Simulation) -> list[float]:
        sim._advance(islice(sim.gen.stream, warmup), 0)  # the warm-up, unsampled
        blocked0 = sim.blocked_requests
        sim.run(measure, sample_every)
        means = mean_ci99([s.values() for s in sim.samples])[0].tolist()
        # br_tr is the blocking ratio of the window, not a mean of cumulative ratios
        means[len(METRICS)] = (sim.blocked_requests - blocked0) / measure
        return means

    cells = _replicate(topology, paths, profiles, replications, window_means)
    stats = [zip(*(x.tolist() for x in mean_ci99(rows))) for rows, _ in cells]
    return [SweepCell(p, dict(zip(SUMMARY_METRICS, st)), clamps)
            for p, st, (_, clamps) in zip(profiles, stats, cells)]


# escalation of the offered load in run_utilization_scan
ESCALATE_EVERY = 2000
ESCALATE_FACTOR = 1.5


@dataclass
class ScanResult:
    samples: list[Sample]
    reached_target: bool
    max_utilization: float
    clamp_events: int


def run_utilization_scan(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                         target: float, sample_every: int, max_arrivals: int) -> ScanResult:
    """Drive the network from empty toward full occupancy, sampling metrics
    across the whole utilization range.

    The offered load is escalated geometrically, by ESCALATE_FACTOR every
    ESCALATE_EVERY arrivals, so utilization keeps rising through churn; once
    arrivals vastly outpace departures the spectrum fills toward 1.0. If the
    target utilization is not reached within the arrival budget the result
    carries a warning flag."""
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if max_arrivals < 1:
        raise ValueError(f"max_arrivals must be >= 1, got {max_arrivals}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    sim = Simulation(topology, profile, paths)
    sim.take_sample()  # the empty-network point
    # utilization is read only after an admission: a blocked arrival only
    # releases slices, so it can neither raise max_util nor reach a target
    # that the last admission (or the empty network) missed
    util = max_util = 0.0

    def demands():
        # resumed by the event loop once it has handled the last demand,
        # whose blocking flag (0: admitted) is then the window's last
        nonlocal util, max_util
        for n, demand in enumerate(islice(sim.gen.stream, max_arrivals), 1):
            yield demand
            if not sim._window[-1]:
                util = sim.state.utilization()
                max_util = max(max_util, util)
            if n % ESCALATE_EVERY == 0:
                p = sim.gen.profile
                sim.gen.profile = DemandProfile(p.arrival_rate_per_node * ESCALATE_FACTOR,
                                                p.mean_holding, p.max_demand, p.seed)
            if util >= target:
                return

    sim._advance(demands(), sample_every)
    reached = util >= target
    if reached and sim.total_requests % sample_every:  # not sampled by the loop
        sim.take_sample()
    sim.flush_samples()
    return ScanResult(sim.samples, reached, max_util, sim.clamp_events)
