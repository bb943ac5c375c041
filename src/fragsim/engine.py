"""Discrete-event simulation: admit/route/allocate/release connections and
sample fragmentation metrics.

One Simulation is a single replication: its own spectrum state, demand
generator and event queue. Runners below repeat replications with
independent RNG streams and aggregate per-sample-point means with 99%
Student-t confidence half-widths.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .metrics import (METRICS, SUMMARY_METRICS, FragmentationReport,
                      MetricBounds, compute_bounds, snapshot_report)
from .spectrum import SliceRange, SpectrumFault, SpectrumState
from .topology import BetaPathSet, Topology, all_pairs_routes
from .traffic import (ARRIVAL, DEPARTURE, Demand, DemandGenerator,
                      DemandProfile, EventQueue)

# two-sided 99% Student-t critical values by degrees of freedom
_T99 = {1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707, 7: 3.499,
        8: 3.355, 9: 3.250, 10: 3.169, 11: 3.106, 12: 3.055, 13: 3.012,
        14: 2.977, 15: 2.947, 16: 2.921, 17: 2.898, 18: 2.878, 19: 2.861,
        20: 2.845, 25: 2.787, 30: 2.750}


def t99(df: int) -> float:
    if df <= 0:
        return 0.0
    if df in _T99:
        return _T99[df]
    keys = sorted(_T99)
    for k in keys:
        if df < k:
            return _T99[k]
    return 2.576


def mean_ci99(values: list[float]) -> tuple[float, float]:
    """Sample mean and 99% confidence half-width across replications."""
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, t99(n - 1) * math.sqrt(var / n)


@dataclass
class Connection:
    id: int
    route: list[int]
    range: SliceRange
    departure_time: float


@dataclass
class Sample:
    t: float
    arrivals: int
    report: FragmentationReport
    br_tr: float        # cumulative blocked/total
    br_tr_win: float    # over the trailing admission window


class Simulation:
    """One replication of the dynamic-traffic experiment."""

    def __init__(self, topology: Topology, profile: DemandProfile,
                 paths: BetaPathSet, replication: int = 0,
                 bounds: MetricBounds | None = None, window: int = 1000):
        self.paths = paths
        self.bounds = bounds or compute_bounds(topology, paths)
        self.routes = all_pairs_routes(topology)
        self.state = SpectrumState(topology.link_count, topology.slice_count)
        self.gen = DemandGenerator(profile, topology.node_count, replication)
        self.queue = EventQueue()
        self.connections: dict[int, Connection] = {}
        self.total_requests = 0
        self.blocked_requests = 0
        self.clamp_events = 0
        self.clock = 0.0
        self._window = deque(maxlen=window)
        self.samples: list[Sample] = []

    # --- event handlers -----------------------------------------------------

    def handle_arrival(self, demand: Demand) -> Connection | None:
        """Route, first-fit, allocate; Blocked (None) when no range fits."""
        self.total_requests += 1
        route = self.routes[(demand.src, demand.dst)]
        rng = self.state.find_first_fit(route, demand.width)
        if rng is None:
            self.blocked_requests += 1
            self._window.append(1)
            return None
        self._window.append(0)
        conn = Connection(demand.id, route, rng,
                          demand.arrival_time + demand.holding_time)
        self.state.allocate(route, rng)
        self.connections[demand.id] = conn
        self.queue.push(conn.departure_time, DEPARTURE, conn.id)
        return conn

    def handle_departure(self, conn_id: int) -> None:
        conn = self.connections.pop(conn_id)  # unknown id -> KeyError, hard fault
        self.state.release(conn.route, conn.range)

    # --- driving loops ------------------------------------------------------

    def step_arrival(self, demand: Demand) -> Connection | None:
        """Advance the clock to one demand, draining due departures first."""
        self.queue.push(demand.arrival_time, ARRIVAL, demand)
        while True:
            t, kind, payload = self.queue.pop()
            self.clock = t
            if kind == DEPARTURE:
                self.handle_departure(payload)
            else:
                return self.handle_arrival(payload)

    def drain(self) -> None:
        """Process all remaining departures."""
        while len(self.queue):
            t, kind, payload = self.queue.pop()
            self.clock = t
            if kind != DEPARTURE:
                raise SpectrumFault(f"arrival queued at t={t} while draining")
            self.handle_departure(payload)

    def br_tr(self) -> float:
        return self.blocked_requests / self.total_requests if self.total_requests else 0.0

    def take_sample(self) -> Sample:
        rep = snapshot_report(self.state, self.paths, self.bounds)
        if rep.clamped:
            self.clamp_events += 1
        s = Sample(self.clock, self.total_requests, rep, self.br_tr(),
                   sum(self._window) / len(self._window) if self._window else 0.0)
        self.samples.append(s)
        return s

    def run(self, arrivals: int, sample_every: int) -> list[Sample]:
        """Process `arrivals` demands, sampling after every `sample_every`-th
        of them (counted from the start of this call)."""
        if arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        first = len(self.samples)
        for n in range(1, arrivals + 1):
            self.step_arrival(self.gen.next_demand())
            if n % sample_every == 0:
                self.take_sample()
        return self.samples[first:]


def _replicate(topology: Topology, paths: BetaPathSet, profiles: list[DemandProfile],
               replications: int, drive) -> list[list]:
    """drive(sim) on one fresh Simulation per (profile, replication index),
    as result[profile][replication].

    The bounds are computed once and shared. Each replication index keys its
    own Philox stream, so every run is independent of the others."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    bounds = compute_bounds(topology, paths)
    return [[drive(Simulation(topology, p, paths, replication=r, bounds=bounds))
             for r in range(replications)] for p in profiles]


def _values(s: Sample) -> list[float]:
    """One sample's values in SUMMARY_METRICS order."""
    return [getattr(s.report, name) for name in METRICS] + [s.br_tr, s.br_tr_win]


def _summarise(rows: list[list[float]]) -> dict[str, tuple[float, float]]:
    """(mean, ci99 half-width) per metric over replication rows in
    SUMMARY_METRICS order."""
    return {name: mean_ci99(list(col)) for name, col in zip(SUMMARY_METRICS, zip(*rows))}


@dataclass
class TransientResult:
    sample_arrivals: list[int]
    # metric -> list over sample points of (mean, ci99 half-width)
    series: dict[str, list[tuple[float, float]]]
    replication_samples: list[list[Sample]]
    clamp_events: int = 0


def run_transient(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                  arrivals: int, sample_every: int, replications: int) -> TransientResult:
    """Evolution from an empty network until `arrivals` requests, averaged
    across replications at fixed arrival counts."""
    [runs] = _replicate(topology, paths, [profile], replications,
                        lambda sim: (sim.run(arrivals, sample_every), sim.clamp_events))
    samples = [s for s, _ in runs]
    points = [s.arrivals for s in samples[0]]
    stats = [_summarise([_values(rep[i]) for rep in samples]) for i in range(len(points))]
    series = {name: [st[name] for st in stats] for name in SUMMARY_METRICS}
    return TransientResult(points, series, samples, sum(c for _, c in runs))


@dataclass
class SweepPoint:
    load: float
    max_demand: int
    arrival_rate: float
    mean_holding: float


@dataclass
class SweepCell:
    point: SweepPoint
    # metric -> (mean, ci99 half-width) of the steady-state window average
    stats: dict[str, tuple[float, float]]


@dataclass
class SweepResult:
    cells: list[SweepCell]


def make_grid(loads: list[float], max_demands: list[int],
              arrival_rate: float | None = None,
              mean_holding: float | None = None) -> list[SweepPoint]:
    pts = []
    for load in loads:
        for md in max_demands:
            if arrival_rate is not None:
                pts.append(SweepPoint(load, md, arrival_rate, load / arrival_rate))
            elif mean_holding is not None:
                pts.append(SweepPoint(load, md, load / mean_holding, mean_holding))
            else:
                pts.append(SweepPoint(load, md, load, 1.0))
    return pts


def run_steady_sweep(topology: Topology, points: list[SweepPoint], paths: BetaPathSet,
                     warmup: int, measure: int, replications: int, seed: int,
                     sample_every: int = 100) -> SweepResult:
    """Steady-state metric averages per grid point: discard `warmup` arrivals,
    average samples over the next `measure` arrivals, aggregate over
    replications with a 99% CI. br_tr here is measured within the window."""
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not 1 <= sample_every <= measure:
        raise ValueError(f"measure ({measure}) must be >= sample_every "
                         f"({sample_every}) >= 1, or the window holds no sample")

    def window_means(sim: Simulation) -> list[float]:
        if warmup:
            sim.run(warmup, sample_every=warmup + 1)  # takes no sample
        blocked0 = sim.blocked_requests
        sim.run(measure, sample_every)
        means = [sum(col) / len(col) for col in zip(*map(_values, sim.samples))]
        # br_tr is the blocking ratio of the window, not a mean of cumulative ratios
        means[len(METRICS)] = (sim.blocked_requests - blocked0) / measure
        return means

    profiles = [DemandProfile(pt.arrival_rate, pt.mean_holding, pt.max_demand, seed)
                for pt in points]
    rows = _replicate(topology, paths, profiles, replications, window_means)
    return SweepResult([SweepCell(pt, _summarise(r)) for pt, r in zip(points, rows)])


# escalation of the offered load in run_utilization_scan
ESCALATE_EVERY = 2000
ESCALATE_FACTOR = 1.5


@dataclass
class ScanResult:
    samples: list[Sample]
    reached_target: bool
    max_utilization: float


def run_utilization_scan(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                         target: float = 0.99, sample_every: int = 200,
                         escalate_every: int = ESCALATE_EVERY,
                         escalate_factor: float = ESCALATE_FACTOR,
                         max_arrivals: int = 500_000) -> ScanResult:
    """Drive the network from empty toward full occupancy, sampling metrics
    across the whole utilization range.

    The offered load is escalated geometrically so utilization keeps rising
    through churn; once arrivals vastly outpace departures the spectrum
    fills toward 1.0. If the target utilization is not reached within the
    arrival budget the result carries a warning flag."""
    def scan(sim: Simulation) -> ScanResult:
        sim.take_sample()  # the empty-network point
        max_util = 0.0
        for n in range(1, max_arrivals + 1):
            sim.step_arrival(sim.gen.next_demand())
            if n % escalate_every == 0:
                p = sim.gen.profile
                sim.gen.profile = DemandProfile(p.arrival_rate_per_node * escalate_factor,
                                                p.mean_holding, p.max_demand, p.seed)
            util = sim.state.utilization()
            max_util = max(max_util, util)
            if n % sample_every == 0 or util >= target:
                sim.take_sample()
                if util >= target:
                    return ScanResult(sim.samples, True, max_util)
        return ScanResult(sim.samples, False, max_util)

    [[result]] = _replicate(topology, paths, [profile], 1, scan)
    return result
