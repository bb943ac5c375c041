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
from dataclasses import dataclass, field

from .metrics import (FragmentationReport, MetricBounds, compute_bounds,
                      snapshot_report)
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
        self.topology = topology
        self.profile = profile
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

    def br_tr_windowed(self) -> float:
        return sum(self._window) / len(self._window) if self._window else 0.0

    def take_sample(self) -> Sample:
        rep = snapshot_report(self.state, self.paths, self.bounds)
        if rep.clamped:
            self.clamp_events += 1
        s = Sample(self.clock, self.total_requests, rep, self.br_tr(),
                   self.br_tr_windowed())
        self.samples.append(s)
        return s

    def run(self, arrivals: int, sample_every: int, sample_from: int = 0) -> list[Sample]:
        if arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        first = len(self.samples)
        for _ in range(arrivals):
            self.step_arrival(self.gen.next_demand())
            n = self.total_requests
            if n > sample_from and (n - sample_from) % sample_every == 0:
                self.take_sample()
        return self.samples[first:]

    def run_trace(self, demands: list[Demand]) -> list[bool]:
        """Replay a fixed demand list; True per demand = admitted."""
        return [self.step_arrival(d) is not None for d in demands]

    def active_slice_units(self) -> int:
        return sum(c.range.width * len(c.route) for c in self.connections.values())


METRIC_NAMES = ["utilization", "alpha", "beta", "vfm", "nvfm", "avfm",
                "a_alpha", "a_beta", "lefm", "br_tr", "br_tr_win"]


def _sample_value(s: Sample, name: str) -> float:
    if name == "br_tr":
        return s.br_tr
    if name == "br_tr_win":
        return s.br_tr_win
    return getattr(s.report, name)


@dataclass
class TransientResult:
    sample_arrivals: list[int]
    # metric -> list over sample points of (mean, ci99 half-width)
    series: dict[str, list[tuple[float, float]]]
    replication_samples: list[list[Sample]]
    replications: int
    clamp_events: int = 0


def run_transient(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                  arrivals: int, sample_every: int, replications: int) -> TransientResult:
    """Evolution from an empty network until `arrivals` requests, averaged
    across replications at fixed arrival counts."""
    bounds = compute_bounds(topology, paths)
    all_samples = []
    clamps = 0
    for rep in range(replications):
        sim = Simulation(topology, profile, paths, replication=rep, bounds=bounds)
        sim.run(arrivals, sample_every)
        all_samples.append(sim.samples)
        clamps += sim.clamp_events
    points = [s.arrivals for s in all_samples[0]]
    series = {}
    for name in METRIC_NAMES:
        series[name] = [mean_ci99([_sample_value(reps[i], name) for reps in all_samples])
                        for i in range(len(points))]
    return TransientResult(points, series, all_samples, replications, clamps)


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
    stats: dict[str, tuple[float, float]] = field(default_factory=dict)
    rep_means: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class SweepResult:
    cells: list[SweepCell]
    warmup: int
    measure: int
    replications: int


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
    bounds = compute_bounds(topology, paths)
    cells = []
    for pt in points:
        profile = DemandProfile(pt.arrival_rate, pt.mean_holding, pt.max_demand, seed)
        rep_means: dict[str, list[float]] = {n: [] for n in METRIC_NAMES}
        for rep in range(replications):
            sim = Simulation(topology, profile, paths, replication=rep, bounds=bounds)
            if warmup:
                sim.run(warmup, sample_every=warmup + 1)  # takes no sample
            blocked0, total0 = sim.blocked_requests, sim.total_requests
            sim.run(measure, sample_every=sample_every, sample_from=warmup)
            for name in METRIC_NAMES:
                if name == "br_tr":
                    d_total = sim.total_requests - total0
                    v = (sim.blocked_requests - blocked0) / d_total if d_total else 0.0
                else:
                    vals = [_sample_value(s, name) for s in sim.samples]
                    v = sum(vals) / len(vals)
                rep_means[name].append(v)
        cell = SweepCell(pt)
        cell.rep_means = rep_means
        cell.stats = {n: mean_ci99(vs) for n, vs in rep_means.items()}
        cells.append(cell)
    return SweepResult(cells, warmup, measure, replications)


@dataclass
class ScanResult:
    samples: list[Sample]
    reached_target: bool
    max_utilization: float


def run_utilization_scan(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                         target: float = 0.99, sample_every: int = 200,
                         escalate_every: int = 2000, escalate_factor: float = 1.5,
                         max_arrivals: int = 500_000, replication: int = 0) -> ScanResult:
    """Drive the network from empty toward full occupancy, sampling metrics
    across the whole utilization range.

    The offered load is escalated geometrically so utilization keeps rising
    through churn; once arrivals vastly outpace departures the spectrum
    fills toward 1.0. If the target utilization is not reached within the
    arrival budget the result carries a warning flag."""
    bounds = compute_bounds(topology, paths)
    sim = Simulation(topology, profile, paths, replication=replication, bounds=bounds)
    sim.take_sample()  # the empty-network point
    max_util = 0.0
    n = 0
    while n < max_arrivals:
        sim.step_arrival(sim.gen.next_demand())
        n += 1
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
