"""Discrete-event simulation: admit/route/allocate/release connections and
sample fragmentation metrics.

One Simulation is a single replication: its own spectrum state, demand
generator and heap of pending departures. Arrivals come from the generator
in time order, so each one first releases the connections due by its
arrival time (departures go first on equal times) and is then handled
directly; only departures are queued. A sample saves the spectrum bitmaps
and the counters; the saved states are scored SAMPLE_BATCH at a time by one
`snapshot_reports` call, and whatever is still pending is scored before
`run` or a runner returns. Runners below repeat replications with
independent RNG streams and aggregate per-sample-point means with 99%
Student-t confidence half-widths.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

# snapshot_report is not called here; bench/trace_layers.py and
# bench/selftest.py look it up in this module by name
from .metrics import (METRICS, SUMMARY_METRICS, FragmentationReport,
                      MetricBounds, compute_bounds, left_sum, snapshot_report,
                      snapshot_reports)
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
    (within 3e-6 of the exact value for df > 20)."""
    if df <= 0:
        return 0.0
    if df <= len(_T99):
        return _T99[df - 1]
    z, z2 = _Z995, _Z995 * _Z995
    g = ((z2 + 1) * z / 4,
         ((5 * z2 + 16) * z2 + 3) * z / 96,
         (((3 * z2 + 19) * z2 + 17) * z2 - 15) * z / 384,
         ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) * z / 92160)
    return z + left_sum(gk / df ** k for k, gk in enumerate(g, 1))


def mean_ci99(values: list[float]) -> tuple[float, float]:
    """Sample mean and 99% confidence half-width across replications."""
    n = len(values)
    m = left_sum(values) / n
    if n < 2:
        return m, 0.0
    var = left_sum((v - m) ** 2 for v in values) / (n - 1)
    return m, t99(n - 1) * math.sqrt(var / n)


@dataclass(slots=True)
class Connection:
    route: list[int]
    range: SliceRange
    departure_time: float


# arrivals behind br_tr_win; 1000 resolves a blocking ratio to 0.001
BR_WINDOW = 1000
# samples scored together by one snapshot_reports call. More states per
# call share its fixed numpy cost, but its temporaries grow with the batch:
# at 4 they stay near 0.1 MB on German and NSFNET states, while 8 raised the
# benchmark's peak RSS by about 0.2 MB on sweep_nsfnet.
SAMPLE_BATCH = 4


@dataclass
class Sample:
    t: float
    arrivals: int
    report: FragmentationReport
    br_tr: float        # cumulative blocked/total
    br_tr_win: float    # over the trailing BR_WINDOW arrivals


class Simulation:
    """One replication of the dynamic-traffic experiment."""

    def __init__(self, topology: Topology, profile: DemandProfile,
                 paths: BetaPathSet, replication: int = 0,
                 bounds: MetricBounds | None = None,
                 routes: dict[tuple[int, int], list[int]] | None = None):
        self.paths = paths
        self.bounds = bounds or compute_bounds(topology, paths)
        self.routes = routes or all_pairs_routes(topology)
        self.state = SpectrumState(topology.link_count, topology.slice_count)
        self.gen = DemandGenerator(profile, topology.node_count, replication)
        self.queue = EventQueue()
        self.connections: dict[int, Connection] = {}
        self.total_requests = 0
        self.blocked_requests = 0
        self.clamp_events = 0
        self.clock = 0.0
        self._window = deque(maxlen=BR_WINDOW)
        self.samples: list[Sample] = []
        # (t, arrivals, occ copy, br_tr, br_tr_win) of samples not yet scored
        self._pending: list[tuple] = []

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
        conn = Connection(route, rng, demand.arrival_time + demand.holding_time)
        self.state.allocate(route, rng)
        self.connections[demand.id] = conn
        self.queue.push(conn.departure_time, demand.id)
        return conn

    def handle_departure(self, conn_id: int) -> None:
        conn = self.connections.pop(conn_id)  # unknown id -> KeyError, hard fault
        self.state.release(conn.route, conn.range)

    # --- driving loops ------------------------------------------------------

    def step_arrival(self, demand: Demand) -> Connection | None:
        """Advance the clock to one demand, releasing the connections due by
        then (also those due at the same time) first."""
        t = demand.arrival_time
        heap = self.queue.heap
        while heap and heap[0][0] <= t:
            self.handle_departure(self.queue.pop()[1])
        self.clock = t
        return self.handle_arrival(demand)

    def br_tr(self) -> float:
        return self.blocked_requests / self.total_requests if self.total_requests else 0.0

    def take_sample(self) -> None:
        """Save the spectrum and the counters for a sample; its report is
        computed with those of other pending samples, in `flush_samples`."""
        window = self._window
        self._pending.append((self.clock, self.total_requests, self.state.occ.copy(),
                              self.br_tr(), sum(window) / len(window) if window else 0.0))
        if len(self._pending) >= SAMPLE_BATCH:
            self.flush_samples()

    def flush_samples(self) -> None:
        """Score every pending sample and append it to `samples`."""
        pending = self._pending
        if not pending:
            return
        reports = snapshot_reports([p[2] for p in pending], self.state.slice_count,
                                   self.paths, self.bounds)
        for (t, arrivals, _, br_tr, br_tr_win), rep in zip(pending, reports):
            if rep.clamped:
                self.clamp_events += 1
            self.samples.append(Sample(t, arrivals, rep, br_tr, br_tr_win))
        pending.clear()

    def run(self, arrivals: int, sample_every: int) -> list[Sample]:
        """Process `arrivals` demands, sampling after every `sample_every`-th
        of them (counted from the start of this call)."""
        if arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        first = len(self.samples) + len(self._pending)
        step_arrival, next_demand = self.step_arrival, self.gen.next_demand
        for n in range(1, arrivals + 1):
            step_arrival(next_demand())
            if n % sample_every == 0:
                self.take_sample()
        self.flush_samples()
        return self.samples[first:]


def _replicate(topology: Topology, paths: BetaPathSet, profiles: list[DemandProfile],
               replications: int, drive) -> list[tuple[list, int]]:
    """drive(sim) on one fresh Simulation per (profile, replication index),
    as (results over replications, their summed clamp events) per profile.

    The bounds and the routes are computed once and shared. Each replication
    index keys its own Philox stream, so every run is independent of the
    others."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    bounds = compute_bounds(topology, paths)
    routes = all_pairs_routes(topology)
    out = []
    for p in profiles:
        # built one at a time, so each is freed once its run is done
        sims = (Simulation(topology, p, paths, replication=r, bounds=bounds,
                           routes=routes)
                for r in range(replications))
        runs = [(drive(sim), sim.clamp_events) for sim in sims]
        out.append(([res for res, _ in runs], sum(c for _, c in runs)))
    return out


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
    clamp_events: int


def run_transient(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                  arrivals: int, sample_every: int, replications: int) -> TransientResult:
    """Evolution from an empty network until `arrivals` requests, averaged
    across replications at fixed arrival counts."""
    [(samples, clamps)] = _replicate(topology, paths, [profile], replications,
                                     lambda sim: sim.run(arrivals, sample_every))
    points = [s.arrivals for s in samples[0]]
    stats = [_summarise([_values(rep[i]) for rep in samples]) for i in range(len(points))]
    series = {name: [st[name] for st in stats] for name in SUMMARY_METRICS}
    return TransientResult(points, series, samples, clamps)


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
        if warmup:
            sim.run(warmup, sample_every=warmup + 1)  # takes no sample
        blocked0 = sim.blocked_requests
        sim.run(measure, sample_every)
        means = [left_sum(col) / len(col) for col in zip(*map(_values, sim.samples))]
        # br_tr is the blocking ratio of the window, not a mean of cumulative ratios
        means[len(METRICS)] = (sim.blocked_requests - blocked0) / measure
        return means

    cells = _replicate(topology, paths, profiles, replications, window_means)
    return [SweepCell(p, _summarise(rows), clamps)
            for p, (rows, clamps) in zip(profiles, cells)]


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
                         target: float, sample_every: int, max_arrivals: int,
                         escalate_every: int = ESCALATE_EVERY,
                         escalate_factor: float = ESCALATE_FACTOR) -> ScanResult:
    """Drive the network from empty toward full occupancy, sampling metrics
    across the whole utilization range.

    The offered load is escalated geometrically so utilization keeps rising
    through churn; once arrivals vastly outpace departures the spectrum
    fills toward 1.0. If the target utilization is not reached within the
    arrival budget the result carries a warning flag."""
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if max_arrivals < 1:
        raise ValueError(f"max_arrivals must be >= 1, got {max_arrivals}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    def scan(sim: Simulation) -> tuple[list[Sample], bool, float]:
        sim.take_sample()  # the empty-network point
        # utilization is read only after an admission: a blocked arrival
        # only releases slices, so it can neither raise max_util nor reach
        # a target that the last admission (or the empty network) missed
        util = max_util = 0.0
        for n in range(1, max_arrivals + 1):
            if sim.step_arrival(sim.gen.next_demand()) is not None:
                util = sim.state.utilization()
                max_util = max(max_util, util)
            if n % escalate_every == 0:
                p = sim.gen.profile
                sim.gen.profile = DemandProfile(p.arrival_rate_per_node * escalate_factor,
                                                p.mean_holding, p.max_demand, p.seed)
            if n % sample_every == 0 or util >= target:
                sim.take_sample()
                if util >= target:
                    sim.flush_samples()
                    return sim.samples, True, max_util
        sim.flush_samples()
        return sim.samples, False, max_util

    [([result], clamps)] = _replicate(topology, paths, [profile], 1, scan)
    return ScanResult(*result, clamps)
