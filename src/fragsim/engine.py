"""Discrete-event simulation: admit/route/allocate/release connections and
sample fragmentation metrics.

A `Simulation` is one replication, with its own spectrum state, demand
stream and heap of pending departures, and one event loop, `_advance`,
whose docstring states the order of events. `run_transient` and
`run_steady_sweep` repeat replications through `_replicate` and summarize
their samples with `metrics.mean_ci99`; `run_utilization_scan` drives one
simulation toward a full spectrum.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, islice
from operator import is_not
from time import perf_counter
from typing import NamedTuple

# snapshot_report and all_pairs_routes are not called here;
# bench/trace_layers.py and bench/selftest.py look them up in this module by name
from .metrics import (METRICS, SUMMARY_METRICS, FragmentationReport, compute_bounds,
                      mean_ci99, snapshot_report, snapshot_reports)
from .spectrum import SliceRange, SpectrumState
from .topology import BetaPathSet, Topology, all_pairs_routes
from .traffic import (Demand, DemandGenerator, DemandProfile, Draws, EventQueue,
                      stream_groups)

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
# the batch size of `Simulation.take_sample`. More states per
# snapshot_reports call share its fixed numpy cost, but its link-run
# temporaries grow with the distinct bitmaps and its trail temporaries with
# the samples: 4 keeps a call's traced peak at 0.12-0.13 MB on German and
# NSFNET states, while a flat batch of 8 raised the benchmark's peak RSS by
# 0.15-0.2 MB on sweep_nsfnet.
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
                 paths: BetaPathSet, replication: int = 0, draws: Draws | None = None):
        self.paths = paths
        self.bounds = compute_bounds(topology, paths)
        self.routes = topology.routes
        self.state = SpectrumState(topology.link_count, topology.slice_count)
        self.gen = DemandGenerator(profile, topology.node_count, replication, draws)
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
        (route, mask), mask None if it was blocked. Each demand first
        releases the connections due by its arrival time, also those due at
        it, then takes the first window free on its route or is blocked.
        The counters and the clock are locals, written back before each
        sample and at the end."""
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
        computed with those of other pending samples, in `flush_samples`.

        The batch rule: this flushes once the next sample could take the
        distinct link bitmaps of the pending samples past SAMPLE_BATCH
        states' worth, or at 2 * SAMPLE_BATCH samples. A copied bitmap list
        shares the ints of links that did not change, so transient German
        samples 5 arrivals apart are scored 8 to a call, and steady NSFNET
        samples, which change nearly every link, 4. The reports are the same
        wherever a batch ends."""
        window, pending = self._window, self._pending
        occ = self.state.occ.copy()
        # the links whose int is not the previous sample's (see SpectrumState)
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


# the threshold of `_workers`, in arrivals a process. On a 2-vCPU Xeon, the
# parent and one child took, against the same two tasks run in one process
# (median of 60 adjacent pairs): German transients sampled every 5, 0.72x,
# 0.70x and 0.72x at 1,000, 2,000 and 4,000 arrivals a process; NSFNET
# sweeps sampled every 100, 0.97x, 0.75x and 0.69x. At 1,000 the fork, the
# pages the child copies and the pickled results cost a sweep about what the
# second CPU saves; from 2,000 both kinds of run gain.
FORK_MIN_ARRIVALS = 2000


def _workers(tasks: int, arrivals: int) -> int:
    """The processes that run `tasks` tasks of `arrivals` arrivals each,
    this one and a forked child for each other: one per usable CPU and at
    most one per task. 0, to run them in this process without forking,
    where `os.fork` or `os.sched_getaffinity` is missing, where one CPU is
    usable, or where an even share of the tasks would give some process
    fewer than FORK_MIN_ARRIVALS arrivals."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    workers = min(len(os.sched_getaffinity(0)), tasks)
    return workers if workers > 1 and tasks // workers * arrivals >= FORK_MIN_ARRIVALS else 0


def _replicate(topology: Topology, paths: BetaPathSet, profiles: list[DemandProfile],
               replications: int, drive, arrivals: int) -> tuple[list[list], dict]:
    """drive(sim) on one fresh Simulation per (profile, replication index):
    what the drives returned, over replications, per profile, and the run
    record: the processes the tasks ran in, the demand streams "decoded"
    and "replayed", each process's wall time on its part of the tasks in
    seconds (`part_wall_s`, this process first), and, when they forked, the
    children's largest peak resident set in MiB.

    The tasks run replication-major, and the profiles of a replication that
    read one stream (`traffic`'s sharing rule) run side by side, as a group
    that reads one `Draws`. Each drive processes `arrivals` arrivals, which
    sets whether the groups run one after another here or are dealt to
    `_workers` processes: this one, which runs the first part, and a forked
    child for each other part. The parts are contiguous and differ by at
    most one group, so that a group shares one process and one decoded
    stream; with fewer groups than processes, each task is a group of its
    own."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    n = topology.node_count
    groups = stream_groups(profiles, n, replications)

    def run(groups):
        # group by group, so that one Draws at a time holds a record
        start, runs = perf_counter(), []
        for group in groups:
            k, r = group[0]
            draws = Draws(profiles[k], n, r) if len(group) > 1 else None
            runs += [(k, drive(Simulation(topology, profiles[k], paths, r, draws)))
                     for k, r in group]
        return perf_counter() - start, runs

    workers = _workers(len(profiles) * replications, arrivals)
    record = {"processes": workers or 1}
    if workers:
        import numpy.random  # noqa: F401 -- lazy in numpy 2: imported once here, not per child
        from . import parallel  # compiled only by a run that forks
        topology.routes  # noqa: B018 -- computed here once, not in every child
        if len(groups) < workers:
            groups = [[task] for group in groups for task in group]
        parts, peak = parallel.run_forked(run, [
            groups[len(groups) * w // workers:len(groups) * (w + 1) // workers]
            for w in range(workers)])
        record["worker_peak_rss_mb"] = round(peak / 1024, 3)  # ru_maxrss is KiB on Linux
    else:
        parts = [run(groups)]
    results = [[] for _ in profiles]
    for k, res in chain.from_iterable(runs for _, runs in parts):
        results[k].append(res)
    record["demand_streams"] = {"decoded": len(groups),
                                "replayed": len(profiles) * replications - len(groups)}
    record["part_wall_s"] = [round(wall, 6) for wall, _ in parts]
    return results, record


@dataclass
class TransientResult:
    sample_arrivals: list[int]
    # metric -> list over sample points of (mean, ci99 half-width)
    series: dict[str, list[tuple[float, float]]]
    replication_samples: list[list[Sample]]
    clamp_events: int
    run: dict  # `_replicate`'s run record


def run_transient(topology: Topology, profile: DemandProfile, paths: BetaPathSet,
                  arrivals: int, sample_every: int, replications: int) -> TransientResult:
    """Evolution from an empty network until `arrivals` requests, averaged
    across replications at fixed arrival counts."""
    if not 1 <= sample_every <= arrivals:
        raise ValueError(f"arrivals ({arrivals}) must be >= sample_every "
                         f"({sample_every}) >= 1, or the run takes no sample")
    [samples], run = _replicate(topology, paths, [profile], replications,
                                lambda sim: sim.run(arrivals, sample_every), arrivals)
    mean, hw = mean_ci99([[s.values() for s in rep] for rep in samples])
    series = {name: list(zip(m, h)) for name, m, h
              in zip(SUMMARY_METRICS, mean.T.tolist(), hw.T.tolist())}
    clamps = sum(s.report.clamped for rep in samples for s in rep)
    return TransientResult([s.arrivals for s in samples[0]], series, samples, clamps, run)


@dataclass
class SweepCell:
    profile: DemandProfile
    # metric -> (mean, ci99 half-width) of the steady-state window average
    stats: dict[str, tuple[float, float]]
    clamp_events: int
    run: dict  # the sweep's run record, from `_replicate`


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

    def window_means(sim: Simulation) -> tuple[list[float], int]:
        sim._advance(islice(sim.gen.stream, warmup), 0)  # the warm-up, unsampled
        blocked0 = sim.blocked_requests
        sim.run(measure, sample_every)
        means = mean_ci99([s.values() for s in sim.samples])[0].tolist()
        # br_tr is the blocking ratio of the window, not a mean of cumulative ratios
        means[len(METRICS)] = (sim.blocked_requests - blocked0) / measure
        return means, sim.clamp_events

    cells, run = _replicate(topology, paths, profiles, replications, window_means,
                            warmup + measure)
    stats = [zip(*(x.tolist() for x in mean_ci99([means for means, _ in reps]))) for reps in cells]
    return [SweepCell(p, dict(zip(SUMMARY_METRICS, st)), sum(c for _, c in reps), run)
            for p, st, reps in zip(profiles, stats, cells)]


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
