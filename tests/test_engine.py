import math
import operator
import random
import tracemalloc

import numpy as np
import pytest

from conftest import data_file, free_counts
from fragsim.engine import (Connection, Simulation, make_grid, mean_ci99,
                            run_steady_sweep, run_transient, run_utilization_scan)
from fragsim.metrics import left_sum, t99
from fragsim.spectrum import SliceRange
from fragsim.topology import (Topology, all_pairs_routes, build_beta_paths,
                              load_topology)
from fragsim.traffic import Demand, DemandGenerator, DemandProfile
from reference import RefSim, ref_alpha, ref_beta, ref_lefm
from test_random_topologies import random_case


def make_sim(topology, seed=1, max_demand=4, load=20.0, rep=0):
    profile = DemandProfile.resolve(max_demand, seed, load=load)
    paths = build_beta_paths(topology)
    return Simulation(topology, profile, paths, replication=rep)


@pytest.fixture
def pair():
    return Topology("pair", 2, [(0, 1)], 8)


@pytest.fixture
def chain4():
    return Topology("chain", 4, [(0, 1), (1, 2), (2, 3)], 6)


class TestArrival:
    def test_empty_network_admits_at_zero(self, chain4):
        sim = make_sim(chain4)
        conn = sim.step_arrival(Demand(0, 0, 3, 2, 0.5, 1.0))
        assert conn is not None
        assert conn.range == SliceRange(0, 2)
        assert sim.total_requests == 1 and sim.blocked_requests == 0

    def test_continuity_blocking_without_common_window(self, chain4):
        # >=2 free slices on every link of the 3-hop route but no common
        # 2-wide window anywhere
        sim = make_sim(chain4)
        occ = ["110010", "001100", "010011"]
        for lid, bits in enumerate(occ):
            route_link = sim.routes[(lid, lid + 1)][0]
            mask = sum(1 << j for j, c in enumerate(bits) if c == "1")
            sim.state.occ[route_link] = mask
        free = free_counts(sim.state)
        for lid in range(3):
            assert free[sim.routes[(lid, lid + 1)][0]] >= 2
        assert sim.step_arrival(Demand(0, 0, 3, 2, 0.0, 1.0)) is None
        assert sim.blocked_requests == 1

    def test_blocked_mutates_nothing(self, pair):
        sim = make_sim(pair)
        sim.step_arrival(Demand(0, 0, 1, 8, 0.0, 100.0))
        occ_before = list(sim.state.occ)
        conns_before = set(sim.connections)
        heap_before = list(sim.queue.heap)
        assert sim.step_arrival(Demand(1, 0, 1, 1, 0.1, 1.0)) is None
        assert sim.state.occ == occ_before
        assert set(sim.connections) == conns_before
        assert sim.queue.heap == heap_before


def too_wide(topology, demand_id, t):
    """A demand that no route can hold: handling it at time t only releases
    the connections due by then."""
    return Demand(demand_id, 0, 1, topology.slice_count + 1, t, 1.0)


class TestDeparture:
    def test_round_trip_restores_utilization(self, chain4):
        sim = make_sim(chain4)
        before = sim.state.utilization()
        assert sim.step_arrival(Demand(0, 0, 2, 3, 0.0, 2.0)) is not None
        assert sim.state.utilization() > before
        assert sim.step_arrival(too_wide(chain4, 1, 2.0)) is None
        assert sim.state.utilization() == before
        assert not sim.connections and not sim.queue.heap

    def test_departures_leave_noncontiguous_holes(self, pair):
        # two departures free 2 slices that are not adjacent; a width-2
        # request on that link is then blocked
        sim = make_sim(pair)
        for i, holding in enumerate([1.0, 10.0, 1.0]):
            sim.step_arrival(Demand(i, 0, 1, 1, 0.0, holding))
        sim.step_arrival(Demand(3, 0, 1, 5, 0.0, 10.0))  # fill the rest
        # 0 and 2 leave at 1.0, before the demand arriving then is routed
        assert sim.step_arrival(Demand(4, 0, 1, 2, 1.0, 1.0)) is None
        assert free_counts(sim.state)[sim.routes[(0, 1)][0]] == 2
        assert sorted(sim.connections) == [1, 3]

    def test_arrival_at_departure_time_reuses_freed_slices(self, pair):
        # departures due at a demand's arrival time leave before it is routed
        sim = make_sim(pair)
        assert sim.step_arrival(Demand(0, 0, 1, 8, 0.25, 1.5)) is not None  # leaves at 1.75
        assert sim.step_arrival(Demand(1, 0, 1, 1, 1.5, 1.0)) is None  # still full
        conn = sim.step_arrival(Demand(2, 0, 1, 8, 1.75, 1.0))
        assert conn is not None and conn.range == SliceRange(0, 8)
        assert sim.clock == 1.75
        assert list(sim.connections) == [2]
        assert sim.queue.heap == [(2.75, 2, sim.routes[0, 1], 0xFF)]

    def test_shared_id_connections_both_depart(self, pair):
        # the heap entry, not the id, is the record of a connection: two
        # admitted demands with one id both leave, each with its own slices
        sim = make_sim(pair)
        route = sim.routes[0, 1]
        first = sim.step_arrival(Demand(0, 0, 1, 1, 0.0, 5.0))
        assert first == Connection(route, 0b1)
        # the second leaves first, so it heads the heap; the answer is still
        # the loop's own, not the older connection with its id
        assert sim.step_arrival(Demand(0, 0, 1, 1, 0.5, 1.0)) == Connection(route, 0b10)
        assert sim.state.occ[route[0]] == 0b11
        view = sim.connections
        view.clear()  # a copy: the simulation keeps its connections
        view[7] = first
        assert len(sim.queue.heap) == 2 and 7 not in sim.connections
        assert sim.step_arrival(too_wide(pair, 1, 5.0)) is None
        assert sim.state.occ == [0] * pair.link_count
        assert not sim.queue.heap and not sim.connections

    def test_step_arrival_does_not_read_the_view(self, pair, monkeypatch):
        # the answer comes from the loop in O(1), not from the O(active) view
        def no_view(sim):
            raise AssertionError("step_arrival read Simulation.connections")

        monkeypatch.setattr(Simulation, "connections", property(no_view))
        sim = make_sim(pair)
        route = sim.routes[0, 1]
        assert sim.step_arrival(Demand(0, 0, 1, 6, 0.0, 1.0)) == Connection(route, 0x3F)
        assert sim.step_arrival(Demand(1, 0, 1, 3, 0.5, 1.0)) is None
        assert sim.step_arrival(Demand(2, 0, 1, 2, 0.5, 1.0)) == Connection(route, 0xC0)
        assert (sim.total_requests, sim.blocked_requests) == (3, 1)


class TestInvariants:
    def test_conservation_and_no_leak(self, chain4):
        sim = make_sim(chain4, load=30.0, max_demand=3)
        for _ in range(400):
            sim.step_arrival(sim.gen.next_demand())
            occupied = sum(bin(occ).count("1") for occ in sim.state.occ)
            assert occupied == sum(c.range.width * len(c.route)
                                   for c in sim.connections.values())
        # releasing every departure: each queued entry is a live connection,
        # released once (SpectrumFault otherwise)
        sim.step_arrival(too_wide(chain4, -1, math.inf))
        assert not sim.queue.heap
        assert not sim.connections
        assert sim.state.occ == [0] * chain4.link_count
        assert sim.state.utilization() == 0.0

    @pytest.mark.parametrize("case", ["nsfnet", "german", 0, 1, 2, 3])
    def test_masks_tile_the_bitmaps(self, case):
        # active connections' masks: one contiguous run each, disjoint on
        # every shared link, and together exactly each link's bitmap
        if isinstance(case, str):
            topo = load_topology(data_file(f"{case}.json"))
            paths, profile = build_beta_paths(topo), DemandProfile.resolve(16, 3, load=80.0)
        else:
            n, fibers, slices, path_count = random_case(case)
            topo = Topology(f"r{case}", n, fibers, slices)
            paths = build_beta_paths(topo, path_count)
            profile = DemandProfile.resolve(slices, case, load=3.0)
        sim = Simulation(topo, profile, paths)
        for _ in range(4):
            sim.run(300, sample_every=301)
            held = [0] * topo.link_count
            for conn in sim.connections.values():
                route, mask = conn
                low = mask & -mask
                assert mask > 0 and (mask + low) & mask == 0, mask  # one run
                assert conn.range.mask == conn.mask == mask
                assert mask.bit_length() <= topo.slice_count
                for lid in route:
                    assert not held[lid] & mask, (lid, mask)
                    held[lid] |= mask
            assert held == sim.state.occ
        assert sim.connections and sim.blocked_requests > 0

    def test_monotone_blocking_when_widths_grow(self):
        t = Topology("tri", 3, [(0, 1), (1, 2), (0, 2)], 8)
        paths = build_beta_paths(t)
        gen = DemandGenerator(DemandProfile(8.0, 1.0, 4, 21), 3)
        demands = [gen.next_demand() for _ in range(300)]
        profile = DemandProfile(8.0, 1.0, 8, 21)
        base = Simulation(t, profile, paths)
        for d in demands:
            base.step_arrival(d)
        grown = Simulation(t, profile, paths)
        for d in demands:
            grown.step_arrival(Demand(d.id, d.src, d.dst, d.width + 1,
                                      d.arrival_time, d.holding_time))
        assert grown.br_tr() >= base.br_tr()

    def test_determinism_bit_identical(self, chain4):
        runs = []
        for _ in range(2):
            sim = make_sim(chain4, seed=77, rep=2)
            sim.run(300, sample_every=50)
            runs.append([(s.t, s.arrivals, s.report, s.br_tr) for s in sim.samples])
        assert runs[0] == runs[1]


class TestOracleEquivalence:
    def test_small_trace_matches_reference(self):
        fibers = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        t = Topology("sq", 4, fibers, 12)
        paths = build_beta_paths(t)
        profile = DemandProfile(6.0, 1.0, 4, 31)
        gen = DemandGenerator(profile, 4)
        demands = [gen.next_demand() for _ in range(300)]
        sim = Simulation(t, profile, paths)
        decisions = [sim.step_arrival(d) is not None for d in demands]
        ref = RefSim(4, fibers, 12)
        ref_decisions = [ref.arrival(d) for d in demands]
        assert decisions == ref_decisions
        grids = ref.free_grids()
        for lid in range(t.link_count):
            assert [not b for b in grids[lid]] == \
                [(sim.state.occ[lid] >> j) & 1 == 1 for j in range(12)]


class TestStats:
    def test_t99_values(self):
        assert t99(9) == pytest.approx(3.250)
        assert t99(200) == pytest.approx(2.6006, abs=1e-4)

    def test_t99_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 1001):
            assert t99(df) == pytest.approx(stats.t.ppf(0.995, df), abs=1e-3), df

    def test_mean_ci99(self):
        m, hw = mean_ci99([1.0, 2.0, 3.0])
        assert m == 2.0
        assert hw == pytest.approx(9.925 * 1.0 / math.sqrt(3))

    def test_single_value_no_interval(self):
        mean, hw = mean_ci99([5.0])
        assert mean == 5.0 and math.isnan(hw)

    @pytest.mark.parametrize("df", [0, -1])
    def test_t99_needs_one_degree_of_freedom(self, df):
        with pytest.raises(ValueError, match="df"):
            t99(df)

    @pytest.mark.parametrize("replications", [1, 2, 3, 10])
    def test_array_equals_scalar_left_to_right(self, replications):
        # each deviation is squared as a product: x ** 2 calls the C
        # library's pow, which on glibc misrounds about one random square
        # in a thousand
        def scalar(col):
            n = len(col)
            m = left_sum(col) / n
            if n < 2:
                return m, math.nan
            ss = left_sum((v - m) * (v - m) for v in col)
            return m, t99(n - 1) * math.sqrt(ss / (n - 1) / n)

        rng = random.Random(replications)
        points, metrics = 7, 11
        values = [[[rng.random() * 10.0 ** rng.randint(-3, 3) for _ in range(metrics)]
                   for _ in range(points)] for _ in range(replications)]
        mean, hw = mean_ci99(values)
        assert mean.shape == hw.shape == (points, metrics)
        for i in range(points):
            for j in range(metrics):
                m, h = scalar([rep[i][j] for rep in values])
                assert (mean[i, j].hex(), hw[i, j].hex()) == (m.hex(), h.hex()), (i, j)


class TestRunners:
    def test_arrivals_must_be_positive(self, chain4):
        sim = make_sim(chain4)
        with pytest.raises(ValueError):
            sim.run(0, sample_every=1)

    @pytest.mark.parametrize("sample_every", [0, -3])
    def test_sample_every_must_be_positive(self, chain4, sample_every):
        sim = make_sim(chain4)
        with pytest.raises(ValueError, match="sample_every"):
            sim.run(10, sample_every=sample_every)
        assert sim.total_requests == 0 and sim.gen.next_demand().id == 0

    def test_split_runs_equal_one_run(self, chain4):
        # 37 + 58 arrivals sampled every 10: samples at 10, 20, 30 of the
        # first call and 10, ..., 50 of the second (47, ..., 87 overall)
        whole, split = (make_sim(chain4, seed=6, load=30.0) for _ in range(2))
        whole.run(37 + 58, sample_every=10)
        first = split.run(37, sample_every=10)
        second = split.run(58, sample_every=10)
        assert [s.arrivals for s in first] == [10, 20, 30]
        assert [s.arrivals for s in second] == [47, 57, 67, 77, 87]

        def end_state(sim):
            return (sim.state.occ, sim.total_requests, sim.blocked_requests,
                    sim.queue.heap, sim.clock, list(sim._window),
                    {i: (c.route, c.range) for i, c in sim.connections.items()},
                    sim.gen.next_demand())

        assert end_state(split) == end_state(whole)
        assert 0 < split.blocked_requests and split.queue.heap

    def test_transient_shape(self, chain4):
        profile = DemandProfile.resolve(3, 5, load=10.0)
        paths = build_beta_paths(chain4)
        res = run_transient(chain4, profile, paths, arrivals=200,
                            sample_every=20, replications=3)
        assert res.sample_arrivals == list(range(20, 201, 20))
        assert len(res.replication_samples) == 3
        for name, series in res.series.items():
            assert len(series) == 10
            for m, hw in series:
                assert hw >= 0.0

    def test_sweep_single_point_matches_transient_tail(self):
        t = Topology("tri", 3, [(0, 1), (1, 2), (0, 2)], 16)
        paths = build_beta_paths(t)
        pts = make_grid([8.0], [2], seed=3)
        [cell] = run_steady_sweep(t, pts, paths, warmup=1500, measure=1500,
                                  replications=3, sample_every=50)
        profile = DemandProfile.resolve(2, 3, load=8.0)
        tr = run_transient(t, profile, paths, arrivals=3000, sample_every=50,
                           replications=3)
        tail = tr.series["utilization"][-15:]
        tail_mean = sum(m for m, _ in tail) / len(tail)
        m, hw = cell.stats["utilization"]
        assert abs(m - tail_mean) < max(0.05, 3 * hw)

    def test_sweep_grid_cardinality(self):
        pts = make_grid([50.0, 100.0], [8, 16], seed=1)
        assert len(pts) == 4
        assert {(p.load, p.max_demand) for p in pts} == \
            {(50.0, 8), (50.0, 16), (100.0, 8), (100.0, 16)}

    def test_grid_with_fixed_rate_derives_holding(self):
        pts = make_grid([60.0], [8], seed=1, arrival_rate=10.0)
        assert pts[0].mean_holding == pytest.approx(6.0)

    def test_scan_reaches_full_on_small_network(self):
        t = Topology("tri", 3, [(0, 1), (1, 2), (0, 2)], 16)
        paths = build_beta_paths(t)
        profile = DemandProfile.resolve(2, 9, load=5.0)
        res = run_utilization_scan(t, profile, paths, target=0.99,
                                   sample_every=50, max_arrivals=100_000)
        assert res.reached_target
        utils = [s.report.utilization for s in res.samples]
        assert utils[0] == 0.0
        assert max(utils) >= 0.99

    def test_scan_samples_its_stop_once(self):
        # the stop is sampled by the loop when it falls on the interval, and
        # by the scan otherwise, never twice
        t = Topology("tri", 3, [(0, 1), (1, 2), (0, 2)], 16)
        paths = build_beta_paths(t)
        profile = DemandProfile.resolve(2, 9, load=5.0)

        def sampled(sample_every):
            res = run_utilization_scan(t, profile, paths, target=0.6,
                                       sample_every=sample_every, max_arrivals=100_000)
            assert res.reached_target
            return [s.arrivals for s in res.samples]

        stop = sampled(1)[-1]
        assert sampled(1) == list(range(stop + 1))
        assert sampled(stop) == [0, stop]
        every = 7 if stop % 7 else 8
        assert sampled(every) == list(range(0, stop, every)) + [stop]
        # the stop is the first arrival that reaches the target, and the
        # peak utilization is its own
        res = run_utilization_scan(t, profile, paths, target=0.6, sample_every=1,
                                   max_arrivals=100_000)
        utils = [s.report.utilization for s in res.samples]
        assert [u >= 0.6 for u in utils].index(True) == stop
        assert res.max_utilization == max(utils) == utils[stop]

    def test_clamp_events_summed_over_every_simulation(self):
        # single-slice demands on a 4-slice chain reach states below the
        # analytic chequered bound, so some samples are clamped
        t = Topology("chain", 4, [(0, 1), (1, 2), (2, 3)], 4)
        paths = build_beta_paths(t)
        profile = DemandProfile.resolve(1, 1, load=8.0)
        tr = run_transient(t, profile, paths, arrivals=400, sample_every=1,
                           replications=3)
        assert tr.clamp_events == sum(s.report.clamped for rep in tr.replication_samples
                                      for s in rep) > 0
        grid = make_grid([3.0, 8.0], [1], seed=1)
        cells = run_steady_sweep(t, grid, paths, warmup=100, measure=300,
                                 replications=3, sample_every=1)
        for p, cell in zip(grid, cells):
            want = 0
            for r in range(3):
                sim = Simulation(t, p, paths, replication=r)
                sim.run(100, sample_every=101)
                sim.run(300, sample_every=1)
                want += sim.clamp_events
            assert cell.clamp_events == want
        assert sum(c.clamp_events for c in cells) > 0
        scan = run_utilization_scan(t, profile, paths, target=0.99, sample_every=1,
                                    max_arrivals=4000)
        assert scan.clamp_events == sum(s.report.clamped for s in scan.samples) > 0

    def test_replications_share_one_route_table(self, chain4, monkeypatch):
        import fragsim.engine as engine
        import fragsim.topology as topology
        calls = []

        def counting_routes(t):
            calls.append(t)
            return all_pairs_routes(t)

        monkeypatch.setattr(topology, "all_pairs_routes", counting_routes)
        paths = build_beta_paths(chain4)
        grid = make_grid([5.0, 10.0], [2], seed=4)
        tables, _ = engine._replicate(chain4, paths, grid, 3, lambda sim: sim.routes, 0)
        seen = [table for results in tables for table in results]
        assert len(calls) == 1 and len(seen) == 6
        assert all(table is seen[0] for table in seen)
        assert seen[0] == all_pairs_routes(chain4)


class TestSampleBatches:
    """Samples are scored in batches; the reports must not depend on where
    the batches end."""

    @staticmethod
    def fields(samples):
        return [(s.t, s.arrivals, s.report, s.br_tr, s.br_tr_win) for s in samples]

    def per_batch_size(self, monkeypatch, drive):
        import fragsim.engine as engine
        out = []
        for size in (1, 3, engine.SAMPLE_BATCH, 1000):
            monkeypatch.setattr(engine, "SAMPLE_BATCH", size)
            out.append(drive())
        return out

    def test_runs_of_any_length(self, monkeypatch):
        t = load_topology(data_file("nsfnet.json"))
        paths = build_beta_paths(t)
        profile = DemandProfile.resolve(16, 2, load=80.0)

        def drive():
            sim = Simulation(t, profile, paths)
            # 11 and 5 samples: neither a multiple of the batch
            first = sim.run(23, sample_every=2)
            second = sim.run(17, sample_every=3)
            assert len(first) == 11 and len(second) == 5 and not sim._pending
            assert sim.samples == first + second
            return self.fields(sim.samples), sim.clamp_events

        results = self.per_batch_size(monkeypatch, drive)
        assert all(r == results[0] for r in results)

    def test_samples_taken_before_run_are_scored_by_it(self, chain4):
        sim = make_sim(chain4)
        sim.take_sample()
        assert sim.samples == [] and len(sim._pending) == 1
        new = sim.run(4, sample_every=2)
        assert len(new) == 2 and sim.samples[1:] == new
        assert sim.samples[0].arrivals == 0 and not sim._pending

    def test_scan_that_stops_inside_a_batch(self, monkeypatch):
        import fragsim.engine as engine
        t = Topology("tri", 3, [(0, 1), (1, 2), (0, 2)], 16)
        paths = build_beta_paths(t)
        profile = DemandProfile.resolve(2, 9, load=5.0)

        def drive():
            res = run_utilization_scan(t, profile, paths, target=0.6, sample_every=7,
                                       max_arrivals=100_000)
            return self.fields(res.samples), res.reached_target, res.clamp_events

        results = self.per_batch_size(monkeypatch, drive)
        assert all(r == results[0] for r in results)
        samples, reached, _ = results[0]
        assert reached and len(samples) % engine.SAMPLE_BATCH != 0

    def test_sweep_after_warm_up(self, monkeypatch):
        t = load_topology(data_file("net_a.json"))
        paths = build_beta_paths(t)
        grid = make_grid([30.0, 90.0], [8], seed=5)

        def drive():
            cells = run_steady_sweep(t, grid, paths, warmup=37, measure=50,
                                     replications=2, sample_every=3)
            return [(c.stats, c.clamp_events) for c in cells]

        results = self.per_batch_size(monkeypatch, drive)
        assert all(r == results[0] for r in results)


class TestBatchRule:
    """A batch is scored once its next sample could take its distinct
    bitmaps past SAMPLE_BATCH states' worth, or at 2 * SAMPLE_BATCH samples."""

    @staticmethod
    def distinct(occupancies):
        """The first state's links, then every link whose int is not the one
        it held in the previous state."""
        return len(occupancies[0]) + sum(sum(map(operator.is_not, b, a))
                                         for a, b in zip(occupancies, occupancies[1:]))

    @staticmethod
    def scored(monkeypatch, name, load, arrivals, sample_every, on_call=None):
        """The batches `snapshot_reports` scores over one run, and the
        topology's link count."""
        import fragsim.engine as engine
        t = load_topology(data_file(f"{name}.json"))
        score, batches = engine.snapshot_reports, []

        def record(occupancies, *args):
            batches.append(list(occupancies))
            return on_call(score, occupancies, *args) if on_call else score(occupancies, *args)

        monkeypatch.setattr(engine, "snapshot_reports", record)
        sim = Simulation(t, DemandProfile.resolve(16, 3, load=load), build_beta_paths(t))
        sim.run(arrivals, sample_every)
        return batches, t.link_count

    def assert_rule(self, batches, links):
        import fragsim.engine as engine
        most = engine.SAMPLE_BATCH * links
        assert all(self.distinct(b) <= most for b in batches)
        for b in batches[:-1]:      # the last is scored when the run ends
            # the batch's last sample let the next one overflow, and the one
            # before it did not
            assert len(b) == 2 * engine.SAMPLE_BATCH or self.distinct(b) + links > most
            assert len(b) - 1 < 2 * engine.SAMPLE_BATCH
            assert self.distinct(b[:-1]) + links <= most

    def test_transient_batches_reach_twice_the_batch(self, monkeypatch):
        import fragsim.engine as engine
        # transient German from empty: about 15 of 52 links change in 5 arrivals
        batches, links = self.scored(monkeypatch, "german", 60.0, 250, 5)
        self.assert_rule(batches, links)
        assert max(map(len, batches)) == 2 * engine.SAMPLE_BATCH
        assert sum(map(len, batches)) == 50

    def test_steady_batches_stay_within_the_bitmaps_of_a_batch(self, monkeypatch):
        import fragsim.engine as engine
        # nearly every link changes in 100 arrivals at load 80
        batches, links = self.scored(monkeypatch, "nsfnet", 80.0, 3000, 100)
        self.assert_rule(batches, links)
        assert max(map(len, batches)) == engine.SAMPLE_BATCH

    def test_transient_per_call_peak(self, monkeypatch):
        """The traced peak of each `snapshot_reports` call of one German
        replication at the benchmark's transient config (load 60, 250
        arrivals sampled every 5) stays under a stated bound. Measured on
        seeds 1-8 with numpy 2.4.6: 128-130 KiB in batches of up to 8, 111-113
        KiB for batches of 4 without the bitmap dedupe, and 221-225 KiB for
        batches of 8 without it."""
        bound = 144 * 1024
        peaks = []

        def traced(score, *args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reports = score(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return reports

        tracemalloc.start()
        try:
            self.scored(monkeypatch, "german", 60.0, 250, 5, on_call=traced)
        finally:
            tracemalloc.stop()
        assert max(peaks) < bound, (
            f"largest snapshot_reports peak {max(peaks) / 1024:.1f} KiB >= "
            f"{bound // 1024} KiB with numpy {np.__version__}")


class TestScanLimits:
    @pytest.mark.parametrize("limits", [{"target": 0.0}, {"target": -0.5},
                                        {"target": 1.5}, {"max_arrivals": 0},
                                        {"max_arrivals": -5}, {"sample_every": 0}])
    def test_out_of_range_raises(self, chain4, limits):
        paths = build_beta_paths(chain4)
        args = {"target": 0.5, "sample_every": 10, "max_arrivals": 100, **limits}
        with pytest.raises(ValueError, match=next(iter(limits))):
            run_utilization_scan(chain4, DemandProfile.resolve(2, 1, load=4.0), paths, **args)


class TestLeftToRightSums:
    def test_mean_is_summed_left_to_right(self):
        # Python 3.12's compensated sum() would give a mean of 2/13
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        assert mean_ci99(values)[0] == 0.0
