import math
import random

import pytest

from fragsim.traffic import (ARRIVAL, DEPARTURE, DemandGenerator, DemandProfile,
                             EventQueue)


class TestProfile:
    def test_load_is_product(self):
        p = DemandProfile(10.0, 5.0, 16, 1)
        assert p.load == 50.0

    def test_resolve_third_from_two(self):
        p = DemandProfile.resolve(16, 1, load=60.0, arrival_rate=10.0)
        assert p.mean_holding == pytest.approx(6.0)
        p = DemandProfile.resolve(16, 1, load=60.0, mean_holding=2.4)
        assert p.arrival_rate_per_node == pytest.approx(25.0)
        p = DemandProfile.resolve(16, 1, arrival_rate=25.0, mean_holding=2.4)
        assert p.load == pytest.approx(60.0)

    def test_resolve_load_only_uses_unit_holding(self):
        p = DemandProfile.resolve(16, 1, load=50.0)
        assert p.arrival_rate_per_node == 50.0
        assert p.mean_holding == 1.0

    def test_resolve_inconsistent_triple(self):
        with pytest.raises(ValueError):
            DemandProfile.resolve(16, 1, load=60.0, arrival_rate=10.0,
                                  mean_holding=2.0)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DemandProfile(0.0, 1.0, 16, 1)
        with pytest.raises(ValueError):
            DemandProfile(1.0, -1.0, 16, 1)
        with pytest.raises(ValueError):
            DemandProfile(1.0, 1.0, 0, 1)


class TestGenerator:
    def test_degenerate_width(self):
        gen = DemandGenerator(DemandProfile(1.0, 1.0, 1, 3), 4)
        assert all(gen.next_demand().width == 1 for _ in range(200))

    def test_demand_fields_valid(self):
        gen = DemandGenerator(DemandProfile(2.0, 1.5, 8, 3), 5)
        last_t = 0.0
        for _ in range(500):
            d = gen.next_demand()
            assert 0 <= d.src < 5 and 0 <= d.dst < 5 and d.src != d.dst
            assert 1 <= d.width <= 8
            assert d.arrival_time > last_t
            assert d.holding_time > 0
            last_t = d.arrival_time

    def test_mean_interarrival_merged_process(self):
        n, lam = 7, 10.0
        gen = DemandGenerator(DemandProfile(lam, 1.0, 4, 11), n)
        count = 100_000
        last = 0.0
        for _ in range(count):
            last = gen.next_demand().arrival_time
        mean = last / count
        assert abs(mean - 1 / (n * lam)) < 0.02 * (1 / (n * lam))

    def test_src_dst_uniform(self):
        n = 5
        gen = DemandGenerator(DemandProfile(1.0, 1.0, 4, 13), n)
        count = 100_000
        freq = {}
        for _ in range(count):
            d = gen.next_demand()
            freq[(d.src, d.dst)] = freq.get((d.src, d.dst), 0) + 1
        p = 1 / (n * (n - 1))
        sigma = math.sqrt(count * p * (1 - p))
        for pair in [(a, b) for a in range(n) for b in range(n) if a != b]:
            assert abs(freq.get(pair, 0) - count * p) < 3.5 * sigma

    def test_mean_holding(self):
        gen = DemandGenerator(DemandProfile(1.0, 2.5, 4, 17), 4)
        total = sum(gen.next_demand().holding_time for _ in range(100_000))
        assert abs(total / 100_000 - 2.5) < 0.05

    def test_determinism_same_seed(self):
        a = DemandGenerator(DemandProfile(5.0, 1.0, 8, 42), 6, replication=3)
        b = DemandGenerator(DemandProfile(5.0, 1.0, 8, 42), 6, replication=3)
        for _ in range(1000):
            da, db = a.next_demand(), b.next_demand()
            assert da == db

    def test_replications_are_distinct_streams(self):
        a = DemandGenerator(DemandProfile(5.0, 1.0, 8, 42), 6, replication=0)
        b = DemandGenerator(DemandProfile(5.0, 1.0, 8, 42), 6, replication=1)
        seq_a = [a.next_demand() for _ in range(50)]
        seq_b = [b.next_demand() for _ in range(50)]
        assert seq_a != seq_b

    def test_golden_trace_regression(self):
        # frozen output of the philox4x64 stream for (seed=7, rep=0)
        gen = DemandGenerator(DemandProfile(10.0, 1.0, 16, 7), 7, replication=0)
        got = [(d.src, d.dst, d.width, round(d.arrival_time, 9),
                round(d.holding_time, 9)) for d in (gen.next_demand()
                                                    for _ in range(3))]
        gen2 = DemandGenerator(DemandProfile(10.0, 1.0, 16, 7), 7, replication=0)
        again = [(d.src, d.dst, d.width, round(d.arrival_time, 9),
                  round(d.holding_time, 9)) for d in (gen2.next_demand()
                                                      for _ in range(3))]
        assert got == again
        assert got == GOLDEN_TRACE_SEED7


# regenerate with scripts in this file's git history if numpy's Philox
# implementation ever changes (it is specified not to)
GOLDEN_TRACE_SEED7 = [
    (6, 1, 6, 0.018990034, 1.18395871),
    (2, 0, 12, 0.019637177, 0.444741521),
    (2, 0, 15, 0.028058338, 3.277132432),
]


class TestEventQueue:
    def test_heap_order(self):
        q = EventQueue()
        for t in [3.0, 1.0, 2.0]:
            q.push(t, ARRIVAL, int(t))
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_departure_before_arrival_on_tie(self):
        q = EventQueue()
        q.push(5.0, ARRIVAL, 1)
        q.push(5.0, DEPARTURE, 2)
        assert q.pop()[1] == DEPARTURE
        assert q.pop()[1] == ARRIVAL

    def test_id_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(1.0, DEPARTURE, 9)
        q.push(1.0, DEPARTURE, 4)
        assert q.pop()[2] == 4

    def test_random_events_match_sort_oracle(self):
        rnd = random.Random(9)
        events = [(round(rnd.uniform(0, 100), 2), rnd.choice([ARRIVAL, DEPARTURE]), i)
                  for i in range(10_000)]
        q = EventQueue()
        for t, kind, ident in events:
            q.push(t, kind, ident)
        popped = []
        while q:
            popped.append(q.pop())
        assert popped == sorted(events)

