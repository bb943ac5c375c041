import dataclasses
import gc
import hashlib
import math
import random
import tracemalloc
import weakref
from collections import Counter, deque
from itertools import chain, islice
from operator import length_hint

import numpy as np
import pytest

from fragsim import traffic
from fragsim.traffic import DemandGenerator, DemandProfile, EventQueue


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
        with pytest.raises(ValueError, match="max_demand"):
            DemandProfile(1.0, 1.0, 2**32 + 1, 1)
        assert DemandProfile(1.0, 1.0, 2**32, 1).max_demand == 2**32
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                DemandProfile(1.0, 1.0, 16, seed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, bad):
        for args in [(bad, 1.0), (1.0, bad)]:
            with pytest.raises(ValueError, match="finite"):
                DemandProfile(*args, 16, 1)
        for key in ("arrival_rate", "mean_holding", "load"):
            with pytest.raises(ValueError, match="finite"):
                DemandProfile.resolve(16, 1, **{"load": 2.0, "mean_holding": 1.0, key: bad})
        with pytest.raises(ValueError, match="finite"):  # a quotient overflows
            DemandProfile.resolve(16, 1, load=1e300, mean_holding=1e-300)

    @pytest.mark.parametrize("rate,holding", [(1e-320, 1.0), (1e200, 1e200), (1e-200, 1e-200)])
    def test_rate_and_load_must_stay_finite(self, rate, holding):
        # 1/rate, the mean gap, or the load overflows or underflows
        with pytest.raises(ValueError, match="finite"):
            DemandProfile(rate, holding, 16, 1)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DemandProfile)])
    def test_fields_cannot_be_set(self, name):
        # a field set after construction would skip __post_init__'s checks
        p = DemandProfile(1.0, 1.0, 16, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0)
        assert p == DemandProfile(1.0, 1.0, 16, 1)


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

# sha256 of 2,000 demands per (node_count, max_demand), recorded when the
# integers were still drawn by Generator.integers: (2, 1) draws no dst and
# no width, (14, 16) and (17, 320) carry half-words across demands
STREAM_PINS = {
    (2, 1): "32b8359a7bd10066822737198a22cf765e436111b55f4e987438320974263dd9",
    (14, 16): "d1372b7890aaa2c4c8b27fd1257513612ea72afce6f2dfae928df5efadc455ef",
    (17, 320): "267f3e4d4f5edd6d779b78d6320c940ba94ceae497aabf605890d18826407531",
}


def stream_digest(n, max_demand):
    gen = DemandGenerator(DemandProfile(3.0, 1.5, max_demand, 5), n, replication=2)
    h = hashlib.sha256()
    for _ in range(2000):
        d = gen.next_demand()
        h.update(repr((d.src, d.dst, d.width, d.arrival_time.hex(),
                       d.holding_time.hex())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_key_below_2_pow_63_is_unchanged(seed):
    # the key was once the plain list [seed, replication]; its streams stay
    philox = traffic._philox(DemandProfile(1.0, 1.0, 16, seed), 4)
    want = np.random.Philox(key=[seed, 4]).random_raw(8)
    assert philox.random_raw(8).tolist() == want.tolist()


@pytest.mark.parametrize("n,max_demand", STREAM_PINS)
def test_demand_stream_pinned(n, max_demand):
    assert stream_digest(n, max_demand) == STREAM_PINS[(n, max_demand)]


@pytest.mark.parametrize("block", [1, 3, 7])
def test_stream_pins_hold_for_any_word_block(monkeypatch, block):
    # with one word per block, every slow path's extra word is in the next
    # block; 3 and 7 also split the kept half-words and the exponentials
    calls = []
    unlikely = traffic.standard_exponential_unlikely
    monkeypatch.setattr(traffic, "WORD_BLOCK", block)
    monkeypatch.setattr(traffic, "standard_exponential_unlikely",
                        lambda *a: calls.append(a[2]) or unlikely(*a))
    for n, max_demand in STREAM_PINS:
        assert stream_digest(n, max_demand) == STREAM_PINS[(n, max_demand)]
    assert 0 in calls and len(set(calls)) > 1  # the tail and some wedges


@pytest.mark.parametrize("key", [(0, 0), (7, 3), (2**64 - 1, 2**63)])
def test_ziggurat_matches_standard_exponential(key):
    # the likely path as `_demands` writes it out, the rest by the module's
    # function, against numpy's own draws bit for bit
    draws = 200_000
    want = np.random.Generator(np.random.Philox(key=list(key))).standard_exponential(draws)
    words = iter(np.random.Philox(key=list(key)).random_raw(draws + draws // 10).tolist())
    word = words.__next__
    got, paths = [], Counter()
    for _ in range(draws):
        w = word()
        ri, idx = w >> 11, (w >> 3) & 0xFF
        if ri < traffic._KE[idx]:
            got.append(ri * traffic._WE[idx])
            paths["rectangle"] += 1
            continue
        left = length_hint(words)
        got.append(traffic.standard_exponential_unlikely(word, ri, idx))
        paths["tail" if idx == 0 else
              "wedge accepted" if left - length_hint(words) == 1 else "wedge rejected"] += 1
    assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))
    assert set(paths) == {"rectangle", "tail", "wedge accepted", "wedge rejected"}


def test_scale_changes_between_demands():
    # the scan raises the arrival rate mid-stream; the next demand's times
    # take the new scales, as Generator.exponential would give them (the
    # rates cycle, so that the clock keeps moving)
    for seed in range(3):
        profile = DemandProfile(2.0, 1.5, 5, seed)
        gen = DemandGenerator(profile, 3, replication=1)
        ref = np.random.Generator(np.random.Philox(key=[seed, 1]))
        clock = 0.0
        for demand_id in range(3000):
            if demand_id % 7 == 6:
                k = demand_id // 7 % 5
                profile = DemandProfile(2.0 * 1.5**k, 1.5 * 0.9**k, 5, seed)
                gen.profile = profile
            clock += ref.exponential(1.0 / (3 * profile.arrival_rate_per_node))
            src, dst, width = (int(ref.integers(0, b)) for b in (3, 2, 5))
            want = (demand_id, src, dst + (dst >= src), width + 1, clock,
                    ref.exponential(profile.mean_holding))
            assert next(gen.stream) == want, (seed, demand_id)


def test_seed_and_max_demand_are_fixed():
    # a stream's standard draws depend on its seed and max_demand, so only the
    # rate and the holding time of its profile may change
    gen = DemandGenerator(DemandProfile(2.0, 1.5, 5, 0), 3, replication=1)
    for other in (DemandProfile(2.0, 1.5, 6, 0), DemandProfile(2.0, 1.5, 5, 1)):
        with pytest.raises(ValueError, match="seed and max_demand are fixed"):
            gen.profile = other
    gen.profile = new = DemandProfile(4.0, 0.5, 5, 0)
    assert gen.profile is new


def independent(profile, n, replication, count, changes=()):
    """`count` demands of a generator of its own, its profile replaced by
    changes[demand id] before that demand is drawn."""
    gen = DemandGenerator(profile, n, replication)
    out = []
    for demand_id in range(count):
        if demand_id in changes:
            gen.profile = changes[demand_id]
        out.append(next(gen.stream))
    return out


@pytest.mark.parametrize("n,max_demand", STREAM_PINS)
def test_shared_draws_give_each_profile_its_own_stream(n, max_demand):
    # profiles that differ only in rate or holding time read one Draws: each
    # stream is the one its own generator decodes (the pinned stream for the
    # first profile), also past the end of what an earlier reader recorded
    rates = [(3.0, 1.5), (0.7, 1.5), (3.0, 4.0), (11.0, 0.2)]
    profiles = [DemandProfile(rate, holding, max_demand, 5) for rate, holding in rates]
    draws = traffic.Draws(profiles[0], n, replication=2)
    for profile, count in zip(profiles, (2000, 700, 2000, 2600)):
        gen = DemandGenerator(profile, n, 2, draws)
        assert list(islice(gen.stream, count)) == independent(profile, n, 2, count)
    assert draws.recorded >= 2600


def test_readers_may_take_turns_and_change_rates():
    profiles = [DemandProfile(2.0, 1.5, 7, 3), DemandProfile(5.0, 0.5, 7, 3)]
    draws = traffic.Draws(profiles[0], 5, replication=1)
    gens = [DemandGenerator(p, 5, 1, draws) for p in profiles]
    got = [[], []]
    # the second reader starts at once, then both read in turns of 50
    for turn in range(40):
        for k in (1, 0):
            if turn == 20:
                gens[k].profile = DemandProfile(1.0, 2.0, 7, 3)
            got[k] += islice(gens[k].stream, 50)
    for k, profile in enumerate(profiles):
        assert got[k] == independent(profile, 5, 1, 2000,
                                     {1000: DemandProfile(1.0, 2.0, 7, 3)})


def test_readers_take_turns_inside_one_block():
    # turns of a few demands, the lead changing hands, all inside the first
    # block that the Draws decodes: each reader reads its lone stream
    profiles = [DemandProfile(2.0, 1.5, 16, 8), DemandProfile(7.0, 0.5, 16, 8)]
    draws = traffic.Draws(profiles[0], 14, replication=3)
    gens = [DemandGenerator(p, 14, 3, draws) for p in profiles]
    got = [[], []]
    first_block = None
    for turn in range(12):
        for k, size in enumerate((19 if turn % 2 else 3, 10)):
            got[k] += islice(gens[k].stream, size)
            first_block = first_block or draws.recorded
    assert draws.recorded == first_block > max(map(len, got))
    for k, profile in enumerate(profiles):
        assert got[k] == independent(profile, 14, 3, len(got[k]))


def philox_position(bit_generator):
    """Where a Philox generator is in its stream."""
    state = bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


def test_no_word_is_fetched_before_the_first_demand(monkeypatch):
    # a generator or a Draws is built lazily: its bit generator stays at the
    # start of the stream until a demand is read
    made, philox = [], traffic._philox
    monkeypatch.setattr(traffic, "_philox", lambda *a: made.append(philox(*a)) or made[-1])
    profile = DemandProfile(1.0, 1.0, 16, 5)
    start = philox_position(np.random.Philox(key=[5, 2]))
    draws = traffic.Draws(profile, 14, 2)
    draws.chunks()  # a generator: nothing runs until it is read
    alone = DemandGenerator(profile, 14, 2)
    assert len(made) == 2  # the Draws' bit generator and the lone generator's
    reader = DemandGenerator(profile, 14, 2, draws)
    for gen, bit_generator in ((alone, made[1]), (reader, made[0])):
        assert philox_position(bit_generator) == start
        next(gen.stream)
        assert philox_position(bit_generator) != start


@pytest.mark.parametrize("seed,max_demand,n,replication", [(6, 16, 14, 0), (5, 8, 14, 0),
                                                           (5, 16, 13, 0), (5, 16, 14, 1)])
def test_other_streams_cannot_read_the_draws(seed, max_demand, n, replication):
    draws = traffic.Draws(DemandProfile(1.0, 1.0, 16, 5), 14, 0)
    with pytest.raises(ValueError, match="cannot read the draws"):
        DemandGenerator(DemandProfile(2.0, 1.0, max_demand, seed), n, replication, draws)


def test_stream_groups_join_only_one_stream():
    # same seed and max_demand: one group per replication, whatever the rate
    # and holding time; another seed or max_demand is another group
    profiles = [DemandProfile(1.0, 1.0, 16, 1), DemandProfile(2.0, 1.0, 8, 1),
                DemandProfile(3.0, 2.0, 16, 1), DemandProfile(1.0, 1.0, 16, 2),
                DemandProfile(2.0, 3.0, 8, 1)]
    assert traffic.stream_groups(profiles, 14, 2) == [
        [(1, 0), (4, 0)], [(0, 0), (2, 0)], [(3, 0)],
        [(1, 1), (4, 1)], [(0, 1), (2, 1)], [(3, 1)]]


def test_generator_is_freed_at_its_last_reference():
    # its stream reads the profile from a cell, so no cycle keeps the
    # generator and its decoded chunk alive until the cycle collector runs
    profile = DemandProfile(1.0, 1.0, 16, 1)
    gc.disable()
    try:
        for draws in (None, traffic.Draws(profile, 5, 0)):
            gen = DemandGenerator(profile, 5, 0, draws)
            next(gen.stream)
            ref = weakref.ref(gen)
            del gen
            assert ref() is None
    finally:
        gc.enable()


def test_record_takes_at_most_40_bytes_a_demand():
    # traced over 20,000 NSFNET demands (14 nodes); the first Draws imports
    # what the generator needs, so that the traced one holds only itself
    profile = DemandProfile(80.0, 1.0, 16, 1)
    next(DemandGenerator(profile, 14, 0, traffic.Draws(profile, 14, 0)).stream)
    tracemalloc.start()
    try:
        draws = traffic.Draws(profile, 14, 0)
        deque(islice(DemandGenerator(profile, 14, 0, draws).stream, 20_000), maxlen=0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws.recorded >= 20_000
    assert held / 20_000 <= 40 and peak / 20_000 <= 40


# 3 << 30 and 1 << 31 make numpy's rejection test see a low part equal to
# its threshold (or a power-of-two bound's zero threshold) on a quarter or
# half of the draws, so an off-by-one threshold shows at once
@pytest.mark.parametrize("bound", [1, 2, 3, 14, 16, 320, 3_000_000_000,
                                   3 << 30, 1 << 31, 1 << 32])
def test_below_matches_generator_integers(bound):
    # two nodes: src is drawn below 2, dst below 1 (no draw), width - 1
    # below `bound`; the kept half-word outlives the exponentials, which
    # take whole words, and carries over into the next demand
    for seed in range(150):
        gen = DemandGenerator(DemandProfile(1.0, 2.0, bound, seed), 2, replication=seed % 4)
        ref = np.random.Generator(np.random.Philox(key=[seed, seed % 4]))
        clock = 0.0
        for demand_id in range(20):
            clock += ref.exponential(0.5)
            src = int(ref.integers(0, 2))
            want = (demand_id, src, 1 - src, 1 + int(ref.integers(0, bound)), clock,
                    ref.exponential(2.0))
            assert next(gen.stream) == want, seed


# 3 << 30 rejects a quarter of the width draws, and 1 << 31 puts the low part
# at its zero threshold half the time; 2, 16 and 1 << 32 never reject
@pytest.mark.parametrize("max_demand", [2, 7, 16, 3 << 30, 1 << 31, 1 << 32])
@pytest.mark.parametrize("n", [3, 14, 17])
def test_stream_matches_generator_one_draw_at_a_time(monkeypatch, n, max_demand):
    # the standard draws against numpy's own, drawn one value at a time: the
    # fast path, the fallback and the blocks' ends, where one, three or seven
    # words to a block put every kind of break at a block's start and across
    # its end
    count, seed, replication = 5000, n * 1000 + max_demand % 997, max_demand % 3
    profile = DemandProfile(1.0, 1.0, max_demand, seed)
    ref = np.random.Generator(np.random.Philox(key=[seed, replication]))
    want = []
    for _ in range(count):
        e1, src, dst, width = (ref.exponential(), int(ref.integers(0, n)),
                               int(ref.integers(0, n - 1)), int(ref.integers(0, max_demand)))
        want.append((e1, src, dst + (dst >= src), width + 1, ref.exponential()))
    fallbacks = []
    one_demand = traffic._one_demand
    monkeypatch.setattr(traffic, "_one_demand", lambda *a: fallbacks.append(a) or one_demand(*a))
    for block in (1, 3, 7, traffic.WORD_BLOCK):
        monkeypatch.setattr(traffic, "WORD_BLOCK", block)
        draws = traffic.Draws(profile, n, replication)
        got = list(islice(chain.from_iterable(draws.chunks()), count))
        assert got == want, block
        assert {type(x) for demand in got for x in demand} == {int, float}
        assert fallbacks, block
        fallbacks.clear()


class TestEventQueue:
    def test_heap_order(self):
        q = EventQueue()
        for t in [3.0, 1.0, 2.0]:
            q.push(t, int(t), [int(t)], 1 << int(t))
        assert [q.pop() for _ in range(3)] == [(1.0, 1, [1], 2), (2.0, 2, [2], 4),
                                               (3.0, 3, [3], 8)]
        assert not q.heap

    def test_id_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(1.0, 9, [0], 1)
        q.push(1.0, 4, [1], 2)
        assert q.heap[0] == (1.0, 4, [1], 2)
        assert q.pop() == (1.0, 4, [1], 2)

    def test_random_events_match_sort_oracle(self):
        rnd = random.Random(9)
        ids = list(range(10_000))
        rnd.shuffle(ids)  # pushed out of id order, with many equal times
        # ids are unique, so (time, id) alone orders the entries
        events = [(round(rnd.uniform(0, 100), 1), i, [-i], -i) for i in ids]
        q = EventQueue()
        for event in events:
            q.push(*event)
        popped = [q.pop() for _ in events]
        assert popped == sorted(events, key=lambda e: e[:2])
        assert not q.heap

