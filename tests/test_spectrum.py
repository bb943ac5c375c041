import random

import pytest

from conftest import free_counts
from fragsim.spectrum import SliceRange, SpectrumFault, SpectrumState
from reference import max_run


def set_busy(state, link, busy_slices):
    for j in busy_slices:
        state.occ[link] |= 1 << j


def chequered(state, link, start_busy=0):
    set_busy(state, link, range(start_busy, state.slice_count, 2))


class TestCounts:
    def test_max_contiguous_inspection(self):
        st = SpectrumState(1, 4)
        set_busy(st, 0, [2])  # FREE FREE BUSY FREE
        assert st.max_contiguous_free(0) == 2

    def test_all_busy_zero(self):
        st = SpectrumState(1, 4)
        set_busy(st, 0, range(4))
        assert st.max_contiguous_free(0) == 0

    def test_chequered_eight(self):
        st = SpectrumState(1, 8)
        chequered(st, 0)
        assert st.max_contiguous_free(0) == 1
        assert free_counts(st) == [4]

    def test_free_count_all_free(self):
        st = SpectrumState(1, 8)
        assert free_counts(st) == [8]

    def test_random_bitmaps_match_naive(self):
        rnd = random.Random(1)
        st = SpectrumState(1, 20)
        for _ in range(1000):
            occ = rnd.getrandbits(20)
            st.occ[0] = occ
            bits = [(occ >> j) & 1 == 0 for j in range(20)]
            assert free_counts(st) == [sum(bits)]
            assert st.max_contiguous_free(0) == max_run(bits)


def naive_longest_free(occ, slice_count):
    return max_run([(occ >> j) & 1 == 0 for j in range(slice_count)])


class TestLongestRun:
    """The doubling-then-halving run length against a per-bit loop."""

    SLICE_COUNTS = (1, 7, 8, 9, 64, 320)

    def test_every_single_run(self):
        # one free run of every length at every start, rest busy, so the
        # per-bit answer is the run's length; this includes runs touching
        # slice 0 and slice S-1 and the fully free link
        for s in self.SLICE_COUNTS:
            st = SpectrumState(1, s)
            full = (1 << s) - 1
            for start in range(s):
                for length in range(1, s - start + 1):
                    st.occ[0] = full ^ (((1 << length) - 1) << start)
                    assert st.max_contiguous_free(0) == length, (s, start, length)
            st.occ[0] = full
            assert st.max_contiguous_free(0) == 0

    def test_every_bitmap_of_small_links(self):
        for s in (1, 7, 8, 9):
            st = SpectrumState(1, s)
            for occ in range(1 << s):
                st.occ[0] = occ
                assert st.max_contiguous_free(0) == naive_longest_free(occ, s)

    def test_random_bitmaps_of_wide_links(self):
        rnd = random.Random(5)
        for s in (64, 320):
            st = SpectrumState(1, s)
            for _ in range(300):
                # busy density from sparse to dense, so runs of every scale occur
                p = rnd.choice((0.005, 0.02, 0.1, 0.5, 0.9))
                occ = sum(1 << j for j in range(s) if rnd.random() < p)
                st.occ[0] = occ
                assert st.max_contiguous_free(0) == naive_longest_free(occ, s)


class TestFirstFit:
    def test_two_link_intersection(self):
        st = SpectrumState(2, 8)
        set_busy(st, 0, [2, 3, 6, 7])  # free {0,1,4,5}
        set_busy(st, 1, [0, 3, 6, 7])  # free {1,2,4,5}
        assert st.find_first_fit([0, 1], 2) == SliceRange(4, 2).mask

    def test_width_beyond_grid_blocks(self):
        st = SpectrumState(1, 8)
        assert st.find_first_fit([0], 9) is None
        assert st.find_first_fit([0], 8) == SliceRange(0, 8).mask

    def test_empty_spectrum_starts_at_zero(self):
        st = SpectrumState(3, 8)
        assert st.find_first_fit([0, 1, 2], 3) == SliceRange(0, 3).mask

    def test_continuity_blocks_despite_free_slices(self):
        # 3-link chain, >=2 free slices per link, but no common 2-wide range
        st = SpectrumState(3, 6)
        set_busy(st, 0, [0, 1, 4])   # free {2,3,5}
        set_busy(st, 1, [2, 3])      # free {0,1,4,5}
        set_busy(st, 2, [1, 4, 5])   # free {0,2,3}
        assert min(free_counts(st)) >= 2
        assert st.find_first_fit([0, 1, 2], 2) is None

    def test_minimal_start_property(self):
        rnd = random.Random(2)
        for _ in range(300):
            s = rnd.randint(4, 12)
            st = SpectrumState(3, s)
            for lid in range(3):
                set_busy(st, lid, [j for j in range(s) if rnd.random() < 0.4])
            width = rnd.randint(1, 4)
            route = [0, 1, 2]
            got = st.find_first_fit(route, width)
            feasible = []
            for start in range(s - width + 1):
                ok = all((st.occ[l] >> j) & 1 == 0
                         for l in route for j in range(start, start + width))
                if ok:
                    feasible.append(start)
            if got is None:
                assert not feasible
            else:
                assert got == SliceRange(feasible[0], width).mask

    def test_monotone_in_width(self):
        rnd = random.Random(3)
        for _ in range(200):
            st = SpectrumState(2, 10)
            for lid in range(2):
                set_busy(st, lid, [j for j in range(10) if rnd.random() < 0.5])
            prev = True
            for width in range(1, 11):
                found = st.find_first_fit([0, 1], width) is not None
                assert not (found and not prev)
                prev = found


def naive_first_fit(occs, route, width, slice_count):
    """Per-bit first fit: the first slice that ends a run of `width` slices
    free on every route link, minus width - 1."""
    run = 0
    for j in range(slice_count):
        run = 0 if any((occs[lid] >> j) & 1 for lid in route) else run + 1
        if run == width:
            return j - width + 1
    return None


class TestFirstFitOracle:
    """The doubling shift-AND search against a per-bit scan, on widths
    around every power of two and on bitmaps whose only fitting window
    touches the last slice or that hold runs one slice too short."""

    SLICE_COUNTS = (1, 7, 8, 9, 64, 320)

    @staticmethod
    def widths(s):
        return sorted({1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, s - 1, s, s + 1}
                      - {0})

    @staticmethod
    def spread(rnd, hops, busy):
        """Per-link bitmaps whose OR is `busy`, each busy slice set on a
        random non-empty subset of the links."""
        occs = [0] * hops
        for j in range(busy.bit_length()):
            if (busy >> j) & 1:
                for lid in rnd.sample(range(hops), rnd.randint(1, hops)):
                    occs[lid] |= 1 << j
        return occs

    @staticmethod
    def short_runs(s, run, end):
        """Busy mask with free runs of `run` slices, each after one busy
        slice, laid from slice end - 1 downwards; slices from `end` on are
        busy."""
        return sum(1 << j for j in range(s)
                   if j >= end or (end - 1 - j) % (run + 1) == run)

    def tail_only(self, s, width):
        """Busy mask whose only window of `width` free slices ends at the
        last slice; every other free run is one slice short."""
        tail = ((1 << width) - 1) << (s - width)
        return self.short_runs(s, width - 1, s - width - 1) & ~tail

    def cases(self, rnd, s, width):
        for p in (0.05, 0.2, 0.5, 0.8):
            yield sum(1 << j for j in range(s) if rnd.random() < p)
        yield 0
        yield (1 << s) - 1
        yield self.short_runs(s, width - 1, s)
        if width <= s:
            yield self.tail_only(s, width)

    def test_matches_per_bit_scan(self):
        rnd = random.Random(9)
        for s in self.SLICE_COUNTS:
            for hops in range(1, 5):
                st = SpectrumState(hops, s)
                route = list(range(hops))
                for width in self.widths(s):
                    for busy in self.cases(rnd, s, width):
                        st.occ = self.spread(rnd, hops, busy)
                        want = naive_first_fit(st.occ, route, width, s)
                        got = st.find_first_fit(route, width)
                        # a hit is any result that is not None, so no window
                        # must read None, not 0
                        if want is None:
                            assert got is None, (s, hops, width, st.occ)
                        else:
                            assert type(got) is int and got == SliceRange(want, width).mask, \
                                (s, hops, width, st.occ)

    def test_adversarial_cases_have_the_intended_answer(self):
        for s in self.SLICE_COUNTS:
            for width in self.widths(s):
                short = self.short_runs(s, width - 1, s)
                assert naive_first_fit([short], [0], width, s) is None
                assert short >> max(s - width + 1, 0) == 0  # the last width - 1 are free
                if width <= s:
                    tail = self.tail_only(s, width)
                    assert naive_first_fit([tail], [0], width, s) == s - width

    def test_width_below_one_raises(self):
        with pytest.raises(ValueError):
            SpectrumState(1, 8).find_first_fit([0], 0)


class TestSliceRange:
    def test_immutable_hashable_equal_by_value(self):
        r = SliceRange(3, 2)
        with pytest.raises(AttributeError):
            r.start = 4
        assert r == SliceRange(3, 2) and r != SliceRange(3, 1)
        assert hash(r) == hash(SliceRange(3, 2))
        assert {r: 1}[SliceRange(3, 2)] == 1
        assert (r.start, r.width) == (3, 2)
        assert SliceRange(0, 2) == (0, 2)  # a named tuple, equal to a plain one

    def test_mask_round_trip(self):
        assert SliceRange(3, 2).mask == 0b11000
        assert SliceRange(0, 1).mask == 1
        for start in range(0, 70, 7):
            for width in (1, 2, 5, 64, 65):
                r = SliceRange(start, width)
                assert r.mask.bit_count() == width
                assert SliceRange.from_mask(r.mask) == r
        # a mask with a gap spans its lowest to its highest bit
        assert SliceRange.from_mask(0b101100) == SliceRange(2, 4)
        assert SliceRange.from_mask(0b101100).mask != 0b101100


class TestAllocateRelease:
    def test_accounting_identity(self):
        st = SpectrumState(4, 8)
        before = free_counts(st)
        st.allocate([1, 2], SliceRange(3, 2).mask)
        assert free_counts(st) == [before[0], before[1] - 2, before[2] - 2, before[3]]

    def test_disjoint_allocations_commute(self):
        a = SpectrumState(2, 8)
        b = SpectrumState(2, 8)
        a.allocate([0], SliceRange(0, 2).mask)
        a.allocate([0, 1], SliceRange(4, 3).mask)
        b.allocate([0, 1], SliceRange(4, 3).mask)
        b.allocate([0], SliceRange(0, 2).mask)
        assert a.occ == b.occ

    def test_round_trip_restores_bitmap(self):
        st = SpectrumState(3, 16)
        set_busy(st, 0, [1, 5])
        snapshot = list(st.occ)
        st.allocate([0, 1, 2], SliceRange(8, 4).mask)
        st.release([0, 1, 2], SliceRange(8, 4).mask)
        assert st.occ == snapshot

    def test_collision_faults(self):
        st = SpectrumState(1, 8)
        st.allocate([0], SliceRange(0, 4).mask)
        with pytest.raises(SpectrumFault):
            st.allocate([0], SliceRange(3, 2).mask)

    def test_double_free_faults(self):
        st = SpectrumState(1, 8)
        with pytest.raises(SpectrumFault):
            st.release([0], SliceRange(0, 1).mask)

    def test_random_sequences_match_replay_log(self):
        rnd = random.Random(4)
        st = SpectrumState(3, 16)
        occupied = set()  # oracle: set of (link, slice)
        live = []
        for _ in range(500):
            if live and rnd.random() < 0.45:
                route, mask = live.pop(rnd.randrange(len(live)))
                st.release(route, mask)
                for lid in route:
                    for j in range(16):
                        if (mask >> j) & 1:
                            occupied.discard((lid, j))
            else:
                route = sorted(rnd.sample(range(3), rnd.randint(1, 3)))
                width = rnd.randint(1, 4)
                mask = st.find_first_fit(route, width)
                if mask is None:
                    continue
                assert mask.bit_count() == width
                st.allocate(route, mask)
                live.append((route, mask))
                for lid in route:
                    for j in range(16):
                        if (mask >> j) & 1:
                            occupied.add((lid, j))
            free = free_counts(st)
            for lid in range(3):
                expect = sum(1 << j for (l, j) in occupied if l == lid)
                assert st.occ[lid] == expect
                assert free[lid] == 16 - bin(expect).count("1")
                assert st.max_contiguous_free(lid) <= free[lid] <= 16


class TestUtilization:
    def test_empty(self):
        assert SpectrumState(5, 8).utilization() == 0.0

    def test_all_busy(self):
        st = SpectrumState(2, 8)
        for lid in range(2):
            set_busy(st, lid, range(8))
        assert st.utilization() == 1.0

    def test_half(self):
        st = SpectrumState(2, 8)
        set_busy(st, 0, range(8))
        assert st.utilization() == 0.5


class TestDump:
    def test_round_trip(self):
        st = SpectrumState(2, 8)
        set_busy(st, 0, [0, 3, 7])
        text = st.dump()
        assert text.splitlines()[0] == "0: 10010001"
        again = SpectrumState.parse(text, 2, 8)
        assert again.occ == st.occ
        assert free_counts(again) == [5, 8]

    @pytest.mark.parametrize("slices", [7, 320])
    def test_round_trip_random(self, slices):
        rng = random.Random(slices)
        st = SpectrumState(3, slices)
        st.occ = [0, rng.getrandbits(slices), (1 << slices) - 1]
        text = st.dump()
        for lid, line in enumerate(text.splitlines()):
            assert line == f"{lid}: " + "".join(str(st.occ[lid] >> j & 1)
                                                for j in range(slices))
        assert SpectrumState.parse(text, 3, slices).occ == st.occ

    @pytest.mark.parametrize("bits", ["0_101010", "+0101010", "-0101010"])
    def test_parse_rejects_what_int_would_take(self, bits):
        with pytest.raises(ValueError, match="bitmap"):
            SpectrumState.parse(f"0: {bits}\n1: 01010101\n", 2, 8)

    def test_parse_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SpectrumState.parse("0: 0101\n1: 01010101\n", 2, 8)

    def test_parse_rejects_missing_link(self):
        with pytest.raises(ValueError):
            SpectrumState.parse("0: 01010101\n", 2, 8)

    def test_parse_names_a_link_id_that_is_no_integer(self):
        with pytest.raises(ValueError, match="bad link id 'x' in state dump"):
            SpectrumState.parse("x: 01010101\n1: 01010101\n", 2, 8)
