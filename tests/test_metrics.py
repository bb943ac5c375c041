import functools
import itertools
import math
import operator
import random

import pytest

from conftest import data_file
from fragsim.engine import Simulation
from fragsim.metrics import (_NO_TRAILS, MetricBounds, _batch_runs, left_sum,
                             adapted_components, beta_path_bound, compute_alpha,
                             compute_beta, compute_bounds, compute_lefm,
                             compute_vfm, normalize, raw_nvfm, snapshot_report,
                             snapshot_reports)
from fragsim.spectrum import SpectrumState
from fragsim.topology import (BetaPathSet, Topology, build_beta_paths,
                              load_beta_paths, load_topology)
from fragsim.traffic import DemandProfile
from reference import ref_alpha, ref_beta, ref_lefm


def state_from_free(free_strings):
    """Build a state from per-link free maps ('1' = free), slice 0 first."""
    s = len(free_strings[0])
    st = SpectrumState(len(free_strings), s)
    for lid, bits in enumerate(free_strings):
        occ = 0
        for j, ch in enumerate(bits):
            if ch == "0":
                occ |= 1 << j
        st.occ[lid] = occ
    return st


def line_topology(nodes, slices=8):
    return Topology("line", nodes, [(i, i + 1) for i in range(nodes - 1)], slices)


def chequered_line(nodes, slices=8):
    """Fig-4-style worst case on a line: every link chequered, the free
    parity alternating hop to hop (mirrored on reverse links)."""
    t = line_topology(nodes, slices)
    ps = build_beta_paths(t)
    st = SpectrumState(t.link_count, slices)
    for hop, lid in enumerate(ps.paths[0]):
        free = "".join("1" if (j + hop) % 2 == 0 else "0" for j in range(slices))
        for target in (lid, lid ^ 1):
            occ = sum(1 << j for j, ch in enumerate(free) if ch == "0")
            st.occ[target] = occ
    return t, ps, st


class TestWorkedExample:
    def test_alpha_from_documented_link_stats(self):
        st = state_from_free(["11010000", "11010000", "11101100",
                              "11010000", "11110110"])
        assert compute_alpha(st) == pytest.approx(0.6533, abs=1e-4)

    def test_beta_from_documented_terms(self):
        terms = [0.5, 0.5, 4 / 4, 1 / 1, 1 / 1, 4 / 4, 5 / 5]
        assert sum(terms) / 8 == pytest.approx(0.75, abs=1e-12)

    def test_full_snapshot_matches_documented_values(self):
        t = load_topology(data_file("fig_example.json"))
        ps = build_beta_paths(t)
        with open(data_file("fig_example_state.txt")) as fh:
            st = SpectrumState.parse(fh.read(), t.link_count, t.slice_count)
        b = compute_bounds(t, ps)
        rep = snapshot_report(st, ps, b)
        assert rep.alpha == pytest.approx(0.6533, abs=1e-4)
        assert rep.beta == pytest.approx(0.75, abs=1e-4)
        assert rep.vfm == pytest.approx(0.9944, abs=1e-3)
        assert b.vfm_min == pytest.approx(0.486, abs=1e-3)
        assert rep.nvfm == pytest.approx(0.547844, abs=1e-3)
        assert rep.avfm == pytest.approx(0.452156, abs=1e-3)
        assert rep.lefm == pytest.approx(0.35, abs=1e-12)
        assert rep.utilization == 0.5


class TestAlpha:
    def test_all_free_is_one(self):
        assert compute_alpha(SpectrumState(4, 8)) == 1.0

    def test_chequered_s8_attains_bound(self):
        st = state_from_free(["10101010"] * 3)
        assert compute_alpha(st) == 0.25

    def test_no_free_slices_sentinel(self):
        st = state_from_free(["00000000"] * 2)
        assert compute_alpha(st) is None

    def test_matches_reference_on_random_states(self):
        rnd = random.Random(5)
        for _ in range(300):
            rows = ["".join(rnd.choice("01") for _ in range(10)) for _ in range(4)]
            st = state_from_free(rows)
            grids = [[c == "1" for c in row] for row in rows]
            expect = ref_alpha(grids)
            got = compute_alpha(st)
            if expect is None:
                assert got is None
            else:
                assert got == pytest.approx(expect, abs=1e-12)

    def test_link_order_invariance(self):
        rows = ["11010010", "00110100", "10000001"]
        st1 = state_from_free(rows)
        st2 = state_from_free(rows[::-1])
        assert compute_alpha(st1) == compute_alpha(st2)
        assert compute_lefm(st1) == compute_lefm(st2)


def single_path_set(hops):
    ps = BetaPathSet([hops], [[0] * (len(hops) + 1)])
    return ps


class TestBeta:
    def test_all_free_two_hops(self):
        st = SpectrumState(2, 8)
        assert compute_beta(st, single_path_set([0, 1])) == 1.0

    def test_chequered_four_hops_half(self):
        _, ps, st = chequered_line(5)
        assert ps.hop_counts == [4]
        assert compute_beta(st, ps) == 0.5

    def test_random_matrices_match_reference(self):
        rnd = random.Random(6)
        ps = single_path_set([0, 1, 2, 3])
        for _ in range(1000):
            rows = ["".join(rnd.choice("01") for _ in range(6)) for _ in range(4)]
            st = state_from_free(rows)
            grids = [[c == "1" for c in row] for row in rows]
            expect = ref_beta(grids, [[0, 1, 2, 3]])
            got = compute_beta(st, ps)
            if expect is None:
                assert got is None
            else:
                assert got == pytest.approx(expect, abs=1e-12)

    def test_direction_invariance_single_trail(self):
        rnd = random.Random(7)
        for _ in range(100):
            rows = ["".join(rnd.choice("01") for _ in range(6)) for _ in range(5)]
            st = state_from_free(rows)
            fwd = compute_beta(st, single_path_set([0, 1, 2, 3, 4]))
            rev = compute_beta(st, single_path_set([4, 3, 2, 1, 0]))
            assert fwd == rev

    def test_no_free_on_any_path_sentinel(self):
        st = state_from_free(["000000"] * 2)
        assert compute_beta(st, single_path_set([0, 1])) is None

    def test_busy_path_contributes_no_fragmentation(self):
        # path 0 fully busy, path 1 chequered over 4 hops
        rows = ["000000"] + ["101010", "010101", "101010", "010101"]
        st = state_from_free(rows)
        ps = BetaPathSet([[0], [1, 2, 3, 4]], [[0, 1], [0, 1, 2, 3, 4]])
        assert compute_beta(st, ps) == pytest.approx((1.0 + 0.5) / 2)


class TestBounds:
    def test_fig_example_bounds(self):
        t = load_topology(data_file("fig_example.json"))
        ps = build_beta_paths(t)
        b = compute_bounds(t, ps)
        assert b.alpha_min == 0.25
        assert b.beta_min == pytest.approx(10 / 24)
        assert b.vfm_min == pytest.approx(0.48591, abs=1e-5)
        assert b.vfm_max == pytest.approx(math.sqrt(2))

    def test_even_hop_bound(self):
        assert beta_path_bound(4) == 0.5

    def test_single_hop_bound_is_one(self):
        assert beta_path_bound(1) == 1.0

    def test_odd_slice_count(self):
        t = Topology("odd", 2, [(0, 1)], 7)
        ps = build_beta_paths(t)
        # four free runs of one slice fit in 7 slices (1010101)
        assert compute_bounds(t, ps).alpha_min == 1 / 4

    @pytest.mark.parametrize("s", range(2, 10))
    def test_alpha_bound_is_the_least_alpha_of_one_link(self, s):
        t = Topology("one", 2, [(0, 1)], s)
        least = min(compute_alpha(state_from_free(["".join(
            "0" if (bits >> j) & 1 else "1" for j in range(s))]))
            for bits in range((1 << s) - 1))  # every state with a free slice
        assert compute_bounds(t, build_beta_paths(t)).alpha_min == least

    def test_one_slice_topology_rejected(self):
        # Topology accepts S=1 (the run-length kernel is checked on it),
        # but S=1 has no chequered pattern and so no bounds
        t = Topology("thin", 2, [(0, 1)], 1)
        with pytest.raises(ValueError, match="slice_count"):
            compute_bounds(t, build_beta_paths(t))

    def test_alpha_exhaustive_one_link_s6(self):
        # every occupancy of a 1-link S=6 grid with >=1 free slice
        for bits in range(64):
            if bits == 63:
                continue  # no free slice
            free = "".join("0" if (bits >> j) & 1 else "1" for j in range(6))
            a = compute_alpha(state_from_free([free]))
            assert 1 / 3 - 1e-12 <= a <= 1.0

    def test_beta_exhaustive_two_hop_four_slices(self):
        ps = single_path_set([0, 1])
        bound = beta_path_bound(2)
        for bits in range(256):
            rows = ["".join("1" if (bits >> (4 * l + j)) & 1 else "0"
                            for j in range(4)) for l in range(2)]
            st = state_from_free(rows)
            b = compute_beta(st, ps)
            if b is not None:
                assert bound - 1e-12 <= b <= 1.0

    def test_beta_exhaustive_three_hop(self):
        # the analytic chequered bound is not a hard floor for odd hop
        # counts (an index free on hops 0 and 2 alone scores 1/2); the
        # true per-index floor is 2/(H+1), which is why nvfm is clamped
        ps = single_path_set([0, 1, 2])
        bound = 2 / 4
        seen_min = 1.0
        for bits in range(2 ** 9):
            rows = ["".join("1" if (bits >> (3 * l + j)) & 1 else "0"
                            for j in range(3)) for l in range(3)]
            st = state_from_free(rows)
            b = compute_beta(st, ps)
            if b is not None:
                assert bound - 1e-12 <= b <= 1.0
                seen_min = min(seen_min, b)
        assert seen_min == pytest.approx(bound)

    def test_chequered_attains_beta_bound_odd(self):
        _, ps, st = chequered_line(6)  # 5 hops
        assert ps.hop_counts == [5]
        assert compute_beta(st, ps) == pytest.approx(beta_path_bound(5))


class TestVfmNormalization:
    def test_documented_resultant(self):
        assert compute_vfm(0.6533, 0.75) == pytest.approx(0.9944, abs=1e-3)

    def test_maximum(self):
        assert compute_vfm(1, 1) == pytest.approx(math.sqrt(2))

    def test_min_reconstruction(self):
        assert compute_vfm(0.25, 10 / 24) == pytest.approx(0.48591, abs=1e-5)

    def test_documented_normalization(self):
        b = MetricBounds(0.25, 10 / 24, 0.486, 1.414)
        nvfm, avfm = normalize(0.9944, b)
        assert nvfm == pytest.approx(0.547844, abs=1e-3)
        assert avfm == pytest.approx(0.452156, abs=1e-3)

    def test_extremes(self):
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        assert normalize(b.vfm_max, b) == (1.0, 0.0)
        assert normalize(b.vfm_min, b) == (0.0, 1.0)

    def test_clamping(self):
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        nvfm, avfm = normalize(b.vfm_min - 0.01, b)
        assert nvfm == 0.0 and avfm == 1.0
        assert raw_nvfm(b.vfm_min - 0.01, b) < 0

    def test_bounds_without_range_read_no_fragmentation(self):
        # two slices and one-hop trails only: alpha_min = beta_min = 1, so
        # vfm_min = vfm_max and no state can be told from another
        t = Topology("thin", 3, [(0, 1), (1, 2)], 2)
        ps = build_beta_paths(t, requested_count=2)
        b = compute_bounds(t, ps)
        assert ps.hop_counts == [1, 1] and b.vfm_min == b.vfm_max
        assert raw_nvfm(b.vfm_max, b) == 1.0
        for rows in (["11", "11"], ["10", "01"], ["00", "01"], ["00", "00"]):
            st = state_from_free(rows + rows)
            rep = snapshot_report(st, ps, b)
            assert (rep.nvfm, rep.avfm, rep.clamped) == (1.0, 0.0, False), rows

    def test_monotonicity(self):
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        prev_v, prev_n = -1.0, -1.0
        for x in [0.3, 0.5, 0.7, 0.9, 1.1]:
            v = compute_vfm(x, 0.6)
            assert v > prev_v
            prev_v = v
        for v in [b.vfm_min, 0.8, 1.0, 1.2, b.vfm_max]:
            n = normalize(v, b)[0]
            assert n > prev_n
            prev_n = n


class TestAdaptedComponents:
    def test_no_contiguity_fragmentation(self):
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        assert adapted_components(1.0, 1.0, b) == (0.0, 0.0)

    def test_worst_case(self):
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        assert adapted_components(0.25, 0.5, b) == (1.0, 1.0)

    def test_chequered_state_all_three_maximal(self):
        t, ps, st = chequered_line(5)
        b = compute_bounds(t, ps)
        rep = snapshot_report(st, ps, b)
        assert rep.a_alpha == pytest.approx(1.0)
        assert rep.a_beta == pytest.approx(1.0)
        assert rep.avfm == pytest.approx(1.0)


class TestLefm:
    def test_worked_example(self):
        st = state_from_free(["11010000", "11010000", "11101100",
                              "11010000", "11110110"])
        assert compute_lefm(st) == pytest.approx(1 - 13 / 20)

    def test_all_free_zero(self):
        assert compute_lefm(SpectrumState(3, 8)) == 0.0

    def test_chequered_closed_form(self):
        st = state_from_free(["10101010"] * 4)
        assert compute_lefm(st) == pytest.approx(1 - 2 / 8)
        assert compute_lefm(st) == pytest.approx(0.75)

    def test_matches_reference(self):
        rnd = random.Random(8)
        for _ in range(200):
            rows = ["".join(rnd.choice("01") for _ in range(8)) for _ in range(3)]
            st = state_from_free(rows)
            grids = [[c == "1" for c in r] for r in rows]
            expect = ref_lefm(grids)
            got = compute_lefm(st)
            if expect is None:
                assert got is None
            else:
                assert got == pytest.approx(expect, abs=1e-12)


class TestTaxonomy:
    """The qualitative cases a usable fragmentation metric must identify."""

    def setup_method(self):
        self.t = line_topology(5)
        self.ps = build_beta_paths(self.t)
        self.bounds = compute_bounds(self.t, self.ps)

    def report(self, st):
        return snapshot_report(st, self.ps, self.bounds)

    def test_case_a_all_free(self):
        rep = self.report(SpectrumState(self.t.link_count, 8))
        assert rep.avfm == 0.0
        assert rep.lefm == 0.0
        assert rep.utilization == 0.0

    def test_case_b_all_busy(self):
        st = state_from_free(["00000000"] * self.t.link_count)
        rep = self.report(st)
        assert rep.avfm == 0.0
        assert rep.utilization == 1.0

    def test_case_c_contiguous_and_continuous(self):
        st = state_from_free(["00111100"] * self.t.link_count)
        rep = self.report(st)
        assert rep.avfm == pytest.approx(0.0)

    def test_case_d_chequered_absolute_fragmentation(self):
        _, _, st = chequered_line(5)
        assert self.report(st).avfm == pytest.approx(1.0)

    def test_case_e_splitting_a_block_increases_avfm(self):
        base_rows = ["00111100"] * self.t.link_count
        base = self.report(state_from_free(base_rows))
        for link in range(self.t.link_count):
            rows = list(base_rows)
            rows[link] = "01100110"  # same free count, block split in two
            split = self.report(state_from_free(rows))
            assert split.avfm > base.avfm


class TestSnapshotReport:
    def test_purity(self):
        t = load_topology(data_file("fig_example.json"))
        ps = build_beta_paths(t)
        with open(data_file("fig_example_state.txt")) as fh:
            st = SpectrumState.parse(fh.read(), t.link_count, t.slice_count)
        b = compute_bounds(t, ps)
        r1 = snapshot_report(st, ps, b)
        r2 = snapshot_report(st, ps, b)
        assert r1 == r2

    def test_el_size(self):
        st = state_from_free(["00000000", "10000000", "11111111"])
        ps = single_path_set([0])
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        assert snapshot_report(st, ps, b).el_size == 2

    def test_beta_sentinel_substitutes_one(self):
        # free capacity only off the covered direction: beta reports as
        # unfragmented, alpha still evaluated
        t = Topology("pair", 2, [(0, 1)], 8)
        ps = BetaPathSet([[0]], [[0, 1]])
        st = state_from_free(["00000000", "10100000"])
        rep = snapshot_report(st, ps, compute_bounds(t, ps))
        assert rep.beta == 1.0
        assert rep.alpha == 0.5

    @staticmethod
    def assert_matches_components(st, ps, b):
        """The one-pass report equals each separately computed component,
        exactly, with the no-free-slice conventions applied."""
        rep = snapshot_report(st, ps, b)
        alpha, beta, lefm = compute_alpha(st), compute_beta(st, ps), compute_lefm(st)
        assert rep.alpha == (1.0 if alpha is None else alpha)
        assert rep.beta == (1.0 if beta is None else beta)
        assert rep.lefm == (0.0 if lefm is None else lefm)
        assert rep.el_size == sum(1 for n in st.free_counts() if n > 0)
        assert rep.utilization == st.utilization()

    def test_fields_equal_components(self):
        t = load_topology(data_file("german.json"))
        ps = build_beta_paths(t)
        b = compute_bounds(t, ps)
        empty = SpectrumState(t.link_count, t.slice_count)
        full = SpectrumState(t.link_count, t.slice_count)
        full.occ = [(1 << t.slice_count) - 1] * t.link_count
        chequered = SpectrumState(t.link_count, t.slice_count)
        for lid in range(t.link_count):
            chequered.occ[lid] = sum(1 << j for j in range(lid % 2, t.slice_count, 2))
        for st in (empty, full, chequered):
            self.assert_matches_components(st, ps, b)
        sim = Simulation(t, DemandProfile.resolve(16, 3, load=60.0), ps, bounds=b)
        for _ in range(20):
            sim.run(40, sample_every=41)
            self.assert_matches_components(sim.state, ps, b)


class TestFreeRuns:
    """The batch run-length kernel against per-link and per-slice loops."""

    @staticmethod
    def longest(flags):
        best = run = 0
        for f in flags:
            run = run + 1 if f else 0
            best = max(best, run)
        return best

    @staticmethod
    def states(t, rnd):
        s, n = t.slice_count, t.link_count
        full = (1 << s) - 1
        # chequered with the parity alternating fiber to fiber
        masks = {"empty": [0] * n, "full": [full] * n,
                 "chequered": [sum(1 << j for j in range(lid // 2 % 2, s, 2))
                               for lid in range(n)]}
        for k in range(6):
            p = rnd.random()
            masks[f"random{k}"] = [sum(1 << j for j in range(s) if rnd.random() < p)
                                   for _ in range(n)]
        # each link one busy run at a random place: long free runs at both ends
        masks["one_block"] = [((1 << w) - 1) << rnd.randrange(s - w + 1)
                              for w in (rnd.randint(1, s) for _ in range(n))]
        # slice 0 free and the last slice busy on every other link, so a run
        # that starts a row follows a row whose last slices are busy
        masks["row_starts"] = [(full ^ 1) if lid % 2 else 1 << (s - 1)
                               for lid in range(n)]
        for occ in masks.values():
            st = SpectrumState(n, s)
            st.occ = list(occ)
            yield st

    def check(self, states, ps):
        """One kernel call on the whole batch; each state against the loops."""
        s = states[0].slice_count
        runs, free, cn, avail = _batch_runs([st.occ for st in states], s, ps.hop_index)
        assert runs.shape == free.shape == (len(states), states[0].link_count)
        assert cn.shape == avail.shape == (len(states), len(ps.paths), s)
        for k, st in enumerate(states):
            links = range(st.link_count)
            assert runs[k].tolist() == [st.max_contiguous_free(lid) for lid in links], k
            assert free[k].tolist() == st.free_counts(), k
            for ti, hops in enumerate(ps.paths):
                for j in range(s):
                    column = [not (st.occ[lid] >> j) & 1 for lid in hops]
                    assert cn[k, ti, j] == self.longest(column), (k, ti, j)
                    assert avail[k, ti, j] == sum(column), (k, ti, j)
        no_runs, no_free, cn0, avail0 = _batch_runs([st.occ for st in states], s, _NO_TRAILS)
        assert (no_runs == runs).all() and (no_free == free).all()
        assert cn0.shape == avail0.shape == (len(states), 0, s)

    @pytest.mark.parametrize("slices", [1, 7, 8, 9, 64, 320])
    def test_matches_loops_on_uneven_covers(self, slices):
        rnd = random.Random(slices)
        net_a = load_topology(data_file("net_a.json"))
        t = Topology("net_a", net_a.node_count, net_a.fibers, slices)
        shipped = load_beta_paths(data_file("net_a_paths.json"), t)
        assert sorted(shipped.hop_counts) == [1, 11]
        covers = [shipped] + [build_beta_paths(t, k) for k in (None, 1, 4)]
        assert len({tuple(sorted(ps.hop_counts)) for ps in covers}) > 2
        for ps in covers:
            self.check(list(self.states(t, rnd)), ps)

    def test_trail_longer_than_a_byte_lane(self):
        # a 300-node ring is one 300-hop trail: CN and AS reach 300 > 255
        t = Topology("ring", 300, [(i, (i + 1) % 300) for i in range(300)], 9)
        ps = build_beta_paths(t)
        assert ps.hop_counts == [300]
        self.check(list(self.states(t, random.Random(3))), ps)

    def test_hop_index_pads_with_the_busy_row(self):
        ps = BetaPathSet([[4, 2, 0], [1], [3, 5]], [[0] * 4, [0] * 2, [0] * 3])
        assert ps.hop_index.tolist() == [[4, 2, 0], [1, -1, -1], [3, 5, -1]]
        assert BetaPathSet([], []).hop_index.shape == (0, 0)

    def test_simulated_german_states(self):
        t = load_topology(data_file("german.json"))
        ps = build_beta_paths(t)
        sim = Simulation(t, DemandProfile.resolve(16, 5, load=80.0), ps)
        states = []
        for _ in range(4):
            sim.run(150, sample_every=151)
            st = SpectrumState(t.link_count, t.slice_count)
            st.occ = list(sim.state.occ)
            states.append(st)
        self.check(states, ps)


class TestBatchReports:
    """snapshot_reports on a batch equals snapshot_report state by state."""

    @staticmethod
    def assert_batches_match(states, ps, b):
        single = [snapshot_report(st, ps, b) for st in states]
        occs = [st.occ for st in states]
        s = states[0].slice_count
        for size in (1, 2, 7, len(occs)):
            batched = [rep for i in range(0, len(occs), size)
                       for rep in snapshot_reports(occs[i:i + size], s, ps, b)]
            assert batched == single, size

    @pytest.mark.parametrize("slices", [1, 7, 8, 9, 64, 320])
    def test_uneven_covers(self, slices):
        net_a = load_topology(data_file("net_a.json"))
        t = Topology("net_a", net_a.node_count, net_a.fibers, slices)
        covers = [load_beta_paths(data_file("net_a_paths.json"), t)]
        covers += [build_beta_paths(t, k) for k in (None, 1, 4)]
        # one slice has no chequered bound; any fixed bounds serve here
        b = MetricBounds(0.25, 0.5, compute_vfm(0.25, 0.5))
        states = list(TestFreeRuns.states(t, random.Random(slices)))
        for ps in covers:
            self.assert_batches_match(states, ps, b)

    @pytest.mark.parametrize("name", ["german", "nsfnet", "net_a", "fig_example"])
    def test_shipped_topologies(self, name):
        t = load_topology(data_file(f"{name}.json"))
        ps = build_beta_paths(t)
        b = compute_bounds(t, ps)
        states = list(TestFreeRuns.states(t, random.Random(len(name))))
        for load in (20.0, 80.0, 400.0):
            sim = Simulation(t, DemandProfile.resolve(8, 2, load=load), ps, bounds=b)
            for _ in range(3):
                sim.run(60, sample_every=61)
                st = SpectrumState(t.link_count, t.slice_count)
                st.occ = list(sim.state.occ)
                states.append(st)
        self.assert_batches_match(states, ps, b)


class TestLeftSum:
    def test_adds_left_to_right(self):
        # compensated summation (Python 3.12's sum()) gives 2.0 here
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        assert left_sum(values) == functools.reduce(operator.add, values) == 0.0
        assert left_sum([]) == 0.0
