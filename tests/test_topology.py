import itertools
import json
import random

import pytest

from conftest import data_file, write_topology
from reference import _ref_pairings, link_ends, ref_best_cover, ref_one_hop_avoidable
from fragsim import cover
from fragsim.topology import (BetaPathSet, Topology, TopologyError,
                              all_pairs_routes, build_beta_paths,
                              load_beta_paths, load_topology)


def bfs_dist(node_count, fibers, src):
    adj = [[] for _ in range(node_count)]
    for a, b in fibers:
        adj[a].append(b)
        adj[b].append(a)
    dist = {src: 0}
    q = [src]
    while q:
        u = q.pop(0)
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


class TestLoad:
    def test_two_node_file(self, tmp_path):
        p = write_topology(tmp_path, "two", 2, [[0, 1]], 8)
        t = load_topology(p)
        assert t.node_count == 2
        assert t.link_count == 2
        assert t.slice_count == 8
        assert link_ends(t, 0) == (0, 1)
        assert link_ends(t, 1) == (1, 0)
        assert t.adjacency == [[(1, 0)], [(0, 1)]]

    def test_nsfnet(self):
        t = load_topology(data_file("nsfnet.json"))
        assert t.node_count == 14
        assert t.link_count == 42

    def test_dangling_node(self, tmp_path):
        p = write_topology(tmp_path, "bad", 7, [[0, 1], [1, 99]], 8)
        with pytest.raises(TopologyError, match="dangling"):
            load_topology(p)

    def test_disconnected(self, tmp_path):
        p = write_topology(tmp_path, "disc", 4, [[0, 1], [2, 3]], 8)
        with pytest.raises(TopologyError, match="connected"):
            load_topology(p)

    def test_parse_error(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        with pytest.raises(TopologyError):
            load_topology(str(p))

    def test_no_fibers_rejected(self, tmp_path):
        p = write_topology(tmp_path, "empty", 1, [], 8)
        with pytest.raises(TopologyError, match="no fibers"):
            load_topology(p)

    def test_one_slice_file_rejected(self, tmp_path):
        p = write_topology(tmp_path, "thin", 2, [[0, 1]], 1)
        with pytest.raises(TopologyError, match="slice_count"):
            load_topology(p)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology("loop", 2, [(0, 0), (0, 1)], 8)


class TestShortestPath:
    """The fixed minimum-hop routes of all_pairs_routes."""

    def test_triangle_direct(self, triangle):
        r = all_pairs_routes(triangle)[(0, 2)]
        assert len(r) == 1
        assert link_ends(triangle, r[0]) == (0, 2)

    def test_line_unique(self, line4):
        r = all_pairs_routes(line4)[(0, 3)]
        assert len(r) == 3
        assert [link_ends(line4, l)[0] for l in r] == [0, 1, 2]

    def test_square_with_diagonal_matches_bfs(self):
        fibers = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        t = Topology("sq", 4, fibers, 8)
        routes = all_pairs_routes(t)
        for s in range(4):
            dist = bfs_dist(4, fibers, s)
            for d in range(4):
                if s != d:
                    assert len(routes[(s, d)]) == dist[d]

    def test_random_graphs_match_bfs(self):
        rnd = random.Random(42)
        for _ in range(20):
            n = rnd.randint(3, 10)
            fibers = [(i, i + 1) for i in range(n - 1)]  # keep connected
            extra = [(a, b) for a in range(n) for b in range(a + 2, n)]
            fibers += rnd.sample(extra, min(len(extra), rnd.randint(0, n)))
            t = Topology("rand", n, fibers, 4)
            routes = all_pairs_routes(t)
            for s in range(n):
                dist = bfs_dist(n, fibers, s)
                for d in range(n):
                    if s != d:
                        assert len(routes[(s, d)]) == dist[d]

    def test_route_is_valid_chain(self, triangle):
        r = all_pairs_routes(triangle)[(1, 2)]
        for a, b in zip(r, r[1:]):
            assert link_ends(triangle, a)[1] == link_ends(triangle, b)[0]
        assert len(set(r)) == len(r)

    def test_tie_break_lowest_node(self):
        # two 2-hop routes 0-1-3 and 0-2-3: predecessor 1 must win
        t = Topology("tie", 4, [(0, 1), (0, 2), (1, 3), (2, 3)], 8)
        r = all_pairs_routes(t)[(0, 3)]
        assert [link_ends(t, l)[0] for l in r] == [0, 1]

    def test_all_pairs_matches_single(self, triangle):
        # every pair of the triangle is adjacent: each route is its one link
        routes = all_pairs_routes(triangle)
        for s in range(3):
            for d in range(3):
                if s != d:
                    assert routes[(s, d)] == [lid for lid in range(triangle.link_count)
                                              if link_ends(triangle, lid) == (s, d)]

    def test_same_endpoints_rejected(self, triangle):
        routes = all_pairs_routes(triangle)
        assert set(routes) == {(s, d) for s in range(3) for d in range(3) if s != d}


def covered_fibers(t, ps):
    seen = []
    for path in ps.paths:
        here = set()
        for lid in path:
            k = lid // 2
            assert k not in here, "fiber repeated within one path"
            here.add(k)
        seen += sorted(here)
    return seen


def random_fibers(rnd, n, extra):
    """A random tree on n nodes plus `extra` random fibers, which may run
    parallel to existing ones."""
    fibers = [(i, rnd.randrange(i)) for i in range(1, n)]
    for _ in range(extra):
        fibers.append(tuple(rnd.sample(range(n), 2)))
    return fibers


def odd_count(n, fibers):
    deg = [0] * n
    for a, b in fibers:
        deg[a] += 1
        deg[b] += 1
    return sum(d % 2 for d in deg)


def rejoin_lengthens_shorter(node_paths):
    """Whether two trails that meet at a node can be re-joined there (as
    A + D and C + B, or A + reversed C and reversed B + D, for A + B and
    C + D) so that the shorter of the two gets longer."""
    for t, s in itertools.combinations(node_paths, 2):
        for i, u in enumerate(t):
            for j, v in enumerate(s):
                if u == v:
                    a, b, c, d = i, len(t) - 1 - i, j, len(s) - 1 - j
                    shorter = min(a + b, c + d)
                    if min(a + d, c + b) > shorter or min(a + c, b + d) > shorter:
                        return True
    return False


# The default covers of the shipped topologies. The golden scan_budget digest
# (net_a) and acceptance tests 06 and 08 (NSFNET) are computed on them.
SHIPPED_COVERS = {
    "nsfnet.json": [[1, 0, 2, 1, 7], [0, 3, 4, 5, 2], [10, 11, 8, 7, 6, 4],
                    [13, 5, 9, 8, 12], [11, 13, 12, 10, 3]],
    "german.json": [[1, 0, 5, 3, 1, 2, 3, 4, 2], [10, 3, 9, 10, 8, 5, 6, 7, 8],
                    [13, 12, 11, 10, 14, 13, 15, 16, 14, 9, 4]],
    "net_a.json": [[4, 0, 1, 2, 0, 3, 2, 5, 1, 6], [3, 4, 6, 5]],
    "fig_example.json": [[0, 1, 2, 3, 4, 0]],
}


class TestBetaPaths:
    @pytest.mark.parametrize("name", sorted(SHIPPED_COVERS))
    def test_shipped_default_cover_pinned(self, name):
        t = load_topology(data_file(name))
        assert build_beta_paths(t).node_paths == SHIPPED_COVERS[name]

    def test_matches_exhaustive_oracle(self):
        rnd = random.Random(6)
        checked = 0
        while checked < 100:
            n = rnd.randint(2, 12)
            fibers = random_fibers(rnd, n, rnd.randint(0, n))
            odd = odd_count(n, fibers)
            if odd > 10:
                continue
            t = Topology("rand", n, fibers, 4)
            ps = build_beta_paths(t)
            assert ps.node_paths == ref_best_cover(n, fibers), fibers
            assert len(ps.paths) == max(1, odd // 2), fibers
            checked += 1

    def test_matches_oracle_where_walks_stop_early(self, monkeypatch):
        # 8 and 10 odd nodes: hundreds of candidates, most of whose walks stop
        # at a piece shorter than the best's shortest
        walk, stopped = cover._euler_trail, []

        def counted(*args):
            result = walk(*args)
            stopped.append(result is None)
            return result

        monkeypatch.setattr(cover, "_euler_trail", counted)
        rnd = random.Random(19)
        parallel_at_odd = below_ideal = 0
        for target, count in ((8, 6), (10, 5)):
            done = 0
            while done < count:
                n = rnd.randint(target, 14)
                fibers = random_fibers(rnd, n, rnd.randint(0, n))
                fibers += rnd.sample(fibers, rnd.randint(0, 2))
                if odd_count(n, fibers) != target:
                    continue
                expected = ref_best_cover(n, fibers)
                assert build_beta_paths(Topology("rand", n, fibers, 4)).node_paths == expected, fibers
                odd = {u for u in range(n) if sum(u in f for f in fibers) % 2}
                parallel_at_odd += any(fibers.count(f) + fibers.count(f[::-1]) > 1 and set(f) & odd
                                       for f in fibers)
                k, hops = target // 2, [len(p) - 1 for p in expected]
                below_ideal += (min(hops), -max(hops)) < (len(fibers) // k, -len(fibers) // k)
                done += 1
        assert parallel_at_odd and below_ideal and any(stopped)

    @pytest.mark.parametrize("n", range(9))
    def test_pairings_in_reference_order(self, n):
        lst = [3 * i + 1 for i in range(n)]
        assert list(cover._pairings(lst)) == list(_ref_pairings(lst))

    def test_virtual_edge_after_parallel_fibers(self):
        # the best pairing joins 0 and 3, which two fibers already join: the
        # virtual edge 0-3 must come after both in the adjacency of 0 and 3
        fibers = [(1, 0), (2, 0), (3, 0), (4, 3), (4, 0), (3, 0)]
        ps = build_beta_paths(Topology("parallel", 5, fibers, 4))
        assert ps.node_paths == ref_best_cover(5, fibers) == [[1, 0, 3, 0], [3, 4, 0, 2]]

    @pytest.mark.parametrize("n", [40, 80, 120])
    def test_large_covers_valid_and_without_one_hop_trails(self, n):
        # above 10 odd nodes the cover comes from the matching construction
        for seed in range(3):
            rnd = random.Random(1000 * n + seed)
            fibers = random_fibers(rnd, n, n // 2)
            odd = odd_count(n, fibers)
            assert odd > 10
            t = Topology("rand", n, fibers, 4)
            ps = build_beta_paths(t)
            assert sorted(covered_fibers(t, ps)) == list(range(t.fiber_count))
            for nodes, links in zip(ps.node_paths, ps.paths):
                assert len(nodes) == len(links) + 1
                for i, lid in enumerate(links):
                    assert link_ends(t, lid) == (nodes[i], nodes[i + 1])
            assert len(ps.paths) == odd // 2
            assert min(ps.hop_counts) >= 2, (n, seed, ps.hop_counts)
            assert not rejoin_lengthens_shorter(ps.node_paths)

    def test_one_hop_trail_only_where_unavoidable(self):
        # a star with 11 leaves cannot avoid one; the 13-node tree can, with
        # six 2-hop trails
        star = [(0, i) for i in range(1, 12)]
        tree = [(1, 0), (2, 0), (3, 2), (4, 3), (5, 3), (6, 0), (7, 4), (8, 4),
                (9, 3), (10, 6), (11, 2), (12, 6)]
        graphs = [(12, star), (13, tree)]
        rnd = random.Random(11)
        while len(graphs) < 62:
            n = rnd.randint(12, 30)
            fibers = random_fibers(rnd, n, rnd.randint(0, n // 3))
            if odd_count(n, fibers) > 10:
                graphs.append((n, fibers))
        for n, fibers in graphs:
            t = Topology("sparse", n, fibers, 4)
            ps = build_beta_paths(t)
            assert sorted(covered_fibers(t, ps)) == list(range(t.fiber_count))
            assert len(ps.paths) == odd_count(n, fibers) // 2
            assert (min(ps.hop_counts) >= 2) == ref_one_hop_avoidable(n, fibers), fibers

    def test_triangle_euler_circuit(self, triangle):
        ps = build_beta_paths(triangle)
        assert len(ps.paths) == 1
        assert ps.hop_counts == [3]

    def test_star_needs_two_trails(self, star4):
        ps = build_beta_paths(star4)
        assert len(ps.paths) == 2
        assert sorted(covered_fibers(star4, ps)) == [0, 1, 2]
        # oracle: every trail decomposition of a 3-edge star has >= 2 trails
        # (no trail can use more than 2 of the 3 center edges)
        assert all(h <= 2 for h in ps.hop_counts)

    def test_net_a_two_paths(self):
        t = load_topology(data_file("net_a.json"))
        ps = build_beta_paths(t)
        assert len(ps.paths) == 2

    def test_minimal_covers_avoid_degenerate_trails(self):
        # a one-hop trail carries no continuity information; the balanced
        # decomposition keeps every trail at >= 2 hops on the shipped nets
        for name in ["net_a.json", "nsfnet.json", "german.json"]:
            t = load_topology(data_file(name))
            ps = build_beta_paths(t)
            assert min(ps.hop_counts) >= 2, name

    @pytest.mark.parametrize("name", ["net_a.json", "nsfnet.json", "german.json",
                                      "fig_example.json"])
    def test_cover_invariant(self, name):
        t = load_topology(data_file(name))
        ps = build_beta_paths(t)
        seen = covered_fibers(t, ps)
        assert sorted(seen) == sorted(range(t.fiber_count))

    def test_eulerian_single_path_hop_count(self):
        t = load_topology(data_file("fig_example.json"))
        ps = build_beta_paths(t)
        assert len(ps.paths) == 1
        assert ps.hop_counts == [t.fiber_count]

    def test_trails_are_walks(self):
        t = load_topology(data_file("nsfnet.json"))
        ps = build_beta_paths(t)
        for nodes, links in zip(ps.node_paths, ps.paths):
            assert len(nodes) == len(links) + 1
            for i, lid in enumerate(links):
                assert link_ends(t, lid) == (nodes[i], nodes[i + 1])

    def test_requested_count_split(self):
        t = load_topology(data_file("nsfnet.json"))
        ps = build_beta_paths(t, requested_count=10)
        assert len(ps.paths) == 10
        assert not ps.warning
        assert sorted(covered_fibers(t, ps)) == sorted(range(t.fiber_count))

    def test_requested_count_unreachable_warns(self, triangle):
        ps = build_beta_paths(triangle, requested_count=5)
        assert ps.warning
        assert sorted(covered_fibers(triangle, ps)) == [0, 1, 2]

    def test_requested_below_minimum_warns(self, star4):
        ps = build_beta_paths(star4, requested_count=1)
        assert ps.warning
        assert len(ps.paths) == 2


class TestPathFile:
    def test_load_and_validate(self, triangle, tmp_path):
        p = tmp_path / "paths.json"
        p.write_text(json.dumps({"paths": [[0, 1, 2, 0]]}))
        ps = load_beta_paths(str(p), triangle)
        assert len(ps.paths) == 1
        assert ps.hop_counts == [3]

    def test_missing_fiber_rejected(self, triangle, tmp_path):
        p = tmp_path / "paths.json"
        p.write_text(json.dumps({"paths": [[0, 1, 2]]}))
        with pytest.raises(TopologyError, match="cover"):
            load_beta_paths(str(p), triangle)

    def test_repeated_fiber_rejected(self, triangle, tmp_path):
        p = tmp_path / "paths.json"
        p.write_text(json.dumps({"paths": [[0, 1, 0, 1, 2, 0]]}))
        with pytest.raises(TopologyError, match="repeated"):
            load_beta_paths(str(p), triangle)

    def test_shipped_net_a_cover(self):
        t = load_topology(data_file("net_a.json"))
        ps = load_beta_paths(data_file("net_a_paths.json"), t)
        assert len(ps.paths) == 2
        assert sorted(covered_fibers(t, ps)) == sorted(range(t.fiber_count))

    def test_nonadjacent_nodes_rejected(self, line4, tmp_path):
        p = tmp_path / "paths.json"
        p.write_text(json.dumps({"paths": [[0, 3]]}))
        with pytest.raises(TopologyError, match="no fiber"):
            load_beta_paths(str(p), line4)
