"""Naive reference implementations used as oracles.

Everything here is written as literal loops over list-of-bool grids and
must stay independent of the library's bitmask/numpy code paths.
"""

import heapq
import itertools


def link_ends(t, lid):
    """(src, dst) of directed link `lid` of topology `t`: fiber lid // 2,
    read forward for an even id and reversed for an odd one."""
    a, b = t.fibers[lid // 2]
    return (a, b) if lid % 2 == 0 else (b, a)


def max_run(bits):
    best = cur = 0
    for b in bits:
        cur = cur + 1 if b else 0
        if cur > best:
            best = cur
    return best


def ref_alpha(free_grids):
    terms = []
    for row in free_grids:
        ss = sum(1 for b in row if b)
        if ss:
            terms.append(max_run(row) / ss)
    return sum(terms) / len(terms) if terms else None


def ref_beta(free_grids, hop_paths):
    per_path = []
    any_free = False
    for hops in hop_paths:
        terms = []
        for j in range(len(free_grids[0])):
            col = [free_grids[l][j] for l in hops]
            avail = sum(1 for b in col if b)
            if avail:
                terms.append(max_run(col) / avail)
        if terms:
            any_free = True
            per_path.append(sum(terms) / len(terms))
        else:
            per_path.append(1.0)
    if not any_free:
        return None
    return sum(per_path) / len(per_path)


def ref_lefm(free_grids):
    total = sum(sum(1 for b in row if b) for row in free_grids)
    if total == 0:
        return None
    return 1.0 - sum(max_run(row) for row in free_grids) / total


class RefSim:
    """Dead-simple simulator: BFS routes, scan-all-starts first fit,
    boolean occupancy grids. Same tie-break rules as the library."""

    def __init__(self, node_count, fibers, slice_count):
        self.n = node_count
        self.s = slice_count
        self.links = []  # (src, dst) with fiber k -> ids 2k, 2k+1
        for a, b in fibers:
            self.links.append((a, b))
            self.links.append((b, a))
        self.busy = [[False] * slice_count for _ in self.links]
        self.departures = []
        self.active = {}
        self.blocked = 0
        self.total = 0

    def route(self, src, dst):
        dist = [None] * self.n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for lid, (a, b) in enumerate(self.links):
                    if a == u and dist[b] is None:
                        dist[b] = dist[u] + 1
                        nxt.append(b)
            frontier = nxt
        path = []
        v = dst
        while v != src:
            best = None
            for lid, (a, b) in enumerate(self.links):
                if b == v and dist[a] == dist[v] - 1:
                    if best is None or (a, lid) < best:
                        best = (a, lid)
            path.append(best[1])
            v = best[0]
        path.reverse()
        return path

    def first_fit(self, route, width):
        for start in range(self.s - width + 1):
            ok = True
            for lid in route:
                for j in range(start, start + width):
                    if self.busy[lid][j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return start
        return None

    def arrival(self, demand):
        while self.departures and self.departures[0][0] <= demand.arrival_time:
            _, cid = heapq.heappop(self.departures)
            route, start, width = self.active.pop(cid)
            for lid in route:
                for j in range(start, start + width):
                    self.busy[lid][j] = False
        self.total += 1
        route = self.route(demand.src, demand.dst)
        start = self.first_fit(route, demand.width)
        if start is None:
            self.blocked += 1
            return False
        for lid in route:
            for j in range(start, start + demand.width):
                self.busy[lid][j] = True
        self.active[demand.id] = (route, start, demand.width)
        heapq.heappush(self.departures,
                       (demand.arrival_time + demand.holding_time, demand.id))
        return True

    def free_grids(self):
        return [[not b for b in row] for row in self.busy]


def _ref_pairings(lst):
    if not lst:
        yield []
        return
    a = lst[0]
    for i in range(1, len(lst)):
        for rest in _ref_pairings(lst[1:i] + lst[i + 1:]):
            yield [(a, lst[i])] + rest


def _ref_decompose(node_count, fibers, start, pairing):
    """Add one virtual edge per pair, walk the Euler trail from start
    (Hierholzer, each node's edges tried in (neighbour, edge id) order) and
    cut it at the virtual edges; returns (node lists, fiber lists)."""
    F = len(fibers)
    edges = list(fibers) + list(pairing)
    adj = {u: [] for u in range(node_count)}
    for eid, (a, b) in enumerate(edges):
        adj[a].append((eid, b))
        adj[b].append((eid, a))
    for u in adj:
        adj[u].sort(key=lambda e: (e[1], e[0]))
    ptr = {u: 0 for u in adj}
    used = set()
    stack_nodes, stack_edges = [start], []
    out_nodes, out_edges = [], []
    while stack_nodes:
        u = stack_nodes[-1]
        lst = adj[u]
        i = ptr[u]
        while i < len(lst) and lst[i][0] in used:
            i += 1
        ptr[u] = i
        if i == len(lst):
            out_nodes.append(stack_nodes.pop())
            if stack_edges:
                out_edges.append(stack_edges.pop())
        else:
            eid, v = lst[i]
            used.add(eid)
            stack_nodes.append(v)
            stack_edges.append(eid)
    out_nodes.reverse()
    out_edges.reverse()
    assert len(out_edges) == len(edges)
    trails_nodes, trails_fibers = [], []
    cur_n, cur_f = [out_nodes[0]], []
    for i, eid in enumerate(out_edges):
        v = out_nodes[i + 1]
        if eid >= F:
            if cur_f:
                trails_nodes.append(cur_n)
                trails_fibers.append(cur_f)
            cur_n, cur_f = [v], []
        else:
            cur_n.append(v)
            cur_f.append(eid)
    if cur_f:
        trails_nodes.append(cur_n)
        trails_fibers.append(cur_f)
    return trails_nodes, trails_fibers


def ref_best_cover(node_count, fibers):
    """Node lists of the best trail cover by exhaustive search: every
    (endpoint pair, pairing of the other odd nodes) in enumeration order,
    scored by (shortest, -longest, -count) of the trail lengths, the first
    strict maximum kept."""
    deg = [0] * node_count
    for a, b in fibers:
        deg[a] += 1
        deg[b] += 1
    odd = [u for u in range(node_count) if deg[u] % 2 == 1]
    if not odd:
        return _ref_decompose(node_count, fibers, 0, [])[0]
    best = None
    for e1, e2 in itertools.combinations(odd, 2):
        for pairing in _ref_pairings([u for u in odd if u not in (e1, e2)]):
            tn, tf = _ref_decompose(node_count, fibers, e1, pairing)
            lengths = sorted(len(f) for f in tf)
            score = (lengths[0], -lengths[-1], -len(tf))
            if best is None or score > best[0]:
                best = (score, tn)
    return best[1]


def ref_one_hop_avoidable(node_count, fibers):
    """Whether some minimum trail cover has no one-hop trail. In a minimum
    cover each odd node ends exactly one trail, so that holds when every
    odd node can end its trail on a fiber of its own (Kuhn's augmenting
    paths)."""
    deg = [0] * node_count
    for a, b in fibers:
        deg[a] += 1
        deg[b] += 1
    owner = {}

    def augment(u, seen):
        for k, (a, b) in enumerate(fibers):
            if u in (a, b) and k not in seen:
                seen.add(k)
                if k not in owner or augment(owner[k], seen):
                    owner[k] = u
                    return True
        return False

    return all(augment(u, set()) for u in range(node_count) if deg[u] % 2 == 1)
