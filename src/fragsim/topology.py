"""Network graph model, hop-count routing and construction of the beta path cover.

A topology is loaded from a JSON file listing bidirectional fibers; each fiber
expands to two directed links (id 2k forward, 2k+1 reverse). All links share
one spectrum grid size. Instances are immutable after construction and safe
to share between simulation replications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class TopologyError(ValueError):
    """Raised when a topology or path file fails validation."""


@dataclass(frozen=True)
class Link:
    id: int
    src: int
    dst: int
    slice_count: int


@dataclass
class Topology:
    name: str
    node_count: int
    slice_count: int
    links: list[Link]
    # per-node list of outgoing link ids, sorted by (dst, id)
    adjacency: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if self.node_count <= 0:
            raise TopologyError("node_count must be positive")
        if self.slice_count <= 0:
            raise TopologyError("slice_count must be positive")
        for ln in self.links:
            if not (0 <= ln.src < self.node_count and 0 <= ln.dst < self.node_count):
                raise TopologyError(f"link {ln.id}: dangling node index ({ln.src},{ln.dst})")
            if ln.src == ln.dst:
                raise TopologyError(f"link {ln.id}: self loop")
            if ln.slice_count != self.slice_count:
                raise TopologyError(f"link {ln.id}: nonuniform slice_count")
        if len(self.links) % 2 != 0:
            raise TopologyError("links must come in forward/reverse pairs")
        for k in range(self.fiber_count):
            f, r = self.links[2 * k], self.links[2 * k + 1]
            if (f.src, f.dst) != (r.dst, r.src):
                raise TopologyError(f"fiber {k}: links {f.id},{r.id} are not reverses")
        if not self.adjacency:
            adj = [[] for _ in range(self.node_count)]
            for ln in self.links:
                adj[ln.src].append(ln.id)
            for lst in adj:
                lst.sort(key=lambda i: (self.links[i].dst, i))
            self.adjacency = adj
        self._check_connected()

    @property
    def fiber_count(self) -> int:
        return len(self.links) // 2

    @property
    def link_count(self) -> int:
        return len(self.links)

    def fiber(self, k: int) -> tuple[int, int]:
        """Endpoints (a, b) of fiber k; the forward link runs a -> b."""
        ln = self.links[2 * k]
        return ln.src, ln.dst

    def _check_connected(self):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for lid in self.adjacency[u]:
                v = self.links[lid].dst
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.node_count:
            raise TopologyError("graph is not connected")

    @classmethod
    def from_fibers(cls, name: str, node_count: int, fibers: list[tuple[int, int]],
                    slice_count: int) -> "Topology":
        links = []
        for k, (a, b) in enumerate(fibers):
            links.append(Link(2 * k, a, b, slice_count))
            links.append(Link(2 * k + 1, b, a, slice_count))
        return cls(name, node_count, slice_count, links)


def load_topology(path: str) -> Topology:
    """Load and validate a topology JSON file; a file that cannot be read
    raises OSError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"cannot parse topology file {path}: {exc}") from exc
    try:
        name = doc.get("name", path)
        nodes = int(doc["nodes"])
        slices = int(doc["slice_count"])
        fibers = [(int(a), int(b)) for a, b in doc["fibers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology file {path}: {exc}") from exc
    return Topology.from_fibers(name, nodes, fibers, slices)


def all_pairs_routes(t: Topology) -> dict[tuple[int, int], list[int]]:
    """The fixed minimum-hop route, as directed link ids, for every ordered
    node pair.

    Ties are broken by choosing the lowest-index predecessor at every step
    (and the lowest link id between a node pair), so routes are identical
    run to run: the breadth-first search expands each level in node order
    and each node's links in (dst, id) order, so the first link to reach a
    node is the one the rule picks.
    """
    routes = {}
    for src in range(t.node_count):
        parent_link = [-1] * t.node_count
        seen = {src}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for lid in t.adjacency[u]:
                    v = t.links[lid].dst
                    if v not in seen:
                        seen.add(v)
                        parent_link[v] = lid
                        nxt.append(v)
            frontier = sorted(nxt)
        for dst in range(t.node_count):
            if dst == src:
                continue
            route = []
            v = dst
            while v != src:
                route.append(parent_link[v])
                v = t.links[parent_link[v]].src
            route.reverse()
            routes[(src, dst)] = route
    return routes


@dataclass
class BetaPathSet:
    """The link-covering trail collection used by the continuity component.

    Each path is a trail over fibers: a fiber appears at most once per path
    and every fiber of the topology is covered by exactly one path, read in
    the direction of traversal.
    """
    paths: list[list[int]]        # directed link ids per trail
    node_paths: list[list[int]]   # node sequence per trail
    hop_counts: list[int] = field(init=False)
    # (trails x longest trail) link ids, each trail padded with -1 (a busy row)
    hop_index: np.ndarray = field(init=False, repr=False, compare=False)
    warning: bool = False         # requested path count could not be met

    def __post_init__(self):
        self.hop_counts = [len(p) for p in self.paths]
        width = max(self.hop_counts, default=0)
        self.hop_index = np.array([p + [-1] * (width - len(p)) for p in self.paths],
                                  dtype=np.intp).reshape(len(self.paths), width)


def _euler_trail(adj: dict[int, list[tuple[int, int]]], start: int,
                 edge_count: int) -> tuple[list[int], list[int]]:
    """Hierholzer on an undirected multigraph; returns (nodes, edge ids)."""
    ptr = {u: 0 for u in adj}
    used = set()
    stack_nodes = [start]
    stack_edges = []
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
    if len(out_edges) != edge_count:
        raise TopologyError("euler trail construction failed (graph disconnected?)")
    return out_nodes, out_edges


def _decompose(t: Topology, endpoints: tuple[int, int] | None,
               pairing: list[tuple[int, int]]) -> tuple[list[list[int]], list[list[int]]]:
    """One trail decomposition: add virtual edges per `pairing`, take the
    Euler trail from endpoints[0], cut it at the virtual edges."""
    F = t.fiber_count
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in range(t.node_count)}
    for k in range(F):
        a, b = t.fiber(k)
        adj[a].append((k, b))
        adj[b].append((k, a))
    virtual = set()
    for i, (a, b) in enumerate(pairing):
        eid = F + i
        virtual.add(eid)
        adj[a].append((eid, b))
        adj[b].append((eid, a))
    for u in adj:
        adj[u].sort(key=lambda e: (e[1], e[0]))
    start = endpoints[0] if endpoints else 0
    nodes, edges = _euler_trail(adj, start, F + len(virtual))

    trails_nodes: list[list[int]] = []
    trails_fibers: list[list[int]] = []
    cur_n, cur_f = [nodes[0]], []
    for i, eid in enumerate(edges):
        v = nodes[i + 1]
        if eid in virtual:
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


_PAIRING_BUDGET = 5000


def _pairings(lst):
    if not lst:
        yield []
        return
    a = lst[0]
    for i in range(1, len(lst)):
        for rest in _pairings(lst[1:i] + lst[i + 1:]):
            yield [(a, lst[i])] + rest


def build_beta_paths(t: Topology, requested_count: int | None = None) -> BetaPathSet:
    """Build the trail cover of all fibers used by the continuity component.

    If the undirected fiber graph has an Euler trail, a single trail covers
    everything. Otherwise, with 2k odd-degree nodes, k-1 virtual edges pair
    up odd nodes so one Euler trail exists; cutting that trail at the
    virtual edges yields k trails, the minimum possible cover. Among the
    possible endpoint/pairing choices (bounded deterministic enumeration)
    the decomposition with the most balanced trail lengths is kept, since
    degenerate one-hop trails carry no continuity information.

    When requested_count exceeds the minimum, trails are split to reach the
    requested cardinality; when it cannot be met the achieved cover is
    returned with the warning flag set.
    """
    import itertools

    deg = [0] * t.node_count
    for k in range(t.fiber_count):
        a, b = t.fiber(k)
        deg[a] += 1
        deg[b] += 1
    odd = [u for u in range(t.node_count) if deg[u] % 2 == 1]

    if not odd:
        trails_nodes, trails_fibers = _decompose(t, None, [])
    else:
        candidates = (((e1, e2), pairing) for e1, e2 in itertools.combinations(odd, 2)
                      for pairing in _pairings([u for u in odd if u not in (e1, e2)]))
        best = None
        for endpoints, pairing in itertools.islice(candidates, _PAIRING_BUDGET):
            tn, tf = _decompose(t, endpoints, pairing)
            lengths = sorted(len(f) for f in tf)
            score = (lengths[0], -lengths[-1], -len(tf))
            if best is None or score > best[0]:
                best = (score, tn, tf)
        _, trails_nodes, trails_fibers = best

    warning = False
    if requested_count is not None:
        if requested_count < len(trails_fibers):
            warning = True
        else:
            while len(trails_fibers) < requested_count:
                longest = max(range(len(trails_fibers)), key=lambda i: len(trails_fibers[i]))
                if len(trails_fibers[longest]) < 2:
                    warning = True
                    break
                fs, ns = trails_fibers.pop(longest), trails_nodes.pop(longest)
                cut = len(fs) // 2
                trails_fibers += [fs[:cut], fs[cut:]]
                trails_nodes += [ns[:cut + 1], ns[cut:]]

    link_paths = [_fibers_to_links(t, ns, fs) for ns, fs in zip(trails_nodes, trails_fibers)]
    return BetaPathSet(link_paths, trails_nodes, warning=warning)


def _fibers_to_links(t: Topology, node_seq: list[int], fiber_seq: list[int]) -> list[int]:
    links = []
    for i, k in enumerate(fiber_seq):
        u = node_seq[i]
        a, _ = t.fiber(k)
        links.append(2 * k if a == u else 2 * k + 1)
    return links


def load_beta_paths(path: str, t: Topology) -> BetaPathSet:
    """Load a user-supplied path file (node sequences) and validate trails;
    a file that cannot be read raises OSError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        node_paths = [[int(n) for n in p] for p in doc["paths"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"cannot parse path file {path}: {exc}") from exc

    fiber_of = {}
    for k in range(t.fiber_count):
        a, b = t.fiber(k)
        fiber_of[(a, b)] = k
        fiber_of[(b, a)] = k
    covered = set()
    link_paths = []
    for ns in node_paths:
        if len(ns) < 2:
            raise TopologyError("path must have at least one hop")
        seen_here = set()
        fibers = []
        for u, v in zip(ns, ns[1:]):
            k = fiber_of.get((u, v))
            if k is None:
                raise TopologyError(f"no fiber between nodes {u} and {v}")
            if k in seen_here:
                raise TopologyError(f"fiber {k} repeated within one path")
            seen_here.add(k)
            fibers.append(k)
        covered |= seen_here
        link_paths.append(_fibers_to_links(t, ns, fibers))
    if covered != set(range(t.fiber_count)):
        missing = sorted(set(range(t.fiber_count)) - covered)
        raise TopologyError(f"paths do not cover fibers {missing}")
    return BetaPathSet(link_paths, node_paths)
