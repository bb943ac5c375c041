"""Network graph model, hop-count routing and construction of the beta path cover.

A topology is loaded from a JSON file listing bidirectional fibers; each fiber
expands to two directed links (id 2k forward, 2k+1 reverse). All links share
one spectrum grid size. Instances are immutable after construction and safe
to share between simulation replications. The trails of the beta path cover
come from `cover.min_trail_cover`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cover import min_trail_cover


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
        if not self.links:
            raise TopologyError("topology has no fibers")
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
    # the chequered bound behind the normalised metrics needs two slices
    if slices < 2:
        raise TopologyError(f"{path}: slice_count must be at least 2, got {slices}")
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


def build_beta_paths(t: Topology, requested_count: int | None = None) -> BetaPathSet:
    """Build the trail cover of all fibers used by the continuity component.

    If the undirected fiber graph has an Euler trail, a single trail covers
    everything. Otherwise, with 2k odd-degree nodes, k trails is the
    minimum possible cover, and every cover built here has exactly k.
    Trails are kept balanced, since degenerate one-hop trails carry no
    continuity information.

    Up to 10 odd nodes, k-1 virtual edges pair up odd nodes so one Euler
    trail exists, and cutting it at the virtual edges yields the k trails.
    Every choice of endpoints and pairing is tried in a fixed order and the
    first to maximise (shortest, -longest, -count) of the trail lengths is
    kept; the search stops early at the best possible score. Above 10 odd
    nodes, in polynomial time: each odd node is matched to a fiber of its
    own to end its trail on, which avoids one-hop trails wherever any
    minimum cover does, and 2-opt swaps where two trails meet then balance
    the lengths.

    When requested_count exceeds the minimum, trails are split to reach the
    requested cardinality; when it cannot be met the achieved cover is
    returned with the warning flag set.
    """
    # per node, (neighbour, fiber id) in sorted order: the link order of adjacency
    adj = [[(t.links[lid].dst, lid // 2) for lid in out] for out in t.adjacency]
    fibers = [t.fiber(k) for k in range(t.fiber_count)]
    trails_nodes, trails_fibers = min_trail_cover(adj, fibers)

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
