"""Network graph model, hop-count routing and the beta path cover.

A topology is its list of bidirectional fibers, loaded from a JSON file.
Fiber k = (a, b) is directed link 2k from a to b and link 2k+1 from b to
a, and all links share one spectrum grid size. Instances are immutable
after construction and safe to share between simulation replications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class TopologyError(ValueError):
    """Raised when a topology, path or config file fails validation."""


@dataclass
class Topology:
    name: str
    node_count: int
    fibers: list[tuple[int, int]]
    slice_count: int
    # the sha256 of the file it was loaded from; "" for one built in code
    sha256: str = field(default="", compare=False)
    # per node, the sorted (dst, id) pairs of its outgoing links
    adjacency: list[list[tuple[int, int]]] = field(init=False)

    def __post_init__(self):
        if self.node_count <= 0:
            raise TopologyError("node_count must be positive")
        if self.slice_count <= 0:
            raise TopologyError("slice_count must be positive")
        if not self.fibers:
            raise TopologyError("topology has no fibers")
        for k, (a, b) in enumerate(self.fibers):
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise TopologyError(f"fiber {k}: dangling node index ({a},{b})")
            if a == b:
                raise TopologyError(f"fiber {k}: self loop")
        # a connected graph has at most fibers + 1 nodes: checked before any per-node list
        if self.node_count > len(self.fibers) + 1:
            raise TopologyError("graph is not connected")
        self.adjacency = [[] for _ in range(self.node_count)]
        for k, (a, b) in enumerate(self.fibers):
            self.adjacency[a].append((b, 2 * k))
            self.adjacency[b].append((a, 2 * k + 1))
        for lst in self.adjacency:
            lst.sort()
        if len(_reached_by(self, 0)) != self.node_count:
            raise TopologyError("graph is not connected")

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    @property
    def link_count(self) -> int:
        return 2 * len(self.fibers)

    @cached_property
    def routes(self) -> dict[tuple[int, int], list[int]]:
        """`all_pairs_routes` of this topology, computed on first read and
        shared by every reader after it."""
        return all_pairs_routes(self)


def _json_int(value, what: str) -> int:
    """A JSON integer; floats are not truncated, and bools (a subclass of
    int) are refused."""
    if type(value) is not int:
        raise TopologyError(f"{what} must be an integer, got {value!r}")
    return value


def read_json(path: str, what: str):
    """The JSON document in the `what` file at `path`. A file that is not
    UTF-8 JSON raises TopologyError naming it; one that cannot be read
    raises OSError."""
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path, what)


def _parse_json(raw: bytes, path: str, what: str):
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise TopologyError(f"cannot parse {what} file {path}: {exc}") from exc


def load_topology(path: str) -> Topology:
    """Load and validate a topology JSON file, read once; a file that
    cannot be read raises OSError."""
    import hashlib  # here, not with the module: 0.09-0.15 MB less benchmark peak RSS
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = _parse_json(raw, path, "topology")
    if not isinstance(doc, dict):
        raise TopologyError(f"topology file {path} must hold a JSON object")
    try:
        name = doc.get("name", path)
        nodes = _json_int(doc["nodes"], "nodes")
        slices = _json_int(doc["slice_count"], "slice_count")
        fibers = [tuple(_json_int(n, f"fibers[{k}] endpoint") for n in (a, b))
                  for k, (a, b) in enumerate(doc["fibers"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology file {path}: {exc}") from exc
    # the chequered bound behind the normalised metrics needs two slices
    if slices < 2:
        raise TopologyError(f"{path}: slice_count must be at least 2, got {slices}")
    return Topology(name, nodes, fibers, slices, hashlib.sha256(raw).hexdigest())


def _reached_by(t: Topology, src: int) -> dict[int, tuple[int, int]]:
    """Breadth-first search from `src`: each node it reaches, in the order
    reached, mapped to the (predecessor, link id) it was first reached by;
    `src` itself maps to (src, -1). Each level is expanded in node order and
    each node's links in (dst, id) order."""
    via = {src: (src, -1)}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v, lid in t.adjacency[u]:
                if v not in via:
                    via[v] = (u, lid)
                    nxt.append(v)
        frontier = sorted(nxt)
    return via


def all_pairs_routes(t: Topology) -> dict[tuple[int, int], list[int]]:
    """The fixed minimum-hop route, as directed link ids, for every ordered
    node pair.

    Ties are broken by choosing the lowest-index predecessor at every step
    (and the lowest link id between a node pair), so routes are identical
    run to run: in the order `_reached_by` expands, the first link to reach
    a node is the one the rule picks.
    """
    routes = {}
    for src in range(t.node_count):
        hops = {}
        # a predecessor is reached before the nodes it leads to
        for v, (u, lid) in _reached_by(t, src).items():
            hops[v] = hops[u] + [lid] if v != src else []
        for dst in range(t.node_count):
            if dst != src:
                routes[src, dst] = hops[dst]
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
    """The trail cover of all fibers used by the continuity component:
    `cover.min_trail_cover`. When requested_count exceeds its size, the
    longest trail is split in two until the cover has that many; when the
    count cannot be met the achieved cover is returned with the warning
    flag set."""
    from .cover import min_trail_cover  # compiled only by a run that builds a cover
    # per node, (neighbour, fiber id) in sorted order: the link order of adjacency
    adj = [[(v, lid // 2) for v, lid in out] for out in t.adjacency]
    trails = min_trail_cover(adj, t.fibers)

    warning = False
    if requested_count is not None:
        if requested_count < len(trails):
            warning = True
        else:
            while len(trails) < requested_count:
                longest = max(range(len(trails)), key=lambda i: len(trails[i]))
                if len(trails[longest]) < 3:
                    warning = True
                    break
                ns = trails.pop(longest)
                cut = (len(ns) - 1) // 2
                trails += [ns[:cut + 1], ns[cut:]]

    return BetaPathSet(_link_paths(t, trails), trails, warning=warning)


def _link_paths(t: Topology, node_paths: list[list[int]]) -> list[list[int]]:
    """The directed link ids of each node path. Each hop takes the lowest-id
    fiber between its two nodes that no earlier hop, in this path or an
    earlier one, has used, so parallel fibers are told apart the same way in
    a built cover and in one loaded from its node paths."""
    unused = {}
    for k in reversed(range(t.fiber_count)):
        unused.setdefault(frozenset(t.fibers[k]), []).append(k)
    link_paths = []
    for ns in node_paths:
        lids = []
        for u, v in zip(ns, ns[1:]):
            left = unused.get(frozenset((u, v)))
            if left is None:
                raise TopologyError(f"no fiber between nodes {u} and {v}")
            if not left:
                raise TopologyError(f"fiber between nodes {u} and {v} repeated: "
                                    "the paths must cover each fiber exactly once")
            k = left.pop()
            lids.append(2 * k if t.fibers[k][0] == u else 2 * k + 1)
        link_paths.append(lids)
    return link_paths


def load_beta_paths(path: str, t: Topology) -> BetaPathSet:
    """Load a user-supplied path file (node sequences) and validate that its
    trails cover every fiber exactly once; a file that cannot be read raises
    OSError."""
    doc = read_json(path, "path")
    if not (isinstance(doc, dict) and isinstance(doc.get("paths"), list)
            and all(isinstance(p, list) for p in doc["paths"])):
        raise TopologyError(f"path file {path} must hold a JSON object "
                            '{"paths": [[node, node, ...], ...]}')
    node_paths = [[_json_int(n, f"paths[{i}][{j}]") for j, n in enumerate(p)]
                  for i, p in enumerate(doc["paths"])]
    if any(len(ns) < 2 for ns in node_paths):
        raise TopologyError("path must have at least one hop")
    link_paths = _link_paths(t, node_paths)
    covered = {lid // 2 for lids in link_paths for lid in lids}
    if len(covered) != t.fiber_count:
        missing = sorted(set(range(t.fiber_count)) - covered)
        raise TopologyError(f"paths do not cover fibers {missing}")
    return BetaPathSet(link_paths, node_paths)
