"""Minimum trail covers of an undirected multigraph, for the beta path set.

A graph with 2k odd-degree nodes needs at least k trails to cover every
edge once (each odd node ends an odd number of trails), and k suffice;
with no odd node one closed Euler trail covers it. `min_trail_cover`
returns a cover of exactly that many trails, balanced in length, as node
sequences. Edges are fiber ids 0..F-1 with endpoints `fibers[k]`; `adj[u]`
lists u's (neighbour, fiber id) pairs in sorted order.
"""

from __future__ import annotations

import itertools

# Up to this many odd-degree nodes every (endpoints, pairing) candidate is
# tried: 4,725 of them at 10.
EXHAUSTIVE_ODD = 10


def _euler_trail(adj: list[list[int]], ends: list[int], start: int, fiber_count: int,
                 floor: int) -> tuple[tuple[int, int, int], list[int]] | None:
    """(score, edge ids) of the Hierholzer trail from `start`. Edge e joins
    u and u ^ ends[e]; adj[u] lists u's edges in the order tried, then
    len(ends). The score is (shortest, -longest, -count) of the pieces that
    edges >= fiber_count cut the trail into. The trail pops from its end:
    a piece is final once the virtual edge before it pops, and a final
    piece shorter than `floor` gives None."""
    mark = len(ends)
    used = bytearray(mark + 1)
    ptr = [0] * len(adj)
    stack, out, pieces = [], [], []
    run, u = 0, start
    while True:
        lst = adj[u]
        i = ptr[u]
        while used[lst[i]]:
            i += 1
        e = lst[i]
        if e != mark:
            ptr[u] = i + 1
            used[e] = 1
            stack.append(e)
            u ^= ends[e]
        elif stack:
            ptr[u] = i
            e = stack.pop()
            u ^= ends[e]
            out.append(e)
            if e < fiber_count:
                run += 1
            elif run < floor:
                return None
            else:
                pieces.append(run)
                run = 0
        else:
            break
    pieces.append(run)
    return (min(pieces), -max(pieces), -len(pieces)), out[::-1]


def _cut(ends: list[int], fiber_count: int, edges: list[int], start: int) -> list[list[int]]:
    """Node lists of the trails the virtual edges cut the Euler trail
    `edges` from `start` into."""
    trails, cur, u = [], [start], start
    for e in edges:
        u ^= ends[e]
        if e < fiber_count:
            cur.append(u)
        else:
            trails.append(cur)
            cur = [u]
    trails.append(cur)
    return trails


def _pairings(lst):
    """Each split of `lst` into pairs: lst[0] with each later item in turn."""
    if not lst:
        yield []
    for i in range(1, len(lst)):
        for rest in _pairings(lst[1:i] + lst[i + 1:]):
            yield [(lst[0], lst[i])] + rest


def _exhaustive(adj, fibers: list[tuple[int, int]], odd: list[int]) -> list[list[int]]:
    """Node lists of the first best-scoring candidate in (endpoint pair,
    pairing of the other odd nodes) order; with no odd node, of the closed
    trail from node 0. A candidate's virtual edges join its pairs, so one
    Euler trail runs between its endpoints; cut at them, it gives k =
    len(odd) / 2 trails. Virtual edge F + p joins pairs[p], after the
    fibers between its ends; each end's list with it is built once. A walk
    stops at a piece shorter than the best's shortest, which cannot win, so
    covers are those of full walks. No score beats (F // k, -ceil(F / k),
    -k): the first to reach it ends the search."""
    F, k = len(fibers), max(1, len(odd) // 2)
    pairs = list(itertools.combinations(odd, 2))
    ends = [a ^ b for a, b in fibers + pairs]
    mark = [len(ends)]
    ids = [[e for _, e in lst] + mark for lst in adj]
    own = {(a, b): [[e for _, e in sorted(adj[u] + [(v, F + p)])] + mark
                    for u, v in ((a, b), (b, a))] for p, (a, b) in enumerate(pairs)}
    patterns = list(_pairings(list(range(len(odd) - 2))))
    ideal, best = (F // k, -F // k, -k), ((0,), [], 0)
    for e1, e2 in pairs or [(0, 0)]:
        rest = [u for u in odd if u not in (e1, e2)]
        cand = ids[:]
        for pattern in patterns:
            for i, j in pattern:
                a, b = rest[i], rest[j]
                cand[a], cand[b] = own[a, b]
            walk = _euler_trail(cand, ends, e1, F, best[0][0])
            if walk and walk[0] > best[0]:
                best = *walk, e1
                if walk[0] == ideal:
                    return _cut(ends, F, walk[1], e1)
    return _cut(ends, F, best[1], best[2])


def _end_fibers(adj, odd: list[int]) -> dict[int, int]:
    """The fiber on which each odd node's trail ends.

    A fiber chosen at both its ends would be a one-hop trail, so this is a
    maximum bipartite matching of odd nodes to incident fibers, grown by
    breadth-first augmenting paths. A node left unmatched (when no cover
    avoids a one-hop trail) takes its first fiber."""
    owner: dict[int, int] = {}
    for u in odd:
        parent = {u: None}
        queue = [u]
        for x in queue:
            k = next((k for _, k in adj[x] if k not in owner), None)
            if k is not None:
                while True:  # x takes k and hands its own fiber back up the path
                    owner[k] = x
                    if parent[x] is None:
                        break
                    x, k = parent[x]
                break
            for _, k in adj[x]:
                if owner[k] not in parent:
                    parent[owner[k]] = (x, k)
                    queue.append(owner[k])
    end_fiber = {x: k for k, x in owner.items()}
    for u in odd:
        end_fiber.setdefault(u, adj[u][0][1])
    return end_fiber


def _walked_cover(adj, fibers: list[tuple[int, int]],
                  odd: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """(node lists, fiber lists) of one trail per pair of odd nodes.

    Each odd node's trail ends on its end fiber; at every node the other
    fibers pair up in adjacency order, and trails are walked from the end
    fibers. A closed walk this leaves is spliced into a trail at a node
    they share; the graph is connected, so one always exists."""
    end_fiber = _end_fibers(adj, odd)
    partner = {}
    for u, lst in enumerate(adj):
        through = [k for _, k in lst if k != end_fiber.get(u)]
        for a, b in zip(through[::2], through[1::2]):
            partner[u, a], partner[u, b] = b, a
    used = bytearray(len(fibers))

    def walk(x, k):
        nodes, trail = [x], []
        while not used[k]:
            used[k] = 1
            trail.append(k)
            a, b = fibers[k]
            x = b if x == a else a
            nodes.append(x)
            if end_fiber.get(x) != k:
                k = partner[x, k]
        return nodes, trail

    trails = [walk(u, end_fiber[u]) for u in odd if not used[end_fiber[u]]]
    closed = [walk(fibers[k][0], k) for k in range(len(fibers)) if not used[k]]
    tn, tf = map(list, zip(*trails))
    while closed:
        where = {x: (j, i) for j, ns in enumerate(tn) for i, x in enumerate(ns)}
        c, p = next((c, p) for c, (cn, _) in enumerate(closed)
                    for p, x in enumerate(cn) if x in where)
        cn, cf = closed.pop(c)
        j, i = where[cn[p]]
        tn[j] = tn[j][:i] + cn[p:-1] + cn[:p + 1] + tn[j][i + 1:]
        tf[j] = tf[j][:i] + cf[p:] + cf[:p] + tf[j][i:]
    return tn, tf


def _swaps(tn: list[list[int]], tf: list[list[int]]):
    """Every 2-opt swap that lengthens the shorter of the two trails it
    touches, as (t, i, s, j, option). Trails t != s meet at node tn[t][i] ==
    tn[s][j], which splits them into A + B and C + D; option 0 makes A + D
    and C + B, option 1 makes A + reversed C and reversed B + D."""
    at: dict[int, list[tuple[int, int]]] = {}
    for s, ns in enumerate(tn):
        for i, u in enumerate(ns):
            at.setdefault(u, []).append((s, i))
    for visits in at.values():
        for (t, i), (s, j) in itertools.combinations(visits, 2):
            if t != s:
                a, b, c, d = i, len(tf[t]) - i, j, len(tf[s]) - j
                shorter = min(a + b, c + d)
                if min(a + d, c + b) > shorter:
                    yield t, i, s, j, 0
                if min(a + c, b + d) > shorter:
                    yield t, i, s, j, 1


def _balance(tn: list[list[int]], tf: list[list[int]]) -> None:
    """Apply 2-opt swaps until none is left. A swap keeps every trail end
    and never lowers the shortest trail or raises the longest; each one
    lowers the sum of squared lengths, so the loop ends."""
    while (move := next(_swaps(tn, tf), None)) is not None:
        t, i, s, j, option = move
        nt, ft, ns, fs = tn[t], tf[t], tn[s], tf[s]
        if option == 0:
            tn[t], tf[t] = nt[:i + 1] + ns[j + 1:], ft[:i] + fs[j:]
            tn[s], tf[s] = ns[:j + 1] + nt[i + 1:], fs[:j] + ft[i:]
        else:
            tn[t], tf[t] = nt[:i + 1] + ns[:j][::-1], ft[:i] + fs[:j][::-1]
            tn[s], tf[s] = nt[i + 1:][::-1] + ns[j:], ft[i:][::-1] + fs[j:]


def min_trail_cover(adj: list[list[tuple[int, int]]],
                    fibers: list[tuple[int, int]]) -> list[list[int]]:
    """Node lists of a minimum trail cover of a connected graph, balanced in
    length, since one-hop trails carry no continuity information: up to
    EXHAUSTIVE_ODD odd nodes the best candidate of `_exhaustive`; above
    that, in polynomial time, the trails of `_walked_cover`, balanced by
    `_balance`."""
    odd = [u for u, lst in enumerate(adj) if len(lst) % 2 == 1]
    if len(odd) > EXHAUSTIVE_ODD:
        tn, tf = _walked_cover(adj, fibers, odd)
        _balance(tn, tf)
        return tn
    return _exhaustive(adj, fibers, odd)
