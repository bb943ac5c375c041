"""A fixed reference loop that measures how fast the machine runs right now.

The loop is a small event-driven loss simulation of the same kind of work
fragsim does (Philox draws, a heap of departures, first-fit by
shift-and-AND over 320-bit Python ints, numpy unpacks and maxima for
snapshots). It never changes, so its time tracks the machine's current
speed and nothing else. `child.py` times it just before and just after
`cli.main`.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

ARRIVALS = 4000
# the loop's time at full speed on a 2-vCPU Xeon (KVM) VM (the fastest of
# about 1000 passes); it only sets the scale of the calibrated figures
NOMINAL_S = 0.028


def reference_s(arrivals: int = ARRIVALS) -> float:
    """Wall time of one pass of the reference loop, in seconds."""
    t0 = time.perf_counter()
    links, slices, nodes = 42, 320, 14
    full = (1 << slices) - 1
    pairs = [(s, d) for s in range(nodes) for d in range(nodes) if s != d]
    routes = {p: [(p[0] * 3 + k * p[1]) % links for k in range(2 + (p[0] + p[1]) % 4)]
              for p in pairs}
    occ = [0] * links
    heap = []
    gen = np.random.Generator(np.random.Philox(key=[7, 1]))
    clock = 0.0
    seq = 0
    best = np.zeros(slices, dtype=np.int32)
    for r in range(arrivals):
        clock += gen.exponential(1.0 / 1000.0)
        while heap and heap[0][0] <= clock:
            _, _, route, mask = heapq.heappop(heap)
            for lid in route:
                occ[lid] &= ~mask
        route = routes[pairs[int(gen.integers(len(pairs)))]]
        width = int(gen.integers(1, 17))
        m = full
        for lid in route:
            m &= ~occ[lid]
        m &= full
        for _ in range(width - 1):
            m &= m >> 1
        if m:
            mask = ((1 << width) - 1) << ((m & -m).bit_length() - 1)
            for lid in route:
                occ[lid] |= mask
            seq += 1
            heapq.heappush(heap, (clock + gen.exponential(1.0), seq, route, mask))
        if r % 100 == 0:
            for lid in range(links):
                raw = (full & ~occ[lid]).to_bytes(slices // 8, "little")
                bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
                np.maximum(best, bits.astype(np.int32), out=best)
    return time.perf_counter() - t0
