"""Stochastic demand generation and the heap of pending departures.

Arrivals follow a merged Poisson process: one exponential clock at rate
N * lambda with a uniform source draw, statistically identical to N
independent per-node processes, so arrivals come one at a time in time
order and only departures need a queue. Holding times are exponential,
widths discrete-uniform on [1, max_demand].

Randomness comes from the counter-based Philox generator keyed by
(seed, replication index), so replications are independent streams and
every run is reproducible from its metadata. `DemandGenerator.stream`
yields the demands as plain tuples, its draw state in locals. The two
exponentials are numpy's own draws. The three integers come from the raw
Philox words by numpy's algorithm for `Generator.integers` (Lemire's
bounded multiply with rejection, on 32-bit halves of the words): exactly
numpy's values, at a fraction of its per-call cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Iterator, NamedTuple

import numpy as np

RNG_NAME = "philox4x64"

_WORD = 0xFFFFFFFF  # low 32-bit half of a raw Philox word


@dataclass
class DemandProfile:
    arrival_rate_per_node: float   # lambda, requests per time unit per node
    mean_holding: float            # 1/mu, time units
    max_demand: int
    seed: int

    def __post_init__(self):
        if self.arrival_rate_per_node <= 0 or self.mean_holding <= 0:
            raise ValueError("rates and holding times must be positive")
        if not 1 <= self.max_demand <= 1 << 32:
            raise ValueError(f"max_demand must be in [1, 2**32], got {self.max_demand}")

    @property
    def load(self) -> float:
        """Offered load per node in Erlangs."""
        return self.arrival_rate_per_node * self.mean_holding

    @classmethod
    def resolve(cls, max_demand: int, seed: int, arrival_rate: float | None = None,
                mean_holding: float | None = None, load: float | None = None) -> "DemandProfile":
        """Build a profile from any two of {arrival_rate, mean_holding, load},
        which must agree when all three are given, or from a load alone with
        mean holding time 1. This is the one place that relates the three."""
        if any(x is not None and x <= 0 for x in (arrival_rate, mean_holding, load)):
            raise ValueError("rates, holding times and loads must be positive")
        if load is None:
            if arrival_rate is None or mean_holding is None:
                raise ValueError("need two of arrival_rate, mean_holding, load")
        elif arrival_rate is None:
            if mean_holding is None:
                mean_holding = 1.0  # shipped convention
            arrival_rate = load / mean_holding
        elif mean_holding is None:
            mean_holding = load / arrival_rate
        elif abs(arrival_rate * mean_holding - load) > 1e-9 * max(1.0, load):
            raise ValueError(f"arrival_rate * mean_holding ({arrival_rate:g} * "
                             f"{mean_holding:g}) != load ({load:g})")
        return cls(arrival_rate, mean_holding, max_demand, seed)


class Demand(NamedTuple):
    id: int
    src: int
    dst: int
    width: int
    arrival_time: float
    holding_time: float


class DemandGenerator:
    def __init__(self, profile: DemandProfile, node_count: int, replication: int = 0):
        if node_count < 2:
            raise ValueError("need at least 2 nodes")
        self.profile = profile
        mask = (1 << 64) - 1
        self.rng = np.random.Generator(
            np.random.Philox(key=[profile.seed & mask, replication & mask]))
        self.stream = self._demands(node_count)

    def _demands(self, n: int) -> Iterator[tuple[int, int, int, int, float, float]]:
        """(id, src, dst, width, arrival_time, holding_time) tuples among n
        nodes, forever, each from `self.profile` as it is then. Integers are
        what `self.rng.integers(0, bound)` returns for 1 <= bound <= 2**32:
        numpy's buffered_bounded_lemire_uint32 on the low half of a fresh raw
        word, whose high half is kept for the next draw, or else on the kept
        half, as in Philox's next_uint32. Bound 1 draws nothing."""
        raw, exponential = self.rng.bit_generator.random_raw, self.rng.exponential
        clock = 0.0
        kept = None  # high half of the last raw word, not yet used
        for demand_id in count():
            p = self.profile
            clock += exponential(1.0 / (n * p.arrival_rate_per_node))
            draws = []
            for bound in (n, n - 1, p.max_demand):
                m = 0
                while bound > 1:
                    if kept is None:
                        word = raw()
                        x, kept = word & _WORD, word >> 32
                    else:
                        x, kept = kept, None
                    m = x * bound
                    low = m & _WORD
                    # a low part below (2**32 - bound) % bound (< bound)
                    # would bias the result, so numpy redraws it
                    if low >= bound or low >= (2**32 - bound) % bound:
                        break
                draws.append(m >> 32)
            src, dst, width = draws
            if dst >= src:
                dst += 1
            yield demand_id, src, dst, width + 1, clock, exponential(p.mean_holding)

    def next_demand(self) -> Demand:
        return Demand(*next(self.stream))


class EventQueue:
    """Min-heap of pending departures as (departure time, connection id),
    so equal times leave in id order. The event loop works on `heap` itself."""

    def __init__(self):
        self.heap: list[tuple[float, int]] = []

    def push(self, time: float, conn_id: int) -> None:
        heapq.heappush(self.heap, (time, conn_id))

    def pop(self) -> tuple[float, int]:
        """Next (time, connection id); the queue must not be empty."""
        return heapq.heappop(self.heap)

