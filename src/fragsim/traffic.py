"""Stochastic demand generation and the heap of pending departures.

Arrivals follow a merged Poisson process: one exponential clock at rate
N * lambda with a uniform source draw, statistically identical to N
independent per-node processes, so arrivals come one at a time in time
order and only departures need a queue. Holding times are exponential,
widths discrete-uniform on [1, max_demand].

Randomness comes from the counter-based Philox generator keyed by
(seed, replication index), so replications are independent streams and
every run is reproducible from its metadata. The two exponentials are
numpy's own draws. The three integers are drawn from the raw 64-bit Philox
words with numpy's algorithm for `Generator.integers` (Lemire's bounded
multiply with rejection, on 32-bit halves of the words), so they are
exactly the values numpy would return, at a fraction of its per-call cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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


@dataclass(slots=True)
class Demand:
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
        self.node_count = node_count
        mask = (1 << 64) - 1
        self.rng = np.random.Generator(
            np.random.Philox(key=[profile.seed & mask, replication & mask]))
        self._raw = self.rng.bit_generator.random_raw
        self._exponential = self.rng.exponential
        self._kept = None  # high half of the last raw word, not yet used
        self._next_id = 0
        self.clock = 0.0

    def _below(self, bound: int) -> int:
        """Exactly what `self.rng.integers(0, bound)` returns, for
        1 <= bound <= 2**32, drawn as numpy's buffered_bounded_lemire_uint32
        draws it. Each 32-bit draw is the low half of a fresh raw word, whose
        high half is kept for the next draw, or else the kept half, as in
        Philox's next_uint32. Bound 1 draws nothing."""
        if bound == 1:
            return 0
        while True:
            x = self._kept
            if x is None:
                word = self._raw()
                x, self._kept = word & _WORD, word >> 32
            else:
                self._kept = None
            m = x * bound
            low = m & _WORD
            # a low part below (2**32 - bound) % bound (< bound) would bias
            # the result, so numpy redraws it
            if low >= bound or low >= (2**32 - bound) % bound:
                return m >> 32

    def next_demand(self) -> Demand:
        p, n = self.profile, self.node_count
        self.clock += self._exponential(1.0 / (n * p.arrival_rate_per_node))
        src = self._below(n)
        dst = self._below(n - 1)
        if dst >= src:
            dst += 1
        width = 1 + self._below(p.max_demand)
        holding = self._exponential(p.mean_holding)
        d = Demand(self._next_id, src, dst, width, self.clock, holding)
        self._next_id += 1
        return d


class EventQueue:
    """Min-heap of pending departures as (departure time, connection id),
    so equal times leave in id order. `heap[0]` is the next one."""

    def __init__(self):
        self.heap: list[tuple[float, int]] = []

    def push(self, time: float, conn_id: int) -> None:
        heapq.heappush(self.heap, (time, conn_id))

    def pop(self) -> tuple[float, int]:
        """Next (time, connection id); the queue must not be empty."""
        return heapq.heappop(self.heap)

