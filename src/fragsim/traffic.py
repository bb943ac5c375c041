"""Stochastic demand generation and the time-ordered event stream.

Arrivals follow a merged Poisson process: one exponential clock at rate
N * lambda with a uniform source draw, statistically identical to N
independent per-node processes but driving a single event queue. Holding
times are exponential, widths discrete-uniform on [1, max_demand].

Randomness comes from the counter-based Philox generator keyed by
(seed, replication index), so replications are independent streams and
every run is reproducible from its metadata.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

RNG_NAME = "philox4x64"

ARRIVAL = 1
DEPARTURE = 0  # departures sort before arrivals at equal times


@dataclass
class DemandProfile:
    arrival_rate_per_node: float   # lambda, requests per time unit per node
    mean_holding: float            # 1/mu, time units
    max_demand: int
    seed: int

    def __post_init__(self):
        if self.arrival_rate_per_node <= 0 or self.mean_holding <= 0:
            raise ValueError("rates and holding times must be positive")
        if self.max_demand < 1:
            raise ValueError("max_demand must be >= 1")

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


@dataclass
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
        self._next_id = 0
        self.clock = 0.0

    def next_demand(self) -> Demand:
        p, n = self.profile, self.node_count
        self.clock += self.rng.exponential(1.0 / (n * p.arrival_rate_per_node))
        src = int(self.rng.integers(0, n))
        dst = int(self.rng.integers(0, n - 1))
        if dst >= src:
            dst += 1
        width = int(self.rng.integers(1, p.max_demand + 1))
        holding = self.rng.exponential(p.mean_holding)
        d = Demand(self._next_id, src, dst, width, self.clock, holding)
        self._next_id += 1
        return d


class EventQueue:
    """Min-heap over (time, kind, id); departures precede arrivals on ties."""

    def __init__(self):
        self._heap = []

    def push(self, time: float, kind: int, payload) -> None:
        ident = payload.id if hasattr(payload, "id") else payload
        heapq.heappush(self._heap, (time, kind, ident, payload))

    def pop(self):
        """Next (time, kind, payload); the queue must not be empty."""
        time, kind, _, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def __len__(self):
        return len(self._heap)

