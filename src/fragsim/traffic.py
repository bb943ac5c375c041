"""Stochastic demand generation and the heap of pending departures.

Arrivals follow a merged Poisson process: one exponential clock at rate
N * lambda with a uniform source draw, statistically identical to N
independent per-node processes, so arrivals come one at a time in time
order and only departures need a queue. Holding times are exponential,
widths discrete-uniform on [1, max_demand].

Randomness comes from the counter-based Philox generator keyed by
(seed, replication index), so replications are independent streams and
every run is reproducible from its metadata. `DemandGenerator.stream`
yields the demands as plain tuples, its draw state in locals. Every draw
is numpy's own algorithm run on raw Philox words, fetched `WORD_BLOCK` at
a time and used in stream order, so the values are exactly those of
`Generator.exponential` and `Generator.integers` at a fraction of their
per-call cost: the exponentials by numpy's ziggurat (Marsaglia & Tsang
2000; tables in `data/exp_ziggurat.json`), the integers by Lemire's
bounded multiply with rejection on 32-bit halves of the words.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, Iterator, NamedTuple

import numpy as np

RNG_NAME = "philox4x64"

WORD_BLOCK = 64  # raw Philox words fetched per call

_WORD = 0xFFFFFFFF  # low 32-bit half of a raw Philox word
_U53 = 2.0**-53     # a word's top 53 bits times this: numpy's next_double

with open(os.path.join(os.path.dirname(__file__), "data", "exp_ziggurat.json")) as _fh:
    ZIG_EXP_R, _KE, _WE, _FE = map(json.load(_fh).get, ("r", "ke", "we", "fe"))


@dataclass(frozen=True)
class DemandProfile:
    """Traffic of one run. Frozen, so `__post_init__` has checked every
    value it holds: a changed profile is a new object, which is also how
    the demand stream sees the change."""

    arrival_rate_per_node: float   # lambda, requests per time unit per node
    mean_holding: float            # 1/mu, time units
    max_demand: int
    seed: int

    def __post_init__(self):
        rate, holding = self.arrival_rate_per_node, self.mean_holding
        # a subnormal rate has no finite mean gap 1/rate: every time would be inf
        if not (0 < rate < math.inf and 0 < holding < math.inf
                and 1 / rate < math.inf and 0 < rate * holding < math.inf):
            raise ValueError(f"rates, holding times, 1/rate and loads must be finite and "
                             f"positive, got rate {rate!r} and holding time {holding!r}")
        if not 1 <= self.max_demand <= 1 << 32:
            raise ValueError(f"max_demand must be in [1, 2**32], got {self.max_demand}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

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
        if any(x is not None and not 0 < x < math.inf
               for x in (arrival_rate, mean_holding, load)):
            raise ValueError("rates, holding times and loads must be finite and positive")
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


def standard_exponential_unlikely(word: Callable[[], int], ri: int, idx: int) -> float:
    """The rest of numpy's random_standard_exponential when a raw word's
    top 53 bits, ri, miss the rectangle of layer idx, its bits 3-10
    (ri >= _KE[idx]). Layer 0 is the tail beyond ZIG_EXP_R; any other
    layer accepts ri * _WE[idx] under the density in its wedge, or draws
    again from a fresh word. Each slow path takes one more word from
    `word` as its uniform, numpy's next_double."""
    while True:
        u = (word() >> 11) * _U53
        if idx == 0:
            return ZIG_EXP_R - math.log1p(-u)
        x = ri * _WE[idx]
        if (_FE[idx - 1] - _FE[idx]) * u + _FE[idx] < math.exp(-x):
            return x
        w = word()
        ri, idx = w >> 11, (w >> 3) & 0xFF
        if ri < _KE[idx]:
            return ri * _WE[idx]


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
        # a list mixing an int above 2**63 - 1 with a small one would turn float64
        key = np.array([profile.seed, replication], dtype=np.uint64)
        self.bit_generator = np.random.Philox(key=key)
        self.stream = self._demands(node_count)

    def _demands(self, n: int) -> Iterator[tuple[int, int, int, int, float, float]]:
        """(id, src, dst, width, arrival_time, holding_time) tuples among n
        nodes, forever, each from `self.profile` as it is then: exactly what
        `Generator(self.bit_generator)` would draw, from raw words fetched
        WORD_BLOCK at a time and used in stream order. The times are
        `exponential(scale)`: scale times numpy's random_standard_exponential,
        whose likely path (the candidate inside its layer's rectangle) is
        written out here. Integers are `integers(0, bound)` for
        1 <= bound <= 2**32: numpy's buffered_bounded_lemire_uint32 on the
        low half of a fresh word, whose high half is kept for the next draw,
        or else on the kept half, as in Philox's next_uint32. Bound 1 draws
        nothing. What a profile sets (the mean gap, the mean holding time,
        the three bounds and their rejection thresholds) is worked out when
        `self.profile` is a new object, before the next demand is drawn."""
        raw, ke, we, unlikely = (self.bit_generator.random_raw, _KE, _WE,
                                 standard_exponential_unlikely)
        # iter(f, None) calls f until it returns None, which no block is
        word = chain.from_iterable(iter(lambda: raw(WORD_BLOCK).tolist(), None)).__next__
        clock = 0.0
        kept = None  # high half of the last raw word, not yet used
        profile = None
        for demand_id in count():
            if self.profile is not profile:
                profile = self.profile
                gap = 1.0 / (n * profile.arrival_rate_per_node)
                holding = profile.mean_holding
                # a low part below (2**32 - bound) % bound (< bound) would
                # bias the result, so numpy redraws it
                bounds = [(bound, (2**32 - bound) % bound)
                          for bound in (n, n - 1, profile.max_demand)]
            w = word()
            ri, idx = w >> 11, (w >> 3) & 0xFF
            clock += gap * (ri * we[idx] if ri < ke[idx] else unlikely(word, ri, idx))
            draws = []
            for bound, threshold in bounds:
                m = 0
                while bound > 1:
                    if kept is None:
                        w = word()
                        x, kept = w & _WORD, w >> 32
                    else:
                        x, kept = kept, None
                    m = x * bound
                    if (m & _WORD) >= threshold:
                        break
                draws.append(m >> 32)
            src, dst, width = draws
            if dst >= src:
                dst += 1
            w = word()
            ri, idx = w >> 11, (w >> 3) & 0xFF
            yield (demand_id, src, dst, width + 1, clock,
                   holding * (ri * we[idx] if ri < ke[idx] else unlikely(word, ri, idx)))

    def next_demand(self) -> Demand:
        return Demand(*next(self.stream))


class EventQueue:
    """Min-heap of pending departures as (departure time, connection id,
    route, mask), the one record of each active connection. The demand
    stream's ids are unique, so equal times leave in id order and routes are
    never compared. The event loop works on `heap` itself."""

    def __init__(self):
        self.heap: list[tuple[float, int, list[int], int]] = []

    def push(self, time: float, conn_id: int, route: list[int], mask: int) -> None:
        heapq.heappush(self.heap, (time, conn_id, route, mask))

    def pop(self) -> tuple[float, int, list[int], int]:
        """Next (time, connection id, route, mask); the queue must not be empty."""
        return heapq.heappop(self.heap)

