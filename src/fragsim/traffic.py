"""Stochastic demand generation and the heap of pending departures.

Arrivals follow a merged Poisson process: one exponential clock at rate
N * lambda with a uniform source draw, statistically identical to N
independent per-node processes, so arrivals come one at a time in time
order and only departures need a queue. Holding times are exponential,
widths discrete-uniform on [1, max_demand].

Each stream draws from the counter-based Philox generator keyed by (seed,
replication index), so replications are independent streams and every run
is reproducible from its metadata. Every draw is exactly the value
`Generator.exponential` or `Generator.integers` would give; `_decode`
states how.

The sharing rule: streams with one seed, replication, node count and
max_demand have the same standard draws (e1, src, dst, width, e2),
whatever their rates and holding times. A `Draws` decodes them once for
every `DemandGenerator` given it, so the loads of a replication use common
random numbers (Law, *Simulation Modeling and Analysis*, 5th ed., 2015,
ch. 11), each exactly as if it had decoded alone.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, groupby, islice, starmap
from operator import length_hint
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

RNG_NAME = "philox4x64"

# raw Philox words that `_decode` fetches per call
WORD_BLOCK = 1024

_WORD = 0xFFFFFFFF  # low 32-bit half of a raw Philox word
_U53 = 2.0**-53     # a word's top 53 bits times this: numpy's next_double

with open(os.path.join(os.path.dirname(__file__), "data", "exp_ziggurat.json")) as _fh:
    ZIG_EXP_R, _KE, _WE, _FE = map(json.load(_fh).get, ("r", "ke", "we", "fe"))
_KE_ARRAY, _WE_ARRAY = np.array(_KE, dtype=np.int64), np.array(_WE)


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


def stream_key(profile: DemandProfile, node_count: int, replication: int) -> tuple:
    """What the standard draws of a stream depend on."""
    return profile.seed, profile.max_demand, node_count, replication


def _philox(profile: DemandProfile, replication: int) -> np.random.Philox:
    """The bit generator of a stream, keyed by (seed, replication)."""
    # a list mixing an int above 2**63 - 1 with a small one would turn float64
    return np.random.Philox(key=np.array([profile.seed, replication], dtype=np.uint64))


def stream_groups(profiles: list[DemandProfile], node_count: int,
                  replications: int) -> list[list[tuple[int, int]]]:
    """The (profile index, replication) tasks, replication-major, in groups
    that read one stream: in each replication, the profiles in order of
    seed and max_demand, and otherwise in their own order."""
    def key(k):
        return stream_key(profiles[k], node_count, 0)

    groups = [list(group) for _, group in groupby(sorted(range(len(profiles)), key=key), key)]
    return [[(k, r) for k in group] for r in range(replications) for group in groups]


def _one_demand(word: Callable[[], int], kept: int | None,
                bounds: list[tuple[int, int]]) -> tuple[tuple, int | None]:
    """One demand's standard draws (e1, src, dst, width, e2) from the raw
    words that `word` gives and the kept high half-word, if any, and the
    half-word it keeps for the next demand: the algorithms `_decode`
    states, one step at a time."""
    w = word()
    ri, idx = w >> 11, (w >> 3) & 0xFF
    e1 = ri * _WE[idx] if ri < _KE[idx] else standard_exponential_unlikely(word, ri, idx)
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
    e2 = ri * _WE[idx] if ri < _KE[idx] else standard_exponential_unlikely(word, ri, idx)
    return (e1, src, dst, width + 1, e2), kept


def _period(draws: list[bool]) -> tuple[list[list[int]], list[list[int]], int]:
    """The layout of a fast-path period: the fewest demands, read with no
    slow path and no rejection, after which no half-word is kept. Per
    demand, the word offsets of e1 and e2 and the half-word offsets (2 *
    word, + 1 for the high half) of the three integers, where `draws` says
    which bounds draw; a bound of 1 gets offset 0, since any half times 1,
    shifted right by 32, is its draw 0. Also the period's length in words."""
    exps, halves, pos, kept = [], [], 0, None
    while True:
        e1, pos, hs = pos, pos + 1, []
        for draw in draws:
            if not draw:
                hs.append(0)
            elif kept is None:
                hs.append(2 * pos)
                kept, pos = 2 * pos + 1, pos + 1
            else:
                hs.append(kept)
                kept = None
        exps.append([e1, pos])
        halves.append(hs)
        pos += 1
        if kept is None:
            return exps, halves, pos


def _decode(bit_generator: np.random.Philox, n: int, max_demand: int) -> Iterator[list[list]]:
    """The standard draws (e1, src, dst, width, e2) among n nodes, forever,
    as five lists, one per draw, per block of raw words: exactly what
    `Generator(bit_generator)` would draw, from words fetched WORD_BLOCK at
    a time and used in stream order. e1 and e2 are numpy's
    random_standard_exponential, a ziggurat (Marsaglia & Tsang 2000; tables
    in `data/exp_ziggurat.json`): its likely path takes the candidate
    inside its layer's rectangle, and `standard_exponential_unlikely` does
    the rest. Integers are `integers(0, bound)` for 1 <= bound <= 2**32:
    numpy's buffered_bounded_lemire_uint32, Lemire's bounded multiply with
    rejection, on the low half of a fresh word, whose high half is kept for
    the next draw, or else on the kept half, as in Philox's next_uint32.
    Bound 1 draws nothing.

    Off the slow paths, the words fall into periods (`_period`): 7 words per
    2 demands when n >= 3 and max_demand >= 2, and 3 words per demand, or
    5 per 2 demands, when a bound of 1 draws nothing. numpy marks, over a
    whole block, each word where a period can start: all of its
    exponentials inside their rectangles and all of its Lemire draws
    accepted (a bound with threshold 0 never rejects). A walk from the
    current word takes each run of such periods up to the next start that
    is not marked, hands the period there to `_one_demand`, one demand at a
    time until no half is kept, and resumes where it left the words. The
    runs' values are computed together at the end of the block, and the
    words after the last whole period carry over to the next block. About
    2.2% of words miss the rectangle, so a 7-word period breaks about once
    per 23 demands."""
    raw = bit_generator.random_raw
    # a low part below (2**32 - bound) % bound (< bound) would bias the
    # result, so numpy redraws it
    bounds = [(bound, (2**32 - bound) % bound) for bound in (n, n - 1, max_demand)]
    exps, halves, length = _period([bound > 1 for bound, _ in bounds])
    per = len(exps)  # demands per period
    # the Lemire draws that may reject: (bound, the half offsets it reads)
    checks = [(np.uint32(bound), threshold, [hs[j] for hs in halves])
              for j, (bound, threshold) in enumerate(bounds) if threshold]
    exp_offsets = [o for pair in exps for o in pair]
    exp_at, half_at = np.array(exps), np.array(halves)
    factors = np.array([bound for bound, _ in bounds], dtype=np.uint64)

    def block(words):
        """The demands of `words`, and the words left over."""
        starts = len(words) - length + 1  # a whole period fits from 0..starts-1
        if starts <= 0:
            return [[]] * 5, words
        # the ziggurat's likely path for every word: its layer (bits 3-10,
        # cut to uint8) and its candidate (the top 53 bits). Every compare
        # here is on int64, exact below 2**63: the rest of the program pages
        # in numpy's int64 loops, but not its uint64 or uint32 ones
        idx, ri = (words >> 3).astype(np.uint8), words >> 11
        miss = ri.view(np.int64) >= _KE_ARRAY[idx]
        exp = ri * _WE_ARRAY[idx]  # exact: ri < 2**53
        bad = np.zeros(starts, dtype=bool)  # no fast period starts at that word
        for o in exp_offsets:
            bad |= miss[o:][:starts]
        half = words.astype("<u8", copy=False).view("<u4")  # low half, then high half
        for bound, threshold, offsets in checks:
            # the uint32 product is the low part
            rejected = (half * bound).astype(np.int64) < threshold
            for o in offsets:
                bad |= rejected[o::2][:starts]
        bad = bad.tolist()
        # the walk: the good period starts, and the demands of the others
        good, slow, i = [], [], 0
        while i < starts:
            if not bad[i]:
                good.append(i)
                i += length
                continue
            # the period at i leaves the fast path: one demand at a time
            span = 2 * length
            while True:
                taken = words[i:i + span].tolist()
                tape, period, kept = iter(taken), [], None
                try:
                    while not period or kept is not None:
                        demand, kept = _one_demand(tape.__next__, kept, bounds)
                        period.append(demand)
                    break
                except StopIteration:  # the slow paths ran past the words taken
                    if i + span >= len(words):
                        words = np.concatenate((words, raw(WORD_BLOCK)))
                    span *= 2
            i += len(taken) - length_hint(tape)
            slow += enumerate(period, len(good) * per + len(slow))
        columns = [[], [], [], [], []]
        if good:
            at = np.array(good)[:, None, None]
            e1, e2 = exp[at + exp_at].reshape(-1, 2).T.tolist()
            v = (half[2 * at + half_at].astype(np.uint64) * factors >> 32).view(np.int64)
            v = v.reshape(-1, 3)
            v[:, 1] += v[:, 1] >= v[:, 0]  # dst skips src
            v[:, 2] += 1
            columns = [e1, *v.T.tolist(), e2]
        for j, column in enumerate(columns):
            for k, demand in slow:
                column.insert(k, demand[j])
        return columns, words[i:]

    words = np.empty(0, dtype=np.uint64)
    while True:
        # block's temporaries are gone before the yield
        columns, words = block(np.concatenate((words, raw(WORD_BLOCK))))
        if columns[0]:
            yield columns


def _demands(n: int, chunks, cell: list) -> Iterator[tuple[int, int, int, int, float, float]]:
    """(id, src, dst, width, arrival_time, holding_time) tuples among n
    nodes, forever: the standard draws of `chunks`, each scaled by the
    profile in `cell` as it is then. The times are `exponential(scale)`:
    scale times a standard exponential. The mean gap and the mean holding
    time are worked out when the profile is a new object, before the next
    demand is scaled."""
    clock = 0.0
    profile = None
    for demand_id, (e1, src, dst, width, e2) in enumerate(chain.from_iterable(chunks)):
        if cell[0] is not profile:
            profile = cell[0]
            gap = 1.0 / (n * profile.arrival_rate_per_node)
            holding = profile.mean_holding
        clock += gap * e1
        yield demand_id, src, dst, width, clock, holding * e2


class Draws:
    """The standard draws of one stream, decoded once and recorded for every
    `DemandGenerator` given this object, by the sharing rule above. The
    record is five arrays: e1 and e2 as doubles, src and dst as 4-byte and
    widths as 8-byte integers, 32 bytes a demand."""

    def __init__(self, profile: DemandProfile, node_count: int, replication: int = 0):
        # imported here: a shared library whose pages only a recording run needs
        from array import array
        self.key = stream_key(profile, node_count, replication)
        self._decoded = _decode(_philox(profile, replication), node_count, profile.max_demand)
        self._columns = tuple(map(array, "dIIQd"))

    def chunks(self) -> Iterator[Iterable[tuple]]:
        """Iterables of (e1, src, dst, width, e2) that together give the
        stream from its first draw: the recorded draws, then new ones,
        decoded and recorded. Each is read to its end before the next is
        asked for, so readers may take turns."""
        i = 0
        while True:
            if i < self.recorded:
                chunk = islice(zip(*self._columns), i, self.recorded)
            else:
                columns = next(self._decoded)
                for column, values in zip(self._columns, columns):
                    column.fromlist(values)
                chunk = zip(*columns)
            i = self.recorded
            yield chunk

    @property
    def recorded(self) -> int:
        """The number of draws recorded."""
        return len(self._columns[0])


class DemandGenerator:
    """The demands of one stream: its standard draws, decoded here or read
    from `draws` (a `Draws` of the same stream), scaled by `profile`."""

    def __init__(self, profile: DemandProfile, node_count: int, replication: int = 0,
                 draws: Draws | None = None):
        if node_count < 2:
            raise ValueError("need at least 2 nodes")
        if draws is None:
            chunks = starmap(zip, _decode(_philox(profile, replication), node_count,
                                          profile.max_demand))
        elif draws.key == stream_key(profile, node_count, replication):
            chunks = draws.chunks()
        else:
            raise ValueError(f"stream {stream_key(profile, node_count, replication)} "
                             f"cannot read the draws of stream {draws.key}")
        # the stream reads the profile from this cell, not from self: a
        # stream that held self would live on in a cycle after its last use
        self._profile = [profile]
        self.stream = _demands(node_count, chunks, self._profile)

    @property
    def profile(self) -> DemandProfile:
        """The profile that scales the next demand. Setting one with another
        seed or max_demand raises ValueError: it would need other standard
        draws."""
        return self._profile[0]

    @profile.setter
    def profile(self, profile: DemandProfile) -> None:
        if (profile.seed, profile.max_demand) != (self.profile.seed, self.profile.max_demand):
            raise ValueError(f"a stream's seed and max_demand are fixed, got {profile}")
        self._profile[0] = profile

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

