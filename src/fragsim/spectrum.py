"""Per-link slice occupancy bitmaps and first-fit allocation.

Each link's spectrum is one Python integer used as a bitmask (bit j set =
slice j busy). Word-parallel scans below are bit-exact with a naive per-bit
loop; the test suite checks that against an independent oracle.

A metrics snapshot reads each link once: `max_contiguous_free` gives its
longest free run in O(log run) big-int operations, and `free_matrix` gives
every link's free map as one (links x slices) array for the per-slice
continuity component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SpectrumFault(RuntimeError):
    """Internal invariant breach: double allocation or double free."""


@dataclass(frozen=True)
class SliceRange:
    start: int
    width: int


class SpectrumState:
    """Occupancy bitmaps for all links of one topology."""

    def __init__(self, link_count: int, slice_count: int):
        self.link_count = link_count
        self.slice_count = slice_count
        self._full = (1 << slice_count) - 1
        self.occ = [0] * link_count
        self.free = [slice_count] * link_count

    def free_mask(self, link: int) -> int:
        return ~self.occ[link] & self._full

    def free_count(self, link: int) -> int:
        return self.free[link]

    def max_contiguous_free(self, link: int) -> int:
        """Length of the longest run of free slices on one link.

        Bit j of `g` marks a run of at least `n` free slices starting at
        slice j. Doubling `n` finds the largest power of two not above the
        longest run; halving steps then add its lower bits, highest first."""
        g = self.free_mask(link)
        if not g:
            return 0
        n = 1
        while h := g & (g >> n):
            g = h
            n *= 2
        step = n // 2
        while step:
            if h := g & (g >> step):
                g = h
                n += step
            step //= 2
        return n

    def free_bits(self, link: int) -> np.ndarray:
        """Free map of one link as a 0/1 vector, slice 0 first."""
        nbytes = (self.slice_count + 7) // 8
        raw = self.free_mask(link).to_bytes(nbytes, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")[: self.slice_count]

    def free_matrix(self) -> np.ndarray:
        """Free maps of all links as a (links x slices) 0/1 matrix; row
        `link` equals `free_bits(link)`."""
        nbytes = (self.slice_count + 7) // 8
        full = self._full
        raw = b"".join((~occ & full).to_bytes(nbytes, "little") for occ in self.occ)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(self.link_count, nbytes)
        return np.unpackbits(rows, axis=1, bitorder="little")[:, : self.slice_count]

    def find_first_fit(self, route: list[int], width: int) -> SliceRange | None:
        """Smallest start index where `width` slices are free on every route link."""
        if width < 1:
            raise ValueError("width must be >= 1")
        if width > self.slice_count:
            return None
        m = self._full
        for lid in route:
            m &= ~self.occ[lid]
        for _ in range(width - 1):
            m &= m >> 1
        m &= (1 << (self.slice_count - width + 1)) - 1
        if m == 0:
            return None
        return SliceRange((m & -m).bit_length() - 1, width)

    def allocate(self, route: list[int], rng: SliceRange) -> None:
        mask = ((1 << rng.width) - 1) << rng.start
        for lid in route:
            if self.occ[lid] & mask:
                raise SpectrumFault(f"allocate collision on link {lid}")
            self.occ[lid] |= mask
            self.free[lid] -= rng.width

    def release(self, route: list[int], rng: SliceRange) -> None:
        mask = ((1 << rng.width) - 1) << rng.start
        for lid in route:
            if (self.occ[lid] & mask) != mask:
                raise SpectrumFault(f"release of free slice on link {lid}")
            self.occ[lid] &= ~mask
            self.free[lid] += rng.width

    def occupied_total(self) -> int:
        return self.link_count * self.slice_count - sum(self.free)

    def utilization(self) -> float:
        """Occupied slices over the whole-network slice total."""
        return self.occupied_total() / (self.link_count * self.slice_count)

    # --- debug dump format: one `linkid: 0101...` line per link (0 = free) ---

    def dump(self) -> str:
        lines = []
        for lid in range(self.link_count):
            bits = "".join(str((self.occ[lid] >> j) & 1) for j in range(self.slice_count))
            lines.append(f"{lid}: {bits}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, link_count: int, slice_count: int) -> "SpectrumState":
        state = cls(link_count, slice_count)
        seen = set()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, bits = line.partition(":")
            lid = int(head)
            bits = bits.strip()
            if not (0 <= lid < link_count) or lid in seen:
                raise ValueError(f"bad link id {lid} in state dump")
            if len(bits) != slice_count or set(bits) - {"0", "1"}:
                raise ValueError(f"link {lid}: bitmap must be {slice_count} chars of 0/1")
            seen.add(lid)
            occ = 0
            for j, ch in enumerate(bits):
                if ch == "1":
                    occ |= 1 << j
            state.occ[lid] = occ
            state.free[lid] = slice_count - bits.count("1")
        if len(seen) != link_count:
            raise ValueError(f"state dump covers {len(seen)} of {link_count} links")
        return state
