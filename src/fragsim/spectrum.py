"""Per-link slice occupancy bitmaps and first-fit allocation.

Each link's spectrum is one Python int used as a bitmask (bit j set =
slice j busy), and these bitmaps are the only spectrum state. A window of
slices is its mask, the int with exactly the window's slices set:
`SpectrumState.find_first_fit` returns one, and `SpectrumState.allocate`
and `SpectrumState.release` take one. `SliceRange(start, width)` is the
readable form of a window.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SpectrumFault(RuntimeError):
    """Internal invariant breach: double allocation or double free."""


class SliceRange(NamedTuple):
    start: int
    width: int

    @property
    def mask(self) -> int:
        """The window's slices as a bitmask: bits start .. start + width - 1."""
        return ((1 << self.width) - 1) << self.start

    @classmethod
    def from_mask(cls, mask: int) -> "SliceRange":
        """The window of a nonzero mask, from its lowest and highest set bits;
        its `mask` is `mask` again exactly when the set bits are contiguous."""
        start = (mask & -mask).bit_length() - 1
        return cls(start, mask.bit_length() - start)


class SpectrumState:
    """Occupancy bitmaps for all links of one topology, in `occ`. A link's
    int is replaced when the link changes, and only then, so `is not`
    against an earlier copy of `occ` finds the links that changed."""

    def __init__(self, link_count: int, slice_count: int):
        self.link_count = link_count
        self.slice_count = slice_count
        self._full = (1 << slice_count) - 1
        self.occ = [0] * link_count

    def max_contiguous_free(self, link: int) -> int:
        """Length of the longest run of free slices on one link. No run calls
        it: the benchmark's trace names it, and tests check
        `metrics._batch_runs` against it."""
        free = format(~self.occ[link] & self._full, f"0{self.slice_count}b")
        return max(map(len, free.split("0")))

    def free_bits(self, link: int) -> np.ndarray:
        """Free map of one link as a 0/1 vector, slice 0 first. No run calls
        it: the benchmark's trace names it."""
        nbytes = (self.slice_count + 7) // 8
        raw = (~self.occ[link] & self._full).to_bytes(nbytes, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")[: self.slice_count]

    def find_first_fit(self, route: list[int], width: int) -> int | None:
        """Mask of the first window of `width` slices free on every route
        link (the one with the smallest start), or None if there is none.

        The route's bitmaps are ORed into one and complemented once; the
        windows of `width` free slices are then found with O(log width)
        shift-ANDs: doubling run lengths 1, 2, 4, ... up to the largest power
        of two n <= width, then one shift by width - n (Warren, Hacker's
        Delight, 2nd ed., section 6-2)."""
        if width < 1:
            raise ValueError("width must be >= 1")
        if width > self.slice_count:
            return None
        occ = self.occ
        busy = 0
        for lid in route:
            busy |= occ[lid]
        # bit j of m: slices j .. j+n-1 are free on every link; bits at or
        # above slice_count are 0, so no window runs past the last slice
        m = ~busy & self._full
        n = 1
        while 2 * n <= width:
            m &= m >> n
            n *= 2
        m &= m >> (width - n)
        if m == 0:
            return None
        low = m & -m
        return (low << width) - low

    def allocate(self, route: list[int], mask: int) -> None:
        """Mark the slices of `mask` busy on every route link."""
        occ = self.occ
        for lid in route:
            if occ[lid] & mask:
                raise SpectrumFault(f"allocate collision on link {lid}")
            occ[lid] |= mask

    def release(self, route: list[int], mask: int) -> None:
        """Mark the slices of `mask` free on every route link."""
        occ = self.occ
        for lid in route:
            if (occ[lid] & mask) != mask:
                raise SpectrumFault(f"release of free slice on link {lid}")
            occ[lid] ^= mask  # every bit of mask is set, so this clears them

    def utilization(self) -> float:
        """Occupied slices over the whole-network slice total."""
        return sum(map(int.bit_count, self.occ)) / (self.link_count * self.slice_count)

    # --- debug dump format: one `linkid: 0101...` line per link (0 = free) ---

    def dump(self) -> str:
        # binary is written highest bit first, the dump slice 0 first
        width = f"0{self.slice_count}b"
        return "\n".join(f"{lid}: {format(occ, width)[::-1]}"
                         for lid, occ in enumerate(self.occ)) + "\n"

    @classmethod
    def parse(cls, text: str, link_count: int, slice_count: int) -> "SpectrumState":
        state = cls(link_count, slice_count)
        seen = set()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, bits = line.partition(":")
            head, bits = head.strip(), bits.strip()
            # plain ASCII digits: int() would also take "+", "-", "_" and other digits
            if not (head.isascii() and head.isdigit()):
                raise ValueError(f"bad link id {head!r} in state dump")
            lid = int(head)
            if not (0 <= lid < link_count) or lid in seen:
                raise ValueError(f"bad link id {lid} in state dump")
            if len(bits) != slice_count or set(bits) - {"0", "1"}:
                raise ValueError(f"link {lid}: bitmap must be {slice_count} chars of 0/1")
            seen.add(lid)
            # checked above: int() would also take "_", "+" and "-"
            state.occ[lid] = int(bits[::-1], 2)
        if len(seen) != link_count:
            raise ValueError(f"state dump covers {len(seen)} of {link_count} links")
        return state
