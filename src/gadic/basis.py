"""Membership and window enumeration for monochromatic-support sets.

A positive integer belongs to the constructed set exactly when the support
of its canonical digit expansion is nonempty and single-colored.  A single
membership query reads the canonical representation; a window is generated
from the single-colored digit supports directly.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .core import DigitRep, DomainError, GadicSequence
from .partition import PartitionSpec

# Window bit arrays are plain ints (bit n set <=> n in the set); this caps
# the largest window we will materialize.
DEFAULT_WINDOW_LIMIT = 1 << 27


class WindowTooLargeError(MemoryError):
    """Requested enumeration window exceeds the configured budget."""


def _check_window(N: int) -> None:
    """Refuse a window bound [0, N] with N < 1 or N > DEFAULT_WINDOW_LIMIT,
    before any bit array of the window is built."""
    if N < 1:
        raise DomainError(f"window bound must be >= 1, got {N}")
    if N > DEFAULT_WINDOW_LIMIT:
        raise WindowTooLargeError(
            f"window bound {N} exceeds limit {DEFAULT_WINDOW_LIMIT}")


@dataclass
class BasisSpec:
    """Full configuration: scale sequence, coloring, and order h."""

    seq: GadicSequence
    partition: PartitionSpec

    @property
    def h(self) -> int:
        return self.partition.h

    def classify(self, n: int) -> int | None:
        """Class index of n, or None when n is not a member.

        n is a member of class i iff its support is nonempty and entirely
        colored i; 0 (empty support) is never a member.
        """
        return self._rep_and_class(n)[1]

    def _rep_and_class(self, n: int) -> tuple[DigitRep, int | None]:
        """The digits of n >= 0 and its class (None for a non-member)."""
        if n < 0:
            raise DomainError(f"classify expects n >= 0, got {n}")
        rep = self.seq.represent(n)
        colors = {self.partition.color(j) for j in rep.digits}
        return rep, (colors.pop() if len(colors) == 1 else None)

    def _positions(self, length: int) -> tuple[list[int], list[int]]:
        """d_{j+1} and the class of index j for j < length, unrolled from the
        prefixes and periods (the scale table is not touched)."""
        def unroll(prefix: list[int], period: list[int]) -> list[int]:
            return (prefix + period * (length // len(period) + 1))[:length]
        return (unroll(self.seq.prefix, self.seq.period),
                unroll(self.partition.prefix_colors,
                       self.partition.period_colors))

    def enumerate(self, N: int) -> "MemberWindow":
        """All members in [1, N], as a sorted list plus a bit array.

        Members are generated from their digit supports rather than found by
        classifying every n: per class, the values built from the indices of
        that color are extended one index at a time with digits in [1, d-1]
        while they stay <= N.  The cost is proportional to the number of
        members.
        """
        _check_window(N)
        seq, color = self.seq, self.partition.color
        # supports[i]: the values <= N (0 included) whose digits sit on class-i
        # indices below j.  All are < g_j, so the blocks x*g_j + v appended
        # for x = 1, 2, ... (v from the list as it was before index j) keep
        # the list sorted and produce each value once.
        supports: list[list[int]] = [[0] for _ in range(self.h)]
        for j in range(seq.leading_index(N) + 1):
            vals = supports[color(j)]
            old = len(vals)
            g = seq.value(j)
            for x in range(1, seq.quotient(j + 1)):
                base = x * g
                if base > N:
                    break
                vals += [base + v
                         for v in vals[:bisect_right(vals, N - base, 0, old)]]
        members = sorted(v for vals in supports for v in vals[1:])
        bits = bytearray((N + 8) // 8)
        for m in members:
            bits[m >> 3] |= 1 << (m & 7)
        return MemberWindow(N=N, members=members,
                            mask=int.from_bytes(bits, "little"))

    def serialize(self) -> str:
        return f"{self.seq.serialize()}|{self.partition.serialize()}"


@dataclass
class MemberWindow:
    """Members of the set restricted to [0, N]; list and bit array agree."""

    N: int
    members: list[int]
    mask: int
    member_set: frozenset[int] = field(init=False)

    def __post_init__(self):
        self.member_set = frozenset(self.members)
