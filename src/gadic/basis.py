"""Membership and window generation for monochromatic-support sets.

A positive integer belongs to the constructed set exactly when the support
of its canonical digit expansion is nonempty and single-colored.  A single
membership query reads the canonical representation; the members in
increasing order come from one lazy walk of the digit boxes,
`BasisSpec._walk`, and every window bit array (the member mask, and X + A
for a window bit array X) from one digit-box kernel, `_add_members`.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _add_members(spec: BasisSpec, X: int, N: int, a: int = 0) -> int:
    """X + (A minus {a}) over [0, N] >= 1, A the members of spec, X a bit
    array; its bits above N are dropped.

    The class-i members with top digit at index m are the digit box
    [1, d-1]*g_m + (class-i digits below m), so one walk over the indices
    j with g_j <= N builds X + A: per class, Y = X + (its digit box below
    j), and at a class-c index the piece OR_x Y_c << x*g_j (x*g_j <= N)
    joins the output and Y_c.  As g_j >= 2^j, those j lie below
    N.bit_length(); their quotients and classes are unrolled from the
    periods, so no scale table is built.  Cost: sum of (d - 1) shifts over
    those indices, O(N/64) words each, however many members there are (the
    member route, repcount.hfold_sumset_window, is the tests' oracle).
    Shifts only move bits up, so a bit above N never comes back into
    [0, N]: the output is clipped once, on return, and the pieces reach
    about 3N bits.  From X = {0} one round gives the member mask itself.
    A member a of class i0 with top index M0 splits its own piece into one
    box per class-i0 index k <= M0: a's digits above k, a digit other than
    a's at k (nonzero at M0), and any class-i0 digits below k.  An a that
    is not a member removes nothing; a = 0 reads no digits.  N above
    DEFAULT_WINDOW_LIMIT is refused (WindowTooLargeError) before any bit
    array is built.
    """
    _check_window(N)
    quots, colors = spec._positions(N.bit_length())
    rep, i0 = spec._rep_and_class(a) if 0 < a <= N else (None, None)
    M0 = rep.max_index() if i0 is not None else -1
    Y = [X] * spec.h
    out = low = 0  # low: a's digits up to the last class-i0 index walked
    gj = 1  # g_j, multiplied up as j runs
    for j, (c, d) in enumerate(zip(colors, quots)):
        if gj > N:
            break
        y = Y[c]
        # g_j <= N at every index walked, so the shift by g_j needs no
        # guard; part starts from it, not from 0, which saves one N-bit
        # copy per index
        part = y << gj
        for x in range(2, d):
            if x * gj > N:
                break
            part |= y << x * gj
        Y[c] = y | part
        if c != i0 or j != M0:
            out |= part
        if c == i0 and j <= M0:
            own = rep.digits.get(j, 0)
            low += own * gj
            above = a - low  # a's digits above j
            for x in range(0 if j < M0 else 1, d):
                if above + x * gj > N:
                    break
                if x != own:
                    out |= y << above + x * gj
        gj *= d
    return out & ((1 << (N + 1)) - 1)


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
        def unroll(prefix, period) -> list[int]:
            return (list(prefix) + list(period) * (length // len(period) + 1))[:length]
        return (unroll(self.seq.prefix, self.seq.period),
                unroll(self.partition.prefix_colors,
                       self.partition.period_colors))

    def _walk(self):
        """Yield the members in increasing order, lazily.

        The members with top index M are x*g_M + s for x in [1, d_{M+1} - 1]
        and s in {0} followed by the class-color(M) members below g_M, all
        in [g_M, g_{M+1}) and in that order.  Those s are exactly the
        class's members yielded before index M, so the walk holds only the
        members it has yielded, one list per class."""
        held: list[list[int]] = [[] for _ in range(self.h)]
        seq, color = self.seq, self.partition.color
        g, M = 1, 0
        while True:
            below, level = held[color(M)], []
            d = seq.quotient(M + 1)
            for base in range(g, d * g, g):
                level.append(base)
                yield base
                for s in below:
                    level.append(base + s)
                    yield base + s
            below += level
            g *= d
            M += 1

    def enumerate(self, N: int) -> "MemberWindow":
        """All members in [1, N]: the bit array is one round of the
        digit-box kernel from X = {0}, the sorted list the member walk
        (`_walk`) up to N."""
        mask = _add_members(self, 1, N)
        members = []
        for m in self._walk():
            if m > N:
                break
            members.append(m)
        return MemberWindow(N=N, members=members, mask=mask)

    def serialize(self) -> str:
        return f"{self.seq.serialize()}|{self.partition.serialize()}"


@dataclass
class MemberWindow:
    """Members of the set restricted to [0, N]; list and bit array agree."""

    N: int
    members: list[int]
    mask: int
