"""Exact mixed-radix arithmetic.

A scale sequence g_0 = 1, g_1, g_2, ... is described by its quotients
d_i = g_i / g_{i-1} >= 2, given as a finite prefix followed by a repeating
period.  Every positive integer has a unique expansion n = sum x_j * g_j
with digits x_j in [0, d_{j+1} - 1]; we store only the nonzero digits.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, cycle
from typing import Iterable, Iterator

# Largest block radix of a run of quotients; a run's digit table has one
# row per remainder, so this bounds each table at 256 rows.
_BLOCK = 1 << 8

# (block radix B, width, rows): rows[r] holds the (offset, digit) pairs of
# the nonzero digits of r < B; None for a lone quotient above _BLOCK.
_Run = tuple[int, int, "list[tuple[tuple[int, int], ...]] | None"]
# (prefix runs, cycle runs, g_L * Q, g_L, leaf radix Q, positions Q spans)
_Tables = tuple[list[_Run], list[_Run], int, int, int, int]

# `represent`'s leaf radix Q is the smallest power of the cycle radix with
# more than this many bits; the run tables read the leaves below Q one
# `divmod` per run.  On [2] at 8,192 bits, leaves of 64, 128, 256, 512 and
# 1024 bits took 0.60, 0.57, 0.53, 0.53 and 0.60 ms.
_LEAF_BITS = 256


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DigitRangeError(ValueError):
    """A digit violates its allowed range [1, d_{j+1} - 1]."""


@dataclass
class GadicSequence:
    """The quotient stream (d_i), a lazily grown and capped scale table and
    the digit tables of `represent`.

    The scale table holds g_0..g_K in `_cache` and, in step with it, the
    quotients d_1..d_K in `_quot` (`_quot[j]` is d_{j+1}, the radix of digit
    j).  `_grow` appends to these same two lists under `_grow_lock`, one
    index at a time as far as a call needs, and stops for good once the
    table is full: its last value has more than _LEAF_BITS bits and it
    reaches one period past the prefix.  It then sets `_span` to (w, g_{L+w}
    / g_L), w the whole periods the table holds past the prefix (L its
    length), so g_{L+kw+o} = g_{L+o} * (g_{L+w} / g_L)^k gives every index
    past the table and memory stays linear in the bits of n.  Only core
    reads the lists; other modules ask `_table`.  `_runs` holds the prefix
    runs and the cycle runs of the quotient stream (see `_cut_runs`) with
    the radices `represent` splits at (see `_digit_tables`), built on the
    first `represent`.
    """

    period: list[int]
    prefix: list[int] | None = None
    _cache: list[int] = field(init=False, repr=False, compare=False)
    _quot: list[int] = field(init=False, repr=False, compare=False)
    _span: tuple[int, int] | None = field(
        init=False, repr=False, compare=False)
    _runs: _Tables | None = field(
        init=False, repr=False, compare=False)
    _grow_lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.prefix = list(self.prefix) if self.prefix else []
        self.period = list(self.period)
        if not self.period:
            raise ValueError("period must be nonempty")
        for d in self.prefix + self.period:
            if d < 2:
                raise ValueError(f"quotient {d} < 2")
        self._cache = [1]  # g_0
        self._quot = []
        self._span = None
        self._runs = None
        self._grow_lock = threading.Lock()

    def quotient(self, i: int) -> int:
        """d_i for i >= 1 (prefix lookup, then periodic)."""
        if i < 1:
            raise DomainError(f"quotients are indexed from 1, got i={i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - 1 - len(self.prefix)) % len(self.period)]

    def value(self, i: int) -> int:
        """g_i = d_1 * d_2 * ... * d_i, exact; g_0 = 1.  Past the full table,
        g_{L+o} times a power of its span (see the class docstring)."""
        if i < 0:
            raise DomainError(f"scale index must be >= 0, got {i}")
        cache = self._cache
        if i >= len(cache):
            if self._span is None:
                self._grow(i)
            if i >= len(cache):
                L = len(self.prefix)
                w, span = self._span
                k, o = divmod(i - L, w)
                return cache[L + o] * span ** k
        return cache[i]

    def _grow(self, i: int, n: int = -1) -> None:
        """Append to the scale table until it holds g_i and a value above n,
        or until it is full; the full table sets `_span`."""
        with self._grow_lock:  # the loop checks again under the lock
            cache, quot = self._cache, self._quot
            L, p = len(self.prefix), len(self.period)
            while self._span is None and (i >= len(cache) or cache[-1] <= n):
                d = self.quotient(len(cache))
                quot.append(d)
                cache.append(cache[-1] * d)
                if len(cache) > L + p and cache[-1].bit_length() > _LEAF_BITS:
                    w = (len(cache) - 1 - L) // p * p
                    self._span = (w, cache[L + w] // cache[L])

    def _table(self, n: int) -> tuple[list[int], list[int]]:
        """(g, quot) with quot[j] = d_{j+1} and g[j] = g_j for every j < n:
        the shared table when it covers them, else copies of it extended to
        n, which the caller drops when done."""
        if n > len(self._quot) and self._span is None:
            self._grow(n)
        g, quot = self._cache, self._quot
        if n <= len(quot):
            return g, quot
        L, period = len(self.prefix), self.period
        quot = quot + [period[(j - L) % len(period)]
                       for j in range(len(quot), n)]
        g = g[:]
        for d in quot[len(g) - 1:n - 1]:
            g.append(g[-1] * d)
        return g, quot

    def represent(self, n: int) -> "DigitRep":
        """The unique sparse digit map of n >= 0; 0 maps to the empty rep.

        The run tables read n one `divmod` per block (`_read_runs`) when n
        is below g_L * Q, L the prefix length and Q the leaf radix (see
        `_digit_tables`).  A larger n gives up its prefix digits with one
        `divmod` by g_L, and the quotient is split at cycle-aligned indices
        by `divmod`s by Q, Q^2, Q^4, ... down to leaves below Q (`_split`),
        so no division runs across all of n once per block.  The scale
        table is not touched.
        """
        if n < 0:
            raise DomainError(f"cannot represent negative integer {n}")
        if self._runs is None:
            self._runs = _digit_tables(self.prefix, self.period)
        prefix_runs, cycle_runs, bound, g_L, leaf, width = self._runs
        digits: dict[int, int] = {}
        if n < bound:
            _read_runs(n, chain(prefix_runs, cycle(cycle_runs)), 0, digits)
        else:
            n, r = divmod(n, g_L)
            _read_runs(r, prefix_runs, 0, digits)
            # n < powers[-1]^2 once 2 * (bits of powers[-1] - 1) >= bits of n
            powers, bits = [leaf], n.bit_length()
            while 2 * powers[-1].bit_length() - 2 < bits:
                powers.append(powers[-1] * powers[-1])
            _split(n, len(self.prefix), len(powers) - 1, powers, width,
                   cycle_runs, digits)
        return DigitRep._trusted(digits)

    def evaluate(self, rep: "DigitRep") -> int:
        """Exact sum of x_j * g_j; validates digit ranges against this
        sequence and reports the lowest bad index.

        Digits past the full table are summed per block of its span w:
        block b's digits x at L + b*w + o add up x * g_{L+o} (the prefix
        digits join block 0), and the block sums are joined pairwise by S,
        S^2, S^4, ... (S = g_{L+w} / g_L), the inverse of `represent`'s
        split, so no table past the cap is built."""
        if rep.is_zero():
            return 0
        top = rep.max_index()
        quot, cache = self._quot, self._cache
        if top >= len(quot) and self._span is None:
            self._grow(top + 1)
        if top < len(quot):
            total = 0
            for j, x in rep.items():
                if not 1 <= x < quot[j]:
                    raise DigitRangeError(f"digit {x} at index {j} outside [1, {quot[j] - 1}]")
                total += x * cache[j]
            return total
        L = len(self.prefix)
        w, span = self._span
        blocks = [0] * ((top - L) // w + 1)
        for j, x in rep.items():
            b = max(j - L, 0) // w  # the prefix digits join block 0
            i = j - b * w
            if not 1 <= x < quot[i]:
                raise DigitRangeError(f"digit {x} at index {j} outside [1, {quot[i] - 1}]")
            blocks[b] += x * cache[i]
        while len(blocks) > 1:
            blocks.append(0)
            blocks = [lo + hi * span for lo, hi in zip(blocks[::2], blocks[1::2])]
            if len(blocks) > 1:
                span *= span
        return blocks[0]

    def leading_index(self, n: int) -> int:
        """Largest index in the support of n >= 1; g_M <= n < g_{M+1}.

        Grows the scale table past n, up to its cap, and bisects it.  Past
        the full table it is the top index of `represent(n)`, which splits
        n in linear memory."""
        if n < 1:
            raise DomainError("leading index is undefined for n < 1 (empty support)")
        cache = self._cache
        if cache[-1] > n:
            return bisect_right(cache, n) - 1
        if self._span is None:
            self._grow(0, n)
        if cache[-1] > n:  # again: the table may have grown since
            return bisect_right(cache, n) - 1
        return self.represent(n).max_index()

    def serialize(self) -> str:
        return f"prefix={self.prefix!r};period={self.period!r}".replace(" ", "")

    @classmethod
    def parse(cls, text: str) -> "GadicSequence":
        parts = _parse_fields(text, ("prefix", "period"))
        return cls(prefix=_parse_int_list(parts["prefix"]),
                   period=_parse_int_list(parts["period"]))


@dataclass(frozen=True)
class DigitRep:
    """Sparse digit map index -> digit, keys in ascending index order (the
    constructor sorts them once); the empty map is 0."""

    digits: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        digits = dict(sorted(self.digits.items()))
        if digits and (next(iter(digits)) < 0 or min(digits.values()) < 1):
            for j, x in digits.items():
                if j < 0:
                    raise ValueError(f"negative digit index {j}")
                if x < 1:
                    raise ValueError(f"stored digit must be positive, got {x} at {j}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def _trusted(cls, digits: dict[int, int]) -> "DigitRep":
        """A rep of valid digits inserted in ascending index order, unchecked."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "digits", digits)
        return rep

    def items(self) -> Iterator[tuple[int, int]]:
        """(index, digit) pairs in increasing index order."""
        return iter(self.digits.items())

    def max_index(self) -> int:
        if not self.digits:
            raise DomainError("0 has empty support")
        return next(reversed(self.digits))

    def is_zero(self) -> bool:
        return not self.digits

    def serialize(self) -> str:
        return ",".join(f"{j}:{x}" for j, x in self.items())

    @classmethod
    def parse(cls, text: str) -> "DigitRep":
        text = text.strip()
        if not text:
            return cls({})
        digits = {}
        for pair in text.split(","):
            j, x = map(int, pair.split(":"))
            if j in digits:
                raise ValueError(f"repeated digit index {j}")
            digits[j] = x
        return cls(digits)


def _cut_runs(quots: list[int]) -> list[_Run]:
    """Cut quots greedily into runs of consecutive quotients whose product
    is at most _BLOCK.  A quotient above _BLOCK is a run of its own and gets
    no table, so memory stays bounded whatever the quotients."""
    runs: list[_Run] = []
    start = 0
    while start < len(quots):
        end, B = start + 1, quots[start]
        while end < len(quots) and B * quots[end] <= _BLOCK:
            B *= quots[end]
            end += 1
        rows = None
        if B <= _BLOCK:
            # One digit position at a time: row x * (product so far) + r is
            # row r plus the pair (o, x).
            rows = [()]
            for o, d in enumerate(quots[start:end]):
                rows = [row + ((o, x),) if x else row
                        for x in range(d) for row in rows]
        runs.append((B, end - start, rows))
        start = end
    return runs


def _digit_tables(prefix: list[int], period: list[int]) -> _Tables:
    """`represent`'s tables (see `_Tables`).  The cycle repeats the period
    as many whole times as fit in one run ([2] -> 2^8, [2, 3] -> 6^3), and
    the leaf radix Q is the smallest power of its radix with more than
    _LEAF_BITS bits."""
    reps = 1
    P = math.prod(period)
    while P ** (reps + 1) <= _BLOCK:
        reps += 1
    P **= reps
    leaf, cycles = P, 1
    while leaf.bit_length() <= _LEAF_BITS:
        leaf *= P
        cycles += 1
    g_L = math.prod(prefix)
    return (_cut_runs(prefix), _cut_runs(period * reps), g_L * leaf, g_L,
            leaf, cycles * reps * len(period))


def _read_runs(n: int, runs: Iterable[_Run], j: int,
               digits: dict[int, int]) -> None:
    """Insert the digits of n from index j up into `digits`, one `divmod`
    per run of `runs` until n is used up: the remainder modulo the run's
    block radix selects the table row holding that block's digits."""
    for B, width, rows in runs:
        if not n:
            break
        n, r = divmod(n, B)
        if rows is None:
            if r:
                digits[j] = r
        else:
            for o, x in rows[r]:
                digits[j + o] = x
        j += width


def _split(n: int, j: int, level: int, powers: list[int], width: int,
           runs: list[_Run], digits: dict[int, int]) -> None:
    """Insert the digits of n < powers[level + 1], read from the
    cycle-aligned index j, into `digits` in ascending index order.

    powers[i] = Q^(2^i) spans width << i positions: n mod powers[level]
    goes one level down at j, n // powers[level] one level down past it,
    and the run tables read the leaves (level -1).  Module-level, since a
    nested function that calls itself is a reference cycle and would leave
    each large call's digit dict to the cyclic garbage collector."""
    if level < 0:
        _read_runs(n, cycle(runs), j, digits)
        return
    hi = 0
    if n >= powers[level]:
        hi, n = divmod(n, powers[level])
    if n:
        _split(n, j, level - 1, powers, width, runs, digits)
    if hi:
        _split(hi, j + (width << level), level - 1, powers, width, runs,
               digits)


def _parse_fields(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """Read `key=value;key=value;...` holding each of `keys` exactly once."""
    text = text.strip()
    fields: dict[str, str] = {}
    for part in text.split(";"):
        key, _, value = part.partition("=")
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {text!r} "
                             f"(keys: {', '.join(keys)})")
        if key in fields:
            raise ValueError(f"repeated key {key!r} in {text!r}")
        fields[key] = value
    for key in keys:
        if key not in fields:
            raise ValueError(f"missing key {key!r} in {text!r}")
    return fields


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed integer list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [int(tok) for tok in inner.split(",")]
