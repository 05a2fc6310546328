"""Exact mixed-radix arithmetic.

A scale sequence g_0 = 1, g_1, g_2, ... is described by its quotients
d_i = g_i / g_{i-1} >= 2, given as a finite prefix followed by a repeating
period.  Every positive integer has a unique expansion n = sum x_j * g_j
with digits x_j in [0, d_{j+1} - 1]; we store only the nonzero digits.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, cycle
from typing import Iterable, Iterator

# Largest block radix of a run of quotients; a run's digit table has one
# row per remainder, so this bounds each table at 256 rows.
_BLOCK = 1 << 8

# (block radix B, width, rows): rows[r] holds the (offset, digit) pairs of
# the nonzero digits of r < B; None for a lone quotient above _BLOCK.
_Run = tuple[int, int, "list[tuple[tuple[int, int], ...]] | None"]

# The leaf radix Q is the smallest power of the cycle radix with more than
# this many bits; the run tables read the leaves below Q one `divmod` per
# run, and the scale table ends one Q past the prefix.  On [2] at 8,192
# bits, leaves of 64, 128, 256, 512 and 1024 bits took 0.60, 0.57, 0.53,
# 0.53 and 0.60 ms.
_LEAF_BITS = 256


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DigitRangeError(ValueError):
    """A digit violates its allowed range [1, d_{j+1} - 1]."""


@dataclass(frozen=True)
class GadicSequence:
    """The quotient stream (d_i), its scale table and the digit tables of
    `represent`.

    Every table is derived from (prefix, period), two tuples of a frozen
    instance, and built in one piece on first use, then never changed, so
    threads share them with no lock: threads racing on a first build
    compute equal tables.  `_span` is (reps, Q, w): the cycle repeats the
    period `reps` times, as many as fit in one run ([2] -> 2^8, [2, 3] ->
    6^3), and the leaf radix Q, the smallest power of the cycle radix with
    more than _LEAF_BITS bits, spans w positions.  The scale table holds
    g_0..g_K in `_cache` and d_1..d_K in `_quot` (`_quot[j]` is d_{j+1},
    the radix of digit j), K = L + w with L the prefix length, so
    g_K = g_L * Q and g_{L+kw+o} = g_{L+o} * Q^k gives every index past
    it: memory stays linear in the bits of n.  Only core reads these; the
    lemma helpers (`repcount.check_prefix_inequality`,
    `verifier.random_alternate_decomposition`) are the last readers of
    `_table` outside core, and the two go together.  `_runs` holds the
    prefix runs and the cycle runs of the quotient stream (see
    `_cut_runs`), the bound g_L * Q below which `represent` reads n with
    no split, and g_L; `represent` never builds the scale table.
    """

    period: tuple[int, ...]
    prefix: tuple[int, ...] = ()

    # no caller keys on a sequence, and a cache keyed on one would keep
    # its tables alive
    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix or ()))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")
        for d in self.prefix + self.period:
            if d < 2:
                raise ValueError(f"quotient {d} < 2")

    @cached_property
    def _span(self) -> tuple[int, int, int]:
        reps = 1
        P = math.prod(self.period)
        while P ** (reps + 1) <= _BLOCK:
            reps += 1
        P **= reps
        Q, cycles = P, 1
        while Q.bit_length() <= _LEAF_BITS:
            Q *= P
            cycles += 1
        return reps, Q, cycles * reps * len(self.period)

    @cached_property
    def _runs(self) -> tuple[list[_Run], list[_Run], int, int]:
        reps, Q, _ = self._span
        g_L = math.prod(self.prefix)
        return (_cut_runs(self.prefix), _cut_runs(self.period * reps),
                g_L * Q, g_L)

    @cached_property
    def _quot(self) -> list[int]:
        return list(self.prefix + self.period * (self._span[2] // len(self.period)))

    @cached_property
    def _cache(self) -> list[int]:
        return list(accumulate(self._quot, operator.mul, initial=1))

    def quotient(self, i: int) -> int:
        """d_i for i >= 1 (prefix lookup, then periodic)."""
        if i < 1:
            raise DomainError(f"quotients are indexed from 1, got i={i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - 1 - len(self.prefix)) % len(self.period)]

    def value(self, i: int) -> int:
        """g_i = d_1 * d_2 * ... * d_i, exact; g_0 = 1.  Past the scale
        table, g_{L+o} * Q^k (see the class docstring)."""
        if i < 0:
            raise DomainError(f"scale index must be >= 0, got {i}")
        cache = self._cache
        if i < len(cache):
            return cache[i]
        L = len(self.prefix)
        _, Q, w = self._span
        k, o = divmod(i - L, w)
        return cache[L + o] * Q ** k

    def _table(self, n: int) -> tuple[list[int], list[int]]:
        """(g, quot) with quot[j] = d_{j+1} and g[j] = g_j for every j < n:
        the shared scale table when it covers them, else copies of it
        extended to n, which the caller drops when done."""
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
        is below g_L * Q, L the prefix length and Q the leaf radix (see the
        class docstring).  A larger n gives up its prefix digits with one
        `divmod` by g_L, and the quotient is split at cycle-aligned indices
        by `divmod`s by Q, Q^2, Q^4, ... down to leaves below Q (`_split`),
        so no division runs across all of n once per block.  The scale
        table is not touched.
        """
        if n < 0:
            raise DomainError(f"cannot represent negative integer {n}")
        prefix_runs, cycle_runs, bound, g_L = self._runs
        digits: dict[int, int] = {}
        if n < bound:
            _read_runs(n, chain(prefix_runs, cycle(cycle_runs)), 0, digits)
        else:
            n, r = divmod(n, g_L)
            _read_runs(r, prefix_runs, 0, digits)
            _, Q, w = self._span
            # n < powers[-1]^2 once 2 * (bits of powers[-1] - 1) >= bits of n
            powers, bits = [Q], n.bit_length()
            while 2 * powers[-1].bit_length() - 2 < bits:
                powers.append(powers[-1] * powers[-1])
            _split(n, len(self.prefix), len(powers) - 1, powers, w,
                   cycle_runs, digits)
        return DigitRep._trusted(digits)

    def evaluate(self, rep: "DigitRep") -> int:
        """Exact sum of x_j * g_j; validates digit ranges against this
        sequence and reports the lowest bad index.

        Digits past the scale table are summed per block of w positions:
        block b's digits x at L + b*w + o add up x * g_{L+o} (the prefix
        digits join block 0), and the block sums are joined pairwise by Q,
        Q^2, Q^4, ..., the powers `represent` splits by, so no table past
        g_K is built."""
        if rep.is_zero():
            return 0
        top = rep.max_index()
        quot, cache = self._quot, self._cache
        if top < len(quot):
            total = 0
            for j, x in rep.items():
                if not 1 <= x < quot[j]:
                    raise DigitRangeError(f"digit {x} at index {j} outside [1, {quot[j] - 1}]")
                total += x * cache[j]
            return total
        L = len(self.prefix)
        _, Q, w = self._span
        blocks = [0] * ((top - L) // w + 1)
        for j, x in rep.items():
            b = max(j - L, 0) // w  # the prefix digits join block 0
            i = j - b * w
            if not 1 <= x < quot[i]:
                raise DigitRangeError(f"digit {x} at index {j} outside [1, {quot[i] - 1}]")
            blocks[b] += x * cache[i]
        while len(blocks) > 1:
            blocks.append(0)
            blocks = [lo + hi * Q for lo, hi in zip(blocks[::2], blocks[1::2])]
            if len(blocks) > 1:
                Q *= Q
        return blocks[0]

    def leading_index(self, n: int) -> int:
        """Largest index in the support of n >= 1; g_M <= n < g_{M+1}.

        Bisects the scale table when n < g_K; a larger n gets the top
        index of `represent(n)`, which splits n in linear memory."""
        if n < 1:
            raise DomainError("leading index is undefined for n < 1 (empty support)")
        cache = self._cache
        if n < cache[-1]:
            return bisect_right(cache, n) - 1
        return self.represent(n).max_index()

    def serialize(self) -> str:
        return (f"prefix={list(self.prefix)!r};"
                f"period={list(self.period)!r}").replace(" ", "")

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
