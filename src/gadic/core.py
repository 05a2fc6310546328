"""Exact mixed-radix arithmetic.

A scale sequence g_0 = 1, g_1, g_2, ... is described by its quotients
d_i = g_i / g_{i-1} >= 2, given as a finite prefix followed by a repeating
period.  Every positive integer has a unique expansion n = sum x_j * g_j
with digits x_j in [0, d_{j+1} - 1]; we store only the nonzero digits.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, cycle
from typing import Iterator


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DigitRangeError(ValueError):
    """A digit violates its allowed range [1, d_{j+1} - 1]."""


class GadicSequence:
    """The quotient stream (d_i) and a lazily grown scale table.

    The table holds g_0..g_k in `_cache` and, in step with it, the quotients
    d_1..d_k in `_quot` (`_quot[j]` is d_{j+1}, the radix of digit j).  Only
    `value` grows it; the digit loops index both lists directly.
    """

    def __init__(self, period: list[int], prefix: list[int] | None = None):
        prefix = list(prefix) if prefix else []
        period = list(period)
        if not period:
            raise ValueError("period must be nonempty")
        for d in prefix + period:
            if d < 2:
                raise ValueError(f"quotient {d} < 2")
        self.prefix = prefix
        self.period = period
        self._cache = [1]  # g_0
        self._quot: list[int] = []

    def quotient(self, i: int) -> int:
        """d_i for i >= 1 (prefix lookup, then periodic)."""
        if i < 1:
            raise DomainError(f"quotients are indexed from 1, got i={i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - 1 - len(self.prefix)) % len(self.period)]

    def value(self, i: int) -> int:
        """g_i = d_1 * d_2 * ... * d_i, exact; g_0 = 1."""
        if i < 0:
            raise DomainError(f"scale index must be >= 0, got {i}")
        cache = self._cache
        while i >= len(cache):
            d = self.quotient(len(cache))
            self._quot.append(d)
            cache.append(cache[-1] * d)
        return cache[i]

    def represent(self, n: int) -> "DigitRep":
        """The unique sparse digit map of n >= 0; 0 maps to the empty rep.

        Divides n down the quotient stream; the scale table is not touched.
        """
        if n < 0:
            raise DomainError(f"cannot represent negative integer {n}")
        digits: dict[int, int] = {}
        for j, d in enumerate(chain(self.prefix, cycle(self.period))):
            if not n:
                break
            n, x = divmod(n, d)
            if x:
                digits[j] = x
        return DigitRep(digits)

    def evaluate(self, rep: "DigitRep") -> int:
        """Exact sum of x_j * g_j; validates digit ranges against this sequence."""
        if rep.is_zero():
            return 0
        self.value(rep.max_index() + 1)
        quot, cache = self._quot, self._cache
        total = 0
        for j, x in rep.items():
            if not 1 <= x < quot[j]:
                raise DigitRangeError(f"digit {x} at index {j} outside [1, {quot[j] - 1}]")
            total += x * cache[j]
        return total

    def leading_index(self, n: int) -> int:
        """Largest index in the support of n >= 1; g_M <= n < g_{M+1}.

        Grows the scale table past n, so g_0..g_{M+1} stay cached, then
        bisects it.
        """
        if n < 1:
            raise DomainError("leading index is undefined for n < 1 (empty support)")
        cache = self._cache
        while cache[-1] <= n:
            self.value(len(cache))
        return bisect_right(cache, n) - 1

    def serialize(self) -> str:
        return f"prefix={self.prefix!r};period={self.period!r}".replace(" ", "")

    @classmethod
    def parse(cls, text: str) -> "GadicSequence":
        parts = dict(p.split("=", 1) for p in text.strip().split(";"))
        return cls(prefix=_parse_int_list(parts["prefix"]),
                   period=_parse_int_list(parts["period"]))

    def __repr__(self) -> str:
        return f"GadicSequence(prefix={self.prefix}, period={self.period})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GadicSequence):
            return NotImplemented
        return self.prefix == other.prefix and self.period == other.period


@dataclass(frozen=True)
class DigitRep:
    """Sparse digit map index -> digit; the empty map is 0."""

    digits: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        digits = self.digits
        if digits and (min(digits) < 0 or min(digits.values()) < 1):
            for j, x in sorted(digits.items()):
                if j < 0:
                    raise ValueError(f"negative digit index {j}")
                if x < 1:
                    raise ValueError(f"stored digit must be positive, got {x} at {j}")

    @property
    def support(self) -> list[int]:
        """Sorted nonzero-digit positions."""
        return sorted(self.digits)

    def items(self) -> Iterator[tuple[int, int]]:
        """(index, digit) pairs in increasing index order."""
        return iter(sorted(self.digits.items()))

    def max_index(self) -> int:
        if not self.digits:
            raise DomainError("0 has empty support")
        return max(self.digits)

    def digit(self, j: int) -> int:
        return self.digits.get(j, 0)

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
            j, x = pair.split(":")
            digits[int(j)] = int(x)
        return cls(digits)

    def __len__(self) -> int:
        return len(self.digits)


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed integer list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [int(tok) for tok in inner.split(",")]
