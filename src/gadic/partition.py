"""Eventually periodic colorings of the nonnegative integers.

A partition into h classes is a total coloring function given by a finite
prefix of colors followed by a repeating pattern.  The t-interval machinery
finds, per class i, the right endpoints M of monochromatic windows
[M - t + 1, M]; families are stored as residue classes modulo the coloring
period (a genuine witness of infinitude) plus finitely many prefix members.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import DomainError, _parse_fields, _parse_int_list


class HypothesisViolatedError(RuntimeError):
    """A construction hypothesis fails (e.g. an empty interval family)."""


@dataclass
class PartitionSpec:
    """Coloring of the nonnegative integers into classes 0..h-1."""

    h: int
    period_colors: list[int]
    prefix_colors: list[int] | None = None

    def __post_init__(self):
        self.prefix_colors = list(self.prefix_colors) if self.prefix_colors else []
        self.period_colors = list(self.period_colors)
        if self.h < 2:
            raise ValueError(f"need at least 2 classes, got h={self.h}")
        if not self.period_colors:
            raise ValueError("period_colors must be nonempty")
        for c in self.prefix_colors + self.period_colors:
            if not 0 <= c < self.h:
                raise ValueError(f"color {c} outside [0, {self.h - 1}]")
        missing = set(range(self.h)) - set(self.period_colors)
        if missing:
            raise ValueError(
                f"classes {sorted(missing)} absent from the period; "
                "every class must recur infinitely often")

    def color(self, j: int) -> int:
        if j < 0:
            raise DomainError(f"color index must be >= 0, got {j}")
        if j < len(self.prefix_colors):
            return self.prefix_colors[j]
        return self.period_colors[(j - len(self.prefix_colors)) % len(self.period_colors)]

    def serialize(self) -> str:
        return (f"h={self.h};prefix={self.prefix_colors!r};"
                f"period={self.period_colors!r}").replace(" ", "")

    @classmethod
    def parse(cls, text: str) -> "PartitionSpec":
        parts = _parse_fields(text, ("h", "prefix", "period"))
        return cls(h=int(parts["h"]),
                   prefix_colors=_parse_int_list(parts["prefix"]),
                   period_colors=_parse_int_list(parts["period"]))


def min_t(h: int) -> int:
    """Smallest t with 2**(t-1) >= h."""
    if h < 2:
        raise DomainError(f"order must be >= 2, got h={h}")
    return (h - 1).bit_length() + 1


@dataclass
class IntervalFamilies:
    """Per class, the (possibly empty) set of window right-endpoints.

    For M >= threshold the window [M-t+1, M] lies entirely in the periodic
    region, so membership depends only on M mod modulus; smaller endpoints
    whose window touches the prefix are listed explicitly.
    """

    modulus: int
    threshold: int
    residues: list[set[int]]     # per class, residues mod `modulus`
    prefix_members: list[list[int]]  # per class, sorted members < threshold

    def is_infinite(self, i: int) -> bool:
        return bool(self.residues[i])

    def members_from(self, i: int, lower: int):
        """Yield family members of class i >= lower in increasing order; a
        class with no residues raises once its prefix members run out."""
        yield from (M for M in self.prefix_members[i] if M >= lower)
        residues = sorted(self.residues[i])
        if not residues:
            raise HypothesisViolatedError(
                f"class {i} has no periodic window endpoint")
        start = max(lower, self.threshold)
        base = start - start % self.modulus
        while True:
            for r in residues:
                if base + r >= start:
                    yield base + r
            base += self.modulus


def detect_interval_families(spec: PartitionSpec, t: int) -> IntervalFamilies:
    """Find all M whose trailing t-window is monochromatic, per class.

    Empty families are a legitimate result: they mean the interval
    hypothesis fails for this (partition, t).
    """
    if t < 1:
        raise DomainError(f"window length must be >= 1, got t={t}")
    L = len(spec.prefix_colors)
    P = len(spec.period_colors)
    # windows ending at M >= threshold lie wholly in the periodic region
    threshold = L + t - 1
    residues: list[set[int]] = [set() for _ in range(spec.h)]
    prefix_members: list[list[int]] = [[] for _ in range(spec.h)]

    def mono_class(M: int) -> int | None:
        c = spec.color(M)
        for j in range(M - t + 1, M):
            if spec.color(j) != c:
                return None
        return c

    for M in range(threshold, threshold + P):
        c = mono_class(M)
        if c is not None:
            residues[c].add(M % P)
    # endpoints whose window touches the prefix (window must fit in N_0)
    for M in range(t - 1, threshold):
        c = mono_class(M)
        if c is not None:
            prefix_members[c].append(M)
    return IntervalFamilies(modulus=P, threshold=threshold,
                            residues=residues, prefix_members=prefix_members)
