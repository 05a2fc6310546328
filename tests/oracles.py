"""Slow window oracles the tests check the library against, and
`run_minimality`, which runs every round of verify_minimality.

The oracles enumerate members inside a finite window and count ordered
tuples exhaustively, so they share nothing with the digit DP but the
member window itself.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right

from gadic import (BasisReport, BasisSpec, DomainError, MemberWindow,
                   WitnessCertificate, verify_minimality)
from gadic.repcount import RepCountResult


def run_minimality(spec: BasisSpec, t: int, K: int, W: int,
                   override: bool = False
                   ) -> tuple[BasisReport, list[WitnessCertificate]]:
    """verify_minimality's Theorem 1 precheck report and the certificates
    of all its rounds, in order."""
    report, rounds = verify_minimality(spec, t, K, W, override)
    return report, [cert for certs in rounds for cert in certs]


def count_reps_bruteforce(window: MemberWindow, n: int, h: int,
                          zero_allowed: bool = False) -> RepCountResult:
    """Exhaustive ordered-tuple count over a precomputed member window, by
    recursive h-way composition with pruning."""
    if n > window.N:
        raise DomainError(f"n={n} exceeds the enumerated window [0, {window.N}]")
    if h < 1:
        raise DomainError(f"need h >= 1, got {h}")
    pool = [0] + window.members if zero_allowed else window.members
    allowed = frozenset(pool)

    def rec(slots: int, rem: int) -> int:
        if slots == 1:
            return int(rem in allowed)
        # the other slots - 1 summands are >= 1 each unless 0 is allowed
        top = bisect_right(pool, rem if zero_allowed else rem - slots + 1)
        return sum(rec(slots - 1, rem - m) for m in pool[:top])

    return RepCountResult(ordered_count=rec(h, n))


def window_counts(window: MemberWindow, h: int,
                  zero_allowed: bool = False) -> list[int]:
    """The ordered h-tuple count of every n in [0, window.N] at once: the
    tuples of k summands come from those of k - 1 by adding each member,
    so one pass per summand replaces count_reps_bruteforce's recursion for
    each n when h is large."""
    N = window.N
    pool = [0] + window.members if zero_allowed else window.members
    counts = [0] * (N + 1)
    counts[0] = 1
    for _ in range(h):
        nxt = [0] * (N + 1)
        for s, ways in enumerate(counts):
            if ways:
                for m in pool:
                    if s + m > N:
                        break
                    nxt[s + m] += ways
        counts = nxt
    return counts


def cross_check_witness(spec: BasisSpec, cert: WitnessCertificate,
                        window: MemberWindow) -> bool:
    """Independent brute-force confirmation for window-sized witnesses.
    Each distinct permutation of h member values summing to n represents n,
    so an equal brute-force count means there are no other representations,
    and the count over the set with a removed must be zero."""
    n, values = cert.n_value, cert.multiset
    if n > window.N:
        raise DomainError(f"witness {n} exceeds window [0, {window.N}]")
    if (len(values) != spec.h or sum(values) != n
            or not frozenset(window.members).issuperset(values)):
        return False
    expected = len(set(itertools.permutations(values)))
    if count_reps_bruteforce(window, n, spec.h).ordered_count != expected:
        return False
    reduced = MemberWindow(N=window.N,
                           members=[m for m in window.members if m != cert.removed],
                           mask=window.mask & ~(1 << cert.removed))
    return count_reps_bruteforce(reduced, n, spec.h).ordered_count == 0
