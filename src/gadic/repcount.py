"""Counting representations of n as ordered h-tuples of set members.

The count is a digit-level dynamic program whose state is the additive
carry plus the multiset of summand class commitments; it scales to
arbitrarily large n.  The window brute force it is tested against is in
`tests/oracles.py`.  Window sumsets come from the digit-box kernel in
`basis`; here are the gap reader and the member shift-OR the tests check
that kernel against, both on one bit reader, `_low_bits`.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .core import DigitRep, DigitRangeError, DomainError, GadicSequence
from .basis import BasisSpec

@dataclass
class RepCountResult:
    ordered_count: int
    peak_states: int | None = None  # digit DP: most live states after a step


def _low_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask >= 0, ascending: one conversion to
    a binary string, then one C-level search per set bit from the low end."""
    bits = format(mask, "b")
    top = len(bits) - 1
    out = []
    i = bits.rfind("1")
    while i >= 0:
        out.append(top - i)
        i = bits.rfind("1", 0, i)
    return out


def hfold_sumset_window(mask: int, N: int, h: int) -> int:
    """Iterated shift-OR: bit n of the result is set iff n <= N is a sum of
    exactly h set bits (with repetition) of `mask`."""
    if h < 1:
        raise DomainError(f"need h >= 1, got {h}")
    clip = (1 << (N + 1)) - 1
    mask &= clip
    shifts = _low_bits(mask)
    acc = mask
    for _ in range(h - 1):
        nxt = 0
        for s in shifts:
            nxt |= acc << s
        acc = nxt & clip
    return acc


def sumset_gaps(sumset: int, N: int) -> list[int]:
    """The n in [0, N] missing from a window sumset bit array (from
    `basis._add_members` or `hfold_sumset_window`), ascending, read off the
    complement: O(N/64) in C plus O(gaps) in Python."""
    return _low_bits(~sumset & ((1 << (N + 1)) - 1))


# Status of a summand that has no nonzero digit yet; sorts before every class.
EMPTY = -1


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Shared by all calls and needs no size limit: per configuration and order h
# there are at most (distinct segment radices D) x (classes) x C(2h, h) keys,
# C(2h, h) being the sorted status tuples (70 for h = 4), however large the
# inputs.  A radix is a lone quotient or a product of quotients of at most
# _SEGMENT_BOUND, and the polynomials below have degree below h times it.
@lru_cache(maxsize=None)
def _transitions(d: int, c: int, statuses: tuple[int, ...]
                 ) -> tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]:
    """The digit multisets at a (quotient d, class c) position, or at a
    segment of class-c positions read as one digit of radix d.

    `statuses` is sorted.  Summands committed to a class other than c must
    take digit 0; the k committed to c take any digit in [0, d-1]; of the e
    EMPTY ones, m take a nonzero digit and commit to c, in C(e, m) ways.
    Returns d groups of (next sorted statuses, digit sum, number of ordered
    digit vectors) triples, group q holding the sums that are q mod d: the
    multiplicity of sum s for a given m is
    C(e, m) [x^s] (1 + x + ... + x^(d-1))^k (x + ... + x^(d-1))^m.
    """
    e = statuses.count(EMPTY)
    k = statuses.count(c)
    others = tuple(st for st in statuses if st != EMPTY and st != c)
    poly = [1]
    for _ in range(k):
        poly = _poly_mul(poly, [1] * d)
    out = []
    for m in range(e + 1):
        nxt = tuple(sorted(others + (c,) * (k + m) + (EMPTY,) * (e - m)))
        ways = math.comb(e, m)
        out += [(nxt, s, ways * coef) for s, coef in enumerate(poly) if coef]
        poly = _poly_mul(poly, [0] + [1] * (d - 1))
    return tuple(tuple(move for move in out if move[1] % d == q)
                 for q in range(d))


# Interned live-state sets, shared by all threads and configurations: _SETS[i]
# is a sorted tuple of (carry, sorted statuses) keys; _SET_IDS maps it to i.
_SETS: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
_SET_IDS: dict[tuple, int] = {}
_INTERN_LOCK = threading.Lock()


def _intern(states: tuple) -> int:
    with _INTERN_LOCK:
        if states not in _SET_IDS:
            _SET_IDS[states] = len(_SETS)
            _SETS.append(states)
        return _SET_IDS[states]


# A compiled DP step: (next set id, the ways of that set from the last).
_Step = tuple[int, Callable[[list[int]], list[int]]]


# No size limit, like _transitions: per configuration the keys are its
# reachable live sets times its (segment radix, class, segment digit)
# triples.
@lru_cache(maxsize=None)
def _advance(set_id: int, d: int, c: int, r: int) -> _Step:
    """One DP step from live set `set_id` over a class-c segment of radix
    d where n reads r, compiled from the edges between the two live sets.
    A source with carry v reads only the _transitions group of the digit
    sums that are r - v mod d.

    The step is one generated function, `lambda p: [p[0] + p[3]*2, ...]`,
    with one sum per target over its edges, each the source's ways times
    the edge's multiplicity.  A source has at most one edge to a target:
    its moves to one status tuple differ in digit sum, hence in carry.
    The text holds only integers and is evaluated with no builtins.  A
    segment read r >= d means some digit of n is out of range: refused
    here, on the memo miss, so a warm step pays nothing for the check."""
    if r >= d:
        raise DigitRangeError(f"digits of n read {r} on a class-{c} segment "
                              f"of radix {d}: some digit is out of range")
    terms: dict[tuple[int, tuple[int, ...]], list[str]] = {}
    for s, (carry, statuses) in enumerate(_SETS[set_id]):
        for sts, tot, mult in _transitions(d, c, statuses)[(r - carry) % d]:
            carry_out = (tot + carry) // d
            if carry_out > len(statuses):
                raise RuntimeError("counting engine bug: carry "
                                   f"{carry_out} exceeds h={len(statuses)}")
            terms.setdefault((carry_out, sts), []).append(
                f"p[{s}]" if mult == 1 else f"p[{s}]*{mult}")
    states = tuple(sorted(terms))
    return _intern(states), _compile(
        ",".join("+".join(terms[key]) for key in states))


# One compiled function per distinct step text: different (set, segment)
# keys often compile to the same sums.  The functions read no globals, so
# they share one namespace with no builtins.
_NO_BUILTINS: dict = {"__builtins__": {}}


@lru_cache(maxsize=None)
def _compile(sums: str) -> Callable[[list[int]], list[int]]:
    return eval(f"lambda p: [{sums}]", _NO_BUILTINS)


# A DP state between steps: (live set id, ways per live state, most live
# states after a step so far).
_DPState = tuple[int, list[int], int]


@lru_cache(maxsize=None)
def _end_sets(h: int) -> tuple[int, int]:
    """Ids of the live set below position 0 (carry 0, every summand EMPTY)
    and of the final one (carry 0, summand i committed to class i)."""
    return _intern(((0, (EMPTY,) * h),)), _intern(((0, tuple(range(h))),))


def _dp_start(h: int) -> _DPState:
    """The state below position 0: carry 0, every summand EMPTY."""
    return _end_sets(h)[0], [1], 1


# A DP step covers a segment: a run of consecutive positions of one class
# whose quotients multiply to D <= _SEGMENT_BOUND (a lone position of a
# larger quotient is a segment of its own).  Only summands committed to the
# class or EMPTY take digits there, so the run reads as one digit of radix D.
# The bound is small because a cold step costs more as D grows (the degree
# of _transitions' polynomials, and one compiled _advance step per segment
# digit): 8 keeps a cold first call within twice that of one position per
# step and still merges the runs of every preset whole (products 4, 6, 8).
_SEGMENT_BOUND = 8


def _dp_steps(state: _DPState, quots: list[int], colors: list[int], digit,
              lo: int, hi: int, h: int, classes: int) -> _DPState:
    """Advance `state` over positions [lo, hi), where position j has
    quotient quots[j], class colors[j] and n's digit digit(j, 0), one step
    per segment: the segment's digits of n read in radix D = the product of
    its quotients.  A warm step is one _advance memo lookup and one call
    of the step it compiled.  Stops early once the live set is empty (it
    stays empty), and, when h equals the partition's number of classes,
    once it is exactly {carry 0, one summand committed to each class}:
    every later digit then belongs to exactly one summand and leaves no
    carry, so every later step leaves the state as it is.  With h other
    than the class count that set is not final (a class with no summand,
    or a spare summand), so the walk goes on."""
    set_id, ways, peak = state
    done = _end_sets(h)[1] if h == classes else -1
    j = lo
    while j < hi and set_id != done:
        c, D, R = colors[j], quots[j], digit(j, 0)
        j += 1
        while j < hi and colors[j] == c and D * quots[j] <= _SEGMENT_BOUND:
            R += digit(j, 0) * D
            D *= quots[j]
            j += 1
        set_id, step = _advance(set_id, D, c, R)
        ways = step(ways)
        if len(ways) > peak:
            peak = len(ways)
        elif not ways:
            break
    return set_id, ways, peak


def _dp_accept(state: _DPState, zero_allowed: bool) -> int:
    """The count of a state past the top digit of n."""
    set_id, ways, _ = state
    # every summand is <= n < g_{top+1}, so their digits above top are 0 and
    # a nonzero carry out of the top digit would make the sum exceed n
    return sum(w for (carry, sts), w in zip(_SETS[set_id], ways)
               if carry == 0 and (zero_allowed or EMPTY not in sts))


def count_reps_digitdp(spec: BasisSpec, n: DigitRep, h: int,
                       zero_allowed: bool = False) -> RepCountResult:
    """Exact ordered representation count via a carry/commitment DP.

    Processes digit positions upward; at each position every summand takes
    a digit in [0, d-1], and a nonzero digit commits its summand to the
    position's class (a committed summand never changes class).  The count
    is symmetric under permuting the summands, so a state is (carry, sorted
    summand statuses) and its ways count every ordering; the carry never
    exceeds h.  One step covers a run of same-class positions (see
    _dp_steps), and the walk ends early once no state is left or, when h
    is the partition's class count, once each class holds one summand and
    no carry is left.  Accepts carry 0 out of the top digit of n and,
    unless zero_allowed, every summand committed.  peak_states is the
    most live states after any step.

    A digit of n at or above its position's quotient either raises
    DigitRangeError or leaves the count exact for the value sum x_j g_j:
    a segment's digits are read as one value, which is refused when it
    reaches the segment's radix, so a too-large digit at its top raises
    and one below carries into the segment's next position.
    """
    if h < 2:
        raise DomainError(f"need h >= 2, got {h}")
    top = n.max_index() if not n.is_zero() else -1
    quots, colors = spec._positions(top + 1)
    state = _dp_steps(_dp_start(h), quots, colors, n.digits.get, 0, top + 1,
                      h, spec.h)
    return RepCountResult(_dp_accept(state, zero_allowed), peak_states=state[2])


@dataclass
class PrefixInequalityReport:
    """Per-cutoff comparison of a canonical expansion against an alternate
    decomposition of the same integer."""

    n: int
    cutoffs: list[int]            # u_k for k = 1..p
    lhs: list[int]                # canonical partial sums
    rhs: list[int]                # alternate partial sums
    holds: list[bool]

    @property
    def all_hold(self) -> bool:
        return all(self.holds)


def check_prefix_inequality(seq: GadicSequence, canonical: DigitRep,
                            alt: list[tuple[int, int]]) -> PrefixInequalityReport:
    """For every canonical support index u_k, check that the canonical
    partial sum up to u_k never exceeds the alternate decomposition's
    partial sum over terms with index <= u_k.

    `alt` is a list of (index v_j, coefficient y_j) pairs, indices not
    necessarily distinct; both sides must evaluate to the same integer.
    """
    if canonical.is_zero():
        raise DomainError("canonical representation must be of a positive integer")
    alt = sorted(alt)
    if alt and alt[0][0] < 0:
        # the index of d_{v+1}, as GadicSequence.quotient reports it
        raise DomainError(f"quotients are indexed from 1, got i={alt[0][0] + 1}")
    g, quot = seq._table(max(canonical.max_index(), alt[-1][0] if alt else 0) + 1)
    sums = [0]  # sums[i]: the sum of the first i sorted alternate terms
    for v, y in alt:
        if not 1 <= y < quot[v]:
            raise DigitRangeError(f"alternate coefficient {y} at index {v} "
                                  f"outside [1, {quot[v] - 1}]")
        sums.append(sums[-1] + y * g[v])
    indices = [v for v, _ in alt]
    lhs, n = [], 0  # the last canonical partial sum is n
    for u_k, x in canonical.items():
        if not 1 <= x < quot[u_k]:
            raise DigitRangeError(f"digit {x} at index {u_k} outside [1, {quot[u_k] - 1}]")
        n += x * g[u_k]
        lhs.append(n)
    cutoffs = list(canonical.digits)
    rhs = [sums[bisect_right(indices, u_k)] for u_k in cutoffs]
    if sums[-1] != n:
        raise DomainError(f"decompositions disagree: canonical={n}, alternate={sums[-1]}")
    return PrefixInequalityReport(n=n, cutoffs=cutoffs, lhs=lhs, rhs=rhs,
                                  holds=[a <= b for a, b in zip(lhs, rhs)])
