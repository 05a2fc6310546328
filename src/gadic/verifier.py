"""Window verification of the sumset claims and witness certification.

The sumset checks are finite-window, exact computations.  Minimality is
certified per removed element a: the constructed witness n has exactly as
many ordered h-representations as the permutations of its construction
multiset, and a is in that multiset, so every representation of n uses a.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from itertools import groupby, takewhile

from . import __version__
from .core import DigitRep, DomainError
from .basis import BasisSpec, _add_members
from .partition import HypothesisViolatedError, IntervalFamilies, \
    detect_interval_families, min_t
from .repcount import _dp_accept, _dp_start, _dp_steps, _end_sets, \
    check_prefix_inequality, count_reps_digitdp, sumset_gaps


@dataclass
class BasisReport:
    """Outcome of one window sumset check."""

    gaps: list[int]          # values in [0, N] missing from the h-fold sumset
    passed: bool
    elapsed: float


@dataclass
class WitnessCertificate:
    spec_hash: str
    t: int
    removed: int
    removed_rep: DigitRep
    removed_class: int
    M0: int
    chosen_Ms: dict[int, int]           # class index -> M_i (classes != removed_class)
    summands: dict[int, DigitRep]       # class index -> digit map, removed_class included
    n_rep: DigitRep
    n_value: int
    multiset: list[int]                 # sorted summand values
    expected_count: int | None = None
    measured_count: int | None = None
    verdict: str = "unverified"
    engine: str = f"gadic {__version__}"

    def filename(self) -> str:
        ms = "-".join(str(self.chosen_Ms[i]) for i in sorted(self.chosen_Ms))
        return f"cert_{self.removed}_{ms}.txt"

    def render(self, spec: BasisSpec) -> str:
        lines = [
            f"config: {spec.serialize()}",
            f"config-hash: {self.spec_hash}",
            "theorem: minimality-witness",
            f"t: {self.t}",
            f"removed: {self.removed}",
            f"removed-digits: {self.removed_rep.serialize()}",
            f"class: {self.removed_class}",
            f"M0: {self.M0}",
        ]
        for i in sorted(self.chosen_Ms):
            lines.append(f"M[{i}]: {self.chosen_Ms[i]}")
        for i in sorted(self.summands):
            lines.append(f"summand[{i}]: {self.summands[i].serialize()}")
        lines += [
            f"n-digits: {self.n_rep.serialize()}",
            f"n: {self.n_value}",
            f"expected-count: {self.expected_count}",
            f"measured-count: {self.measured_count}",
            f"verdict: {self.verdict}",
            f"engine: {self.engine}",
        ]
        return "\n".join(lines) + "\n"


def spec_hash(spec: BasisSpec, t: int) -> str:
    return hashlib.sha256(f"{spec.serialize()}|t={t}".encode()).hexdigest()[:16]


def _window_report(sumset: int, N: int, expected: list[int],
                   t0: float) -> BasisReport:
    gaps = sumset_gaps(sumset, N)
    return BasisReport(gaps, gaps == expected, time.perf_counter() - t0)


def _hfold(spec: BasisSpec, B: int, N: int, a: int = 0) -> tuple[int, int]:
    """(h(B u {0}), hB) over [0, N] from the caller's bit array B of
    A minus {a} (a = 0 removes nothing), which is the layer 1B: h - 1 more
    rounds of the kernel give the layers kB for k = 2..h, hB last, and
    h(B u {0}) = {0} u kB (k = 1..h)."""
    layer, cover = B, B | 1
    for _ in range(spec.h - 1):
        layer = _add_members(spec, layer, N, a)
        cover |= layer
    return cover, layer


def verify_theorem1(spec: BasisSpec, N: int) -> BasisReport:
    """Pass iff the h-fold sumset over [0, N] misses exactly [0, h-1]:
    Theorem 2's part (b), the second report of `verify_theorem2`."""
    return verify_theorem2(spec, N)[1]


def verify_theorem2(spec: BasisSpec, N: int) -> tuple[BasisReport, BasisReport]:
    """(a) with 0 adjoined the h-fold sumset covers [0, N] entirely;
    (b) removing 0 again restores exactly the order-h gap set.  One pass
    gives both: h(A u {0}) and hA."""
    t0 = time.perf_counter()
    if N < spec.h:
        raise DomainError(f"window bound {N} below order {spec.h}")
    cover, hA = _hfold(spec, _add_members(spec, 1, N), N)
    return (_window_report(cover, N, [], t0),
            _window_report(hA, N, list(range(spec.h)), t0))


def _interval_families(spec: BasisSpec, t: int,
                       override: bool) -> IntervalFamilies:
    """The interval families of the minimality construction, once its
    hypothesis holds: t >= min_t(h) (unless override) and every class has
    monochromatic t-windows that recur in the period."""
    fams = detect_interval_families(spec.partition, t)
    h = spec.h
    if t < min_t(h) and not override:
        raise HypothesisViolatedError(
            f"t={t} below threshold {min_t(h)} for h={h} "
            "(pass override to force)")
    for i in range(h):
        if not fams.is_infinite(i):
            raise HypothesisViolatedError(
                f"class {i} has no periodic t-window (empty interval family)")
    return fams


def construct_witness(spec: BasisSpec, t: int, a: int, W: int = 1,
                      override: bool = False) -> list[WitnessCertificate]:
    """Build the first W (unverified) witnesses for removing a.

    For every class i other than a's class, the summand's digits are maximal
    on class-i indices below M0 plus a single 1 at an admissible window
    endpoint M_i >= M0 + t.  The k-th witness takes the k-th smallest
    endpoint of every class, shifted in lockstep across classes; distinct
    endpoints give strictly larger witnesses, exhibiting infinitude on a
    finite budget.  All supports are pairwise disjoint, so the witness
    digits are the plain union (no carries).  All but a's own digits
    depend only on a's top index M0 (`_level`).
    """
    fams = _interval_families(spec, t, override)
    if W < 1:
        raise DomainError(f"need W >= 1, got W={W}")
    rep_a, i0 = spec._rep_and_class(a)
    if i0 is None:
        raise DomainError(f"{a} is not a member of the constructed set")
    level = _level(spec, t, rep_a.max_index(), W, fams)
    return _witnesses(spec, t, a, rep_a, level, spec_hash(spec, t))[1]


def _level(spec: BasisSpec, t: int, M0: int, W: int,
           fams: IntervalFamilies) -> tuple:
    """The witness parts shared by the members with top index M0, whose
    class i0 is the color of M0: (M0, i0, the other classes' maximal digits
    below M0, per witness its endpoints M_i, other summands, their values,
    n's 1s at the M_i and their value, the quotients and classes up to the
    largest M_i).  Every M_i must lie above M0, off the digits the
    witnesses share: that check is what lets verify_minimality count all
    of a member's witnesses from one DP state over those digits."""
    i0 = spec.partition.color(M0)
    gens = {i: fams.members_from(i, M0 + t) for i in range(spec.h) if i != i0}
    chosen = [{i: next(gen) for i, gen in gens.items()} for _ in range(W)]
    ends = sorted(M for c in chosen for M in c.values())
    if ends[0] <= M0:
        raise RuntimeError(f"witness construction bug: endpoint M_i {ends[0]} "
                           f"not above M0 = {M0}")
    quots, colors = spec._positions(ends[-1] + 1)
    maximal: list[dict[int, int]] = [{} for _ in range(spec.h)]
    base, others = [0] * spec.h, {}
    gj = 1  # g_j, multiplied up as j runs: no scale table past its cap
    for j in range(M0):
        c = colors[j]
        if c != i0:
            maximal[c][j] = others[j] = top = quots[j] - 1
            base[c] += top * gj
        gj *= quots[j]
    # ascending: every maximal index is below M0 < M_i
    tops = [dict.fromkeys(sorted(c.values()), 1) for c in chosen]
    witnesses = [(c, {i: DigitRep._trusted({**maximal[i], M: 1}) for i, M in c.items()},
                  [base[i] + spec.seq.value(M) for i, M in c.items()],
                  top, spec.seq.evaluate(DigitRep._trusted(top)))
                 for c, top in zip(chosen, tops)]
    return M0, i0, others, witnesses, quots, colors


def _witnesses(spec: BasisSpec, t: int, a: int, rep_a: DigitRep,
               level: tuple, key: str
               ) -> tuple[dict[int, int], list[WitnessCertificate]]:
    """construct_witness past its checks for a with digits rep_a on
    `level`, the `_level` of a's top index M0, whose color i0 is a's class.
    The overlap check is the membership check: it raises unless every digit
    of a below M0 lies on a class-i0 index, so an a that is not a member of
    class i0 is refused here.  a's digits merge with the level's into the
    digits the W witnesses share; each witness adds its 1s above M0, so n
    is their two values' sum, which must be the multiset's.  Returns the
    shared digits and the witnesses."""
    M0, i0, others, witnesses, _, colors = level
    for j in rep_a.digits:
        if j < M0 and colors[j] != i0:
            raise RuntimeError("witness construction bug: summand "
                               f"supports overlap at index {j}")
    shared = dict(sorted([*others.items(), *rep_a.items()]))
    shared_value = spec.seq.evaluate(DigitRep._trusted(shared))
    certs = []
    for chosen, summands, values, tops, tops_value in witnesses:
        n_rep = DigitRep._trusted({**shared, **tops})
        n_value = shared_value + tops_value
        values = sorted([a, *values])
        if n_value != sum(values):
            raise RuntimeError(f"witness construction bug: digits of n={n_value} "
                               "do not sum the summands")
        # spec_hash, t, removed, removed_rep, removed_class, M0, chosen_Ms,
        # summands, n_rep, n_value, multiset
        certs.append(WitnessCertificate(
            key, t, a, rep_a, i0, M0, dict(chosen), {i0: rep_a, **summands},
            n_rep, n_value, values))
    return shared, certs


def verify_witness(spec: BasisSpec, cert: WitnessCertificate) -> WitnessCertificate:
    """Fill in counts and verdict.

    Expected ordered count is the number of permutations of the construction
    multiset; measured is the exact DP count.  Equality means every ordered
    h-representation of n is a permutation of the constructed one, and since
    the removed element is in the multiset, n has no representation over the
    set with a removed.  The count runs from position 0.  A second
    route, `_count_without`, counts the representations that avoid a; it
    must find none for a certified witness, and no more than those left
    once the expected ones through a are taken out, or this raises.  A
    multiset that is not h members summing to n, a removed value that is
    not a member, or a field `_fields_follow` rejects fails with no
    expected count, whatever the counts.
    """
    n = spec.seq.evaluate(cert.n_rep)
    measured = count_reps_digitdp(spec, cert.n_rep, spec.h).ordered_count
    if (len(cert.multiset) != spec.h or sum(cert.multiset) != n
            or not all(v >= 1 and spec.classify(v) is not None
                       for v in (cert.removed, *cert.multiset))
            or not _fields_follow(spec, cert, n)):
        cert.expected_count, cert.measured_count = None, measured
        cert.verdict = "failed"
        return cert
    _settle(cert, spec.h, measured)
    avoid = _count_without(spec, n, cert.removed)
    through_a = cert.expected_count if cert.removed in cert.multiset else 0
    if not 0 <= avoid <= cert.measured_count - through_a:
        raise RuntimeError(
            f"counting engine bug: n={n} has {avoid} representations without "
            f"{cert.removed}, but {cert.measured_count} in all and "
            f"{through_a} through {cert.removed}")
    return cert


def _fields_follow(spec: BasisSpec, cert: WitnessCertificate, n: int) -> bool:
    """Whether cert's printed fields follow from its member `removed`, its
    n's digits (value n), its summands and spec: n, the config hash, the
    removed value's digits, class and top index M0, the sorted summand
    values as the multiset, and each M[i] as its summand's top index."""
    rep, i0 = spec._rep_and_class(cert.removed)
    # the summand values before the M[i]: an empty summand has no top index
    return (cert.n_value == n and cert.spec_hash == spec_hash(spec, cert.t)
            and (cert.removed_rep, cert.removed_class, cert.M0, cert.multiset)
            == (rep, i0, rep.max_index(),
                sorted(map(spec.seq.evaluate, cert.summands.values())))
            and cert.chosen_Ms == {i: s.max_index() for i, s
                                   in cert.summands.items() if i != i0})


def _count_without(spec: BasisSpec, n: int, a: int) -> int:
    """The ordered h-representations of n over the members other than the
    member a, by inclusion-exclusion over the summands equal to a: the sum
    over k = 0..h of (-1)^k C(h, k) r_{h-k}(n - k a), r_j counting ordered
    j-representations (count_reps_digitdp for j >= 2), r_1 the member
    indicator and r_0(m) = [m = 0]."""
    total = 0
    for k in range(min(spec.h, n // a) + 1):
        m, j = n - k * a, spec.h - k
        if j >= 2:
            r = count_reps_digitdp(spec, spec.seq.represent(m), j).ordered_count
        else:
            r = m == 0 if j == 0 else spec.classify(m) is not None
        total += (-1) ** k * math.comb(spec.h, k) * r
    return total


def _settle(cert: WitnessCertificate, h: int,
            measured: int) -> WitnessCertificate:
    """verify_witness's verdict on the measured count.  The expected count
    is the number of orderings of the multiset: h! when its values are
    distinct, as a constructed witness's are (they lie in h different
    classes), else the multinomial coefficient."""
    values = cert.multiset
    expected = math.factorial(h)
    if len(set(values)) < len(values):
        expected //= math.prod(math.factorial(values.count(v))
                               for v in set(values))
    if measured < expected:
        raise RuntimeError(f"counting engine bug: measured {measured} < expected "
                           f"{expected} but the constructed representation exists")
    cert.expected_count = expected
    cert.measured_count = measured
    cert.verdict = "certified" if (measured == expected
                                   and cert.removed in values) else "failed"
    return cert


def verify_minimality(spec: BasisSpec, t: int, K: int, W: int,
                      override: bool = False):
    """Certify the first K members with W witnesses each (see
    construct_witness for how a member's W witnesses are chosen).  Returns
    (Theorem 1 precheck report, rounds): `rounds` is a generator that
    yields the W settled certificates of each member in turn, so a caller
    can print or write a member's certificates before the next member's
    are built.

    Once per batch, before this returns: the hypothesis gate, the K and W
    check, the Theorem 1 precheck and the config hash.  The members come
    from the member walk (`BasisSpec._walk`), which holds only the members
    it has yielded, in increasing order.  Once per top index M0: the level
    (`_level`), held while the walk's members have that top index.  Once
    per member: its digits (one `represent`), its class, taken as the
    color of M0 since the walk yields only members, its witnesses and
    shared digits (`_witnesses`, whose overlap check refuses a non-member),
    and one DP state walked over the shared digits on [0, M0].  Per
    witness: the verdict on the accepted count of the walk from that state
    over its digits above M0.  The split is exact because `_level` puts
    every endpoint above M0: a witness's digits up to M0 are the shared
    ones, its digits above M0 are its 1s at the M_i, so no witness depends
    on another's walk.  When the state is the final live set (carry 0, one
    summand committed to each class), the DP leaves it as it is, so its
    accepted count settles every witness with no walk above M0."""
    fams = _interval_families(spec, t, override)
    if K < 1 or W < 1:
        raise DomainError(f"need K >= 1 and W >= 1, got K={K}, W={W}")
    report1 = verify_theorem1(spec, 2000)
    key, h = spec_hash(spec, t), spec.h
    final = _end_sets(h)[1]

    def rounds():
        # zip draws from range first, so the walk stops at the K-th member;
        # it yields them in increasing order, so each top index is one run
        members = ((a, spec.seq.represent(a))
                   for _, a in zip(range(K), spec._walk()))
        for M0, run in groupby(members, key=lambda m: m[1].max_index()):
            level = _level(spec, t, M0, W, fams)
            quots, colors = level[4:]
            for a, rep_a in run:
                shared, certs = _witnesses(spec, t, a, rep_a, level, key)
                prefix = _dp_steps(_dp_start(h), quots, colors, shared.get,
                                   0, M0 + 1, h, h)
                if prefix[0] == final:  # the DP leaves a final state as it is
                    counts = [_dp_accept(prefix, zero_allowed=False)] * W
                else:
                    counts = [_dp_accept(_dp_steps(
                        prefix, quots, colors, cert.n_rep.digits.get, M0 + 1,
                        cert.n_rep.max_index() + 1, h, h), zero_allowed=False)
                        for cert in certs]
                for cert, count in zip(certs, counts):
                    _settle(cert, h, count)
                yield certs

    return report1, rounds()


def check_lemma1(seq, samples: int = 100_000,
                 rng=None) -> tuple[bool, str | None]:
    """Leading-index bound suite: g_M <= n < g_{M+1} with M the top support
    index, over a deterministic small range plus random 256-bit integers,
    and the converse per index up to 12.

    Returns (passed, first counterexample description or None).
    """
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    rng = rng or random.Random(0)
    small = min(samples // 2, 50_000)
    ns = list(range(1, small + 1))
    ns += [rng.getrandbits(256) | 1 for _ in range(samples - small)]
    for n in ns:
        M = seq.leading_index(n)
        if not seq.value(M) <= n < seq.value(M + 1):
            return False, f"n={n}: M={M} but bounds fail"
        rep = seq.represent(n)
        if rep.max_index() != M:
            return False, f"n={n}: leading_index={M} != max support {rep.max_index()}"
    for M in range(13):
        lo, hi = seq.value(M), seq.value(M + 1)
        if hi - lo <= 200:
            candidates = range(lo, hi)
        else:
            candidates = [rng.randrange(lo, hi) for _ in range(200)]
        for n in candidates:
            if seq.leading_index(n) != M:
                return False, f"n={n} in [g_{M}, g_{M + 1}) but leading_index != {M}"
    return True, None


def random_alternate_decomposition(seq, rep: DigitRep, rng,
                                   max_steps: int = 12) -> list[tuple[int, int]]:
    """Split the canonical digits `rep` of some n downward into a valid
    alternate decomposition of n: coefficient splits, and radix splits using
    g_v = g_{v-1} + (d_v - 1) g_{v-1}.  The terms come in no particular
    order."""
    quot = seq._table(rep.max_index())[1]  # quot[v - 1] = d_v for each index v
    terms = [[j, x] for j, x in rep.items()]
    for _ in range(rng.randrange(max_steps + 1)):
        k = rng.randrange(len(terms))
        v, y = terms[k]
        if y >= 2 and rng.random() < 0.5:
            s = rng.randrange(1, y)
            terms[k][1] = y - s
            terms.append([v, s])
        elif v >= 1:
            if y == 1:
                terms.pop(k)
            else:
                terms[k][1] = y - 1
            terms.append([v - 1, 1])
            terms.append([v - 1, quot[v - 1] - 1])
    return [(v, y) for v, y in terms]


def check_lemma2(seq, samples: int = 10_000,
                 rng=None) -> tuple[bool, str | None]:
    """Prefix-inequality suite over randomly split decompositions of
    random n below 10^9."""
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    rng = rng or random.Random(1)
    for _ in range(samples):
        n = rng.randrange(1, 10 ** 9)
        rep = seq.represent(n)
        alt = random_alternate_decomposition(seq, rep, rng)
        report = check_prefix_inequality(seq, rep, alt)
        if not report.all_hold:
            return False, f"n={n}, alt={alt}: inequality fails at some cutoff"
    return True, None


@dataclass
class RemovabilityRow:
    removed: int
    covered_from: int | None     # smallest bound with [bound, N] covered
    miss_count: int
    evidence: str                # window evidence only, never a proof


def removability_scan(spec: BasisSpec, N: int,
                      elem_bound: int | None = None) -> list[RemovabilityRow]:
    """For each a in {0} union the members up to min(elem_bound, N)
    (elem_bound defaults to 64), recompute the h-fold window sumset of the
    0-adjoined set without a.  Its layer 1 is the member mask, one kernel
    round from X = {0}, with bit a cleared, so each a takes h - 1 more
    rounds; the elements come from the member walk (`BasisSpec._walk`),
    stopped at the first member past the bound.  Output is labeled
    evidence: a finite window cannot settle an asymptotic claim."""
    if elem_bound is not None and elem_bound < 0:
        raise DomainError(f"element bound must be >= 0, got {elem_bound}")
    bound = min(N, 64 if elem_bound is None else elem_bound)
    mask = _add_members(spec, 1, N)  # refuses a bad window before the walk
    elements = [0, *takewhile(lambda m: m <= bound, spec._walk())]
    clip = (1 << (N + 1)) - 1
    rows = []
    for a in elements:
        # h((A u {0}) minus {a}): removing 0 leaves hA
        cover, hB = _hfold(spec, mask & ~(1 << a), N, a)
        missing = ~(cover if a else hB) & clip
        last = missing.bit_length() - 1  # the largest miss, -1 for none
        covered_from = last + 1 if last < N else None
        if covered_from is not None:
            evidence = f"evidence: covers [{covered_from}, {N}] on window"
        else:
            evidence = "evidence: misses persist up to the window bound"
        rows.append(RemovabilityRow(removed=a, covered_from=covered_from,
                                    miss_count=missing.bit_count(),
                                    evidence=evidence))
    return rows
