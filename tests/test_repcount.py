import math
import random
import sys
import threading
import tracemalloc
from functools import lru_cache
from itertools import islice, takewhile
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from gadic import (PRESETS, BasisSpec, DigitRangeError, DigitRep, DomainError,
                   GadicSequence, PartitionSpec, RepCountResult,
                   construct_witness, count_reps_digitdp, load_preset, min_t,
                   WindowTooLargeError)
from gadic import cli, repcount
from gadic.basis import DEFAULT_WINDOW_LIMIT, _add_members
from gadic.repcount import (_low_bits, check_prefix_inequality,
                            hfold_sumset_window, sumset_gaps)
from gadic.verifier import random_alternate_decomposition
from oracles import count_reps_bruteforce, run_minimality, window_counts
from test_basis import members_by_classify


def classify_window(spec: BasisSpec, N: int) -> tuple[list[int], int]:
    """The members in [1, N] and their bit array, found by classifying
    every n: independent of the digit-box kernel, whose first round is
    `enumerate`."""
    members = members_by_classify(spec, N)
    return members, sum(1 << n for n in members)


def mask_to_set(mask: int) -> set[int]:
    return {n for n in range(mask.bit_length()) if (mask >> n) & 1}


def naive_gaps(mask: int, N: int) -> list[int]:
    return [n for n in range(N + 1) if not (mask >> n) & 1]


def low_bit_walk(mask: int) -> list[int]:
    """Reference bit reader: peel off the lowest set bit with mask & -mask
    until none is left, two full-width operations per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@st.composite
def dense_masks(draw):
    """All bits of [0, width) set but for a few cleared ones."""
    width = draw(st.integers(1, 2000))
    mask = (1 << width) - 1
    for b in draw(st.lists(st.integers(0, width - 1), max_size=8)):
        mask &= ~(1 << b)
    return mask


def step_ends(spec: BasisSpec, lo: int, hi: int) -> list[int]:
    """The last position of each step count_reps_digitdp takes over
    [lo, hi): runs of one class, cut from lo upward before the product of
    their quotients would pass repcount._SEGMENT_BOUND."""
    ends, product = [], 1
    for j in range(lo, hi):
        d = spec.seq.quotient(j + 1)
        if j > lo and (spec.partition.color(j) != spec.partition.color(j - 1)
                       or product * d > repcount._SEGMENT_BOUND):
            ends.append(j - 1)
            product = 1
        product *= d
    return ends + [hi - 1] if hi > lo else ends


EMPTY = -1


@lru_cache(maxsize=None)
def ordered_transitions(d: int, c: int, statuses: tuple[int, ...]):
    """Every ordered digit vector at a (quotient d, class c) position from
    the ordered statuses, as (next statuses, digit sum, multiplicity)."""
    acc: dict[tuple[tuple[int, ...], int], int] = {}

    def rec(s: int, cur: tuple[int, ...], total: int):
        if s == len(statuses):
            acc[cur, total] = acc.get((cur, total), 0) + 1
            return
        st_ = statuses[s]
        rec(s + 1, cur + (st_,), total)  # digit 0
        if st_ == EMPTY or st_ == c:
            for x in range(1, d):
                rec(s + 1, cur + (c,), total + x)

    rec(0, (), 0)
    return [(sts, tot, mult) for (sts, tot), mult in acc.items()]


def ordered_edges(d: int, c: int, statuses: tuple[int, ...]):
    """ordered_transitions merged by sorted next statuses: the edges of
    repcount._transitions, from the ordered enumeration."""
    acc: dict[tuple[tuple[int, ...], int], int] = {}
    for sts, tot, mult in ordered_transitions(d, c, statuses):
        key = (tuple(sorted(sts)), tot)
        acc[key] = acc.get(key, 0) + mult
    return [(sts, tot, mult) for (sts, tot), mult in acc.items()]


def ordered_digitdp(spec: BasisSpec, n: DigitRep, h: int,
                    zero_allowed: bool = False,
                    resume_at: int = 0) -> tuple[int, int, int]:
    """Reference carry/commitment DP over ordered per-summand status tuples,
    enumerating every ordered digit vector at every position.

    Returns (ordered count, most live states, most distinct (carry, status
    multiset) pairs), both maxima taken at the ends of count_reps_digitdp's
    steps (step_ends) and past the top digit; with resume_at, at the ends
    of a walk over [0, resume_at) resumed from there.
    """
    seq, part = spec.seq, spec.partition
    states = {(0, (EMPTY,) * h): 1}
    peak = multiset_peak = 1
    top = n.max_index() if not n.is_zero() else -1
    split = min(resume_at, top + 1)
    ends = set(step_ends(spec, 0, split) + step_ends(spec, split, top + 1))
    j = 0
    while states:
        if j > top and all(carry == 0 for carry, _ in states):
            break
        d = seq.quotient(j + 1)
        r = n.digits.get(j, 0)
        new_states: dict[tuple[int, tuple[int, ...]], int] = {}
        for (carry, statuses), ways in states.items():
            moves = (ordered_transitions(d, part.color(j), statuses)
                     if j <= top else [(statuses, 0, 1)])
            for sts, tot, mult in moves:
                total = tot + carry
                if total % d == r:
                    key = (total // d, sts)
                    new_states[key] = new_states.get(key, 0) + ways * mult
        states = new_states
        if j in ends or j > top:
            peak = max(peak, len(states))
            multiset_peak = max(multiset_peak, len({(carry, tuple(sorted(sts)))
                                                    for carry, sts in states}))
        j += 1
    count = sum(ways for (carry, statuses), ways in states.items()
                if carry == 0 and (zero_allowed or EMPTY not in statuses))
    return count, peak, multiset_peak


QUOTIENTS = st.sampled_from([2, 3, 5])
# 300 > N for the small windows: a digit whose x * g_j passes N stops early
WIDE_QUOTIENTS = st.sampled_from([2, 3, 5, 300])


@st.composite
def configurations(draw, min_run: int = 1, quotients=QUOTIENTS):
    """A BasisSpec with h in {2, 3, 4}, quotients drawn from `quotients`, a
    possibly nonempty quotient and color prefix, and a period coloring that
    uses every class in runs of at least `min_run`."""
    h = draw(st.sampled_from([2, 3, 4]))
    runs = [(c, draw(st.integers(min_run, min_run + 1))) for c in range(h)]
    runs += [(draw(st.integers(0, h - 1)), draw(st.integers(1, min_run)))
             for _ in range(draw(st.integers(0, 2)))]
    period_colors = [c for c, r in draw(st.permutations(runs)) for _ in range(r)]
    return BasisSpec(
        seq=GadicSequence(period=draw(st.lists(quotients, min_size=1, max_size=3)),
                          prefix=draw(st.lists(quotients, max_size=3))),
        partition=PartitionSpec(
            h=h, period_colors=period_colors,
            prefix_colors=draw(st.lists(st.integers(0, h - 1), max_size=3))))


def member_of_class(spec: BasisSpec, cls: int, top: int, rng) -> int:
    """A member of class `cls` (or 0) with random digits on the class-`cls`
    indices below `top`."""
    seq = spec.seq
    return sum(rng.randrange(seq.quotient(j + 1)) * seq.value(j)
               for j in range(top) if spec.partition.color(j) == cls)


def dense_sum(spec: BasisSpec, cls: int, top: int, rng) -> int:
    """Sum of h members of one class with every class digit maximal or
    nearly so: carries at every position keep many DP states alive."""
    seq = spec.seq
    return sum(sum((seq.quotient(j + 1) - 1 - (rng.random() < 0.1))
                   * seq.value(j)
                   for j in range(top) if spec.partition.color(j) == cls)
               for _ in range(spec.h))


class TestBruteForce:
    def test_pair_count_with_tuples(self, binary_pairs):
        w = binary_pairs.enumerate(20)
        res = count_reps_bruteforce(w, 9, 2)
        assert res.ordered_count == 2

    def test_doubleton(self, binary_pairs):
        res = count_reps_bruteforce(binary_pairs.enumerate(20), 2, 2)
        assert res.ordered_count == 1

    def test_below_order_has_no_representation(self, binary_pairs):
        assert count_reps_bruteforce(binary_pairs.enumerate(20), 1, 2).ordered_count == 0

    def test_zero_allowed_pool(self, binary_pairs):
        w = binary_pairs.enumerate(20)
        res = count_reps_bruteforce(w, 1, 2, zero_allowed=True)
        assert res.ordered_count == 2  # (0,1) and (1,0)

    def test_window_exceeded(self, binary_pairs):
        with pytest.raises(DomainError):
            count_reps_bruteforce(binary_pairs.enumerate(20), 21, 2)


class TestDigitDP:
    def test_matches_oracle_example(self, binary_pairs):
        rep = binary_pairs.seq.represent(9)
        assert count_reps_digitdp(binary_pairs, rep, 2).ordered_count == 2

    def test_zero_with_zero_allowed(self, binary_pairs):
        rep = binary_pairs.seq.represent(0)
        assert count_reps_digitdp(binary_pairs, rep, 2, zero_allowed=True).ordered_count == 1
        assert count_reps_digitdp(binary_pairs, rep, 2).ordered_count == 0

    def test_one_below_order(self, binary_pairs):
        rep = binary_pairs.seq.represent(1)
        assert count_reps_digitdp(binary_pairs, rep, 2).ordered_count == 0

    @pytest.mark.parametrize("digits", [{1: 5}, {0: 3}])
    def test_out_of_range_digit_raises(self, digits):
        # on binary-h2 these counted 1 and 0, though r_2(10) = 2
        spec = load_preset("binary-h2").basis
        with pytest.raises(DigitRangeError):
            count_reps_digitdp(spec, DigitRep(digits), 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spec=configurations(), data=st.data())
    def test_digits_up_to_the_quotient_raise_or_count_their_value(self, spec,
                                                                  data):
        """A digit x_j <= d_{j+1}: either DigitRangeError, only when some
        digit is out of range, or the count of sum x_j g_j."""
        seq = spec.seq
        indices = data.draw(st.sets(st.integers(0, 11), min_size=1,
                                    max_size=6), label="indices")
        digits = {j: data.draw(st.integers(1, seq.quotient(j + 1)))
                  for j in sorted(indices)}
        value = sum(x * seq.value(j) for j, x in digits.items())
        expected = count_reps_digitdp(spec, seq.represent(value), spec.h)
        try:
            count = count_reps_digitdp(spec, DigitRep(digits), spec.h)
        except DigitRangeError:
            assert any(x == seq.quotient(j + 1) for j, x in digits.items())
            return
        assert count.ordered_count == expected.ordered_count

    def test_huge_argument_runs(self, binary_pairs):
        rep = binary_pairs.seq.represent((1 << 300) + 7)
        res = count_reps_digitdp(binary_pairs, rep, 2)
        assert res.ordered_count >= 0  # exercises the carry run-out path

    @pytest.mark.parametrize("period,colors,h", [
        ([2], [0, 0, 1, 1], 2),
        ([2, 3], [0, 0, 1, 1], 2),
        ([2], [0, 0, 0, 1, 1, 1], 2),
        ([2], [0, 1, 2], 3),
    ])
    def test_oracle_equivalence_small_range(self, period, colors, h):
        spec = BasisSpec(seq=GadicSequence(period=period),
                         partition=PartitionSpec(h=h, period_colors=colors))
        w = spec.enumerate(300)
        for zero_allowed in (False, True):
            for n in range(0, 301):
                bf = count_reps_bruteforce(w, n, h,
                                           zero_allowed=zero_allowed).ordered_count
                dp = count_reps_digitdp(spec, spec.seq.represent(n), h,
                                        zero_allowed=zero_allowed).ordered_count
                assert bf == dp, (n, zero_allowed)


class TestOrderedOracle:
    """The summand-symmetric DP against the ordered-vector reference."""

    @staticmethod
    def check(spec: BasisSpec, n: int, zero_allowed: bool,
              h: int | None = None) -> None:
        h = h or spec.h
        rep = spec.seq.represent(n)
        res = count_reps_digitdp(spec, rep, h, zero_allowed=zero_allowed)
        count, peak, multiset_peak = ordered_digitdp(spec, rep, h,
                                                     zero_allowed)
        assert res.ordered_count == count
        # one state per (carry, status multiset) the ordered DP reaches at
        # the same step ends
        assert res.peak_states == multiset_peak <= peak

    @settings(max_examples=150, deadline=None)
    @given(spec=configurations(), n=st.integers(0, 1 << 128),
           zero_allowed=st.booleans())
    def test_random_integers(self, spec, n, zero_allowed):
        self.check(spec, n, zero_allowed)

    @settings(max_examples=150, deadline=None)
    @given(spec=configurations(), top=st.integers(1, 128),
           rnd=st.randoms(use_true_random=False), zero_allowed=st.booleans())
    def test_sums_of_members(self, spec, top, rnd, zero_allowed):
        # sums of h members of random classes have representations
        n = sum(member_of_class(spec, rnd.randrange(spec.h), top, rnd)
                for _ in range(spec.h))
        self.check(spec, min(n, 1 << 128), zero_allowed)

    @settings(max_examples=60, deadline=None)
    @given(spec=configurations(min_run=3), k=st.integers(0, 5),
           shift=st.integers(0, 3), zero_allowed=st.booleans())
    def test_constructed_witnesses(self, spec, k, shift, zero_allowed):
        members = spec.enumerate(2000).members
        a = members[min(k, len(members) - 1)]
        cert = construct_witness(spec, min_t(spec.h), a, W=shift + 1)[-1]
        self.check(spec, cert.n_value, zero_allowed)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_witnesses(self, name):
        cfg = load_preset(name)
        spec, t = cfg.basis, cfg.t
        for a in spec.enumerate(200).members[:8]:
            for zero_allowed in (False, True):
                self.check(spec, construct_witness(spec, t, a)[0].n_value,
                           zero_allowed)

    def test_fewer_peak_states_on_a_dense_h4_sum(self):
        spec = load_preset("h4-runs").basis
        n = dense_sum(spec, 1, 96, random.Random(3))
        rep = spec.seq.represent(n)
        res = count_reps_digitdp(spec, rep, spec.h)
        count, peak, _ = ordered_digitdp(spec, rep, spec.h)
        assert res.ordered_count == count > 0
        assert res.peak_states < peak


class TestInternedSets:
    """The memoized DP step: the carry check, cold and warm caches, threads
    sharing the intern table, and the stop on an empty live set."""

    @pytest.fixture(autouse=True)
    def clear_dp_caches(self):
        def clear():
            repcount._advance.cache_clear()
            repcount._compile.cache_clear()
            repcount._transitions.cache_clear()
            repcount._end_sets.cache_clear()
        clear()
        yield clear
        clear()

    def test_carry_bound_violation_raises(self, monkeypatch, capsys):
        transitions = repcount._transitions

        def broken(d, c, statuses):
            # digit sums h digits below d cannot reach, one per residue mod
            # d, each in its residue group
            h = len(statuses)
            return tuple(group + ((statuses, q + d * (h + 1), 1),)
                         for q, group in enumerate(transitions(d, c, statuses)))

        monkeypatch.setattr(repcount, "_transitions", broken)
        spec = load_preset("binary-h2").basis
        with pytest.raises(RuntimeError, match=r"^counting engine bug: "
                           r"carry 3 exceeds h=2$"):
            count_reps_digitdp(spec, spec.seq.represent(9), 2)
        assert cli.main(["minimality", "--preset", "binary-h2",
                         "--budget", "2", "--witnesses", "1"]) == 1
        assert "counting engine bug: carry" in capsys.readouterr().err

    def test_cold_and_warm_caches_agree(self, clear_dp_caches):
        # the two h = 2 presets share set ids and memo entries; uniform
        # inputs reach the early exit within a few steps, and dense sums on
        # h3-runs and h4-runs walk steps with fixups
        specs = [load_preset(name).basis for name in sorted(PRESETS)]
        rng = random.Random(5)
        calls = [(spec, spec.seq.represent(n), zero_allowed)
                 for _ in range(40) for spec in specs
                 for n in (rng.randrange(1 << 40), dense_sum(spec, 0, 40, rng))
                 for zero_allowed in (False, True)]

        def run(spec, rep, zero_allowed):
            res = count_reps_digitdp(spec, rep, spec.h,
                                     zero_allowed=zero_allowed)
            return res.ordered_count, res.peak_states

        cold = []
        for call in calls:
            clear_dp_caches()
            cold.append(run(*call))
        assert [run(*call) for call in calls] == cold
        # two rounds: every preset, uniform and dense, with and without 0
        for (spec, rep, zero_allowed), (count, peak) in zip(calls[:32], cold):
            oracle, _, multiset_peak = ordered_digitdp(spec, rep, spec.h,
                                                       zero_allowed)
            assert (count, peak) == (oracle, multiset_peak)

    def test_compiled_steps_match_the_edge_sums(self, monkeypatch):
        # every step the DP memoizes on uniform inputs and dense sums of
        # all presets, against the ordered oracle's edges merged per
        # (source, target): applied by _dp_steps to random ways it gives
        # their plain sums, and applied to the formal unit vectors
        # 1 << 64*s it gives each target's merged multiplicities, one
        # 64-bit field per source
        advance, keys = repcount._advance, set()

        def recorded(*key):
            keys.add(key)
            return advance(*key)

        monkeypatch.setattr(repcount, "_advance", recorded)
        rng = random.Random(11)
        for spec in (load_preset(name).basis for name in sorted(PRESETS)):
            for c in range(spec.h):
                for n in (rng.randrange(1 << 96), dense_sum(spec, c, 96, rng)):
                    count_reps_digitdp(spec, spec.seq.represent(n), spec.h)
        # no pair of h3-runs members sums to 713: its third step empties
        # the live set (test_live_set_empties_before_the_top_digit)
        h3 = load_preset("h3-runs").basis
        count_reps_digitdp(h3, h3.seq.represent(713), 2)
        monkeypatch.undo()
        shared_target = multiple = empty = False
        for set_id, d, c, r in sorted(keys):
            next_id, step = advance(set_id, d, c, r)
            assert step.__code__.co_names == ()
            source, target = repcount._SETS[set_id], repcount._SETS[next_id]
            h = len(source[0][1])
            merged: dict[tuple, dict[int, int]] = {}
            for s, (carry, statuses) in enumerate(source):
                # group q holds the oracle's edges whose digit sum is q mod d
                edges = ordered_edges(d, c, statuses)
                assert [sorted(group) for group in
                        repcount._transitions(d, c, statuses)] == [
                    sorted(e for e in edges if e[1] % d == q) for q in range(d)]
                for sts, tot, mult in edges:
                    carry_out, rem = divmod(tot + carry, d)
                    if rem == r:
                        sources = merged.setdefault((carry_out, sts), {})
                        sources[s] = sources.get(s, 0) + mult
            assert sorted(merged) == list(target)
            assert step([1 << 64 * s for s in range(len(source))]) == [
                sum(m << 64 * s for s, m in merged[key].items())
                for key in target]
            prev = [rng.randrange(1 << 64) for _ in source]
            got_id, ways, _ = repcount._dp_steps(
                (set_id, prev, len(prev)), [d], [c], lambda j, zero: r, 0, 1,
                h, h + 1)  # no class count equal to h: no early exit
            assert got_id == next_id
            assert ways == [sum(prev[s] * m for s, m in merged[key].items())
                            for key in target]
            shared_target |= any(len(sources) >= 2
                                 for sources in merged.values())
            multiple |= any(m > 1 for sources in merged.values()
                            for m in sources.values())
            if not target:
                empty = True
                assert step(prev) == []
        assert shared_target and multiple and empty

    def test_equal_step_texts_compile_once(self, monkeypatch):
        # a certify run and a count run over every preset: each distinct
        # step text is evaluated once, and the memo keys that compile to
        # one text share its function
        advance, compile_, key = repcount._advance, repcount._compile, None
        texts, evals = {}, []

        def recorded(*args):
            nonlocal key
            key = args
            return advance(*args)

        def compiled(sums):
            texts[key] = sums
            return compile_(sums)

        def counted(source, namespace):
            evals.append(source)
            return eval(source, namespace)

        monkeypatch.setattr(repcount, "_advance", recorded)
        monkeypatch.setattr(repcount, "_compile", compiled)
        monkeypatch.setattr(repcount, "eval", counted, raising=False)
        rng = random.Random(13)
        for name in sorted(PRESETS):
            cfg = load_preset(name)
            spec = cfg.basis
            run_minimality(spec, cfg.t, K=20, W=4)
            for c in range(spec.h):
                count_reps_digitdp(spec, spec.seq.represent(
                    dense_sum(spec, c, 96, rng)), spec.h)
        monkeypatch.undo()
        assert len(evals) == len(set(evals)) == len(set(texts.values()))
        by_text: dict[str, list[tuple]] = {}
        for k, sums in texts.items():
            by_text.setdefault(sums, []).append(k)
        shared = [ks for ks in by_text.values() if len(ks) >= 2]
        assert shared
        for ks in shared:
            assert len({id(advance(*k)[1]) for k in ks}) == 1

    def test_threads_share_the_intern_table(self, clear_dp_caches):
        specs = [load_preset(name).basis for name in sorted(PRESETS)]
        rng = random.Random(9)
        calls = [(spec, spec.seq.represent(n)) for spec in specs
                 for c in range(spec.h)
                 for n in (dense_sum(spec, c, 60, rng),
                           rng.randrange(1 << 60))]
        expected = [count_reps_digitdp(spec, rep, spec.h).ordered_count
                    for spec, rep in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                # fresh ids, so the threads intern new sets concurrently
                clear_dp_caches()
                repcount._SETS.clear()
                repcount._SET_IDS.clear()
                results = [None] * len(calls)

                def work(k):
                    for i in range(k, len(calls), 4):
                        spec, rep = calls[i]
                        results[i] = count_reps_digitdp(spec, rep,
                                                        spec.h).ordered_count

                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == expected
                assert repcount._SET_IDS == {
                    states: i for i, states in enumerate(repcount._SETS)}
        finally:
            sys.setswitchinterval(interval)

    def test_live_set_empties_before_the_top_digit(self, monkeypatch):
        # pairs of h3-runs members: 713 has digits at 0, 3, 6, 7 and 9, in
        # three classes, and no pair survives index 6; the steps cover the
        # class runs [0, 3), [3, 6), [6, 9), [9, 10) and the walk stops
        # after the third, below the top digit
        spec, n = load_preset("h3-runs").basis, 713
        rep = spec.seq.represent(n)
        advance, steps = repcount._advance, []

        def counted(*key):
            steps.append(key)
            return advance(*key)

        monkeypatch.setattr(repcount, "_advance", counted)
        window = spec.enumerate(n)
        for zero_allowed in (False, True):
            steps.clear()
            res = count_reps_digitdp(spec, rep, 2, zero_allowed=zero_allowed)
            assert res.ordered_count == 0 == count_reps_bruteforce(
                window, n, 2, zero_allowed=zero_allowed).ordered_count
            # (radix, class, segment digit): 713 = 0b1011001001
            assert [key[1:4] for key in steps] == [(8, 0, 1), (8, 1, 1),
                                                   (8, 2, 3)]
            assert rep.max_index() == 9


def resumed_counts(spec: BasisSpec, h: int, low: DigitRep, L: int,
                   reps: list[DigitRep], zero_allowed: bool):
    """The shared-prefix route: the DP over [0, L) on the digits `low`
    once, then resumed from that state over [L, top] for each rep."""
    top = max(rep.max_index() for rep in reps)
    quots, colors = spec._positions(top + 1)
    shared = repcount._dp_steps(repcount._dp_start(h), quots, colors,
                                low.digits.get, 0, L, h, spec.h)
    resumed = [repcount._dp_steps(shared, quots, colors, rep.digits.get, L,
                                  rep.max_index() + 1, h, spec.h)
               for rep in reps]
    return shared, [RepCountResult(repcount._dp_accept(state, zero_allowed),
                                   peak_states=state[2]) for state in resumed]


class TestResumedDP:
    """count_reps_digitdp split at a position L: one state over the digits
    that several n share below L, resumed for each n."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=configurations(), L=st.integers(0, 80),
           low=st.integers(0, 1 << 128),
           highs=st.lists(st.integers(1, 1 << 64), min_size=1, max_size=4),
           zero_allowed=st.booleans())
    def test_matches_fresh_counts(self, spec, L, low, highs, zero_allowed):
        seq, h = spec.seq, spec.h
        low %= seq.value(L)
        reps = [seq.represent(low + high * seq.value(L)) for high in highs]
        _, resumed = resumed_counts(spec, h, seq.represent(low), L, reps,
                                    zero_allowed)
        for rep, res in zip(reps, resumed):
            fresh = count_reps_digitdp(spec, rep, h, zero_allowed=zero_allowed)
            assert res.ordered_count == fresh.ordered_count
            # the resumed walk starts a segment at L, so its peak is read at
            # the ends of its own steps
            assert res.peak_states == ordered_digitdp(
                spec, rep, h, zero_allowed, resume_at=L)[2]

    @pytest.mark.parametrize("zero_allowed", [False, True])
    def test_prefix_whose_live_set_empties(self, zero_allowed):
        # 201 has h3-runs digits at 0, 3, 6, 7 and no pair of members
        # survives index 6 (TestInternedSets), so no n sharing its digits
        # below 7 is a sum of two members
        spec, L = load_preset("h3-runs").basis, 7
        seq = spec.seq
        low = 201 % seq.value(L)
        ns = [low + k * seq.value(L) for k in range(1, 5)]
        reps = [seq.represent(n) for n in ns]
        shared, resumed = resumed_counts(spec, 2, seq.represent(low), L, reps,
                                         zero_allowed)
        assert shared[1] == []
        window = spec.enumerate(ns[-1])
        for n, rep, res in zip(ns, reps, resumed):
            assert res == count_reps_digitdp(spec, rep, 2,
                                             zero_allowed=zero_allowed)
            assert res.ordered_count == 0 == count_reps_bruteforce(
                window, n, 2, zero_allowed=zero_allowed).ordered_count


def run_spec(period: list[int], colors: list[int], h: int) -> BasisSpec:
    return BasisSpec(seq=GadicSequence(period=period),
                     partition=PartitionSpec(h=h, period_colors=colors))


def recorded_radices(monkeypatch, run) -> list[int]:
    """The radix D of every DP step that run() takes."""
    advance, radices = repcount._advance, []

    def recorded(set_id, d, c, r):
        radices.append(d)
        return advance(set_id, d, c, r)

    monkeypatch.setattr(repcount, "_advance", recorded)
    run()
    monkeypatch.undo()
    return radices


def radices(spec: BasisSpec, lo: int, hi: int) -> list[int]:
    """The product of the quotients of each step_ends segment of [lo, hi)."""
    out, start = [], lo
    for end in step_ends(spec, lo, hi):
        out.append(math.prod(spec.seq.quotient(j + 1)
                             for j in range(start, end + 1)))
        start = end + 1
    return out


# (name, spec, the radices of the steps over one period): runs longer than
# the bound are cut, a quotient above it is a step of its own
SEGMENT_CONFIGS = [
    ("binary runs of 8", run_spec([2], [0] * 8 + [1] * 8, 2),
     [8, 8, 4, 8, 8, 4]),
    ("ternary runs of 3", run_spec([3], [0, 0, 0, 1, 1, 1, 2, 2, 2], 3),
     [3] * 9),
    ("quotients 2, 3 in runs of 4", run_spec([2, 3], [0] * 4 + [1] * 4, 2),
     [6, 6, 6, 6]),
    ("quotient 300", run_spec([2, 2, 300], [0, 0, 0, 1, 1, 1], 2),
     [4, 300, 4, 300]),
]


class TestSegments:
    """Steps over runs of one class, cut at the bound, against the ordered
    oracle, which steps one position at a time."""

    @pytest.mark.parametrize("name,spec,period", SEGMENT_CONFIGS,
                             ids=[c[0] for c in SEGMENT_CONFIGS])
    def test_steps_follow_the_runs(self, monkeypatch, name, spec, period):
        # a dense sum of class-0 members keeps its own representation live
        # and never holds a summand on each class: the walk reaches the top
        n = dense_sum(spec, 0, 4 * len(period), random.Random(1))
        top = spec.seq.represent(n).max_index()
        assert radices(spec, 0, top + 1)[:len(period)] == period
        assert recorded_radices(monkeypatch, lambda: count_reps_digitdp(
            spec, spec.seq.represent(n), spec.h)) == radices(spec, 0, top + 1)

    @pytest.mark.parametrize("name,spec,period", SEGMENT_CONFIGS,
                             ids=[c[0] for c in SEGMENT_CONFIGS])
    def test_counts_and_peaks_match_the_ordered_oracle(self, name, spec,
                                                       period):
        rng = random.Random(7)
        top = 3 * len(spec.partition.period_colors)
        ns = [rng.randrange(spec.seq.value(top)) for _ in range(6)]
        ns += [dense_sum(spec, c, top, rng) for c in range(spec.h)]
        ns += [sum(member_of_class(spec, rng.randrange(spec.h), top, rng)
                   for _ in range(spec.h)) for _ in range(6)]
        for n in ns:
            for zero_allowed in (False, True):
                TestOrderedOracle.check(spec, n, zero_allowed)

    @pytest.mark.parametrize("name,spec,period", SEGMENT_CONFIGS,
                             ids=[c[0] for c in SEGMENT_CONFIGS])
    def test_brute_force_on_a_window(self, name, spec, period):
        N = 3000
        window = spec.enumerate(N)
        for zero_allowed in (False, True):
            counts = window_counts(window, spec.h, zero_allowed)
            for n in range(N + 1):
                assert count_reps_digitdp(
                    spec, spec.seq.represent(n), spec.h,
                    zero_allowed=zero_allowed).ordered_count == counts[n]

    @pytest.mark.parametrize("name,spec,period", SEGMENT_CONFIGS,
                             ids=[c[0] for c in SEGMENT_CONFIGS])
    def test_resumed_mid_run(self, monkeypatch, name, spec, period):
        # every L of the first two periods, mid-run ones included: the
        # walk from L starts a segment there, and the counts stay those of
        # a fresh walk and of the ordered oracle
        seq, rng = spec.seq, random.Random(3)
        top = 3 * len(spec.partition.period_colors)
        for L in range(1, 2 * len(spec.partition.period_colors)):
            low = seq.represent(dense_sum(spec, 0, top, rng) % seq.value(L))
            highs = [rng.randrange(1, seq.value(top - L)) for _ in range(2)]
            reps = [seq.represent(seq.evaluate(low) + x * seq.value(L))
                    for x in highs]
            for zero_allowed in (False, True):
                _, resumed = resumed_counts(spec, spec.h, low, L, reps,
                                            zero_allowed)
                for rep, res in zip(reps, resumed):
                    assert res.ordered_count == count_reps_digitdp(
                        spec, rep, spec.h,
                        zero_allowed=zero_allowed).ordered_count \
                        == ordered_digitdp(spec, rep, spec.h, zero_allowed)[0]
            # with a spare summand the prefix walk neither empties nor exits
            steps = recorded_radices(monkeypatch, lambda: resumed_counts(
                spec, spec.h + 1, low, L, reps[:1], False))
            below = radices(spec, 0, L)
            assert steps[:len(below)] == below
            assert steps[len(below):] == radices(
                spec, L, reps[0].max_index() + 1)[:len(steps) - len(below)]


class TestOtherOrders:
    """count_reps_digitdp with h other than the partition's class count.
    The walk stops early at {carry 0, one summand on each class} only when
    h is the class count: with fewer summands a class is left without one,
    and with more a summand is spare, so later digits still matter."""

    @pytest.mark.parametrize("name,h", [("h3-runs", 2), ("h3-runs", 4),
                                        ("h4-runs", 2), ("h4-runs", 3),
                                        ("h4-runs", 5)])
    def test_every_n_up_to_2_12(self, name, h):
        spec, N = load_preset(name).basis, 1 << 12
        window = spec.enumerate(N)
        # the per-n brute force costs up to |members|^(h-1) per n, so above
        # the class count it runs on the low end and the per-sum counter,
        # checked there against it, covers the rest
        checked = N if h < spec.h else 1 << 7
        for zero_allowed in (False, True):
            counts = window_counts(window, h, zero_allowed)
            for n in range(N + 1):
                dp = count_reps_digitdp(spec, spec.seq.represent(n), h,
                                        zero_allowed=zero_allowed)
                assert dp.ordered_count == counts[n], (n, zero_allowed)
                if n <= checked:
                    assert counts[n] == count_reps_bruteforce(
                        window, n, h, zero_allowed=zero_allowed).ordered_count

    @pytest.mark.parametrize("name", ["h3-runs", "h4-runs"])
    def test_ordered_oracle_away_from_the_class_count(self, name):
        spec, rng = load_preset(name).basis, random.Random(2)
        for h in (2, spec.h + 1):
            for _ in range(10):
                n = sum(member_of_class(spec, rng.randrange(spec.h), 40, rng)
                        for _ in range(h))
                for zero_allowed in (False, True):
                    TestOrderedOracle.check(spec, n, zero_allowed, h)


class TestFinalLiveSet:
    """The stop verify_minimality's rounds rest on: with h the partition's
    class count, the live set {carry 0, summand i committed to class i} is
    final, so every later step over in-range digits leaves its set id and
    its ways as they are.  With h other than the class count the walk goes
    on from that set."""

    @staticmethod
    def walk(spec, h, classes, lo, hi, digits, ways):
        """_dp_steps from the final live set of h over [lo, hi), digit j of
        n read from digits[j] mod its quotient; also the steps it took."""
        quots, colors = spec._positions(hi)
        read = {j: digits[j - lo] % quots[j] for j in range(lo, hi)}
        advance, steps = repcount._advance, []

        def recorded(*key):
            steps.append(key)
            return advance(*key)

        with patch.object(repcount, "_advance", recorded):
            state = repcount._dp_steps((repcount._end_sets(h)[1], ways, 1),
                                       quots, colors, read.get, lo, hi, h,
                                       classes)
        return state, steps

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=configurations(), lo=st.integers(0, 60),
           digits=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=40),
           ways=st.integers(1, 1 << 64), other=st.sampled_from([2, 3, 4, 5]))
    def test_later_steps_leave_the_final_set(self, spec, lo, digits, ways,
                                             other):
        h, hi = spec.h, lo + len(digits)
        final = repcount._end_sets(h)[1]
        # class count h + 1: no early exit, so every step is taken
        (set_id, got, _), steps = self.walk(spec, h, h + 1, lo, hi, digits,
                                            [ways])
        assert steps and (set_id, got) == (final, [ways])
        # the walk _dp_steps stops before any step
        assert self.walk(spec, h, h, lo, hi, digits, [ways]) \
            == ((final, [ways], 1), [])
        if other != h:
            _, steps = self.walk(spec, other, h, lo, hi, digits, [ways])
            assert steps


class TestHfoldSumset:
    def test_single_element(self):
        assert mask_to_set(hfold_sumset_window(1 << 1, 10, 3)) == {3}

    def test_two_elements(self):
        assert mask_to_set(hfold_sumset_window((1 << 1) | (1 << 2), 10, 2)) \
            == {2, 3, 4}

    def test_window_claim(self, binary_pairs):
        w = binary_pairs.enumerate(20)
        s = hfold_sumset_window(w.mask, 20, 2)
        assert mask_to_set(s) == set(range(2, 21))

    def test_consistency_with_bruteforce(self, mixed23_pairs):
        N = 400
        w = mixed23_pairs.enumerate(N)
        s = hfold_sumset_window(w.mask, N, 2)
        for n in range(N + 1):
            positive = count_reps_bruteforce(w, n, 2).ordered_count > 0
            assert bool((s >> n) & 1) == positive


def naive_sumset(mask: int, N: int, k: int) -> int:
    """The k-fold sumset of the set bits of mask over [0, N], by sets."""
    base = {m for m in mask_to_set(mask) if m <= N}
    acc = base
    for _ in range(k - 1):
        acc = {s + m for s in acc for m in base if s + m <= N}
    return sum(1 << n for n in acc)


class TestSumsetLayers:
    """The member shift-OR against set-by-set sums, one order k at a time."""

    @settings(max_examples=150, deadline=None)
    @given(N=st.integers(0, 300), h=st.integers(1, 4), data=st.data())
    def test_layer_k_is_the_k_fold_sumset(self, N, h, data):
        mask = data.draw(st.integers(0, (1 << (N + 40)) - 1), label="mask")
        for k in range(1, h + 1):
            layer = hfold_sumset_window(mask, N, k)
            assert layer == naive_sumset(mask, N, k)
            assert layer < 1 << (N + 1)  # clipped to the window

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_layers(self, name):
        spec, N = load_preset(name).basis, 1024
        mask = spec.enumerate(N).mask
        for k in range(1, spec.h + 1):
            assert hfold_sumset_window(mask, N, k) == naive_sumset(mask, N, k)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(DomainError, match=r"^need h >= 1"):
            hfold_sumset_window(0b110, 10, 0)


def kernel_layers(spec: BasisSpec, N: int) -> list[int]:
    """kA for k = 1..h by repeated _add_members, starting from X = {0}."""
    layers = [_add_members(spec, 1, N)]
    for _ in range(spec.h - 1):
        layers.append(_add_members(spec, layers[-1], N))
    return layers


def kernel_removal(spec: BasisSpec, N: int, a: int) -> int:
    """h((A u {0}) minus {a}) over [0, N] by h steps of the kernel."""
    s = 1
    for _ in range(spec.h):
        s = (s if a else 0) | _add_members(spec, s, N, a)
    return s


class TestAddMembers:
    """The digit-position kernel against the member shift-OR oracle."""

    @staticmethod
    def windows(spec: BasisSpec) -> list[int]:
        g1 = spec.seq.value(1)
        return [spec.h, g1 - 1, g1, 4097]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=configurations(quotients=WIDE_QUOTIENTS))
    def test_layers_match_member_shift_or(self, spec):
        for N in self.windows(spec):
            _, mask = classify_window(spec, N)
            layers = kernel_layers(spec, N)
            for k in range(1, spec.h + 1):
                assert layers[k - 1] == hfold_sumset_window(mask, N, k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=configurations(quotients=WIDE_QUOTIENTS))
    def test_every_removal_matches_member_shift_or(self, spec):
        for N in self.windows(spec)[:3] + [400]:
            members, mask = classify_window(spec, N)
            for a in [0] + members:
                assert kernel_removal(spec, N, a) \
                    == hfold_sumset_window((mask | 1) & ~(1 << a), N, spec.h)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=configurations(quotients=WIDE_QUOTIENTS),
           N=st.integers(1, 400), data=st.data())
    def test_one_round_is_one_member_shift_or(self, spec, N, data):
        """One round is X + (A minus {a}) clipped to [0, N]: the OR of
        X << m over the members m <= N other than a.  X may hold bits
        above N, which the round drops, and a is 0, a member, a non-member
        up to N, or N + 1."""
        members, _ = classify_window(spec, N)
        others = sorted(set(range(1, N + 1)).difference(members))
        kinds = [kind for kind in ([0], members, others, [N + 1]) if kind]
        a = data.draw(st.sampled_from(kinds).flatmap(st.sampled_from),
                      label="a")
        X = data.draw(st.integers(0, (1 << (N + 1)) - 1), label="X") \
            | data.draw(st.just(0) | st.integers(1, (1 << 40) - 1),
                        label="above N") << N + 1
        expected = 0
        for m in members:
            if m != a:
                expected |= X << m
        assert _add_members(spec, X, N, a) == expected & (1 << (N + 1)) - 1

    @pytest.mark.parametrize("period,N", [([300], 299), ([300], 300),
                                          ([300], 4097), ([2, 300], 1199)])
    def test_large_quotient(self, period, N):
        spec = BasisSpec(seq=GadicSequence(period=period),
                         partition=PartitionSpec(h=2, period_colors=[0, 1]))
        members, mask = classify_window(spec, N)
        for k, layer in enumerate(kernel_layers(spec, N), 1):
            assert layer == hfold_sumset_window(mask, N, k)
        for a in members:
            assert kernel_removal(spec, N, a) \
                == hfold_sumset_window((mask | 1) & ~(1 << a), N, 2)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_layers(self, name):
        spec, N = load_preset(name).basis, 4096
        _, mask = classify_window(spec, N)
        assert kernel_layers(spec, N) == [hfold_sumset_window(mask, N, k)
                                          for k in range(1, spec.h + 1)]

    @pytest.mark.parametrize("a", [0, 1])
    def test_window_above_limit_refused(self, binary_pairs, a):
        with pytest.raises(WindowTooLargeError):
            _add_members(binary_pairs, 1, DEFAULT_WINDOW_LIMIT + 1, a)

    @pytest.mark.parametrize("a", [5, 6, 10**6])
    def test_non_member_removes_nothing(self, binary_pairs, a):
        # 5 = 1 + 4 has digits of both classes; 6 = 2 + 4 too; 10**6 > N
        for X in (1, 0b1011):
            assert _add_members(binary_pairs, X, 300, a) \
                == _add_members(binary_pairs, X, 300)


def walk_to(spec: BasisSpec, N: int) -> list[int]:
    """The member walk's members up to N."""
    return list(takewhile(lambda m: m <= N, spec._walk()))


class TestMemberWalk:
    """The ordered member walk against the kernel's member mask."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        spec = load_preset(name).basis
        for N in (1, 2, 4097, 131072):
            assert walk_to(spec, N) == _low_bits(_add_members(spec, 1, N))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=configurations(quotients=WIDE_QUOTIENTS))
    def test_configurations(self, spec):
        for N in [1] + TestAddMembers.windows(spec) + [20000]:
            members = walk_to(spec, N)
            assert members == _low_bits(_add_members(spec, 1, N))
        # the minimality rounds take a walked member's class from the
        # color of its top index
        for m in members:
            assert spec.partition.color(spec.seq.represent(m).max_index()) \
                == spec.classify(m)

    def test_first_members_leave_a_level_unbuilt(self):
        # on [1000] colored [0, 1], index 2 alone has 999 * 1000 members,
        # tens of MB as a list; the first 3000 stop early inside it
        spec = BasisSpec(seq=GadicSequence(period=[1000]),
                         partition=PartitionSpec(h=2, period_colors=[0, 1]))
        tracemalloc.start()
        try:
            first = list(islice(spec._walk(), 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == _low_bits(_add_members(spec, 1, first[-1]))
        assert 10**6 < first[-1] < 10**9  # inside index 2
        assert peak < 1 << 20


class TestPrefixInequality:
    def test_mixed_radix_example(self, mixed23):
        rep = mixed23.represent(8)
        assert rep.digits == {1: 1, 2: 1}
        report = check_prefix_inequality(mixed23, rep,
                                         [(0, 1), (0, 1), (1, 1), (1, 2)])
        assert report.lhs == [2, 8]
        assert report.rhs == [8, 8]
        assert report.all_hold

    def test_binary_examples(self, binary):
        report = check_prefix_inequality(binary, binary.represent(5),
                                         [(0, 1), (1, 1), (1, 1)])
        assert report.lhs == [1, 5] and report.rhs == [1, 5] and report.all_hold
        report = check_prefix_inequality(binary, binary.represent(4),
                                         [(1, 1), (1, 1)])
        assert report.lhs == [4] and report.rhs == [4] and report.all_hold

    def test_total_mismatch_rejected(self, binary):
        with pytest.raises(DomainError):
            check_prefix_inequality(binary, binary.represent(5), [(0, 1)])

    def test_out_of_range_coefficient_rejected(self, binary):
        with pytest.raises(DigitRangeError):
            check_prefix_inequality(binary, binary.represent(4), [(1, 2)])

    def test_lowest_bad_index_reported_on_cold_table(self):
        seq = GadicSequence(prefix=[3], period=[2, 5])
        with pytest.raises(DigitRangeError, match=r"^alternate coefficient 3 "
                           r"at index 1 outside \[1, 1\]$"):
            check_prefix_inequality(seq, seq.represent(40),
                                    [(40, 9), (2, 7), (1, 3), (3, 1)])

    def test_out_of_range_canonical_digit_lowest_index_first(self):
        seq = GadicSequence(prefix=[3], period=[2, 5])
        canonical = DigitRep({9: 7, 3: 1, 2: 6, 1: 2})
        with pytest.raises(DigitRangeError, match=r"^digit 2 at index 1 "
                           r"outside \[1, 1\]$"):
            check_prefix_inequality(seq, canonical, [(0, 1)])

    @given(n=st.integers(1, 10 ** 15), seed=st.integers(0, 2 ** 32),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_report_ignores_alternate_order(self, n, seed, data):
        seq = GadicSequence(prefix=[3], period=[2, 5])
        canonical = seq.represent(n)
        alt = random_alternate_decomposition(seq, canonical,
                                             random.Random(seed), max_steps=30)
        permuted = data.draw(st.permutations(alt), label="permuted")
        assert check_prefix_inequality(seq, canonical, permuted) \
            == check_prefix_inequality(seq, canonical, alt)

    def test_negative_index_rejected(self, binary):
        with pytest.raises(DomainError,
                           match=r"^quotients are indexed from 1, got i=-2$"):
            check_prefix_inequality(binary, binary.represent(4), [(2, 1), (-3, 1)])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_sweep_matches_per_cutoff_sums(self, name):
        seq = load_preset(name).seq
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 10 ** 12)
            canonical = seq.represent(n)
            alt = random_alternate_decomposition(seq, canonical, rng, max_steps=30)
            report = check_prefix_inequality(seq, canonical, alt)
            support = sorted(canonical.digits)
            lhs = [sum(canonical.digits[u] * seq.value(u) for u in support[:k + 1])
                   for k in range(len(support))]
            rhs = [sum(y * seq.value(v) for v, y in alt if v <= u)
                   for u in support]
            assert (report.n, report.cutoffs, report.lhs, report.rhs) \
                == (n, support, lhs, rhs)
            assert report.holds == [a <= b for a, b in zip(lhs, rhs)]

    def test_random_downward_splits(self, mixed23):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randrange(1, 10 ** 8)
            rep = mixed23.represent(n)
            alt = random_alternate_decomposition(mixed23, rep, rng)
            assert check_prefix_inequality(mixed23, rep, alt).all_hold


class TestLowBits:
    def test_zero_and_one(self):
        assert _low_bits(0) == low_bit_walk(0) == []
        assert _low_bits(1) == low_bit_walk(1) == [0]
        assert sumset_gaps(0, 0) == low_bit_walk(1)
        assert sumset_gaps(1, 0) == low_bit_walk(0)

    def test_single_high_bit(self):
        assert _low_bits(1 << 17) == low_bit_walk(1 << 17) == [17]
        for N in (17, 18, 40):
            clip = (1 << (N + 1)) - 1
            assert sumset_gaps(1 << 17, N) == low_bit_walk(~(1 << 17) & clip)

    @settings(max_examples=150, deadline=None)
    @given(mask=dense_masks(), data=st.data())
    def test_dense_masks(self, mask, data):
        assert _low_bits(mask) == low_bit_walk(mask)
        N = data.draw(st.integers(0, mask.bit_length() + 5), label="N")
        clip = (1 << (N + 1)) - 1
        assert sumset_gaps(mask, N) == low_bit_walk(~mask & clip)

    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(0, 3000), data=st.data())
    def test_random_masks_with_bits_above_the_window(self, N, data):
        mask = data.draw(st.integers(0, (1 << (N + 200)) - 1), label="mask")
        assert _low_bits(mask) == low_bit_walk(mask)
        clip = (1 << (N + 1)) - 1
        assert sumset_gaps(mask, N) == low_bit_walk(~mask & clip)


class TestSumsetGaps:
    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(0, 300), data=st.data())
    def test_matches_per_n_scan(self, N, data):
        # bits above N must be ignored
        mask = data.draw(st.integers(0, (1 << (N + 40)) - 1), label="mask")
        assert sumset_gaps(mask, N) == naive_gaps(mask, N)

    def test_window_of_zero(self):
        assert sumset_gaps(0, 0) == [0]
        assert sumset_gaps(1, 0) == []
        assert sumset_gaps(0b110, 0) == [0]

    def test_full_and_empty_masks(self):
        N = 1000
        assert sumset_gaps((1 << (N + 1)) - 1, N) == []
        assert sumset_gaps(0, N) == list(range(N + 1))

    def test_sparse_gaps_in_a_large_window(self):
        N = 1 << 20
        gaps = [0, 1, 77, N - 1, N]
        mask = (1 << (N + 1)) - 1
        for g in gaps:
            mask &= ~(1 << g)
        assert sumset_gaps(mask, N) == gaps
