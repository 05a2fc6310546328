import dataclasses
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import gadic.basis
import gadic.repcount
import gadic.verifier
from gadic import cli
from gadic import (PRESETS, BasisSpec, DigitRep, DomainError, GadicSequence,
                   HypothesisViolatedError, PartitionSpec, construct_witness,
                   count_reps_digitdp, load_preset, min_t, removability_scan,
                   verify_minimality, verify_theorem1, verify_theorem2,
                   verify_witness)
from gadic.basis import DEFAULT_WINDOW_LIMIT, WindowTooLargeError
from gadic.partition import IntervalFamilies
from gadic.repcount import hfold_sumset_window, sumset_gaps
from gadic.verifier import (check_lemma1, check_lemma2,
                            random_alternate_decomposition)
from oracles import count_reps_bruteforce, cross_check_witness, run_minimality
from test_repcount import classify_window, configurations


def naive_window_gaps(spec: BasisSpec, N: int, adjoin_zero: bool = False,
                      removed: int | None = None) -> list[int]:
    """Gaps of the h-fold window sumset, with members found by classifying
    every n and gaps by testing every bit: independent of enumerate() and
    of the complement-based gap reader."""
    mask = sum(1 << n for n in range(1, N + 1) if spec.classify(n) is not None)
    if adjoin_zero:
        mask |= 1
    if removed is not None:
        mask &= ~(1 << removed)
    s = hfold_sumset_window(mask, N, spec.h)
    return [n for n in range(N + 1) if not (s >> n) & 1]


class TestTheorem1:
    def test_binary_pairs(self, binary_pairs):
        report = verify_theorem1(binary_pairs, 5000)
        assert report.passed and report.gaps == [0, 1]

    def test_h3(self, binary):
        spec = BasisSpec(seq=binary,
                         partition=PartitionSpec(h=3, period_colors=[0, 1, 2]))
        report = verify_theorem1(spec, 5000)
        assert report.passed and report.gaps == [0, 1, 2]

    def test_degenerate_window(self, binary_pairs):
        report = verify_theorem1(binary_pairs, 2)
        assert report.gaps == [0, 1] and report.passed


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_window_gaps_match_naive_scan(name):
    spec, N = load_preset(name).basis, 4096
    assert verify_theorem1(spec, N).gaps == naive_window_gaps(spec, N)
    with_zero, without = verify_theorem2(spec, N)
    assert with_zero.gaps == naive_window_gaps(spec, N, adjoin_zero=True)
    assert without.gaps == naive_window_gaps(spec, N)


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that gets one entry per digit-box kernel round, counted in
    both modules that call the kernel (enumerate in basis, the sumset
    layers in verifier)."""
    calls = []
    real = gadic.basis._add_members

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(gadic.basis, "_add_members", counted)
    monkeypatch.setattr(gadic.verifier, "_add_members", counted)
    return calls


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_window_checks_make_no_member_shifts(name, monkeypatch, kernel_calls):
    """Theorems 1 and 2 build their sumsets one digit position at a time:
    neither enumerates members nor runs the member shift-OR.  Each takes h
    kernel rounds: the member mask is layer 1, and each of kA for
    k = 2..h is one more round."""
    spec = load_preset(name).basis

    def refuse(*args, **kwargs):
        raise AssertionError("member route called")

    monkeypatch.setattr(BasisSpec, "enumerate", refuse)
    monkeypatch.setattr(gadic.repcount, "hfold_sumset_window", refuse)
    assert verify_theorem1(spec, 4096).passed
    assert len(kernel_calls) == spec.h
    kernel_calls.clear()
    assert all(r.passed for r in verify_theorem2(spec, 4096))
    assert len(kernel_calls) == spec.h


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_window_checks_build_no_digit_tables(name):
    """On a freshly loaded preset the theorem checks build neither the scale
    table (`_cache`) nor the run tables of `represent` (`_runs`), and the
    removability scan builds no scale table."""
    for run, unbuilt in (
            (lambda spec: verify_theorem1(spec, 4096), {"_cache", "_runs"}),
            (lambda spec: verify_theorem2(spec, 4096), {"_cache", "_runs"}),
            (lambda spec: removability_scan(spec, 4096), {"_cache"})):
        spec = load_preset(name).basis
        run(spec)
        assert not unbuilt & spec.seq.__dict__.keys()


class TestTheorem2:
    def test_binary_pairs(self, binary_pairs):
        with_zero, without = verify_theorem2(binary_pairs, 5000)
        assert with_zero.passed and with_zero.gaps == []
        assert without.passed

    def test_h3(self, binary):
        spec = BasisSpec(seq=binary,
                         partition=PartitionSpec(h=3, period_colors=[0, 1, 2]))
        with_zero, without = verify_theorem2(spec, 2000)
        assert with_zero.passed and without.passed


def two_pass_theorem2(spec: BasisSpec, N: int):
    """Theorem 2's reports by two full sumsets: h(A u {0}) directly, then
    hA through verify_theorem1."""
    window = spec.enumerate(N)
    gaps = sumset_gaps(hfold_sumset_window(window.mask | 1, N, spec.h), N)
    without = verify_theorem1(spec, N)
    return (gaps, gaps == []), (without.gaps, without.passed)


def one_pass_theorem2(spec: BasisSpec, N: int):
    with_zero, without = verify_theorem2(spec, N)
    return (with_zero.gaps, with_zero.passed), (without.gaps, without.passed)


class TestTheorem2OnePass:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("extra", [0, 1, None])
    def test_presets_match_two_passes(self, name, extra):
        spec = load_preset(name).basis
        N = 4096 if extra is None else spec.h + extra
        assert one_pass_theorem2(spec, N) == two_pass_theorem2(spec, N)

    @settings(max_examples=60, deadline=None)
    @given(spec=configurations())
    def test_random_configurations_match_two_passes(self, spec):
        for N in (spec.h, spec.h + 1, 600):
            assert one_pass_theorem2(spec, N) == two_pass_theorem2(spec, N)


class TestConstructWitness:
    def test_a_equals_one(self, binary_pairs):
        cert = construct_witness(binary_pairs, 2, 1)[0]
        assert cert.M0 == 0
        assert cert.chosen_Ms == {1: 3}
        assert cert.n_value == 9

    def test_a_equals_three(self, binary_pairs):
        cert = construct_witness(binary_pairs, 2, 3)[0]
        assert cert.M0 == 1 and cert.chosen_Ms == {1: 3}
        assert cert.n_value == 11

    def test_a_in_other_class(self, binary_pairs):
        # a = 4 lives in class 1; the class-0 summand gets the maximal
        # digits below M0 plus a single 1 at M = 5
        cert = construct_witness(binary_pairs, 2, 4)[0]
        assert cert.removed_class == 1 and cert.M0 == 2
        assert cert.chosen_Ms == {0: 5}
        assert binary_pairs.seq.evaluate(cert.summands[0]) == 35
        assert cert.n_value == 39

    def test_non_member_rejected(self, binary_pairs):
        with pytest.raises(DomainError):
            construct_witness(binary_pairs, 2, 5)

    def test_t_below_threshold_guard(self, binary_pairs):
        with pytest.raises(HypothesisViolatedError):
            construct_witness(binary_pairs, 1, 1)
        construct_witness(binary_pairs, 1, 1, override=True)

    def test_w_witnesses_in_lockstep(self, binary_pairs):
        certs = construct_witness(binary_pairs, 2, 1, W=3)
        assert [c.chosen_Ms for c in certs] == [{1: 3}, {1: 7}, {1: 11}]
        ns = [c.n_value for c in certs]
        assert ns[0] < ns[1] < ns[2]

    @pytest.mark.parametrize("W", [0, -1])
    def test_nonpositive_w_rejected(self, binary_pairs, W):
        with pytest.raises(DomainError, match=r"^need W >= 1"):
            construct_witness(binary_pairs, 2, 1, W=W)

    def test_witness_sum_identity(self, mixed23_pairs):
        for a in mixed23_pairs.enumerate(100).members:
            cert = construct_witness(mixed23_pairs, 2, a)[0]
            total = sum(mixed23_pairs.seq.evaluate(rep)
                        for rep in cert.summands.values())
            assert cert.n_value == total == mixed23_pairs.seq.evaluate(cert.n_rep)

    def test_overlapping_supports_raise(self, binary_pairs, monkeypatch):
        # 9 has digits at indices 0 and 3, of classes 0 and 1: read as a
        # class-1 member, its index-0 digit lies on the class-0 summand's
        # maximal digits
        real = BasisSpec._rep_and_class

        def nine_in_class_one(spec, n):
            rep, cls = real(spec, n)
            return (rep, 1) if n == 9 else (rep, cls)

        monkeypatch.setattr(BasisSpec, "_rep_and_class", nine_in_class_one)
        with pytest.raises(RuntimeError, match=r"^witness construction bug: "
                           r"summand supports overlap at index 0$"):
            construct_witness(binary_pairs, 2, 9)

    def test_walked_non_member_refused(self, monkeypatch, capsys):
        # the rounds take a walked member's class from its top index: a
        # walk that yields binary-h2's 9 (digits at indices 0 and 3, of
        # classes 0 and 1) reads it as class 1, and the overlap check
        # refuses it at index 0 after member 1's lines are out
        def walk(spec):
            yield from (1, 9, 2)

        monkeypatch.setattr(BasisSpec, "_walk", walk)
        assert cli.main(["minimality", "--preset", "binary-h2",
                         "--budget", "3", "--witnesses", "2"]) == 1
        captured = capsys.readouterr()
        assert [line.split()[0] for line in captured.out.splitlines()] \
            == ["a=1", "a=1"]
        assert captured.err == ("error: witness construction bug: summand "
                                "supports overlap at index 0\n")
        cfg = load_preset("binary-h2")
        with pytest.raises(DomainError,
                           match=r"^9 is not a member of the constructed set$"):
            construct_witness(cfg.basis, cfg.t, 9)

    def test_shared_endpoint_raises(self, monkeypatch, capsys):
        # class 2 takes class 1's window endpoints on h3-runs, so the class-1
        # and class-2 summands of a class-0 member put their 1 at the same
        # M_i: n's digits hold it once, the summands twice
        real = IntervalFamilies.members_from

        def shared_endpoints(fams, i, lower):
            return real(fams, 1 if i == 2 else i, lower)

        monkeypatch.setattr(IntervalFamilies, "members_from", shared_endpoints)
        cfg = load_preset("h3-runs")
        message = (r"^witness construction bug: digits of n=\d+ "
                   r"do not sum the summands$")
        with pytest.raises(RuntimeError, match=message):
            construct_witness(cfg.basis, cfg.t, 1)
        assert cli.main(["minimality", "--preset", "h3-runs"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(message, err.removeprefix("error: ").rstrip("\n"))

    def test_endpoint_not_above_m0_raises(self, monkeypatch, capsys):
        # class 0 draws its endpoints from index 0 on binary-h2: a = 4 has
        # M0 = 2 and gets the class-0 endpoint 1, where the class-0 summand
        # already holds its maximal digit 1; n's digits would keep one 1
        # there, so n would not be the value of its digits
        real = IntervalFamilies.members_from

        def endpoints_from_zero(fams, i, lower):
            return real(fams, i, 0 if i == 0 else lower)

        monkeypatch.setattr(IntervalFamilies, "members_from",
                            endpoints_from_zero)
        cfg = load_preset("binary-h2")
        message = r"^witness construction bug: endpoint M_i 1 not above M0 = 2$"
        with pytest.raises(RuntimeError, match=message):
            construct_witness(cfg.basis, cfg.t, 4)
        assert cli.main(["minimality", "--preset", "binary-h2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(message, err.removeprefix("error: ").rstrip("\n"))


class TestVerifyWitness:
    def test_certifies_hand_checked_pair(self, binary_pairs):
        cert = verify_witness(binary_pairs, construct_witness(binary_pairs, 2, 1)[0])
        assert (cert.expected_count, cert.measured_count) == (2, 2)
        assert cert.verdict == "certified"

    def test_certifies_a_three(self, binary_pairs):
        cert = verify_witness(binary_pairs, construct_witness(binary_pairs, 2, 3)[0])
        assert cert.verdict == "certified"
        # brute force: no other member pair sums to 11
        w = binary_pairs.enumerate(20)
        assert count_reps_bruteforce(w, 11, 2).ordered_count == 2

    def test_cross_check(self, binary_pairs):
        w = binary_pairs.enumerate(50)
        for a in (1, 2, 3, 4):
            cert = construct_witness(binary_pairs, 2, a)[0]
            verify_witness(binary_pairs, cert)
            assert cross_check_witness(binary_pairs, cert, w)

    @pytest.mark.parametrize("multiset,n", [
        ([4, 5], 9),    # 5 is not a member, yet 9 has two representations
        ([1, 8], 5),    # n swapped: 5 = 1+4 = 2+3 has four representations
        ([1, 4], 5),    # a representation of 5, but not the only one
    ])
    def test_cross_check_rejects(self, binary_pairs, multiset, n):
        cert = construct_witness(binary_pairs, 2, 1)[0]
        assert (cert.multiset, cert.n_value) == ([1, 8], 9)
        w = binary_pairs.enumerate(50)
        assert cross_check_witness(binary_pairs, cert, w)
        cert.multiset, cert.n_value = multiset, n
        assert not cross_check_witness(binary_pairs, cert, w)

    def test_certifies_past_the_scale_table(self):
        # binary-h2's scale table stops at g_256 (its cap); a member with
        # top index 3,000 reads its values from a transient table
        spec = load_preset("binary-h2").basis
        a = 1 << 3000 | 1 << 2996 | 1
        certs = construct_witness(spec, 2, a, W=2)
        for cert in certs:
            assert cert.M0 == 3000
            assert sum(cert.multiset) == cert.n_value
            assert verify_witness(spec, cert).verdict == "certified"

    def test_witnesses_past_the_scale_table_in_linear_memory(self):
        # a table grown to g_16384 on [2] would hold about 16 MB
        import tracemalloc
        spec = load_preset("binary-h2").basis
        a = 1 << 16384 | 1 << 16380 | 1
        tracemalloc.start()
        try:
            certs = construct_witness(spec, 2, a, W=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [cert.M0 for cert in certs] == [16384, 16384]
        assert all(sum(cert.multiset) == cert.n_value for cert in certs)
        assert peak < 8 << 20
        assert len(spec.seq._cache) == 257   # the cap of [2]

    @pytest.mark.parametrize("multiset,n", [
        ([1, 2, 8], 9),    # three values; 9 has two orderings, 2! of them
        ([1, 2, 8], 11),   # three values that do sum to n
        ([1, 10], 9),      # h values, but their sum is 11
    ])
    def test_malformed_multiset_fails(self, binary_pairs, multiset, n):
        cert = construct_witness(binary_pairs, 2, 1)[0]
        cert.multiset = multiset
        cert.n_rep = binary_pairs.seq.represent(n)
        cert = verify_witness(binary_pairs, cert)
        assert cert.verdict == "failed"
        assert (cert.expected_count, cert.measured_count) == (None, 2)

    @pytest.mark.parametrize("removed,multiset", [
        (5, [4, 5]),     # 5 is not a member; 9 = 1 + 8 avoids it
        (0, [1, 8]),     # 0 is never a member
        (1, [-1, 10]),   # a negative value
        (-1, [1, 8]),    # a negative removed value
    ])
    def test_non_member_fails(self, removed, multiset):
        spec = load_preset("binary-h2").basis
        cert = construct_witness(spec, 2, 1)[0]
        assert (cert.multiset, cert.n_value) == ([1, 8], 9)
        cert.removed, cert.multiset = removed, multiset
        cert = verify_witness(spec, cert)
        assert cert.verdict == "failed"
        assert (cert.expected_count, cert.measured_count) == (None, 2)

    @pytest.mark.parametrize("field,value", [
        ("n_value", 40),
        ("spec_hash", "0" * 16),
        ("t", 3),             # the config hash is of t = 2
        ("removed_rep", DigitRep({3: 1})),
        ("removed_class", 0),
        ("M0", 3),
        ("chosen_Ms", {0: 6}),
        # 34 = g_1 + g_5 keeps M[0] = 5 but leaves the multiset [4, 35]
        ("summands", {1: DigitRep({2: 1}), 0: DigitRep({1: 1, 5: 1})}),
        ("summands", {1: DigitRep({2: 1}), 0: DigitRep()}),  # a summand 0
    ])
    def test_fields_that_disagree_with_the_digits_fail(self, field, value):
        # binary-h2's witness for a = 4: n = 39 = 4 + 35, summand 35 with
        # top index M[0] = 5
        spec = load_preset("binary-h2").basis
        cert = construct_witness(spec, 2, 4)[0]
        assert verify_witness(spec, dataclasses.replace(cert)).verdict \
            == "certified"
        cert = verify_witness(spec, dataclasses.replace(cert, **{field: value}))
        assert cert.verdict == "failed"
        assert (cert.expected_count, cert.measured_count) == (None, 2)

    def test_expected_count_is_permutation_count(self, binary):
        # witness summands are pairwise distinct, so the expected ordered
        # count is h! exactly
        import math
        spec = BasisSpec(seq=binary,
                         partition=PartitionSpec(
                             h=3, period_colors=[0, 0, 0, 1, 1, 1, 2, 2, 2]))
        cert = verify_witness(spec, construct_witness(spec, 3, 1)[0])
        values = cert.multiset
        assert len(set(values)) == 3
        assert cert.expected_count == math.factorial(3)
        assert cert.verdict == "certified"


class TestSettle:
    """_settle's expected count is the number of orderings of the multiset:
    h! when its values are distinct, the multinomial coefficient when some
    repeat."""

    @pytest.mark.parametrize("multiset,h,expected", [
        ([1, 8], 2, 2), ([4, 4], 2, 1), ([1, 2, 8], 3, 6), ([1, 1, 8], 3, 3),
        ([2, 2, 2], 3, 1), ([1, 1, 2, 2], 4, 6), ([1, 2, 4, 8], 4, 24),
    ])
    def test_expected_count(self, binary_pairs, multiset, h, expected):
        cert = construct_witness(binary_pairs, 2, 1)[0]  # removes a = 1
        cert.multiset = multiset
        gadic.verifier._settle(cert, h, expected)
        assert (cert.expected_count, cert.measured_count) == (expected,
                                                              expected)
        assert cert.verdict == ("certified" if 1 in multiset else "failed")
        # one ordering more than the multiset has: not certified
        gadic.verifier._settle(cert, h, expected + 1)
        assert cert.verdict == "failed"

    @pytest.mark.parametrize("multiset,h,expected", [
        ([1, 8], 2, 2), ([1, 1, 8], 3, 3)])
    def test_count_below_expected_raises(self, binary_pairs, multiset, h,
                                         expected):
        cert = construct_witness(binary_pairs, 2, 1)[0]
        cert.multiset = multiset
        with pytest.raises(RuntimeError, match=(
                f"^counting engine bug: measured {expected - 1} < expected "
                f"{expected} but the constructed representation exists$")):
            gadic.verifier._settle(cert, h, expected - 1)
        assert cert.verdict == "unverified"


class TestCountWithout:
    """_count_without, the second route verify_witness takes: the count of
    representations avoiding a, by inclusion-exclusion over DP counts at
    other orders."""

    @pytest.mark.parametrize("name,removed,N", [
        ("binary-h2", (2, 4, 8, 16), 1 << 14),
        ("h3-runs", None, 1 << 12),
        ("h4-runs", None, 1 << 12),
    ])
    def test_matches_the_sumset_without_a(self, name, removed, N):
        spec = load_preset(name).basis
        window = spec.enumerate(N)
        for a in removed or window.members[:3]:
            _, hB = gadic.verifier._hfold(spec, window.mask & ~(1 << a), N, a)
            for n in range(N + 1):
                avoid = gadic.verifier._count_without(spec, n, a)
                assert avoid >= 0 and (avoid > 0) == bool(hB >> n & 1), (a, n)

    def test_every_representation_uses_a(self, binary_pairs):
        # binary-h2: 209719 = 4 + 209715, the class-1 member 4 plus the
        # class-0 member with both class-0 digits of every period set, far
        # above the windows of the test before
        n = 209719
        assert gadic.verifier._count_without(binary_pairs, n, 4) == 0
        assert count_reps_digitdp(binary_pairs, binary_pairs.seq.represent(n),
                                  2).ordered_count > 0

    def test_disagreeing_routes_raise(self, binary_pairs, monkeypatch):
        cert = construct_witness(binary_pairs, 2, 1)[0]
        monkeypatch.setattr(gadic.verifier, "_count_without",
                            lambda spec, n, a: 1)
        with pytest.raises(RuntimeError, match=r"^counting engine bug: n=9 "
                           r"has 1 representations without 1, but 2 in all "
                           r"and 2 through 1$"):
            verify_witness(binary_pairs, cert)


class TestMinimalityBatch:
    """verify_minimality, its rounds run to the end (run_minimality); the
    hypothesis, K and W errors raise at the call itself."""

    def test_corollary_preset(self, binary_pairs):
        report, certs = run_minimality(binary_pairs, t=2, K=20, W=3)
        assert len(certs) == 60
        assert report.passed and all(c.verdict == "certified" for c in certs)

    def test_families_detected_once(self, binary_pairs, monkeypatch):
        real = gadic.verifier.detect_interval_families
        calls = []
        monkeypatch.setattr(gadic.verifier, "detect_interval_families",
                            lambda *args: calls.append(args) or real(*args))
        _, certs = run_minimality(binary_pairs, t=2, K=5, W=2)
        assert len(calls) == 1
        monkeypatch.undo()
        expected = [verify_witness(binary_pairs, c) for a in
                    sorted({c.removed for c in certs})
                    for c in construct_witness(binary_pairs, 2, a, 2)]
        assert [c.render(binary_pairs) for c in certs] \
            == [c.render(binary_pairs) for c in expected]

    def test_distinct_choices_give_increasing_witnesses(self, binary_pairs):
        _, certs = run_minimality(binary_pairs, t=2, K=3, W=4)
        per_member = {}
        for cert in certs:
            per_member.setdefault(cert.removed, []).append(cert.n_value)
        for ns in per_member.values():
            assert ns == sorted(ns) and len(set(ns)) == len(ns)

    def test_hypothesis_violation_empty_family(self, binary):
        spec = BasisSpec(seq=binary,
                         partition=PartitionSpec(h=2, period_colors=[0, 1]))
        with pytest.raises(HypothesisViolatedError):
            verify_minimality(spec, t=2, K=1, W=1)

    def test_finite_family_violates_for_both(self, binary):
        # class 1 has window endpoints 2, 3, 4 in the prefix only, class 0
        # none; the prefix alone would let construct_witness(spec, 2, 1) pass
        spec = BasisSpec(seq=binary, partition=PartitionSpec(
            h=2, period_colors=[0, 1], prefix_colors=[0, 1, 1, 1, 1]))
        message = r"^class 0 has no periodic t-window \(empty interval family\)$"
        with pytest.raises(HypothesisViolatedError, match=message):
            construct_witness(spec, 2, 1)
        with pytest.raises(HypothesisViolatedError, match=message):
            verify_minimality(spec, t=2, K=1, W=1)

    def test_t_guard(self, binary_pairs):
        with pytest.raises(HypothesisViolatedError):
            verify_minimality(binary_pairs, t=1, K=1, W=1)

    @pytest.mark.parametrize("K,W", [(0, 1), (-1, 1), (1, 0)])
    def test_nonpositive_budget_rejected(self, binary_pairs, K, W):
        # a negative K would otherwise slice members from the end
        with pytest.raises(DomainError, match=r"^need K >= 1 and W >= 1"):
            verify_minimality(binary_pairs, t=2, K=K, W=W)


def preset_examples(test):
    """Explicit examples of every preset at its shipped t (the threshold),
    budget and witnesses."""
    for name in sorted(PRESETS):
        cfg = load_preset(name)
        assert cfg.t == min_t(cfg.partition.h)
        test = example(spec=cfg.basis, K=cfg.budget, W=cfg.witnesses,
                       below=0)(test)
    return test


class TestSharedPrefix:
    """verify_minimality builds a member's W witnesses from their shared
    digits on [0, M0] and counts each one from a single prefix state over
    those digits, walked once per member, then over its own digits above
    M0."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=configurations(min_run=3).filter(lambda spec: spec.h <= 3),
           K=st.integers(1, 40), W=st.integers(1, 6), below=st.integers(0, 2))
    @preset_examples
    @example(spec=BasisSpec(GadicSequence(period=[2, 3], prefix=[3]),
                            PartitionSpec(h=2, period_colors=[0, 0, 1, 1, 1],
                                          prefix_colors=[1, 0, 1])),
             K=40, W=3, below=0)
    @example(spec=BasisSpec(GadicSequence(period=[2]),
                            PartitionSpec(h=3, period_colors=[2, 2, 2, 0, 0,
                                                              0, 1, 1, 1],
                                          prefix_colors=[0, 2])),
             K=40, W=2, below=1)
    def test_batch_matches_one_witness_at_a_time(self, spec, K, W, below):
        # the batch's per-member prefix states and shared levels against
        # construct_witness and verify_witness, which build each member's
        # level afresh and count from position 0; t at the threshold, or
        # below it with override
        t = max(1, min_t(spec.h) - below)
        override = t < min_t(spec.h)
        _, certs = run_minimality(spec, t, K, W, override=override)
        members = sorted({c.removed for c in certs})
        expected = [verify_witness(spec, c) for a in members
                    for c in construct_witness(spec, t, a, W, override)]
        assert len(certs) == len(members) * W
        assert [c.render(spec) for c in certs] \
            == [c.render(spec) for c in expected]
        for cert in certs:
            assert cert.measured_count == count_reps_digitdp(
                spec, cert.n_rep, spec.h).ordered_count

    @pytest.mark.parametrize("name, levels", [
        ("binary-h2", 14), ("h3-runs", 12), ("h4-runs", 14),
        ("mixed23-h2", 10)])
    def test_level_built_once_per_top_index(self, name, levels, monkeypatch):
        # at the benchmark's certify sizes: K = 200 (h = 2) or 50, W = 4
        cfg = load_preset(name)
        spec, t, K = cfg.basis, cfg.t, 200 if cfg.partition.h == 2 else 50
        real, built = gadic.verifier._level, []

        def counted(spec, t, M0, *args):
            built.append(M0)
            return real(spec, t, M0, *args)

        monkeypatch.setattr(gadic.verifier, "_level", counted)
        _, certs = run_minimality(spec, t, K, W=4)
        assert built == sorted({c.M0 for c in certs})
        assert len(built) == levels
        members = sorted({c.removed for c in certs})
        expected = [verify_witness(spec, c) for a in members
                    for c in construct_witness(spec, t, a, W=4)]
        assert len(built) == levels + K  # one level per construct_witness
        assert [c.render(spec) for c in certs] \
            == [c.render(spec) for c in expected]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_prefix_walked_once_per_member(self, name, monkeypatch):
        cfg = load_preset(name)
        spec, h = cfg.basis, cfg.partition.h
        real, walks = gadic.verifier._dp_steps, []

        def recorded(state, quots, colors, digit, lo, hi, h, classes):
            walks.append((lo, hi))
            return real(state, quots, colors, digit, lo, hi, h, classes)

        monkeypatch.setattr(gadic.verifier, "_dp_steps", recorded)
        _, certs = run_minimality(spec, cfg.t, K=20, W=4)
        # per member one walk over the shared digits on [0, M0]; per
        # witness one walk from M0 + 1 over its own top digits, unless the
        # member's prefix state at M0 + 1 is the final live set
        expected, final = [], gadic.repcount._end_sets(h)[1]
        for k, cert in enumerate(certs):
            if k % 4 == 0:
                expected.append((0, cert.M0 + 1))
            quots, colors = spec._positions(cert.M0 + 1)
            set_id, _, _ = real(gadic.repcount._dp_start(h), quots, colors,
                                cert.n_rep.digits.get, 0, cert.M0 + 1, h, h)
            if set_id != final:
                expected.append((cert.M0 + 1, cert.n_rep.max_index() + 1))
        assert walks == expected

    def test_certify_pass_call_totals(self, monkeypatch):
        # the benchmark's certify sizes: K = 200 (h = 2) or 50, W = 4 on
        # every preset.  One walk per member (the prefix) and per witness
        # whose member's prefix state is not final; one evaluate per member
        # (its shared digits) and per witness of a level (its 1s); one
        # represent per member, whose class is its top index's color, so
        # no member is classified again
        steps, evals = gadic.verifier._dp_steps, GadicSequence.evaluate
        represent, classify = GadicSequence.represent, BasisSpec._rep_and_class
        calls = {"steps": 0, "evaluate": 0, "represent": 0, "classify": 0}

        def counted_steps(*args):
            calls["steps"] += 1
            return steps(*args)

        def counted_evaluate(seq, rep):
            calls["evaluate"] += 1
            return evals(seq, rep)

        def counted_represent(seq, n):
            calls["represent"] += 1
            return represent(seq, n)

        def counted_classify(spec, n):
            calls["classify"] += 1
            return classify(spec, n)

        monkeypatch.setattr(gadic.verifier, "_dp_steps", counted_steps)
        monkeypatch.setattr(GadicSequence, "evaluate", counted_evaluate)
        monkeypatch.setattr(GadicSequence, "represent", counted_represent)
        monkeypatch.setattr(BasisSpec, "_rep_and_class", counted_classify)
        members = levels = 0
        for name in sorted(PRESETS):
            cfg = load_preset(name)
            K = 200 if cfg.partition.h == 2 else 50
            _, certs = run_minimality(cfg.basis, cfg.t, K, W=4)
            assert len(certs) == 4 * K
            members += K
            levels += len({c.M0 for c in certs})
        assert (members, levels) == (500, 50)
        assert calls == {"steps": 672, "evaluate": 700, "represent": 500,
                         "classify": 0}

    def test_no_walk_count_outlives_a_call(self, monkeypatch):
        # two identical runs in one process walk alike: no accepted count
        # is kept past the witness it settles, within a call or across calls
        real, walks = gadic.verifier._dp_steps, []

        def counted(*args):
            walks[-1] += 1
            return real(*args)

        monkeypatch.setattr(gadic.verifier, "_dp_steps", counted)
        for name in sorted(PRESETS):
            cfg = load_preset(name)
            runs = []
            for _ in range(2):
                walks.append(0)
                runs.append(run_minimality(cfg.basis, cfg.t, K=20, W=4)[1])
            assert walks[-2] == walks[-1]
            assert [c.render(cfg.basis) for c in runs[0]] \
                == [c.render(cfg.basis) for c in runs[1]]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=configurations(min_run=3), K=st.integers(30, 60),
           W=st.integers(1, 4))
    def test_shared_counts_match_fresh_counts(self, spec, K, W):
        # at these K, many members reach the final live set by M0 + 1 and
        # settle every witness from that one state, while the others walk
        # each witness on; either count must be that of a fresh walk from
        # position 0
        _, certs = run_minimality(spec, min_t(spec.h), K, W)
        for cert in certs:
            assert cert.measured_count == count_reps_digitdp(
                spec, cert.n_rep, spec.h).ordered_count

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_witness_order_does_not_matter(self, name, order, monkeypatch):
        # _witnesses hands back each member's witnesses in another order;
        # every verdict and count is still construct_witness's witness
        # checked on its own by verify_witness
        cfg, real = load_preset(name), gadic.verifier._witnesses
        spec, t = cfg.basis, cfg.t

        def permutation(a):
            ks, rng = list(range(4)), random.Random(a)
            if order == "reversed":
                return ks[::-1]
            while ks == sorted(ks):
                rng.shuffle(ks)
            return ks

        def reordered(spec, t, a, *args):
            shared, certs = real(spec, t, a, *args)
            return shared, [certs[k] for k in permutation(a)]

        monkeypatch.setattr(gadic.verifier, "_witnesses", reordered)
        _, certs = run_minimality(spec, t, K=8, W=4)
        monkeypatch.undo()
        members = [c.removed for c in certs[::4]]
        expected = [verify_witness(spec, c) for a in members
                    for c in (construct_witness(spec, t, a, W=4)[k]
                              for k in permutation(a))]
        assert [c.n_value for c in certs] == [c.n_value for c in expected]
        assert [(c.verdict, c.expected_count, c.measured_count)
                for c in certs] \
            == [(c.verdict, c.expected_count, c.measured_count)
                for c in expected]
        assert all(c.verdict == "certified" for c in certs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=configurations(min_run=3).filter(lambda spec: spec.h <= 3),
           K=st.integers(1, 20), W=st.integers(1, 4))
    def test_prefix_state_is_each_witness_own(self, spec, K, W):
        # the member's prefix state at M0 + 1 is the state a fresh walk
        # from position 0 reaches over each witness's own digits, whose
        # digits above M0 are just the 1s at its endpoints
        real, prefixes = gadic.verifier._dp_steps, []

        def recorded(state, quots, colors, digit, lo, hi, h, classes):
            out = real(state, quots, colors, digit, lo, hi, h, classes)
            if lo == 0:
                prefixes.append(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gadic.verifier, "_dp_steps", recorded)
            _, certs = run_minimality(spec, min_t(spec.h), K, W)
        h = spec.h
        assert len(prefixes) * W == len(certs)
        for k, cert in enumerate(certs):
            quots, colors = spec._positions(cert.M0 + 1)
            fresh = real(gadic.repcount._dp_start(h), quots, colors,
                         cert.n_rep.digits.get, 0, cert.M0 + 1, h, h)
            assert fresh[:2] == prefixes[k // W][:2]
            assert {j: x for j, x in cert.n_rep.items() if j > cert.M0} \
                == dict.fromkeys(cert.chosen_Ms.values(), 1)


class TestThresholdGuard:
    """construct_witness and verify_minimality share one t >= min_t(h) guard."""

    CASES = [("binary-h2", 1, r"^t=1 below threshold 2 for h=2 "),
             ("h4-runs", 2, r"^t=2 below threshold 3 for h=4 ")]

    @pytest.mark.parametrize("name,t,message", CASES)
    def test_construct_witness(self, name, t, message):
        spec = load_preset(name).basis
        a = spec.enumerate(64).members[0]
        with pytest.raises(HypothesisViolatedError,
                           match=message + r"\(pass override to force\)$"):
            construct_witness(spec, t, a)

    @pytest.mark.parametrize("K", [0, 1])
    @pytest.mark.parametrize("name,t,message", CASES)
    def test_verify_minimality(self, name, t, message, K):
        with pytest.raises(HypothesisViolatedError,
                           match=message + r"\(pass override to force\)$"):
            verify_minimality(load_preset(name).basis, t=t, K=K, W=1)


class TestLemmaSuites:
    """The sampled suites for Lemmas 1 and 2, called directly."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_pass(self, name):
        seq = load_preset(name).seq
        assert check_lemma1(seq, samples=400, rng=random.Random(5)) \
            == (True, None)
        assert check_lemma2(seq, samples=200, rng=random.Random(6)) \
            == (True, None)

    @pytest.mark.parametrize("check", [check_lemma1, check_lemma2])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_nonpositive_samples_rejected(self, check, samples, binary):
        with pytest.raises(DomainError,
                           match=rf"^need samples >= 1, got {samples}$"):
            check(binary, samples=samples)

    # samples=10 reads n = 1..5 and five 256-bit n before the converse
    # scan, which reads every n in [g_M, g_{M+1}) on binary up to M = 7
    @pytest.mark.parametrize("bad, message", [
        (3, "n=3: M=2 but bounds fail"),
        (100, "n=100 in [g_6, g_7) but leading_index != 6"),
    ])
    def test_lemma1_reports_a_wrong_leading_index(self, bad, message,
                                                  binary, monkeypatch):
        real = GadicSequence.leading_index
        monkeypatch.setattr(GadicSequence, "leading_index",
                            lambda seq, n: real(seq, n) + (n == bad))
        assert check_lemma1(binary, samples=10) == (False, message)

    def test_lemma2_reports_a_failing_cutoff(self, binary, monkeypatch):
        real = gadic.verifier.check_prefix_inequality
        monkeypatch.setattr(
            gadic.verifier, "check_prefix_inequality",
            lambda *args: dataclasses.replace(real(*args), holds=[False]))
        # the first pair of the default seed
        rng = random.Random(1)
        n = rng.randrange(1, 10 ** 9)
        alt = random_alternate_decomposition(binary, binary.represent(n), rng)
        assert check_lemma2(binary, samples=10) == (
            False, f"n={n}, alt={alt}: inequality fails at some cutoff")


class TestRemovabilityScan:
    def test_removing_zero_keeps_window_basis(self, binary_pairs):
        rows = removability_scan(binary_pairs, 500, elem_bound=4)
        by_removed = {r.removed: r for r in rows}
        assert by_removed[0].covered_from == 2
        assert all("evidence" in r.evidence for r in rows)

    def test_removing_one_leaves_misses(self, binary_pairs):
        rows = removability_scan(binary_pairs, 500, elem_bound=1)
        row = {r.removed: r for r in rows}[1]
        assert row.miss_count > 2  # constructed witnesses (9, 13, ...) go missing

    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_elem_bound_rejected(self, binary_pairs, bound):
        with pytest.raises(DomainError, match=r"^element bound must be >= 0"):
            removability_scan(binary_pairs, 100, elem_bound=bound)

    def test_zero_elem_bound_scans_zero_only(self, binary_pairs):
        rows = removability_scan(binary_pairs, 100, elem_bound=0)
        assert [(r.removed, r.miss_count) for r in rows] == [(0, 2)]

    @staticmethod
    def member_route_rows(spec: BasisSpec, N: int) -> list[tuple]:
        """(removed, covered_from, miss count) per removal, every member
        removed in turn, from members found by classify, the member
        shift-OR and the gap list."""
        members, mask0 = classify_window(spec, N)
        rows = []
        for a in [0] + members:
            mask = (mask0 | 1) & ~(1 << a)
            misses = sumset_gaps(hfold_sumset_window(mask, N, spec.h), N)
            covered = (0 if not misses else
                       misses[-1] + 1 if misses[-1] < N else None)
            rows.append((a, covered, len(misses)))
        return rows

    @staticmethod
    def scan_rows(spec: BasisSpec, N: int) -> list[tuple]:
        return [(r.removed, r.covered_from, r.miss_count)
                for r in removability_scan(spec, N, elem_bound=N)]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_removal_matches_member_route(self, name):
        spec, N = load_preset(name).basis, 600
        assert self.scan_rows(spec, N) == self.member_route_rows(spec, N)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=configurations())
    def test_random_configurations_match_member_route(self, spec):
        for N in (spec.h, spec.seq.value(1), 300):
            assert self.scan_rows(spec, N) == self.member_route_rows(spec, N)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("bound", [10, 100])
    def test_bound_at_or_past_the_window(self, name, bound, monkeypatch):
        """With elem_bound at or above N every member up to N is removed in
        turn, and the elements come from the member walk, not from
        enumerate."""
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate called")

        monkeypatch.setattr(BasisSpec, "enumerate", refuse)
        spec = load_preset(name).basis
        rows = removability_scan(spec, 10, elem_bound=bound)
        assert [(r.removed, r.covered_from, r.miss_count) for r in rows] \
            == self.member_route_rows(spec, 10)

    def test_oversized_window_refused_before_the_walk(self, binary_pairs,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("member walk started")

        monkeypatch.setattr(BasisSpec, "_walk", refuse)
        with pytest.raises(WindowTooLargeError):
            removability_scan(binary_pairs, DEFAULT_WINDOW_LIMIT + 1,
                              elem_bound=10**12)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("N, bound", [(32768, None), (600, 600)])
    def test_each_removal_reuses_the_member_mask(self, name, N, bound,
                                                 kernel_calls):
        """One member-mask round, then h - 1 kernel rounds per removed
        element: the member mask minus a is the removal's layer 1."""
        spec = load_preset(name).basis
        rows = removability_scan(spec, N, elem_bound=bound)
        assert len(kernel_calls) == 1 + len(rows) * (spec.h - 1)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_rows_match_naive_gap_extraction(self, name):
        spec, N = load_preset(name).basis, 1024
        rows = removability_scan(spec, N)
        members = [n for n in range(1, 65) if spec.classify(n) is not None]
        assert [r.removed for r in rows] == [0] + members
        for row in rows:
            misses = naive_window_gaps(spec, N, adjoin_zero=True,
                                       removed=row.removed)
            assert row.miss_count == len(misses)
            if not misses:
                assert row.covered_from == 0
            elif misses[-1] < N:
                assert row.covered_from == misses[-1] + 1
            else:
                assert row.covered_from is None
