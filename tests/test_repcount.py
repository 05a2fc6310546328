import random

import pytest
from hypothesis import given, settings, strategies as st

from gadic import (BasisSpec, DigitRangeError, DomainError, GadicSequence,
                   PartitionSpec, check_prefix_inequality,
                   count_reps_bruteforce, count_reps_digitdp,
                   hfold_sumset_window, mask_to_set)
from gadic.repcount import sumset_gaps
from gadic.verifier import random_alternate_decomposition


def naive_gaps(mask: int, N: int) -> list[int]:
    return [n for n in range(N + 1) if not (mask >> n) & 1]


class TestBruteForce:
    def test_pair_count_with_tuples(self, binary_pairs):
        w = binary_pairs.enumerate(20)
        res = count_reps_bruteforce(w, 9, 2)
        assert res.ordered_count == 2
        assert sorted(res.enumeration) == [(1, 8), (8, 1)]

    def test_doubleton(self, binary_pairs):
        res = count_reps_bruteforce(binary_pairs.enumerate(20), 2, 2)
        assert res.ordered_count == 1
        assert res.enumeration == [(1, 1)]

    def test_below_order_has_no_representation(self, binary_pairs):
        assert count_reps_bruteforce(binary_pairs.enumerate(20), 1, 2).ordered_count == 0

    def test_zero_allowed_pool(self, binary_pairs):
        w = binary_pairs.enumerate(20)
        res = count_reps_bruteforce(w, 1, 2, zero_allowed=True)
        assert res.ordered_count == 2  # (0,1) and (1,0)

    def test_window_exceeded(self, binary_pairs):
        with pytest.raises(DomainError):
            count_reps_bruteforce(binary_pairs.enumerate(20), 21, 2)

    def test_enumeration_cap(self, binary_pairs):
        w = binary_pairs.enumerate(100)
        res = count_reps_bruteforce(w, 20, 2, zero_allowed=True, cap=1)
        assert res.enumeration is None
        assert res.ordered_count > 1


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
                bf = count_reps_bruteforce(w, n, h, zero_allowed=zero_allowed,
                                           cap=0).ordered_count
                dp = count_reps_digitdp(spec, spec.seq.represent(n), h,
                                        zero_allowed=zero_allowed).ordered_count
                assert bf == dp, (n, zero_allowed)


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
            positive = count_reps_bruteforce(w, n, 2, cap=0).ordered_count > 0
            assert bool((s >> n) & 1) == positive


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

    def test_random_downward_splits(self, mixed23):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randrange(1, 10 ** 8)
            alt = random_alternate_decomposition(mixed23, n, rng)
            assert check_prefix_inequality(mixed23, mixed23.represent(n),
                                           alt).all_hold


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
