import pytest

from gadic import (DomainError, HypothesisViolatedError, PartitionSpec,
                   detect_interval_families, min_t)


class TestColor:
    def test_periodic_lookup(self, pairs_partition):
        assert pairs_partition.color(4) == 0
        assert pairs_partition.color(5) == 0
        assert pairs_partition.color(6) == 1

    def test_three_classes(self):
        part = PartitionSpec(h=3, period_colors=[0, 1, 2])
        assert part.color(7) == 1

    def test_prefix_then_period(self):
        part = PartitionSpec(h=2, prefix_colors=[1, 1, 1], period_colors=[0, 1])
        assert [part.color(j) for j in range(6)] == [1, 1, 1, 0, 1, 0]

    def test_negative_index_rejected(self, pairs_partition):
        with pytest.raises(DomainError):
            pairs_partition.color(-1)

    def test_covering_and_disjointness(self, pairs_partition):
        # the coloring is a total function: exactly one class per index
        for j in range(100_000):
            assert pairs_partition.color(j) in (0, 1)


class TestValidation:
    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            PartitionSpec(h=2, period_colors=[0, 2])

    def test_class_missing_from_period(self):
        with pytest.raises(ValueError):
            PartitionSpec(h=3, period_colors=[0, 1])

    def test_round_trip(self):
        part = PartitionSpec(h=2, prefix_colors=[1], period_colors=[0, 0, 1, 1])
        assert part.serialize() == "h=2;prefix=[1];period=[0,0,1,1]"
        assert PartitionSpec.parse(part.serialize()) == part


class TestValueType:
    """A coloring is its order and its two color lists."""

    def test_equality_by_value(self):
        part = PartitionSpec(2, [0, 1], [1])
        part.color(10**6)
        detect_interval_families(part, 2)
        assert part == PartitionSpec(h=2, period_colors=[0, 1], prefix_colors=[1])
        assert part != PartitionSpec(2, [0, 1])
        assert part != PartitionSpec(3, [0, 1, 2], [1])

    def test_constructor_copies_lists(self):
        period, prefix = [0, 1], [1]
        part = PartitionSpec(2, period, prefix)
        period.append(1)
        prefix[0] = 0
        assert (part.period_colors, part.prefix_colors) == ([0, 1], [1])
        assert part.color(0) == 1
        assert PartitionSpec(2, (0, 1), (1,)) == part

    def test_missing_prefix_is_empty_list(self):
        assert PartitionSpec(2, [0, 1]).prefix_colors == []
        assert PartitionSpec(2, [0, 1], None).prefix_colors == []
        assert PartitionSpec(2, [0, 1], []) == PartitionSpec(2, [0, 1])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PartitionSpec(2, [0, 1]))

    def test_repr_ignores_use(self):
        part = PartitionSpec(2, [0, 0, 1, 1], [1])
        before = repr(part)
        part.color(10**6)
        detect_interval_families(part, 2)
        assert repr(part) == before


class TestMinT:
    @pytest.mark.parametrize("h,t", [(2, 2), (3, 3), (4, 3), (8, 4)])
    def test_values(self, h, t):
        assert min_t(h) == t

    def test_threshold_brackets(self):
        prev = 0
        for h in range(2, 200):
            t = min_t(h)
            assert 2 ** (t - 1) >= h > 2 ** (t - 2)
            assert t >= prev
            prev = t


class TestDetectIntervalFamilies:
    def test_pairs_pattern(self, pairs_partition):
        fam = detect_interval_families(pairs_partition, 2)
        assert fam.residues == [{1}, {3}]
        assert fam.prefix_members == [[], []]

    def test_alternating_has_no_windows(self):
        part = PartitionSpec(h=2, period_colors=[0, 1])
        fam = detect_interval_families(part, 2)
        assert fam.residues == [set(), set()]
        assert fam.prefix_members == [[], []]

    def test_runs_of_three(self):
        part = PartitionSpec(h=2, period_colors=[0, 0, 0, 1, 1, 1])
        fam = detect_interval_families(part, 3)
        assert fam.residues == [{2}, {5}]

    def test_prefix_only_member(self):
        # a 2-run of class 1 inside the prefix, none in the period
        part = PartitionSpec(h=2, prefix_colors=[1, 1], period_colors=[0, 1])
        fam = detect_interval_families(part, 2)
        assert fam.prefix_members[1] == [1]
        assert not fam.is_infinite(1)

    def test_every_reported_member_is_monochromatic(self, pairs_partition):
        # members_from must list exactly the monochromatic window endpoints,
        # both those touching the prefix and the periodic ones
        prefixed = PartitionSpec(h=2, prefix_colors=[1, 1, 0, 1, 1, 1],
                                 period_colors=[0, 0, 1, 1])
        for part in (pairs_partition, prefixed):
            for t in (1, 2, 3):
                fam = detect_interval_families(part, t)
                for i in (0, 1):
                    expected = [M for M in range(t - 1, 10_000)
                                if all(part.color(j) == i
                                       for j in range(M - t + 1, M + 1))]
                    gen = fam.members_from(i, t - 1)
                    assert [next(gen) for _ in expected] == expected
                    if fam.is_infinite(i):
                        assert next(gen) >= 10_000
                    else:
                        with pytest.raises(HypothesisViolatedError):
                            next(gen)


class TestNthMember:
    """The smallest family member >= lower is the first one members_from
    yields."""

    def test_residue_arithmetic(self, pairs_partition):
        fam = detect_interval_families(pairs_partition, 2)
        assert next(fam.members_from(1, 2)) == 3
        assert next(fam.members_from(1, 4)) == 7
        assert next(fam.members_from(0, 0)) == 1

    def test_members_from_is_increasing(self, pairs_partition):
        fam = detect_interval_families(pairs_partition, 2)
        gen = fam.members_from(0, 3)
        assert [next(gen) for _ in range(4)] == [5, 9, 13, 17]

    def test_empty_family_raises(self):
        part = PartitionSpec(h=2, period_colors=[0, 1])
        fam = detect_interval_families(part, 2)
        with pytest.raises(HypothesisViolatedError):
            next(fam.members_from(0, 0))
