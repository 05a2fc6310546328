import pytest
from hypothesis import given, settings, strategies as st

from gadic import (PRESETS, BasisSpec, DomainError, GadicSequence,
                   PartitionSpec, WindowTooLargeError, load_preset)


def members_by_classify(spec: BasisSpec, N: int) -> list[int]:
    """Independent oracle: classify every n in [1, N] from its canonical
    expansion.  Linear in N; for testing only."""
    return [n for n in range(1, N + 1) if spec.classify(n) is not None]


def classify_oracle(spec: BasisSpec, n: int) -> int | None:
    """Per-digit reference for `classify`: one divmod by quotient(j + 1) per
    digit, stopping at the first digit of a second color."""
    c = None
    j = 0
    while n > 0:
        n, x = divmod(n, spec.seq.quotient(j + 1))
        if x:
            cj = spec.partition.color(j)
            if c is None:
                c = cj
            elif cj != c:
                return None
        j += 1
    return c


def assert_matches_oracle(spec: BasisSpec, N: int):
    w = spec.enumerate(N)
    oracle = members_by_classify(spec, N)
    assert w.members == oracle
    assert w.mask == sum(1 << n for n in oracle)


class TestClassify:
    def test_split_support_not_member(self, binary_pairs):
        # support {0, 2} spans both classes
        assert binary_pairs.classify(5) is None

    def test_monochromatic_support(self, binary_pairs):
        assert binary_pairs.classify(3) == 0
        assert binary_pairs.classify(4) == 1

    def test_zero_not_member(self, binary_pairs, mixed23_pairs):
        assert binary_pairs.classify(0) is None
        assert mixed23_pairs.classify(0) is None

    def test_one_always_member(self, binary_pairs, mixed23_pairs):
        assert binary_pairs.classify(1) is not None
        assert mixed23_pairs.classify(1) is not None

    def test_negative_rejected(self, binary_pairs):
        with pytest.raises(DomainError, match=r"^classify expects n >= 0, got -1$"):
            binary_pairs.classify(-1)

    def test_agrees_with_rep_variant(self, mixed23_pairs):
        for n in range(500):
            assert mixed23_pairs.classify(n) == classify_oracle(mixed23_pairs, n)


class TestEnumerate:
    def test_small_window(self, binary_pairs):
        assert binary_pairs.enumerate(10).members == [1, 2, 3, 4, 8]

    def test_window_of_one(self, binary_pairs):
        assert binary_pairs.enumerate(1).members == [1]

    def test_alternating_partition(self, binary):
        spec = BasisSpec(seq=binary,
                         partition=PartitionSpec(h=2, period_colors=[0, 1]))
        assert spec.enumerate(4).members == [1, 2, 4]

    def test_list_and_mask_agree(self, mixed23_pairs):
        w = mixed23_pairs.enumerate(3000)
        from_mask = [n for n in range(3001) if (w.mask >> n) & 1]
        assert from_mask == w.members

    def test_window_budget(self, binary_pairs):
        with pytest.raises(WindowTooLargeError):
            binary_pairs.enumerate((1 << 27) + 1)
        with pytest.raises(DomainError):
            binary_pairs.enumerate(0)


class TestBruteForceOracle:
    @pytest.mark.parametrize("period,colors,h", [
        ([2], [0, 0, 1, 1], 2),
        ([2, 3], [0, 0, 1, 1], 2),
        ([2], [0, 1, 2], 3),
        ([3, 2, 4], [0, 1, 1, 0], 2),
    ])
    def test_classify_matches_subset_enumeration(self, period, colors, h):
        spec = BasisSpec(seq=GadicSequence(period=period),
                         partition=PartitionSpec(h=h, period_colors=colors))
        assert spec.enumerate(10_000).members == members_by_classify(spec, 10_000)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("N", [1, 2, 1000, 10_000])
    def test_presets_match_oracle(self, name, N):
        assert_matches_oracle(load_preset(name).basis, N)

    def test_quotient_and_color_prefix_match_oracle(self):
        spec = BasisSpec(seq=GadicSequence(prefix=[5, 2, 3], period=[3, 2]),
                         partition=PartitionSpec(h=3, prefix_colors=[2, 2],
                                                 period_colors=[0, 1, 1, 2]))
        assert_matches_oracle(spec, 5000)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_configurations_match_oracle(self, data):
        h = data.draw(st.integers(2, 4), label="h")
        # 300 also puts x*g_j past N inside one digit's range
        quotients = st.integers(2, 5) | st.just(300)
        seq = GadicSequence(
            prefix=data.draw(st.lists(quotients, max_size=3), label="prefix"),
            period=data.draw(st.lists(quotients, min_size=1, max_size=4),
                             label="period"))
        colors = st.integers(0, h - 1)
        # every class must occur in the period
        period_colors = data.draw(
            st.lists(colors, max_size=4).flatmap(
                lambda extra: st.permutations(list(range(h)) + extra)),
            label="period_colors")
        part = PartitionSpec(
            h=h, prefix_colors=data.draw(st.lists(colors, max_size=4),
                                         label="prefix_colors"),
            period_colors=period_colors)
        N = data.draw(st.integers(1, 3000), label="N")
        assert_matches_oracle(BasisSpec(seq=seq, partition=part), N)


def test_single_class_window_counting_identity(binary):
    # when [0, J] is entirely one class, every nonzero expansion below
    # g_{J+1} is monochromatic: the window [1, g_{J+1}) is all members
    part = PartitionSpec(h=2, prefix_colors=[0] * 8, period_colors=[0, 1])
    spec = BasisSpec(seq=binary, partition=part)
    J = 7
    gJ1 = binary.value(J + 1)
    members = [m for m in spec.enumerate(gJ1 - 1).members]
    assert len(members) == gJ1 - 1
