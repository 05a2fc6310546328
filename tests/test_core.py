import gc
import itertools
import math
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gadic import (PRESETS, DigitRangeError, DigitRep, DomainError,
                   GadicSequence, load_preset)


class TestQuotient:
    def test_constant_binary(self, binary):
        assert binary.quotient(7) == 2

    def test_pattern_lookup(self, mixed23):
        assert mixed23.quotient(2) == 3

    def test_prefix_lookup(self):
        seq = GadicSequence(prefix=[5], period=[2])
        assert seq.quotient(1) == 5
        assert seq.quotient(2) == 2

    def test_index_zero_rejected(self, binary):
        with pytest.raises(DomainError):
            binary.quotient(0)

    def test_quotient_below_two_rejected(self):
        with pytest.raises(ValueError):
            GadicSequence(period=[1])
        with pytest.raises(ValueError):
            GadicSequence(prefix=[0], period=[2])


class TestValue:
    def test_mixed_radix(self, mixed23):
        assert mixed23.value(4) == 36

    def test_powers_of_six_at_even_indices(self, mixed23):
        for i in range(12):
            assert mixed23.value(2 * i) == 6 ** i

    def test_zero_index(self, binary, mixed23):
        assert binary.value(0) == 1
        assert mixed23.value(0) == 1

    def test_powers_of_two(self, binary):
        assert binary.value(10) == 1024

    def test_strictly_increasing_and_dividing(self, mixed23):
        for i in range(1, 40):
            assert mixed23.value(i) > mixed23.value(i - 1)
            assert mixed23.value(i) % mixed23.value(i - 1) == 0

    @given(i=st.integers(0, 30), j=st.integers(1, 10))
    def test_block_quotient_product(self, i, j):
        seq = GadicSequence(prefix=[7, 3], period=[2, 5, 2])
        assert seq.value(i + j) // seq.value(i) == math.prod(
            seq.quotient(k) for k in range(i + 1, i + j + 1))

    def test_threads_grow_one_table(self):
        # four threads race on the first build of one fresh table (nothing
        # touches it before the barrier) and read below and past it while
        # the interpreter switches threads every microsecond; every
        # thread's reads must match one thread's, and once built the table
        # is never replaced or changed
        params = ([7], [2, 3, 5])
        reference = fresh(params)
        expected = [(reference.value(i), reference.leading_index(i + 1))
                    for i in range(401)]
        assert len(reference._cache) == cap_index(params) + 1 < 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                seq = fresh(params)
                start = threading.Barrier(4)

                got = []

                def read():
                    start.wait()
                    got.append([(seq.value(i), seq.leading_index(i + 1))
                                for i in range(401)])

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [expected] * 4
                cache, quot = seq._cache, seq._quot
                assert cache == reference._cache and quot == reference._quot
                seq.leading_index(seq.value(1000))
                seq.evaluate(DigitRep({1000: 1}))
                seq._table(1000)
                assert seq._cache is cache and seq._quot is quot
                assert cache == reference._cache and quot == reference._quot
        finally:
            sys.setswitchinterval(interval)


class TestRatio:
    """Block ratios g_{i+j} / g_i, read off `value`."""

    def test_matches_value_quotient(self, mixed23):
        assert mixed23.value(3) // mixed23.value(1) == 6
        assert mixed23.value(3) % mixed23.value(1) == 0

    def test_single_factor(self, mixed23):
        assert mixed23.value(6) // mixed23.value(5) == mixed23.quotient(6)

    def test_binary_block(self, binary):
        assert binary.value(7) // binary.value(3) == 16


class TestRepresent:
    def test_binary_101(self, binary):
        assert binary.represent(5).digits == {0: 1, 2: 1}

    def test_mixed_radix(self, mixed23):
        assert mixed23.represent(10).digits == {1: 2, 2: 1}

    def test_zero_is_empty(self, binary):
        assert binary.represent(0).is_zero()

    def test_negative_rejected(self, binary):
        with pytest.raises(DomainError):
            binary.represent(-1)

    @given(n=st.one_of(st.integers(0, 10 ** 6),
                       st.integers(0, 2 ** 256)))
    @settings(max_examples=300)
    def test_round_trip(self, n):
        for seq in (GadicSequence(period=[2]),
                    GadicSequence(period=[2, 3]),
                    GadicSequence(prefix=[4], period=[3, 2, 2])):
            assert seq.evaluate(seq.represent(n)) == n

    def test_digits_within_range(self, mixed23):
        for n in range(2000):
            for j, x in mixed23.represent(n).items():
                assert 1 <= x <= mixed23.quotient(j + 1) - 1


class TestEvaluate:
    def test_direct_sum(self, mixed23):
        assert mixed23.evaluate(DigitRep({1: 2, 2: 1})) == 10

    def test_empty_is_zero(self, mixed23):
        assert mixed23.evaluate(DigitRep({})) == 0

    def test_binary(self, binary):
        assert binary.evaluate(DigitRep({0: 1, 2: 1})) == 5

    def test_out_of_range_digit_rejected(self, binary):
        with pytest.raises(DigitRangeError):
            binary.evaluate(DigitRep({3: 2}))


class TestDigitRepValidation:
    def test_negative_index_message(self):
        with pytest.raises(ValueError, match=r"^negative digit index -2$"):
            DigitRep({3: 1, -1: 0, -2: 1})

    def test_nonpositive_digit_message(self):
        with pytest.raises(ValueError,
                           match=r"^stored digit must be positive, got -1 at 2$"):
            DigitRep({7: 0, 2: -1, 0: 1})

    def test_valid_digits_accepted(self):
        assert DigitRep({4: 1, 0: 3}).digits == {0: 3, 4: 1}

    @given(digits=st.dictionaries(st.integers(0, 10 ** 6), st.integers(1, 9),
                                  max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_unordered_dict_iterates_ascending(self, digits):
        rep = DigitRep(digits)
        assert list(rep.items()) == sorted(digits.items())
        assert rep.digits == digits
        if digits:
            assert rep.max_index() == max(digits)


class TestUniqueness:
    def test_exhaustive_bijection(self, mixed23):
        # every digit vector below g_{M+1} evaluates to a distinct integer,
        # covering [0, g_{M+1}) exactly: the expansion is unique
        M = 0
        while mixed23.value(M + 1) < 10 ** 4:
            M += 1
        ranges = [range(mixed23.quotient(j + 1)) for j in range(M + 1)]
        seen = set()
        for digits in itertools.product(*ranges):
            n = sum(x * mixed23.value(j) for j, x in enumerate(digits))
            assert n not in seen
            seen.add(n)
        assert seen == set(range(mixed23.value(M + 1)))


class TestLeadingIndex:
    def test_examples(self, binary, mixed23):
        assert mixed23.leading_index(10) == 2
        assert binary.leading_index(1023) == 9
        assert binary.leading_index(1) == 0
        assert mixed23.leading_index(1) == 0

    def test_zero_rejected(self, binary):
        with pytest.raises(DomainError):
            binary.leading_index(0)

    def test_bounds_hold(self, mixed23):
        for n in range(1, 20000):
            M = mixed23.leading_index(n)
            assert mixed23.value(M) <= n < mixed23.value(M + 1)
            assert mixed23.represent(n).max_index() == M

    def test_converse_per_index(self, mixed23):
        for M in range(8):
            for n in range(mixed23.value(M), mixed23.value(M + 1)):
                assert mixed23.leading_index(n) == M


def test_maximal_digit_sum_identity(mixed23, binary):
    # sum over j <= M of (d_{j+1}-1) g_j telescopes to g_{M+1} - 1
    for seq in (binary, mixed23, GadicSequence(prefix=[9], period=[2, 7])):
        for M in range(65):
            total = sum((seq.quotient(j + 1) - 1) * seq.value(j)
                        for j in range(M + 1))
            assert total == seq.value(M + 1) - 1


class TestSerialization:
    def test_digitrep_round_trip(self):
        rep = DigitRep({0: 1, 2: 1, 17: 4})
        assert rep.serialize() == "0:1,2:1,17:4"
        assert DigitRep.parse(rep.serialize()) == rep
        assert DigitRep.parse("") == DigitRep({})

    def test_digitrep_parse_rejects_repeated_index(self):
        with pytest.raises(ValueError, match=r"^repeated digit index 0$"):
            DigitRep.parse("0:1,0:1")
        with pytest.raises(ValueError, match=r"^repeated digit index 3$"):
            DigitRep.parse("3:1,5:1,3:2")

    def test_sequence_round_trip(self):
        seq = GadicSequence(prefix=[5], period=[2, 3])
        assert seq.serialize() == "prefix=[5];period=[2,3]"
        assert GadicSequence.parse(seq.serialize()) == seq


class TestValueType:
    """A sequence is its two quotient lists; the tables built from them are
    not."""

    def test_equality_ignores_grown_tables(self):
        grown = GadicSequence([2, 3], prefix=[4])
        grown.value(60)
        grown.represent(10**40)
        grown.leading_index(10**40)
        fresh = GadicSequence([2, 3], prefix=[4])
        assert grown == fresh and fresh == grown
        assert grown != GadicSequence([3, 2], prefix=[4])
        assert grown != GadicSequence([2, 3])

    def test_constructor_copies_lists(self):
        period, prefix = [2, 3], [4]
        seq = GadicSequence(period, prefix)
        period.append(5)
        prefix[0] = 7
        assert (seq.period, seq.prefix) == ((2, 3), (4,))
        assert seq.value(3) == 24
        assert GadicSequence((2, 3), (4,)) == seq

    def test_missing_prefix_is_empty_list(self):
        assert GadicSequence([2]).prefix == ()
        assert GadicSequence([2], None).prefix == ()
        assert GadicSequence([2], []) == GadicSequence([2])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(GadicSequence([2]))

    def test_fields_cannot_change_after_use(self):
        # every table is cached on first use: an edited period would leave
        # value(5) at 32 while quotient(5) read 3
        seq = GadicSequence([2])
        assert seq.value(10) == 1024
        with pytest.raises(TypeError):
            seq.period[0] = 3
        with pytest.raises(AttributeError):
            seq.period = [3]
        with pytest.raises(AttributeError):
            seq.prefix = [3]
        assert (seq.value(5), seq.quotient(5)) == (32, 2)
        assert seq.serialize() == "prefix=[];period=[2]"

    def test_repr_ignores_grown_tables(self):
        seq = GadicSequence([2, 3], prefix=[4])
        before = repr(seq)
        seq.value(60)
        seq.represent(10**40)
        seq.leading_index(10**40)
        assert repr(seq) == before


def test_lazy_cache_concurrent_extension(mixed23):
    import threading
    results = []

    def reader():
        results.append([mixed23.value(i) for i in range(0, 600, 7)])

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(r == results[0] for r in results)


# Reference implementations for the digit layer: one quotient() call per
# digit, scale values multiplied forward from g_0, no scale table.

def represent_oracle(seq: GadicSequence, n: int) -> dict[int, int]:
    digits = {}
    j = 0
    while n > 0:
        n, x = divmod(n, seq.quotient(j + 1))
        if x:
            digits[j] = x
        j += 1
    return digits


def leading_index_oracle(seq: GadicSequence, n: int) -> int:
    M, g = 0, 1
    while True:
        g_next = g * seq.quotient(M + 1)
        if n < g_next:
            return M
        g, M = g_next, M + 1


def evaluate_oracle(seq: GadicSequence, digits: dict[int, int]) -> int:
    total, g = 0, 1
    for j in range(max(digits, default=-1) + 1):
        d = seq.quotient(j + 1)
        x = digits.get(j, 0)
        if x and not 1 <= x <= d - 1:
            raise DigitRangeError(f"digit {x} at index {j} outside [1, {d - 1}]")
        total += x * g
        g *= d
    return total


def scale_oracle(seq: GadicSequence, i: int) -> int:
    return math.prod(seq.quotient(k) for k in range(1, i + 1))


# Covers period products above the 2^8 block bound, quotients at it and
# lone quotients above it, in both prefix and period.
quotients = st.lists(st.sampled_from([2, 3, 5, 7, 255, 256, 257, 1000, 2**20 + 7]),
                     min_size=1, max_size=4)
sequence_params = st.tuples(quotients, quotients)   # (prefix, period)
big_ints = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 1 << 4096))


def fresh(params) -> GadicSequence:
    prefix, period = params
    return GadicSequence(prefix=prefix, period=period)


class TestDigitLayerOracles:
    @given(params=sequence_params, n=st.one_of(st.just(0), big_ints))
    @settings(max_examples=150, deadline=None)
    def test_represent_and_evaluate(self, params, n):
        seq = fresh(params)
        rep = seq.represent(n)
        assert rep.digits == represent_oracle(seq, n)
        assert list(rep.digits) == sorted(rep.digits)   # ascending insertion
        assert seq.evaluate(rep) == evaluate_oracle(seq, rep.digits) == n

    @given(params=sequence_params, n=big_ints)
    @settings(max_examples=150, deadline=None)
    def test_leading_index(self, params, n):
        assert fresh(params).leading_index(n) == leading_index_oracle(fresh(params), n)

    @given(params=sequence_params, M=st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_boundaries(self, params, M):
        oracle = fresh(params)
        g_M, g_next = scale_oracle(oracle, M), scale_oracle(oracle, M + 1)
        for n in (g_M - 1, g_M, g_next - 1):
            if n < 1:
                continue
            seq = fresh(params)
            assert seq.leading_index(n) == leading_index_oracle(oracle, n)
            assert seq.represent(n).digits == represent_oracle(oracle, n)
        assert fresh(params).leading_index(g_M) == M
        assert fresh(params).leading_index(g_next - 1) == M

    @given(params=sequence_params, n=big_ints, extra=big_ints)
    @settings(max_examples=100, deadline=None)
    def test_cache_state_independence(self, params, n, extra):
        M = leading_index_oracle(fresh(params), n)
        cold = fresh(params)
        warm_past = fresh(params)
        warm_past.value(M + 7)
        warmed_larger = fresh(params)
        warmed_larger.leading_index(n + extra)
        assert warmed_larger.represent(n + extra).digits == \
            represent_oracle(cold, n + extra)   # digit tables now warm
        rep = represent_oracle(cold, n)
        for seq in (cold, warm_past, warmed_larger):
            assert seq.leading_index(n) == M
            assert seq.represent(n).digits == rep
            assert seq.evaluate(DigitRep(rep)) == n

    @given(params=sequence_params,
           digits=st.dictionaries(st.integers(0, 200), st.integers(1, 12),
                                  min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_cold_reports_lowest_bad_index(self, params, digits):
        try:
            expected = evaluate_oracle(fresh(params), digits)
        except DigitRangeError as exc:
            with pytest.raises(DigitRangeError) as info:
                fresh(params).evaluate(DigitRep(digits))
            assert str(info.value) == str(exc)
        else:
            assert fresh(params).evaluate(DigitRep(digits)) == expected


def test_represent_tabulates_no_large_quotient():
    """A quotient above the block bound is read directly: converting a
    4096-bit n with a 2^20-sized period quotient allocates no table."""
    n = random.Random(5).getrandbits(4096) | (1 << 4095)
    oracle = represent_oracle(GadicSequence(prefix=[3], period=[2**20 + 7]), n)
    seq = GadicSequence(prefix=[3], period=[2**20 + 7])
    tracemalloc.start()
    try:
        digits = seq.represent(n).digits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digits == oracle
    assert peak < 1 << 20


def test_digit_loops_make_no_quotient_calls(monkeypatch):
    """represent never calls quotient; leading_index, value, evaluate,
    check_prefix_inequality and random_alternate_decomposition make no call
    once the scale table is warm, past its cap too."""
    from gadic.repcount import check_prefix_inequality
    from gadic.verifier import random_alternate_decomposition
    seq = GadicSequence(prefix=[3, 7], period=[2, 5, 2])
    n = random.Random(4).getrandbits(4096) | (1 << 4095)
    smaller = n // 3 + 1
    expected = leading_index_oracle(
        GadicSequence(prefix=[3, 7], period=[2, 5, 2]), smaller)
    calls = 0
    real = GadicSequence.quotient

    def counting(self, i):
        nonlocal calls
        calls += 1
        return real(self, i)

    monkeypatch.setattr(GadicSequence, "quotient", counting)
    rep = seq.represent(n)
    assert calls == 0
    assert "_cache" not in vars(seq)   # represent builds no scale table
    M = seq.leading_index(n)           # cold: builds the scale table
    assert M == rep.max_index()
    assert len(seq._cache) == cap_index(([3, 7], [2, 5, 2])) + 1 < M
    calls = 0
    assert seq.leading_index(n) == M
    assert seq.leading_index(smaller) == expected
    assert seq.value(M) <= n < seq.value(M + 1)
    assert seq.evaluate(rep) == n
    assert check_prefix_inequality(seq, rep, list(rep.items())).all_hold
    rng = random.Random(4)
    for _ in range(20):
        alt = random_alternate_decomposition(seq, rep, rng, max_steps=60)
        assert check_prefix_inequality(seq, rep, alt).all_hold
    assert calls == 0


# (prefix, period): one quotient, two, a prefix before a period of three,
# and a lone quotient above the 2^8 block bound
CAP_SEQUENCES = {
    "[2]": ([], [2]),
    "[2, 3]": ([], [2, 3]),
    "[3, 7] + [2, 5, 2]": ([3, 7], [2, 5, 2]),
    "[2^20 + 7]": ([], [2**20 + 7]),
}


def cap_index(params) -> int:
    """The top index K = L + w of the scale table, L the prefix length: w
    spans the fewest whole cycles past the prefix whose quotients multiply
    to more than 256 bits (_LEAF_BITS), a cycle being the period repeated
    as many times (at least once) as keep its product at most 2^8."""
    prefix, period = params
    seq, L, p = fresh(params), len(prefix), len(period)
    reps = 1
    while math.prod(seq.quotient(L + j)
                    for j in range(1, p * (reps + 1) + 1)) <= 256:
        reps += 1
    K, ratio = L, 1   # ratio = g_K / g_L
    while (K - L) % (reps * p) or ratio.bit_length() <= 256:
        K += 1
        ratio *= seq.quotient(K)
    return K


class TestCappedTable:
    """The scale table ends at g_K = g_L * Q; value, leading_index and
    evaluate reach past it from the table and powers of the leaf radix Q."""

    @pytest.mark.parametrize("name", CAP_SEQUENCES)
    def test_agrees_across_the_cap(self, name):
        params = CAP_SEQUENCES[name]
        K = cap_index(params)
        oracle = fresh(params)
        rng = random.Random(15)
        ns = [(1 << 256) + e for e in (-1, 0, 1)]
        for j in (K - 1, K, K + 1, K + 2, K + 7):   # g_K is the first past it
            ns += [scale_oracle(oracle, j) + e for e in (-1, 0, 1)]
        ns += [rng.getrandbits(bits) | 1 << (bits - 1)
               for bits in (255, 256, 257, 300, 1024, 4096, 8192)]
        warm = fresh(params)
        for n in ns:
            rep = represent_oracle(oracle, n)
            M = max(rep)
            cold = fresh(params)
            assert cold.evaluate(DigitRep(rep)) == n   # builds the table first
            for seq in (cold, warm):
                assert seq.leading_index(n) == M
                assert seq.represent(n).digits == rep
                assert seq.value(M) == scale_oracle(oracle, M)
                assert seq.value(M) <= n < seq.value(M + 1)
                assert seq.evaluate(DigitRep(rep)) == n
        assert len(warm._cache) == K + 1
        for i in range(K + 40):
            assert warm.value(i) == fresh(params).value(i) == \
                scale_oracle(oracle, i)

    @pytest.mark.parametrize("name", CAP_SEQUENCES)
    def test_table_past_the_cap(self, name):
        """_table hands out the shared lists below the cap and transient
        ones past it, and never changes the shared table."""
        params = CAP_SEQUENCES[name]
        K = cap_index(params)
        oracle = fresh(params)
        seq = fresh(params)
        g, quot = seq._table(3)
        assert g is seq._cache and quot is seq._quot
        g, quot = seq._table(K + 20)
        assert g is not seq._cache and len(seq._cache) == K + 1
        assert g[:K + 20] == [scale_oracle(oracle, j) for j in range(K + 20)]
        assert quot[:K + 20] == [oracle.quotient(j + 1)
                                 for j in range(K + 20)]

    @pytest.mark.parametrize("name", CAP_SEQUENCES)
    def test_large_n_in_linear_memory(self, name):
        """At 65,536 bits, leading_index, value(M + 1) and evaluate stay
        under 8 MB from a cold table; a table grown to g_{M+1} on [2] would
        hold about 275 MB."""
        seq = fresh(CAP_SEQUENCES[name])
        n = random.Random(16).getrandbits(1 << 16) | 1 << 65535
        rep = seq.represent(n)
        tracemalloc.start()
        try:
            M = seq.leading_index(n)
            above = seq.value(M + 1)
            total = seq.evaluate(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert M == rep.max_index() and total == n
        assert above // seq.quotient(M + 1) <= n < above
        assert peak < 8 << 20


# The per-block loop that `represent` split into leaves, kept as its
# reference: one divmod of all of n per block of consecutive quotients whose
# product is at most 2^8, the block's digits read off its remainder.

def represent_block_oracle(seq: GadicSequence, n: int) -> dict[int, int]:
    digits = {}
    j = 0
    while n > 0:
        B, width = seq.quotient(j + 1), 1
        while B * seq.quotient(j + width + 1) <= 256:
            B *= seq.quotient(j + width + 1)
            width += 1
        n, r = divmod(n, B)
        for o in range(width):
            r, x = divmod(r, seq.quotient(j + o + 1))
            if x:
                digits[j + o] = x
        j += width
    return digits


def split_points(seq: GadicSequence, bits: int) -> list[tuple[int, int]]:
    """(j, g_j) for every index j at which `represent` may split n, with
    g_j of at most `bits` bits: the end of the prefix, then every leaf
    boundary.  g_j is multiplied up here; the scale table stays cold."""
    g = seq._runs[3]
    _, leaf, width = seq._span
    j, points = len(seq.prefix), []
    while g.bit_length() <= bits:
        points.append((j, g))
        j, g = j + width, g * leaf
    return points


def quotients_below(seq: GadicSequence, j: int) -> list[int]:
    """d_1..d_j, read off the prefix and the period."""
    return list(itertools.islice(
        itertools.chain(seq.prefix, itertools.cycle(seq.period)), j))


SPLIT_SEQUENCES = {
    "binary": ([], [2]),
    "mixed23": ([], [2, 3]),
    "prefix quotient above 256": ([1000, 3], [2, 5]),
    "period quotient above 256": ([7], [1000, 2]),
    "period product above 256": ([], [17, 19]),
    "lone quotient above 2^16": ([3], [2**20 + 7]),
}


class TestRepresentSplit:
    """`represent` past one leaf: the prefix is divided off, and the rest is
    split at leaf boundaries by divmods by repeated squares of the leaf."""

    @pytest.mark.parametrize("name", [*SPLIT_SEQUENCES, *sorted(PRESETS)])
    def test_matches_block_oracle(self, name):
        params = SPLIT_SEQUENCES.get(name)
        if params is None:
            seq = load_preset(name).seq
            params = (seq.prefix, seq.period)
        rng = random.Random(11)
        seq, oracle = fresh(params), fresh(params)
        ns = [0, *range(1, 300)]
        for j, g in split_points(seq, 4096):
            ns += [g - 1, g, g + 1]
        ns += [rng.getrandbits(bits) for bits in
               (255, 256, 257, 300, 600, 1024, 2048, 4095, 4096, 4097, 8192)]
        for n in ns:
            rep = seq.represent(n)
            assert rep.digits == represent_block_oracle(oracle, n), n
            assert list(rep.digits) == sorted(rep.digits)
            assert oracle.evaluate(rep) == n

    @pytest.mark.parametrize("params, bits", [(([7], [1000, 2]), 1 << 16),
                                              (([], [2]), 1 << 14)],
                             ids=["period quotient above 256", "binary"])
    def test_boundaries(self, params, bits):
        """g_j - 1, g_j and g_j + 1 at every split point of at most `bits`
        bits: all digits maximal below j, the lone digit 1 at j, and that
        plus digit 1 at 0.  (Binary stops at 2^14 bits: its g_j - 1 have a
        digit per bit, 8 million in all up to 2^16.)"""
        seq = fresh(params)
        points = split_points(seq, bits)
        quots = quotients_below(seq, points[-1][0])
        for j, g in points:
            below = seq.represent(g - 1).digits
            assert list(below) == list(range(j))
            assert list(below.values()) == [d - 1 for d in quots[:j]]
            assert seq.represent(g).digits == {j: 1}
            assert seq.represent(g + 1).digits == ({0: 1, j: 1} if j else
                                                   represent_oracle(seq, g + 1))
        assert "_cache" not in vars(seq)

    def test_large_n_round_trips(self):
        seq = GadicSequence(prefix=[7], period=[1000, 2])
        n = random.Random(12).getrandbits(1 << 16)
        rep = seq.represent(n)
        assert rep.digits == represent_block_oracle(seq, n)
        total = 0
        quots = quotients_below(seq, rep.max_index() + 1)
        for j in range(rep.max_index(), -1, -1):   # Horner, top digit down
            total = total * quots[j] + rep.digits.get(j, 0)
        assert total == n

    def test_leaves_the_scale_table_alone(self):
        seq = GadicSequence(prefix=[5, 3], period=[2, 3])
        n = random.Random(13).getrandbits(8192) | 1 << 8191
        assert seq.represent(n).digits == represent_oracle(
            GadicSequence(prefix=[5, 3], period=[2, 3]), n)
        assert "_cache" not in vars(seq)

    def test_leaves_no_cyclic_garbage(self):
        """A 2^16-bit conversion frees all it makes by reference counting:
        a self-referencing helper would leave its digit dict in a cycle."""
        seq = GadicSequence(prefix=[7], period=[1000, 2])
        n = random.Random(14).getrandbits(1 << 16)
        gc.collect()
        gc.disable()
        try:
            seq.represent(n)
            assert gc.collect() == 0
        finally:
            gc.enable()
