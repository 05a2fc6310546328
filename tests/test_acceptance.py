"""Acceptance suite: one test per exit criterion, exact assertions,
one printed pass line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import hashlib
import random
import time

import pytest

from gadic import (PRESETS, BasisSpec, GadicSequence, PartitionSpec,
                   count_reps_digitdp, construct_witness, load_preset, min_t,
                   verify_theorem1, verify_theorem2, verify_witness)
from gadic.repcount import check_prefix_inequality
from gadic.verifier import random_alternate_decomposition
from oracles import count_reps_bruteforce, cross_check_witness, run_minimality

WINDOW = 5000


def _spec(period, colors, h):
    return BasisSpec(seq=GadicSequence(period=period),
                     partition=PartitionSpec(h=h, period_colors=colors))


THEOREM_CONFIGS = [
    ("binary/pairs/h2", _spec([2], [0, 0, 1, 1], 2)),
    ("mixed23/pairs/h2", _spec([2, 3], [0, 0, 1, 1], 2)),
    ("binary/runs1/h3", _spec([2], [0, 1, 2], 3)),
]


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_theorem1_windows():
    for name, spec in THEOREM_CONFIGS:
        t0 = time.perf_counter()
        report = verify_theorem1(spec, WINDOW)
        elapsed = time.perf_counter() - t0
        assert report.gaps == list(range(spec.h)), name
        assert report.passed and elapsed < 5, name
    _report(1, f"3 configs, window [0,{WINDOW}], gaps exactly [0, h-1]")


def test_criterion_2_theorem2_windows():
    for name, spec in THEOREM_CONFIGS:
        t0 = time.perf_counter()
        with_zero, without = verify_theorem2(spec, WINDOW)
        elapsed = time.perf_counter() - t0
        assert with_zero.gaps == [], name
        assert without.gaps == list(range(spec.h)), name
        assert elapsed < 5, name
    _report(2, "0-adjoined sets cover the window; removing 0 restores the gaps")


def test_criterion_3_lemma1_suite():
    t0 = time.perf_counter()
    rng = random.Random(42)
    for seq in (GadicSequence(period=[2]), GadicSequence(period=[2, 3])):
        ns = list(range(1, 40_001))
        ns += [rng.getrandbits(256) | 1 for _ in range(10_000)]
        for n in ns:
            M = seq.leading_index(n)
            assert seq.value(M) <= n < seq.value(M + 1)
        # exhaustive converse for every index up to 12
        for M in range(13):
            for n in range(seq.value(M), seq.value(M + 1)):
                assert seq.leading_index(n) == M
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(3, f"10^5 sampled n per sequence + exhaustive converse, {elapsed:.1f}s")


def test_criterion_4_lemma2_suite():
    t0 = time.perf_counter()
    rng = random.Random(43)
    seqs = [GadicSequence(period=[2]), GadicSequence(period=[2, 3]),
            GadicSequence(prefix=[5], period=[3, 2])]
    for i in range(10_000):
        seq = seqs[i % len(seqs)]
        n = rng.randrange(1, 10 ** 9)
        rep = seq.represent(n)
        alt = random_alternate_decomposition(seq, rep, rng)
        assert check_prefix_inequality(seq, rep, alt).all_hold
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(4, f"10^4 (canonical, alternate) pairs, every cutoff holds, {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    configs = [
        _spec([2], [0, 0, 1, 1], 2),
        _spec([2, 3], [0, 0, 1, 1], 2),
        _spec([2], [0, 0, 0, 1, 1, 1], 2),
        _spec([2], [0, 1, 2], 3),
    ]
    t0 = time.perf_counter()
    for spec in configs:
        window = spec.enumerate(2000)
        for zero_allowed in (False, True):
            for n in range(0, 2001):
                bf = count_reps_bruteforce(window, n, spec.h,
                                           zero_allowed=zero_allowed).ordered_count
                dp = count_reps_digitdp(spec, spec.seq.represent(n), spec.h,
                                        zero_allowed=zero_allowed).ordered_count
                assert bf == dp, (spec.serialize(), n, zero_allowed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(5, f"4 configs x [0,2000] x both zero flags, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def certified_batches():
    batches = {}
    for name in ("binary-h2", "h3-runs", "h4-runs"):
        cfg = load_preset(name)
        batches[name] = (cfg.basis,
                         *run_minimality(cfg.basis, t=cfg.t, K=cfg.budget,
                                         W=cfg.witnesses))
    return batches


def test_criterion_6_theorem3_certification(certified_batches):
    t0 = time.perf_counter()
    spec, report, certs = certified_batches["binary-h2"]
    assert len(certs) == 60
    assert all(c.verdict == "certified" for c in certs)
    hand = {(c.removed, c.n_value) for c in certs}
    assert (1, 9) in hand and (3, 11) in hand
    for name in ("h3-runs", "h4-runs"):
        spec, report, certs = certified_batches[name]
        assert len(certs) == 10
        assert report.passed and all(c.verdict == "certified" for c in certs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(6, "60/60 + 10/10 + 10/10 certificates certified, "
               "hand-checked (a=1, n=9) and (a=3, n=11) present")


def test_criterion_7_cross_validation(certified_batches):
    t0 = time.perf_counter()
    checked = 0
    for name, (spec, _, certs) in certified_batches.items():
        small = [c for c in certs if c.n_value <= 10 ** 6]
        assert small, name
        window = spec.enumerate(max(c.n_value for c in small))
        for cert in small:
            assert cross_check_witness(spec, cert, window), (name, cert.removed)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(7, f"{checked} certificates <= 10^6 re-verified by window "
               f"brute force, {elapsed:.1f}s")


def test_criterion_8_threshold_arithmetic():
    expected = {2: 2, 3: 3, 4: 3, 8: 4}
    for h, t in expected.items():
        assert min_t(h) == t
        assert 2 ** (t - 1) >= h
    _report(8, "min_t(2)=2, min_t(3)=3, min_t(4)=3, min_t(8)=4")


def test_criterion_9_mixed23_config():
    t0 = time.perf_counter()
    seq = GadicSequence(period=[2, 3])
    for i in range(21):
        assert seq.value(2 * i) == 6 ** i
    cfg = load_preset("mixed23-h2")
    report, certs = run_minimality(cfg.basis, t=cfg.t, K=cfg.budget,
                                   W=cfg.witnesses)
    assert len(certs) == 60 and report.passed
    assert all(c.verdict == "certified" for c in certs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(9, f"even-index scale values are powers of 6; 60/60 certified, "
               f"{elapsed:.1f}s")


# sha256 of every certificate file name and text, in batch order, for the
# preset's own t, budget and witnesses; pins the certificates byte for byte
GOLDEN_CERTIFICATES = {
    "binary-h2": "cb1cc0a15799dfc7",
    "mixed23-h2": "c8fc91a79f82554a",
    "h3-runs": "afca4223100e049f",
    "h4-runs": "379761315c7696b2",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_certificates_match_golden_digest(name):
    cfg = load_preset(name)
    _, certs = run_minimality(cfg.basis, cfg.t, cfg.budget, cfg.witnesses)
    text = "".join(c.filename() + "\n" + c.render(cfg.basis) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        GOLDEN_CERTIFICATES[name]
