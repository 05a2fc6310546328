"""The benchmark's workloads: operations on gadic and the checks of their output.

Every operation is one CLI command run in-process through `gadic.cli.main`
or one library call the CLI itself makes, over the four shipped presets.
An operation returns its raw output; its check turns that output into a
failure message, or None when the output is right.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from gadic import cli, repcount, verifier
from gadic.config import RunConfig, load_preset
from gadic.core import DigitRep

PRESETS = ("binary-h2", "mixed23-h2", "h3-runs", "h4-runs")
DEFAULT_SEED = 0
DENSITY = 0.75   # share of a dense member's class positions that carry a digit


@dataclass(frozen=True)
class Profile:
    """Input sizes of one benchmark run."""

    name: str
    window: int            # check theorem1/theorem2 --window
    explore_window: int    # explore --window
    budget_h2: int         # minimality --budget on the order-2 presets
    budget_runs: int       # minimality --budget on h3-runs and h4-runs
    witnesses: int         # minimality --witnesses
    bits: tuple[int, ...]  # sizes of the digit-DP inputs
    lemma1_samples: int
    lemma2_samples: int


FULL = Profile("full", window=131072, explore_window=32768, budget_h2=200,
               budget_runs=50, witnesses=4, bits=(2048, 4096, 8192),
               lemma1_samples=10000, lemma2_samples=5000)
SMOKE = Profile("smoke", window=4096, explore_window=1024, budget_h2=10,
                budget_runs=5, witnesses=2, bits=(64, 128, 256),
                lemma1_samples=200, lemma2_samples=100)


@dataclass
class Op:
    name: str                               # unique within the workload
    phase: str                              # command or call it times
    preset: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    units: int = 0                          # work units toward units_per_cal


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    return run


def _exit_ok(result) -> str | None:
    rc, _, err = result
    return None if rc == 0 else f"exit code {rc}: {err.strip()}"


def _verdicts(expected: int) -> Callable[[Any], str | None]:
    def check(result):
        out = result[1]
        wrong = "FAIL" in out or out.count("-> pass") != expected
        return _exit_ok(result) or (
            f"expected {expected} pass verdicts, got {out.strip()!r}" if wrong else None)
    return check


def parse_misses(out: str) -> list[list[int]]:
    """[removed, miss count] per row of an `explore` removability scan."""
    rows = []
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "remove":
            rows.append([int(fields[1]), int(fields[2].removeprefix("misses="))])
    return rows


def _misses(expected: list[list[int]] | None) -> Callable[[Any], str | None]:
    def check(result):
        rows = parse_misses(result[1])
        wrong = expected is not None and rows != expected
        return _exit_ok(result) or (
            f"miss counts {rows} differ from the reference {expected}" if wrong else None)
    return check


def _certified(total: int) -> Callable[[Any], str | None]:
    def check(result):
        lines = result[1].splitlines()
        certs = [ln for ln in lines if ln.startswith("a=")]
        summary = f"summary: {total}/{total} certified; theorem1 precheck pass"
        if len(certs) != total or not all(ln.endswith(" certified") for ln in certs):
            problem = f"expected {total} certified witnesses, got {len(certs)} lines"
        elif lines[-1] != summary:
            problem = f"summary line {lines[-1]!r}, expected {summary!r}"
        else:
            problem = None
        return _exit_ok(result) or problem
    return check


def window_ops(profile: Profile, seed: int, reference: dict | None) -> list[Op]:
    """Window sumset checks (Theorems 1 and 2) and the removability scan.

    The work units are the window integers the two theorem checks decide;
    theorem2 decides each one twice, with 0 adjoined and without.
    """
    ops = []
    for p in PRESETS:
        n, ne = str(profile.window), str(profile.explore_window)
        expected = reference["explore"][profile.name][p] if reference else None
        ops += [
            Op(f"theorem1/{p}", "theorem1", p,
               _cli(["check", "theorem1", "--window", n, "--preset", p]),
               _verdicts(1), units=profile.window + 1),
            Op(f"theorem2/{p}", "theorem2", p,
               _cli(["check", "theorem2", "--window", n, "--preset", p]),
               _verdicts(2), units=2 * (profile.window + 1)),
            Op(f"explore/{p}", "explore", p,
               _cli(["explore", "--window", ne, "--preset", p]),
               _misses(expected)),
        ]
    return ops


def certify_ops(profile: Profile, seed: int, reference: dict | None) -> list[Op]:
    """Minimality certificates: many small digit-DP calls per command."""
    ops = []
    for p in PRESETS:
        h = load_preset(p).partition.h
        K = profile.budget_h2 if h == 2 else profile.budget_runs
        W = profile.witnesses
        ops.append(Op(f"minimality/{p}", "minimality", p,
                      _cli(["minimality", "--preset", p, "--budget", str(K),
                            "--witnesses", str(W)]),
                      _certified(K * W), units=K * W))
    return ops


def dense_member(cfg: RunConfig, bits: int, cls: int, rng: random.Random) -> int:
    """A random member of class `cls` below 2**bits with about DENSITY of the
    class's digit positions nonzero."""
    seq, part = cfg.seq, cfg.partition
    digits = {}
    positions = []
    j = 0
    while seq.value(j + 1) <= 1 << bits:
        if part.color(j) == cls:
            positions.append(j)
            if rng.random() < DENSITY:
                digits[j] = rng.randrange(1, seq.quotient(j + 1))
        j += 1
    if not digits:
        digits[positions[0]] = 1
    return seq.evaluate(DigitRep(digits))


def distinct_permutations(values: list[int]) -> int:
    count = math.factorial(len(values))
    for m in Counter(values).values():
        count //= math.factorial(m)
    return count


def count_digest(count: int) -> str:
    return hashlib.sha256(str(count).encode()).hexdigest()[:16]


def _count_run(preset: str, n: int) -> Callable[[], int]:
    def run():
        cfg = load_preset(preset)
        rep = cfg.seq.represent(n)
        return repcount.count_reps_digitdp(cfg.basis, rep, cfg.partition.h).ordered_count
    return run


def _count_check(lower: int, digest: str | None) -> Callable[[int], str | None]:
    def check(count):
        if count < lower:
            return f"count {count} below its lower bound {lower}"
        if digest is not None and count_digest(count) != digest:
            return f"count digest {count_digest(count)} differs from the reference {digest}"
        return None
    return check


def _lemma_run(suite: str, preset: str, samples: int, seed: int):
    def run():
        seq = load_preset(preset).seq
        return getattr(verifier, suite)(seq, samples=samples, rng=random.Random(seed))
    return run


def _lemma_check(result) -> str | None:
    passed, counterexample = result
    return None if passed else f"counterexample: {counterexample}"


def deep_ops(profile: Profile, seed: int, reference: dict | None) -> list[Op]:
    """Digit DP on integers of thousands of bits, and the lemma suites.

    For each preset and size, one input is a sum of h dense members of one
    class (carries everywhere, many live DP states, counts thousands of bits
    long) and one is uniformly random (DP states collapse within a few
    positions).  Theorem 1 gives every such n at least one representation.
    """
    rng = random.Random(seed)
    refs = (reference["deep"][profile.name]
            if reference and seed == DEFAULT_SEED else None)
    ops = []
    for p in PRESETS:
        cfg = load_preset(p)
        h = cfg.partition.h
        for bits in profile.bits:
            cls = rng.randrange(h)
            summands = [dense_member(cfg, bits, cls, rng) for _ in range(h)]
            inputs = [("sum", sum(summands), distinct_permutations(summands)),
                      ("uniform", rng.getrandbits(bits) | 1 << (bits - 1), 1)]
            for kind, n, lower in inputs:
                name = f"count/{p}/{bits}/{kind}"
                ops.append(Op(name, "count", p, _count_run(p, n),
                              _count_check(lower, refs[name] if refs else None),
                              units=cfg.seq.leading_index(n) + 1))
        ops += [
            Op(f"lemma1/{p}", "lemma1", p,
               _lemma_run("check_lemma1", p, profile.lemma1_samples, seed),
               _lemma_check),
            Op(f"lemma2/{p}", "lemma2", p,
               _lemma_run("check_lemma2", p, profile.lemma2_samples, seed),
               _lemma_check),
        ]
    return ops


WORKLOADS = {"window": window_ops, "certify": certify_ops, "deep": deep_ops}
