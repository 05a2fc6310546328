"""Command-line front end.

Exit codes: 0 success/pass, 1 check or certification failure, 2 parse,
domain or file error, 3 hypothesis violation, 4 window infeasible.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .core import DomainError
from .basis import WindowTooLargeError
from .partition import HypothesisViolatedError
from .config import ConfigError, PRESETS, RunConfig, load_preset
from .verifier import (removability_scan, verify_minimality, verify_theorem1,
                       verify_theorem2)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_WINDOW = 4


def _int_arg(text: str) -> int:
    """`int(text)`; past CPython's int/str digit limit the error names the
    limit and the digit count instead of echoing the input."""
    try:
        return int(text)
    except ValueError:
        digits = sum(map(str.isdigit, text))
        limit = sys.get_int_max_str_digits()
        if limit and digits > limit:
            raise argparse.ArgumentTypeError(
                f"{digits} decimal digits exceed Python's int/str conversion "
                f"limit of {limit} (sys.get_int_max_str_digits())") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="run configuration file")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="shipped configuration (default: binary-h2)")
    p = argparse.ArgumentParser(prog="gadic",
                                description="Mixed-radix asymptotic bases: "
                                "window checks and minimality certificates")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("represent", parents=[common],
                        help="print the digit expansion of n")
    sp.add_argument("--n", required=True, type=_int_arg)

    sp = sub.add_parser("check", parents=[common], help="run one verification suite")
    sp.add_argument("which", choices=["theorem1", "theorem2"])
    sp.add_argument("--window", type=_int_arg)

    sp = sub.add_parser("minimality", parents=[common], help="emit witness certificates")
    sp.add_argument("--t", type=_int_arg)
    sp.add_argument("--budget", type=_int_arg, help="members to certify (K)")
    sp.add_argument("--witnesses", type=_int_arg, help="witnesses per member (W)")
    sp.add_argument("--override", action="store_true",
                    help="allow t below the order threshold")
    sp.add_argument("--out", type=Path, help="directory for certificate files")

    sp = sub.add_parser("explore", parents=[common], help="window evidence for open problems")
    sp.add_argument("--window", type=_int_arg)
    sp.add_argument("--elem-bound", type=_int_arg)

    return p


def _load_config(args) -> RunConfig:
    cfg = (RunConfig.parse(args.config.read_text()) if args.config is not None
           else load_preset(args.preset or "binary-h2"))
    return dataclasses.replace(cfg, **{
        key: value for key, value in vars(args).items()
        if key in ("window", "t", "budget", "witnesses") and value is not None})


def cmd_represent(cfg: RunConfig, args) -> int:
    rep = cfg.seq.represent(args.n)
    if rep.is_zero():
        print(" (M undefined)")
    else:
        print(f"{rep.serialize()} (M={rep.max_index()})")
    return EXIT_OK


def cmd_check(cfg: RunConfig, args) -> int:
    N = cfg.window
    if args.which == "theorem1":
        report = verify_theorem1(cfg.basis, N)
        print(f"theorem1 window [0,{N}]: gaps {report.gaps[:10]} "
              f"-> {'pass' if report.passed else 'FAIL'} "
              f"({report.elapsed:.2f}s)")
        return EXIT_OK if report.passed else EXIT_FAIL
    with_zero, without = verify_theorem2(cfg.basis, N)
    ok = with_zero.passed and without.passed
    print(f"theorem2 with 0 adjoined: full cover of [0,{N}] "
          f"-> {'pass' if with_zero.passed else 'FAIL'}")
    print(f"theorem2 after removing 0: gaps {without.gaps[:10]} "
          f"-> {'pass' if without.passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_minimality(cfg: RunConfig, args) -> int:
    spec, out = cfg.basis, args.out
    theorem1, rounds = verify_minimality(spec, cfg.t, cfg.budget,
                                         cfg.witnesses, args.override)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    total = certified = 0
    # each member's lines and files as soon as its certificates are settled
    for certs in rounds:
        for cert in certs:
            if out is not None:
                (out / cert.filename()).write_text(cert.render(spec))
            certified += cert.verdict == "certified"
        total += len(certs)
        head = (f"a={certs[0].removed:<8} class={certs[0].removed_class} "
                f"M0={certs[0].M0} M=")
        print("\n".join(
            f"{head}{sorted(cert.chosen_Ms.values())} n={cert.n_value} "
            f"count={cert.measured_count}/{cert.expected_count} "
            f"{cert.verdict}" for cert in certs))
    print(f"summary: {certified}/{total} certified; "
          f"theorem1 precheck {'pass' if theorem1.passed else 'FAIL'}")
    return EXIT_OK if theorem1.passed and certified == total else EXIT_FAIL


def cmd_explore(cfg: RunConfig, args) -> int:
    rows = removability_scan(cfg.basis, cfg.window, elem_bound=args.elem_bound)
    print(f"removability scan, 0-adjoined set, window [0,{cfg.window}] "
          "(evidence only, not proof):")
    for row in rows:
        print(f"  remove {row.removed:<8} misses={row.miss_count:<6} {row.evidence}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        handler = {
            "represent": cmd_represent,
            "check": cmd_check,
            "minimality": cmd_minimality,
            "explore": cmd_explore,
        }[args.command]
        return handler(cfg, args)
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolatedError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (WindowTooLargeError, MemoryError) as exc:
        print(f"window infeasible: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
