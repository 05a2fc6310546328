"""Regenerate perfbench/reference.json from the gadic sources of this checkout.

    python3 perfbench/make_reference.py

Stores, for the full and smoke sizes, the `explore` miss counts per preset
and the digests of the digit-DP counts at the default seed.  Run it only
when the reference is known to be right, and review the diff.
"""
from __future__ import annotations

import json
import re

import run


def main() -> None:
    run.import_gadic()
    import workloads
    reference = {"explore": {}, "deep": {}}
    for profile in (workloads.FULL, workloads.SMOKE):
        reference["explore"][profile.name] = {
            op.preset: workloads.parse_misses(op.run()[1])
            for op in workloads.window_ops(profile, workloads.DEFAULT_SEED, None)
            if op.phase == "explore"}
        reference["deep"][profile.name] = {
            op.name: workloads.count_digest(op.run())
            for op in workloads.deep_ops(profile, workloads.DEFAULT_SEED, None)
            if op.phase == "count"}
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)  # one row a line
    (run.HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
