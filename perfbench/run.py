"""Layer-by-layer benchmark of gadic.

Run from the repository root:

    python3 perfbench/run.py --workload window --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

One closed loop with a single caller: each operation starts after the
previous one returns, in one process, with no threads.  A run repeats the
workload's operations (a pass) until `--seconds` would be exceeded, with at
least MIN_PASSES passes.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it runs every operation once untraced and once
traced, back to back, and reports the per-layer metrics derived from the
traced runs' spans.  The run record goes to stdout, and the last stdout
line is the result JSON.  See perfbench/README.md for the workloads and
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3       # untraced passes per run, so every time is a median
SETUP_EVERY = 3.0    # seconds between set-up samples, spread over the run
SETUP_MIN = 5        # set-up samples per run at least
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import gadic.cli; "
              "from gadic.config import load_preset; "
              "[load_preset(p) for p in {presets!r}]")
CAL_BIG = (1 << 131072) - 12345
E2E_UNITS = {"setup_s": "s", "wall_cal": "cal", "units_per_cal": "1/cal",
             "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter and big-integer work
    that does not use gadic.

    The host's speed drifts by up to half over tens of seconds, and gadic's
    operations drift with it.  Dividing each operation's time by the mean
    of the calibrations just before and after it cancels that drift: the
    end-to-end times are in calibration units (`cal`).
    """
    t0 = perf_counter()
    s, d = 0, {}
    for i in range(60000):
        s += i * i % 7
        d[i & 255] = s
    x = 0
    for n in range(0, 131072, 64):
        x ^= (CAL_BIG >> n) & 1
    return perf_counter() - t0


def import_gadic():
    """Import gadic from this checkout's src/, or exit without a result."""
    if not (SRC / "gadic" / "__init__.py").is_file():
        sys.exit(f"error: no gadic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gadic
    if Path(gadic.__file__).resolve().parent != (SRC / "gadic").resolve():
        sys.exit(f"error: imported gadic from {gadic.__file__}, not {SRC}")


def setup_once(presets) -> float:
    """Wall time of a fresh interpreter that imports gadic.cli and parses
    every preset."""
    t0 = perf_counter()
    # no timeout: with one, the wait polls and notices the exit up to 50 ms late
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(presets=list(presets))],
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool, profile,
        reference: dict | None, min_passes: int = MIN_PASSES):
    """Measure one workload; returns (result, record)."""
    import spans
    import workloads
    from gadic.config import load_preset
    from gadic.verifier import spec_hash

    ops = workloads.WORKLOADS[workload](profile, seed, reference)
    random.Random(f"order:{seed}").shuffle(ops)
    tracer = spans.Tracer() if trace else None

    def attempt(op, traced: bool) -> float:
        nonlocal attempted
        attempted += 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:
            dt = perf_counter() - t0
            message = traceback.format_exc()
        else:
            dt = perf_counter() - t0
            message = op.check(result)
        finally:
            if traced:
                tracer.uninstall()
        if message:
            verdicts[op.name] = "FAIL"
            failures.append(f"{op.name}: {message}")
        return dt

    seconds_of = {False: [[] for _ in ops], True: [[] for _ in ops]}
    cal_units: list[list[float]] = [[] for _ in ops]
    cals: list[float] = []
    setups: list[float] = []
    last_setup = float("-inf")
    verdicts = {op.name: "pass" for op in ops}
    failures: list[str] = []
    attempted = 0
    modes = (False, True) if trace else (False,)
    passes = 0
    t_start = perf_counter()
    while True:
        cal_before = calibrate()
        cals.append(cal_before)
        for k, op in enumerate(ops):
            # set-up drifts with the host too, so sample it across the run
            if not trace and perf_counter() - last_setup >= SETUP_EVERY:
                setups.append(setup_once(workloads.PRESETS))
                last_setup = perf_counter()
                cal_before = calibrate()
            # alternate which of the paired runs goes first
            for traced in (modes if k % 2 == 0 else modes[::-1]):
                seconds_of[traced][k].append(attempt(op, traced))
            cal_after = calibrate()
            cals.append(cal_after)
            cal_units[k].append(seconds_of[False][k][-1]
                                / ((cal_before + cal_after) / 2))
            cal_before = cal_after
        passes += 1
        elapsed = perf_counter() - t_start
        if passes >= (1 if trace else min_passes) and \
                elapsed + elapsed / passes > seconds:
            break

    while not trace and len(setups) < SETUP_MIN:
        setups.append(setup_once(workloads.PRESETS))
    raw = [statistics.median(t) for t in seconds_of[False]]
    scaled = [statistics.median(t) for t in cal_units]
    phases: dict[str, float] = {}
    for op, m in zip(ops, raw):
        phases[f"{op.phase}_s"] = phases.get(f"{op.phase}_s", 0.0) + m

    if trace:
        metrics = tracer.aggregate(passes)
        metrics["trace.wall_s"] = sum(map(statistics.mean, seconds_of[True]))
        metrics["trace.untraced_wall_s"] = sum(map(statistics.mean,
                                                   seconds_of[False]))
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        units = dict(spans.metric_names())
        tracer.write(HERE / "out" / f"spans-{profile.name}-{workload}.tsv")
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_cal": sum(scaled)}
        metrics["units_per_cal"] = (sum(op.units for op in ops)
                                    / sum(m for op, m in zip(ops, scaled)
                                          if op.units))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
        units = E2E_UNITS

    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "profile": profile.name, "seconds": seconds, "passes": passes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(),
        "config_hash": {p: spec_hash(cfg.basis, cfg.t) for p, cfg in
                        ((p, load_preset(p)) for p in workloads.PRESETS)},
        "sizes": {k: v for k, v in vars(profile).items() if k != "name"},
        "wall_s": sum(raw),
        "phase_wall_s": phases,
        "preset_cal": {p: sum(m for op, m in zip(ops, scaled) if op.preset == p)
                       for p in workloads.PRESETS},
        "setup_samples_s": setups,
        "calibration_s": {"median": statistics.median(cals),
                          "min": min(cals), "max": max(cals)},
        "verdicts": dict(sorted(verdicts.items())),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
    }
    return result, record


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks the result
    shape against BENCHMARK.json, the outputs, and that the layer self times
    add up to the traced time within a tenth."""
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    reference = load_reference()
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, record = run(w["name"], workloads.DEFAULT_SEED, 0,
                                 bool(trace), workloads.SMOKE, reference,
                                 min_passes=1)
            where = f"{w['name']} trace={trace}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got)} != BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{where}: {record['failures']}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                cover = m["trace.self_sum_s"] / m["trace.wall_s"]
                if abs(1 - cover) > 0.1:
                    problems.append(f"{where}: self times cover {cover:.3f} "
                                    "of the traced time")
            print(f"smoke {where}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["window", "certify", "deep"])
    ap.add_argument("--seed", type=int, default=0)   # workloads.DEFAULT_SEED
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes and check the benchmark")
    args = ap.parse_args(argv)
    import_gadic()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    import workloads
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), workloads.FULL, load_reference())
    for line in record["failures"]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
