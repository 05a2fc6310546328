import ast
import contextlib
import copy
import hashlib
import importlib
import os
import pickle
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gadic.verifier
from gadic import ConfigError, PRESETS, RunConfig, load_preset
from gadic.basis import DEFAULT_WINDOW_LIMIT
from gadic.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_gadic(argv: list[str], *python_flags: str, code: str | None = None,
              hash_seed: str = "0") -> subprocess.CompletedProcess:
    """`python [flags] -m gadic.cli argv` (or `-c code`) in a fresh process."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(README.parent / "src")}
    target = ["-c", code] if code is not None else ["-m", "gadic.cli", *argv]
    return subprocess.run([sys.executable, *python_flags, *target], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def skew_dp_count(monkeypatch):
    """Make the verifier's digit-DP count off by `delta` from the truth."""
    real = gadic.verifier._dp_accept

    def install(delta: int):
        def skewed(*args, **kwargs):
            return real(*args, **kwargs) + delta
        monkeypatch.setattr(gadic.verifier, "_dp_accept", skewed)
    return install


class TestRunConfig:
    def test_round_trip(self):
        for name in PRESETS:
            cfg = load_preset(name)
            assert RunConfig.parse(cfg.serialize()) == cfg

    def test_rejects_bad_quotient(self):
        text = PRESETS["binary-h2"].replace("period=[2]", "period=[1]")
        with pytest.raises(ConfigError):
            RunConfig.parse(text)

    def test_rejects_bad_color(self):
        text = PRESETS["binary-h2"].replace("period=[0,0,1,1]", "period=[0,0,1,2]")
        with pytest.raises(ConfigError):
            RunConfig.parse(text)

    def test_comments_and_blank_lines(self):
        cfg = RunConfig.parse("# comment\n\n" + PRESETS["mixed23-h2"])
        assert cfg.seq.period == (2, 3)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("nope")

    def test_deepcopy_and_pickle_round_trip(self):
        # with its tables built, a configuration copies like a plain value
        cfg = load_preset("binary-h2")
        cfg.seq.value(300)
        cfg.seq.represent(1 << 300)
        for obj in (cfg.seq, cfg.basis, cfg):
            for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert twin == obj


class TestRepresentCommand:
    def test_prints_digits_and_leading_index(self, capsys):
        assert main(["represent", "--n", "10", "--preset", "mixed23-h2"]) == 0
        assert capsys.readouterr().out.strip() == "1:2,2:1 (M=2)"

    def test_zero(self, capsys):
        assert main(["represent", "--n", "0"]) == 0
        assert "M undefined" in capsys.readouterr().out

    def test_negative_exits_2(self, capsys):
        assert main(["represent", "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot represent negative integer -1\n"

    def test_n_past_the_int_str_limit_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as info:
            main(["represent", "--n", "7" * (limit + 700)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --n: {limit + 700} decimal digits exceed Python's "
                f"int/str conversion limit of {limit}") in err
        assert "777777" not in err

    def test_invalid_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["represent", "--n", "abc"])
        assert info.value.code == 2
        assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err


# sha256 of `check <theorem> --preset <name> --window <N>` stdout, with
# theorem1's `(1.23s)` timing masked as `(…s)`
GOLDEN_THEOREM = {
    ("theorem1", "2000"): {
        "binary-h2": "ae308348e98a321d", "mixed23-h2": "ae308348e98a321d",
        "h3-runs": "d71b82f755dc3d82", "h4-runs": "40f8c9b406df5954"},
    ("theorem1", "131072"): {
        "binary-h2": "66342fe72b63479b", "mixed23-h2": "66342fe72b63479b",
        "h3-runs": "5b8b12a2d0979971", "h4-runs": "b4f837a2ae89b2a2"},
    ("theorem2", "2000"): {
        "binary-h2": "dedfb5c292e154e7", "mixed23-h2": "dedfb5c292e154e7",
        "h3-runs": "6be34ddfce785a5a", "h4-runs": "ecf5575c11267d47"},
    ("theorem2", "131072"): {
        "binary-h2": "b6d5be967c769ceb", "mixed23-h2": "b6d5be967c769ceb",
        "h3-runs": "b88b0e1c966f7299", "h4-runs": "ea58bb9d7f42fe31"},
}


class TestCheckCommand:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("which, window", sorted(GOLDEN_THEOREM))
    def test_theorem_checks_match_golden_digest(self, which, window, name,
                                                capsys):
        assert main(["check", which, "--preset", name,
                     "--window", window]) == 0
        out = re.sub(r"\(\d+\.\d+s\)", "(…s)", capsys.readouterr().out)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == \
            GOLDEN_THEOREM[which, window][name]

    def test_theorem1_pass(self, capsys):
        assert main(["check", "theorem1", "--window", "2000"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_theorem2_pass(self):
        assert main(["check", "theorem2", "--window", "1000"]) == 0

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_zero_window_exits_2(self, which, capsys):
        # an explicit 0 is not replaced by the configured window
        assert main(["check", which, "--window", "0"]) == 2
        assert "pass" not in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_window_above_limit_exits_4(self, which, tmp_path, capsys):
        too_large = DEFAULT_WINDOW_LIMIT + 1
        message = (f"window infeasible: window bound {too_large} exceeds "
                   f"limit {DEFAULT_WINDOW_LIMIT}\n")
        assert main(["check", which, "--window", str(too_large)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
        # the same bound from a configuration file
        cfg = tmp_path / "large.cfg"
        cfg.write_text(PRESETS["binary-h2"].replace(
            "window = 5000", f"window = {too_large}"))
        assert main(["check", which, "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sequence = prefix=[];period=[2]\n"
                       "partition = h=2;prefix=[];period=[0,0,1,2]\n"
                       "t = 2\n")
        assert main(["check", "theorem1", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("extra, message", [
        ("windw = 100\n", "line 7: unknown key 'windw'"),
        ("window = 100\n", "line 7: repeated key 'window'"),
    ], ids=["unknown", "repeated"])
    def test_unknown_or_repeated_key_exits_2(self, tmp_path, capsys, extra,
                                             message):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(PRESETS["binary-h2"] + extra)
        assert main(["check", "theorem1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("old, new, message", [
        ("prefix=[];period=[2]", "prefix=[];period=[2];period=[3]",
         "repeated key 'period' in 'prefix=[];period=[2];period=[3]'"),
        ("period=[0,0,1,1]", "period=[0,0,1,1];perod=[5]",
         "unknown key 'perod' in 'h=2;prefix=[];period=[0,0,1,1];perod=[5]' "
         "(keys: h, prefix, period)"),
        ("prefix=[];period=[2]", "period=[2]",
         "missing key 'prefix' in 'period=[2]'"),
    ], ids=["repeated", "unknown", "missing"])
    def test_bad_subkey_exits_2(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "sub.cfg"
        cfg.write_text(PRESETS["binary-h2"].replace(old, new, 1))
        assert main(["check", "theorem1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid configuration: {message}\n"

    @pytest.mark.parametrize("key", ["sequence", "partition", "t"])
    def test_missing_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "missing.cfg"
        cfg.write_text("".join(line + "\n" for line in
                               PRESETS["binary-h2"].splitlines()
                               if not line.startswith(f"{key} =")))
        assert main(["check", "theorem1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: invalid configuration: "
                                f"missing key {key!r}\n")


    @pytest.mark.parametrize("name", ["absent.cfg", "."], ids=["missing",
                                                              "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["check", "theorem1", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert str(path) in captured.err


# sha256 of `minimality --preset <name> --budget <K> --witnesses 4` stdout
# at the benchmark's certify sizes: K = 200 on the order-2 presets, 50 on
# h3-runs and h4-runs; pins every certificate line and the summary
GOLDEN_MINIMALITY = {
    "binary-h2": ("200", "7fd965cd03d25880"),
    "mixed23-h2": ("200", "7eb96c7caf904fda"),
    "h3-runs": ("50", "48f4075519001fce"),
    "h4-runs": ("50", "8cab76f84753183d"),
}


class TestMinimalityCommand:
    @pytest.mark.parametrize("name", sorted(GOLDEN_MINIMALITY))
    def test_certificates_match_golden_digest(self, name, capsys):
        K, digest = GOLDEN_MINIMALITY[name]
        assert main(["minimality", "--preset", name, "--budget", K,
                     "--witnesses", "4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_writes_certificates(self, tmp_path, capsys):
        code = main(["minimality", "--budget", "2", "--witnesses", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 4
        assert all(f.startswith("cert_") for f in files)
        body = (tmp_path / files[0]).read_text()
        assert "verdict: certified" in body

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        built = []
        real = gadic.verifier._witnesses

        def counted(*args, **kwargs):
            built.append(args[2])
            return real(*args, **kwargs)
        monkeypatch.setattr(gadic.verifier, "_witnesses", counted)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["minimality", "--budget", "1", "--witnesses", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert str(out) in err
        assert out.read_text() == ""
        assert built == []  # refused before any witness is built

    def test_budget_past_a_member_window(self, capsys):
        # the 500th h4-runs member is 67,133,447 > 2^26: a member window
        # grown by fours from 64 to hold it would pass DEFAULT_WINDOW_LIMIT
        assert main(["minimality", "--preset", "h4-runs", "--budget", "500",
                     "--witnesses", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] \
            == "summary: 2000/2000 certified; theorem1 precheck pass"

    def test_certificates_are_not_held(self):
        # each member's certificates are printed and dropped before the
        # next member's are built; holding all 8000 took 19.5 MB
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["minimality", "--preset", "binary-h2",
                             "--budget", "2000", "--witnesses", "4"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 5_000_000

    def test_members_print_before_a_later_error(self, tmp_path, capsys,
                                                monkeypatch):
        # the third member's witnesses fail to build: the first two
        # members' lines and files are already out
        real = gadic.verifier._witnesses

        def third_fails(spec, t, a, *args):
            if a == 3:
                raise RuntimeError("witness construction bug: injected")
            return real(spec, t, a, *args)
        monkeypatch.setattr(gadic.verifier, "_witnesses", third_fails)
        assert main(["minimality", "--budget", "5", "--witnesses", "2",
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert [line.split()[0] for line in captured.out.splitlines()] \
            == ["a=1", "a=1", "a=2", "a=2"]
        assert len(list(tmp_path.iterdir())) == 4
        assert captured.err == "error: witness construction bug: injected\n"

    def test_t_below_threshold_exits_3(self, capsys):
        assert main(["minimality", "--t", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hypothesis violated: t=1 below threshold 2 "
                                "for h=2 (pass override to force)\n")

    def test_no_periodic_window_exits_3(self, capsys):
        # binary-h2 colors [0,0,1,1]: no class has a run of three
        assert main(["minimality", "--t", "3", "--budget", "5",
                     "--witnesses", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hypothesis violated: class 0 has no periodic "
                                "t-window (empty interval family)\n")

    @pytest.mark.parametrize("flags", [[], ["--override"]])
    def test_t_zero_exits_2(self, flags, capsys):
        assert main(["minimality", "--t", "0", *flags]) == 2
        assert capsys.readouterr().err.startswith(
            "error: window length must be >= 1, got t=0")

    @pytest.mark.parametrize("flags", [["--budget", "-1", "--witnesses", "1"],
                                       ["--budget", "0"], ["--witnesses", "0"]])
    def test_nonpositive_budget_exits_2(self, flags, capsys):
        # a negative K used to slice members from the end and pass
        assert main(["minimality", *flags]) == 2
        captured = capsys.readouterr()
        assert "certified" not in captured.out
        assert captured.err.startswith("error: need K >= 1 and W >= 1")

    def test_nonpositive_budget_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(PRESETS["binary-h2"].replace("budget = 20", "budget = -1"))
        assert main(["minimality", "--config", str(cfg)]) == 2

    def test_mixed23_preset(self):
        assert main(["minimality", "--preset", "mixed23-h2",
                     "--budget", "3", "--witnesses", "1"]) == 0

    def test_certification_failure_exits_1(self, skew_dp_count, capsys):
        # a count above the expected one is a failed witness, not an error
        skew_dp_count(+1)
        assert main(["minimality", "--budget", "1", "--witnesses", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" count=3/2 failed")
        assert lines[1:] == ["summary: 0/1 certified; theorem1 precheck pass"]

    def test_counting_engine_bug_exits_1(self, skew_dp_count, capsys):
        skew_dp_count(-1)
        assert main(["minimality", "--budget", "1", "--witnesses", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: counting engine bug")
        assert "Traceback" not in err


    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_runs_are_byte_identical(self, preset, tmp_path):
        # two fresh processes with different string hash seeds
        runs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            proc = run_gadic(["minimality", "--preset", preset, "--out",
                              str(out), "--budget", "20", "--witnesses", "3"],
                             hash_seed=seed)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, {f.name: f.read_bytes()
                                       for f in out.iterdir()}))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 60

    def test_soundness_checks_survive_python_O(self):
        # python -O strips assert statements; the certify path must still
        # certify, and still refuse a count below the expected one
        argv = ["minimality", "--preset", "h3-runs", "--budget", "5",
                "--witnesses", "2"]
        proc = run_gadic(argv, "-O")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] \
            == "summary: 10/10 certified; theorem1 precheck pass"
        skew = ("import sys\n"
                "from gadic import cli, verifier\n"
                "real = verifier._dp_accept\n"
                "def low(*args, **kwargs):\n"
                "    return real(*args, **kwargs) - 1\n"
                "verifier._dp_accept = low\n"
                f"sys.exit(cli.main({argv!r}))\n")
        proc = run_gadic([], "-O", code=skew)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: counting engine bug")


# sha256 of `explore --preset <name>` stdout, at the preset's own window
# and with every member up to 600 removed; pins the scan rows byte for byte
GOLDEN_EXPLORE = {
    (): {"binary-h2": "6b27d9e910a1c739", "mixed23-h2": "2bf18a242ed25a08",
         "h3-runs": "aa33c42c5ea07e6a", "h4-runs": "e6016b883e81fe70"},
    ("--window", "600", "--elem-bound", "600"): {
        "binary-h2": "cc1a5e9f645cce9b", "mixed23-h2": "e16dd9cc2fbb467b",
        "h3-runs": "dea7d2bbcc69c8d4", "h4-runs": "2974fe2a8c56299a"},
}


class TestExploreCommand:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("extra", sorted(GOLDEN_EXPLORE))
    def test_scan_matches_golden_digest(self, name, extra, capsys):
        assert main(["explore", "--preset", name, *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == \
            GOLDEN_EXPLORE[extra][name]

    def test_zero_window_exits_2(self):
        assert main(["explore", "--window", "0"]) == 2

    def test_removability(self, capsys):
        assert main(["explore", "--window", "300", "--elem-bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "evidence" in out

    def test_window_above_limit_exits_4(self, capsys):
        too_large = str(DEFAULT_WINDOW_LIMIT + 1)
        assert main(["explore", "--window", too_large]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("window infeasible: ")

    def test_negative_elem_bound_exits_2(self, capsys):
        assert main(["explore", "--window", "300", "--elem-bound", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "element bound must be >= 0, got -3" in captured.err

    def test_zero_elem_bound_scans_zero(self, capsys):
        assert main(["explore", "--window", "300", "--elem-bound", "0"]) == 0
        assert capsys.readouterr().out.count("  remove ") == 1


def test_bench_command_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "lemma1"], "invalid choice: 'lemma1'"),
    (["check", "lemma2", "--samples", "5"], "invalid choice: 'lemma2'"),
    (["explore", "--sweep-t", "1,2"], "unrecognized arguments: --sweep-t 1,2"),
], ids=["lemma1", "lemma2", "sweep-t"])
def test_sampled_and_duplicate_paths_removed(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv, option", [
    (["check", "theorem1", "--window"], "--window"),
    (["explore", "--window"], "--window"),
    (["explore", "--elem-bound"], "--elem-bound"),
    (["minimality", "--t"], "--t"),
    (["minimality", "--budget"], "--budget"),
    (["minimality", "--witnesses"], "--witnesses")])
def test_option_past_the_int_str_limit_exits_2(argv, option, capsys):
    # every integer option parses like --n: the error names the limit
    # instead of echoing thousands of digits
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as info:
        main([*argv, "7" * (limit + 700)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument {option}: {limit + 700} decimal digits exceed "
            f"Python's int/str conversion limit of {limit}") in err
    assert "777777" not in err


def test_console_script_is_main():
    """pyproject's `gadic` script names gadic.cli.main; read from its line,
    since Python 3.10 has no tomllib."""
    text = (README.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, attr = re.fullmatch(r'gadic = "([\w.]+):(\w+)"',
                                scripts.strip()).groups()
    assert getattr(importlib.import_module(module), attr) is main


def test_cli_imports_only_public_names():
    """Every gadic name cli.py imports is in gadic.__all__, so every
    command runs through a public entry point."""
    tree = ast.parse((README.parent / "src" / "gadic" / "cli.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "gadic"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "gadic"]
    assert "verify_minimality" in names
    assert sorted(set(names) - set(gadic.__all__)) == []


def readme_cli_block() -> list[str]:
    """The lines of the README's CLI code block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_cli_lines_parse(tmp_path, monkeypatch, capsys):
    """Every `gadic ...` line of the README parses and runs with exit 0, and
    the represent line prints the output documented under it."""
    block = readme_cli_block()
    lines = [line for line in block if line.startswith("gadic ")]
    assert lines
    parser = build_parser()
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert parser.parse_args(argv[1:]).command == argv[1], line
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if argv[1] == "represent":
            documented = block[block.index(line) + 1]
            assert documented == "# 1:2,2:1 (M=2)"
            assert out == documented[2:] + "\n"


def test_determinism(capsys):
    main(["minimality", "--budget", "3", "--witnesses", "2"])
    first = capsys.readouterr().out
    main(["minimality", "--budget", "3", "--witnesses", "2"])
    assert capsys.readouterr().out == first
