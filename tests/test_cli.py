import argparse
import ast
import contextlib
import importlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cishift import certificates, shiftscan, toricoracle
from cishift.cli import build_parser, main
from cishift.seqcore import GeneratorSequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_ci_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "28,31,36,48")
        assert code == 0
        assert "31·(1) ⊔ 4·(7,9,12)" in out

    def test_not_ci_exit_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "3,4,5")
        assert code == 1
        assert "not CI" in out

    def test_singleton_leaf(self, capsys):
        code, out, _ = run(capsys, "analyze", "5")
        assert code == 0

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "analyze", "3,x,5")
        assert code == 2
        assert "error" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "analyze", "28,31,36,48", "--format", "json")
        assert code == 0
        data = json.loads(out)
        cert = certificates.certificate_from_dict(data["certificate"])
        assert certificates.verify_certificate(GeneratorSequence((28, 31, 36, 48)), cert)


class TestScan:
    def test_family_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "11,16,28", "785", "900")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,m,s,k"
        assert lines[1:] == ["812,29,1,4", "840,30,1,4", "868,31,1,4", "896,32,1,4"]

    def test_empty_windows(self, capsys):
        code, out, _ = run(capsys, "scan", "3,8,20", "401", "460")
        assert code == 0
        assert out.strip() == "j,m,s,k"
        code, out, _ = run(capsys, "scan", "8,17,18", "325", "380")
        assert code == 0
        assert out.strip() == "j,m,s,k"

    def test_cost_cap_exit_three(self, capsys):
        code, _, err = run(capsys, "scan", "11,16,28", "1", "9999999")
        assert code == 3
        assert "budget" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scan", "11,16,28", "785", "841", "--format", "json")
        data = json.loads(out)
        assert [row["j"] for row in data["members"]] == [812, 840]

    def test_jobs_flag(self, capsys):
        # scans run serially; the thread pool behind --jobs is gone
        with pytest.raises(SystemExit) as exc:
            main(["scan", "11,16,28", "785", "841", "--jobs", "3"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["scan", "11,16,28", "785", "841"],
                                         ["report", "11,16,28"]])
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_nonpositive_jobs_exit_two(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2
        assert "jobs" in capsys.readouterr().err


class TestReport:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "report", "11,16,28")
        assert code == 0
        assert "CI residues mod 28: 0" in out

    def test_finite_with_note(self, capsys):
        code, out, _ = run(capsys, "report", "8,17,18")
        assert code == 0
        assert "eventually empty:   yes" in out
        assert "base is CI yet the family has no eventual CI shifts" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "report", "3,8,20", "--format", "json")
        report = shiftscan.report_from_dict(json.loads(out))
        assert report.eventually_empty


class TestOracle:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "7,9,12")
        assert code == 0
        assert "mu:    2" in out
        code, out, _ = run(capsys, "oracle", "10,11,13")
        assert code == 0
        assert "mu:    3" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "oracle", "3,4,5", "--format", "json")
        profile = toricoracle.profile_from_dict(json.loads(out))
        assert profile.mu == 3

    def test_bad_bound_exit_two(self, capsys):
        # the oracle sizes its own degree bound, so any --bound is a usage error
        for command in ("oracle", "compare"):
            with pytest.raises(SystemExit) as exc:
                main([command, "10,11,13", "--bound", "36"])
            assert exc.value.code == 2
            assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_hostile_oracle_input_exits_three_fast(capsys, command):
    # the membership mask of this pair alone would take 1.25 GB
    start = time.perf_counter()
    code, _, err = run(capsys, command, "100000,100001")
    assert code == 3
    assert "oracle" in err
    assert time.perf_counter() - start < 1.0


def test_slow_oracle_closure_exits_three_fast(capsys):
    # 400 and 450 generators pass the mask check, but closing their masks
    # would take C(n, 3) AND/OR pairs of about 2,000 bits: 2.1e10 and 3.4e10
    # bit operations
    for gens in (range(400, 800), range(450, 900)):
        start = time.perf_counter()
        code, _, err = run(capsys, "oracle", ",".join(map(str, gens)))
        assert code == 3
        assert "closure" in err
        assert time.perf_counter() - start < 1.0


def test_wide_oracle_input_exits_three_before_any_mask(capsys):
    # 2,000 generators: a membership mask of 8 million bits would take half
    # a minute to build; a lower bound on F already makes their masks too
    # large
    start = time.perf_counter()
    code, _, err = run(capsys, "oracle", ",".join(map(str, range(2000, 4000))))
    assert code == 3
    assert "mask bits" in err
    assert time.perf_counter() - start < 1.0
    # the error names the input by its count and ends, not all 2,000 entries
    assert len(err.encode()) < 200
    assert "2000" in err and "3999" in err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_far_entry_oracle_input_answered(capsys, command):
    # Schur's bound would size the membership mask at 1.2e9 bits; F + 2*max
    # needs 3.4 million
    code, out, _ = run(capsys, command, "1000,1001,1200000", "--format", "json")
    assert code == 0
    assert json.loads(out)["mu"] == 2


def test_far_frobenius_oracle_input_exits_three_fast(capsys):
    # 20 generators whose Frobenius number lies past the cut membership
    # mask: a lower bound on it already makes the masks too large, where the
    # uncut mask would take seconds to build
    for gens in (range(10000, 10020), range(20000, 20020)):
        start = time.perf_counter()
        code, _, err = run(capsys, "oracle", ",".join(map(str, gens)))
        assert code == 3
        assert "mask bits" in err
        assert time.perf_counter() - start < 1.0


def test_three_close_generators_exit_three_before_any_mask(capsys):
    # F >= 15000 * 30000 - 1 refuses the masks; the membership mask cut at
    # the cap would hold 1.2e8 bits and take most of a second to build
    start = time.perf_counter()
    code, _, err = run(capsys, "oracle", "30000,30001,30002")
    assert code == 3
    assert "at least" in err and "mask bits" in err
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("sequence", [
    # membership masks of 1e10 bits
    "10000000000,10000000001,10000000002",
    # 17 entries near 2^25: each one small enough, their masks together not
    ",".join(str((1 << 25) + i) for i in range(17)),
    # 2^30 bipartitions
    ",".join(str(100 + 7 * i) for i in range(30)),
])
def test_hostile_decider_input_exits_three_fast(capsys, command, sequence):
    start = time.perf_counter()
    code, _, err = run(capsys, command, sequence)
    assert code == 3
    assert "decider" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("base, j", [
    # scan's default budget charges each of these 8, but the shift is past
    # the decider's size cap once its gcd is divided out
    ("600000000,1500000000", "6"),  # (1, 100000001, 250000001)
    ("60000000000,150000000000", "6"),  # masks of 1e10 bits
    ("1,10000000000000", "1"),  # (1, 2, 10000000000001)
    # divisors(10**20 + 1) would take 10^10 trial divisions
    ("4,99999999999999999995", "6"),
])
def test_hostile_scan_exits_three_fast(capsys, base, j):
    start = time.perf_counter()
    code, _, err = run(capsys, "scan", base, j, j)
    assert code == 3
    assert "decider" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    # the witness of 1000001 over (1, 2500002) takes 1000001 layers of up to
    # a million bits each; the decider's own size cap lets the input through
    ["analyze", "1,1000001,2500002"],
    # its shift j = 1 is the same sequence, (1, 1000001, 2500002)
    ["scan", "1000000,2500001", "1", "1"],
])
def test_huge_witness_search_exits_three_fast(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "witness search" in err
    assert time.perf_counter() - start < 1.0


def test_witness_search_under_its_cap_answered(capsys):
    # 30001 layers of up to 30002 bits stay under MAX_MASK_BITS
    code, out, _ = run(capsys, "analyze", "1,30001,75002")
    assert code == 0
    assert "certificate: 30001·(1) ⊔ 1·(1,75002)" in out


@pytest.mark.parametrize("argv", [
    ["analyze", "3,4,5"], ["oracle", "3,4,5"], ["compare", "3,4,5"], ["verify-paper"],
])
@pytest.mark.parametrize("flag", ["--cap", "--jobs"])
def test_scan_flags_rejected_elsewhere(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "2"])
    assert exc.value.code == 2


_HUGE = 1 << 40
# tokens that are no integer; as a sequence entry, nor a blank one
_WORD = st.sampled_from(["x", "1.5", "1e3", "0x10", "one"]) | st.text("abcxyz.", min_size=1, max_size=4)
_BAD_INT = _WORD | st.just("")


@st.composite
def _malformed_literal(draw):
    """A sequence literal that parse_gens and parse_base refuse: empty, or
    with a non-numeric, zero, negative, repeated or decreasing entry."""
    entries = sorted(draw(st.sets(st.integers(1, 50), max_size=4)))
    defect = draw(st.sampled_from(["empty", "word", "zero", "negative", "repeated", "decreasing"]))
    if defect == "empty":
        return draw(st.sampled_from(["", ",", " , ,"]))
    if defect == "repeated":
        entries = sorted(entries + [draw(st.integers(1, 60))] * 2)
    elif defect == "decreasing":
        entries = sorted(draw(st.sets(st.integers(1, 1 << 64), min_size=2, max_size=4)), reverse=True)
    else:
        bad = {"word": _WORD, "zero": st.just(0), "negative": st.integers(-(1 << 64), -1)}[defect]
        entries.insert(draw(st.integers(0, len(entries))), draw(bad))
    return ",".join(map(str, entries))


@st.composite
def _huge_literal(draw):
    """An increasing literal from 2^40 up holding x and x + 1, so that its
    gcd is 1 and every shift of it, decided or masked, is past a cap."""
    x = draw(st.integers(_HUGE, 1 << 64))
    rest = draw(st.sets(st.integers(2, _HUGE), max_size=3))
    return ",".join(map(str, sorted({x, x + 1} | {x + d for d in rest})))


def _positional(filler, hostile):
    return filler.map(lambda v: [v]), hostile.map(lambda v: [v])


def _option(flag, hostile, filler=()):
    """Left out or given a valid value, and given a hostile value."""
    return st.sampled_from([[]] + [[flag, v] for v in filler]), hostile.map(lambda v: [flag, v])


def _format(valid):
    bad = {"", "xml", "JSON", "text,json"} | ({"text", "json", "csv"} - set(valid))
    return _option("--format", st.sampled_from(sorted(bad)), valid)


_LITERAL = _malformed_literal() | _huge_literal()
_SEQUENCE = _positional(st.sampled_from(["4,6,9", "3,4,5", "28,31,36,48"]), _LITERAL)
_BASE = _positional(st.sampled_from(["11,16,28", "3,8,20", "2,3"]), _LITERAL)
_WINDOW = (
    st.just(["1", "30"]),
    st.one_of(
        st.tuples(_BAD_INT | st.integers(-(1 << 64), 0).map(str), st.just("30")),
        st.tuples(st.just("1"), _BAD_INT | st.integers(-(1 << 64), 0).map(str)),
        # decreasing, and past the scan budget
        st.tuples(st.integers(2, 1 << 64), st.integers(1, 1 << 64)).filter(lambda w: w[0] > w[1]),
        st.tuples(st.integers(1, 30), st.integers(_HUGE, 1 << 64)),
    ).map(lambda w: [str(w[0]), str(w[1])]),
)
_CAP = _option("--cap", _BAD_INT | st.integers(-(1 << 64), 0).map(str))
_THRESHOLD = _option(
    "--threshold",
    _BAD_INT | st.integers(-(1 << 64), -1).map(str) | st.integers(_HUGE, 1 << 64).map(str),
    filler=["0"],
)
# a valid seed would run the whole suite, so verify-paper gets flag errors only
_SEED = _option("--seed", _BAD_INT)
_ALL_FORMATS = ("text", "json", "csv")
_ARGUMENTS = {
    "analyze": [_SEQUENCE, _format(_ALL_FORMATS)],
    "scan": [_BASE, _WINDOW, _CAP, _format(_ALL_FORMATS)],
    "report": [_BASE, _THRESHOLD, _CAP, _format(_ALL_FORMATS)],
    "oracle": [_SEQUENCE, _format(_ALL_FORMATS)],
    "compare": [_SEQUENCE, _format(("text", "json"))],
    "verify-paper": [_SEED, _format(("text", "json"))],
}


@st.composite
def _hostile_argv(draw, command):
    """argv for command with at least one argument malformed or past a cap;
    each of the others is valid, or hostile one time in four, so that most
    examples reach the command past argparse."""
    arguments = _ARGUMENTS[command]
    chosen = draw(st.integers(0, len(arguments) - 1))
    argv = [command]
    for i, (filler, hostile) in enumerate(arguments):
        argv += draw(hostile if i == chosen else draw(st.sampled_from([filler] * 3 + [hostile])))
    return argv


@pytest.mark.parametrize("command", sorted(_ARGUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_argv_exits_two_or_three_fast(command, data):
    argv = data.draw(_hostile_argv(command))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (2, 3), (argv, code, err.getvalue())
    assert time.perf_counter() - start < 2.0, argv
    assert "Traceback" not in err.getvalue()


class TestCompare:
    @pytest.mark.parametrize("seq", ["4,6,9", "3,4,5", "28,31,36,48"])
    def test_agreement(self, capsys, seq):
        code, out, _ = run(capsys, "compare", seq)
        assert code == 0
        assert "agree" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compare", "4,6,9", "--format", "json")
        data = json.loads(out)
        assert data["agree"] is True and data["mu"] == 2


class TestVerifyPaper:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL" not in out
        assert "seed: 1729" in out
        assert "trap-n3-printed-pairing" in out
        assert "trap-low-threshold" in out

    def test_seed_flag_printed(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--seed", "7")
        assert "seed: 7" in out

    def test_json_lists_every_fixture(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 1729
        fixtures = data["fixtures"]
        assert len(fixtures) == 10
        assert len({f["name"] for f in fixtures}) == 10
        for f in fixtures:
            assert set(f) == {"name", "ok", "detail", "seconds"}
            assert f["ok"] is True and f["detail"] and f["seconds"] >= 0

    @pytest.mark.parametrize("command", [["verify-paper"], ["compare", "4,6,9"]],
                             ids=["verify-paper", "compare"])
    def test_csv_format_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--format", "csv"])
        assert exc.value.code == 2


def test_readme_flags_match_parser():
    # every --flag named in README's "Command line" section is accepted by
    # some subcommand, and every subcommand option is named there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        flag
        for parser in subparsers.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == accepted


_CAP_NAME = r"(?:MAX|DEFAULT)_[A-Z_]+"


def _stated_value(text):
    """The integer README writes as e.g. 17, 50,000, 2^30 or 3·2^27."""
    value = 1
    for factor in text.replace(",", "").split("·"):
        base, _, exp = factor.partition("^")
        value *= int(base) ** int(exp or 1)
    return value


def test_readme_caps_match_modules():
    # every MAX_* / DEFAULT_* name in README is a module constant under
    # src/cishift/ with the value README states, and every one is named there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    package = Path(importlib.import_module("cishift").__file__).parent
    constants = {}
    for path in package.glob("[!_]*.py"):  # not __main__, which runs the CLI on import
        module = importlib.import_module(f"cishift.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and re.fullmatch(_CAP_NAME, target.id):
                        constants[target.id] = getattr(module, target.id)
    assert set(re.findall(rf"\b{_CAP_NAME}\b", readme)) == set(constants)
    for name, value in constants.items():
        stated = re.findall(rf"`{name}`\s+\(([0-9][0-9,·^]*)", readme)
        assert stated, f"README states no value for {name}"
        assert {_stated_value(text) for text in stated} == {value}, name
