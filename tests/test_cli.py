import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SHIFT1_FILE
from test_kernel import EXPRESSIONS

from padyn import cli, dynamics, mapdsl
from padyn.cli import render_report, run_command
from padyn.errors import BudgetError, PadynError, PrecisionError
from padyn.mahler import MahlerCoeffs, Verdict, mahler_coeffs
from padyn.mapdsl import parse_map, to_text


REPORT_KEYS = {"config", "coefficients", "verdicts", "census", "cycles", "plotset", "timing"}


def read_json(path):
    return json.loads(path.read_text())


# --- exit codes ---------------------------------------------------------------


def test_nonprime_is_config_error(capsys):
    code, report = run_command(["analyze", "--p", "4", "--map", "x"])
    assert code == 2 and report is None
    assert "prime" in capsys.readouterr().err


def test_a_p_past_two_to_the_64_is_config_error(capsys):
    # is_prime decides only below 2^64, so a larger p is refused by that bound
    assert run_command(["analyze", "--p", str(2**64 + 13), "--map", "x"]) == (2, None)
    assert capsys.readouterr().err == "error: p must be prime below 2^64, got 18446744073709551629\n"


def test_bad_map_is_config_error(capsys):
    code, _ = run_command(["mahler", "--map", "x^-1"])
    assert code == 2


def test_map_and_file_are_exclusive(tmp_path):
    aut = tmp_path / "a.aut"
    aut.write_text(SHIFT1_FILE)
    code, _ = run_command(["mahler", "--map", "x", "--file", str(aut)])
    assert code == 2
    code, _ = run_command(["mahler"])
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    code, _ = run_command(["frobnicate"])
    assert code == 2


def _error_classes(cls=PadynError):
    """PadynError and every class below it, found by walking ``__subclasses__()``."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_padyn_error_exits_by_its_class(error, monkeypatch, capsys):
    # the class alone decides the exit code: 3 for a blown budget or precision, else 2
    def dispatch(args, budget):
        raise error("raised from the dispatch")

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    assert run_command(["analyze", "--map", "x"]) == (
        3 if issubclass(error, (BudgetError, PrecisionError)) else 2, None
    )
    captured = capsys.readouterr()
    assert captured.err == "error: raised from the dispatch\n" and captured.out == ""


def _brackets(n):
    return "(" * n + "x" + ")" * n


def _sum(terms):
    return "+".join(["x"] * terms)


def _sigmas(n):
    return "sigma(" * n + "x" + ")" * n


def _signs(n):
    return "-" * n + "x"


@pytest.mark.parametrize(
    "subcommand, text",
    [
        ("mahler", _brackets(300)), ("analyze", _brackets(300)),
        ("mahler", _sigmas(2000)), ("analyze", _sigmas(2000)),
        ("analyze", _brackets(50000)), ("analyze", _sigmas(15000)),
    ],
    ids=["brackets-300-mahler", "brackets-300-analyze", "sigma-2000-mahler", "sigma-2000-analyze",
         "brackets-50000-analyze", "sigma-15000-analyze"],
)
def test_deep_brackets_run(subcommand, text):
    # brackets nest without limit: the parser keeps one frame per open bracket in a list
    assert run_command([subcommand, "--kmax", "2", "--mmax", "4", f"--map={text}"])[0] == 0


def test_unclosed_brackets_exit_two_with_a_position(capsys):
    assert run_command(["analyze", "--kmax", "2", "--map=" + "(" * 5000 + "x"]) == (2, None)
    assert "error: expected ')' (at position 5001)" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["mahler", "analyze"])
@pytest.mark.parametrize(
    "text",
    [
        _brackets(200), _sum(201), _sigmas(200), _signs(200),
        _sum(2000), _signs(2000),
    ],
    ids=["brackets", "sum", "sigma", "signs", "sum-2000", "signs-2000"],
)
def test_nesting_at_the_limit_runs(subcommand, text):
    # a long sum or a run of signs is as deep a tree as 200 brackets, and runs too
    assert run_command([subcommand, "--kmax", "2", "--mmax", "4", f"--map={text}"])[0] == 0


@pytest.mark.parametrize("subcommand", ["preimages", "cycles", "plotset", "analyze"])
@pytest.mark.parametrize("n", ["0", "-4"])
def test_oracles_reject_nonpositive_level_width(subcommand, n, capsys):
    code, _ = run_command([subcommand, "--map", "x+1", "--kmax", "3", "--n", n])
    assert code == 2
    assert "K, mmax, kmax and n must all be >= 1" in capsys.readouterr().err


def test_budget_exhaustion_exits_three(capsys):
    code, _ = run_command(["cycles", "--map", "x", "--kmax", "12", "--budget", "100"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PADYN_BUDGET", "100")
    code, _ = run_command(["cycles", "--map", "x", "--kmax", "12"])
    assert code == 3
    monkeypatch.delenv("PADYN_BUDGET")
    code, _ = run_command(["cycles", "--map", "x", "--kmax", "12"])
    assert code == 0


@pytest.mark.parametrize(
    "flag, env, message",
    [
        ("0", None, "--budget must be >= 1, got 0"),
        ("-1", None, "--budget must be >= 1, got -1"),
        (None, "0", "PADYN_BUDGET must be >= 1, got 0"),
        (None, "abc", "PADYN_BUDGET must be an integer, got 'abc'"),
    ],
)
def test_bad_budget_is_config_error(monkeypatch, capsys, flag, env, message):
    # a budget that is not a positive integer is a mistake, not a blown budget
    if env is not None:
        monkeypatch.setenv("PADYN_BUDGET", env)
    argv = ["cycles", "--map", "x", "--kmax", "3"]
    code, _ = run_command(argv + (["--budget", flag] if flag is not None else []))
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kmax, code", [(11, 0), (12, 3)])
def test_plotset_budget_counts_enumerated_points(kmax, code, capsys):
    # level kmax enumerates 2^(1 + kmax) points; the lookahead is not charged
    got, _ = run_command(
        ["plotset", "--map", "sigma(x)", "--kmax", str(kmax), "--budget", "4096"]
    )
    assert got == code


@pytest.mark.parametrize("p, n, kmax", [(2, 1, 5), (3, 2, 2), (2, 3, 2)])
def test_analyze_budget_is_its_table_size(p, n, kmax, capsys):
    size = max(p ** (n * kmax), p ** (n + kmax))
    argv = [
        "analyze", "--p", str(p), "--n", str(n), "--kmax", str(kmax),
        "--mmax", "16", "--map", "sigma(x^2+x+1)", "--budget",
    ]
    assert run_command(argv + [str(size)])[0] == 0
    assert run_command(argv + [str(size - 1)])[0] == 3
    assert f"enumeration of {size} entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [sub, "--p", "2", "--kmax", "20000", "--map", "x"]
        for sub in ("cycles", "preimages", "plotset", "analyze")
    ]
    + [["cycles", "--p", "3", "--kmax", "100000", "--map", "x"]],
    ids=["cycles", "preimages", "plotset", "analyze", "cycles-p3"],
)
def test_tables_too_wide_to_count_in_decimal_exceed_the_budget(argv, capsys):
    # p^kmax entries has more digits than str() converts; the message gives its bit length
    assert run_command(argv) == (3, None)
    err = capsys.readouterr().err
    assert "int_max_str_digits" not in err and "integer string conversion" not in err
    message = r"error: enumeration of at least 2\^\d+ entries (at .*)?exceeds budget 4194304\n"
    assert re.fullmatch(message, err)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["orbit", "--m", "20000", "--x0", "3", "--steps", "14", "--map", "x^2"], "orbit points"),
        (["mahler", "--K", "20000", "--mmax", "4", "--map", "x^20000"], "Mahler coefficients"),
    ],
    ids=["orbit", "mahler"],
)
def test_reports_too_wide_to_print_exceed_the_budget(argv, what, capsys):
    # 3^(2^14) mod 2^20000 and a_3 of x^20000 have more digits than str() converts;
    # 13 steps of the orbit stop at 3^(2^13), which prints
    assert run_command(argv) == (3, None)
    assert capsys.readouterr().err.startswith(f"error: {what} mod p^")
    if what == "orbit points":
        assert run_command([arg if arg != "14" else "13" for arg in argv])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [["check", which, "--n", "20000", "--map", "x"] for which in ("cs-mp", "cs-ergodic", "bernoulli")]
    + [
        ["analyze", "--n", "20000", "--map", "x"],
        ["check", "cs-mp", "--p", "3", "--n", "10000000", "--mmax", "4", "--map", "x"],
    ],
    ids=["cs-mp", "cs-ergodic", "bernoulli", "analyze", "cs-mp-p3-n1e7"],
)
def test_levels_too_wide_to_print_exceed_the_budget(argv, capsys):
    # the index p^n has more digits than str() converts: refused, before p^n is computed
    started = time.perf_counter()
    assert run_command(argv) == (3, None)
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert "int_max_str_digits" not in err and "integer string conversion" not in err
    n, limit = argv[argv.index("--n") + 1], sys.get_int_max_str_digits()
    assert err == f"error: level n = {n} puts the index p^{n} past the {limit} digits a report prints\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cycles", "--p", "3", "--n", "10000", "--kmax", "20000", "--map", "x"],
        ["preimages", "--p", "2", "--kmax", "2000000", "--map", "x"],
        ["plotset", "--p", "5", "--n", "2000000", "--kmax", "1", "--map", "x"],
    ],
    ids=["cycles", "preimages", "plotset"],
)
def test_tables_past_max_digits_are_refused_before_their_size_is_computed(argv, capsys):
    # 3^200000000 alone takes minutes to compute
    started = time.perf_counter()
    assert run_command(argv) == (3, None)
    assert time.perf_counter() - started < 1
    message = rf"error: a table on Z/p\^\d+ needs inputs of \d+ digits; the limit is {mapdsl.MAX_DIGITS}\n"
    assert re.fullmatch(message, capsys.readouterr().err)


@pytest.mark.parametrize("p", [2, 3])
def test_the_widest_printable_level_runs(p, capsys):
    limit = sys.get_int_max_str_digits()
    n = int(limit / math.log10(p))  # the last level whose index p^n has at most limit digits
    assert p**n < 10**limit <= p ** (n + 1)
    argv = ["check", "cs-mp", "--p", str(p), "--map", "x", "--n"]
    assert run_command(argv + [str(n)])[0] == 0
    assert f"observed a_{p**n} = 0" in capsys.readouterr().out  # the index, printed in full
    assert run_command(argv + [str(n + 1)])[0] == 3


@pytest.mark.parametrize(
    "p, n, kmax, map_text",
    [
        (2, 1, 6, "sigma(x^2+x+1)"),
        (3, 1, 3, "C(x,3)+x"),
        (2, 2, 3, "x^2+x+1"),
        (2, 1, 5, 'auto("{aut}")(x)+1'),
    ],
)
def test_analyze_evaluates_each_point_once(monkeypatch, shift1_path, p, n, kmax, map_text):
    # counts the entries every column the evaluator makes is asked for, whoever made it
    calls = 0
    evaluator = mapdsl._evaluator

    def counting_evaluator(*args):
        column = evaluator(*args)

        def counting(lifts):
            nonlocal calls
            calls += len(lifts)
            return column(lifts)

        return counting

    monkeypatch.setattr(mapdsl, "_evaluator", counting_evaluator)
    mmax, text = 20, map_text.format(aut=shift1_path)
    code, _ = run_command(
        [
            "analyze", "--p", str(p), "--n", str(n), "--kmax", str(kmax),
            "--mmax", str(mmax), "--map", text,
        ]
    )
    assert code == 0
    # the Mahler row of a polynomial of binomial degree d evaluates its first d + 1 points
    degree = mapdsl.binomial_degree(mapdsl.parse_map(text))
    row = mmax + 1 if degree is None else min(degree, mmax) + 1
    assert calls == max(p ** (n * kmax), p ** (n + kmax)) + row


@pytest.mark.parametrize(
    "argv, check, minimum",
    [
        (["analyze", "--map", "sigma(x)", "--mmax", "1"], "cs-mp", 2),
        (["check", "cs-mp", "--map", "sigma(x)", "--n", "2", "--mmax", "3"], "cs-mp", 4),
        (["check", "cs-ergodic", "--map", "sigma(x)", "--p", "3", "--mmax", "2"], "cs-ergodic", 3),
    ],
)
def test_mmax_below_p_to_the_n_names_the_flag_and_the_check(argv, check, minimum, capsys):
    # a short row of a map that is not a polynomial is an undecidable verdict at p^n that
    # names the M (--mmax) it stopped at
    short = int(argv[argv.index("--mmax") + 1])
    code, report = run_command(argv)
    assert code == 0
    name = check.replace("-", "_")
    verdict = report["verdicts"][name]
    assert verdict["kind"] == "undecidable_at" and verdict["m"] == minimum
    assert verdict["condition"].endswith(f"needs M >= {minimum}")
    assert verdict["observed"] == f"coefficients computed only up to M = {short}"
    assert f"  {name}: UndecidableAt({minimum}): " in capsys.readouterr().out
    # at the minimum the check runs
    argv[argv.index("--mmax") + 1] = str(minimum)
    code, report = run_command(argv)
    assert code == 0 and report["verdicts"][name]["kind"] != "undecidable_at"


@pytest.mark.parametrize(
    "argv, check, m, observed",
    [
        (["analyze", "--map", "x", "--mmax", "1"], "cs-mp", 2, "a_2 = 0"),
        (["check", "cs-mp", "--map", "x", "--n", "2", "--mmax", "3"], "cs-mp", 4, "a_4 = 0"),
        (
            ["check", "cs-ergodic", "--map", "x", "--p", "3", "--mmax", "2"],
            "cs-ergodic", 3, "a_3 = 0 (mod 3)",
        ),
        (["check", "bernoulli", "--map", "0", "--mmax", "1"], "bernoulli", 2, "a_2 = 0"),
    ],
)
def test_a_total_row_short_of_p_to_the_n_is_decided(argv, check, m, observed):
    # a polynomial's row is total: its coefficients past M are exactly 0, so the check decides
    code, report = run_command(argv)
    assert code == 0
    verdict = report["verdicts"][check.replace("-", "_")]
    assert (verdict["kind"], verdict["m"], verdict["observed"]) == ("violated_at", m, observed)


def test_short_mmax_keeps_the_oracles():
    # the census, cycles and plot set read no coefficient, so a short row loses none of them
    reports = [run_command(["analyze", "--map", "x", "--mmax", mmax])[1] for mmax in ("1", "2")]
    for key in ("census", "cycles", "plotset"):
        assert reports[0][key] == reports[1][key]


def test_orbit_steps_are_budgeted(capsys):
    argv = ["orbit", "--map", "x+1", "--x0", "0", "--m", "8", "--steps", "50", "--budget"]
    assert run_command(argv + ["50"])[0] == 0
    assert run_command(argv + ["49"])[0] == 3
    assert "exceeds budget 49" in capsys.readouterr().err


def test_huge_power_ends_with_the_answer():
    # the exponent is reduced mod phi(2^m) at every level, so this takes milliseconds
    code, report = run_command(["cycles", "--p", "2", "--kmax", "4", "--map", "x^99999999"])
    assert code == 0
    for row in report["cycles"]:
        m = row["m"]
        table = tuple(pow(x, 99999999, 2**m) for x in range(2**m))
        expected = dynamics.cycle_report(dynamics.ReducedLevelMap(2, m, m, table))
        assert row["cycle_lengths"] == list(expected.cycle_lengths)


@pytest.mark.parametrize(
    "argv, message",
    [
        # m factors of a binomial of full-width values
        (["cycles", "--kmax", "4", "--map", "C(x-1,100000)"], "of them in C(x - 1, 100000)) exceeds budget"),
        # the digit width
        (["cycles", "--kmax", "4", "--map", "sigma^2000000(x)"], "values of 2000004 digits; the limit is"),
        # the Mahler transform's product, which grows with K
        (
            ["mahler", "--K", "4000", "--mmax", "4096", "--map", "sigma(x)"],
            "(the Mahler transform at K = 4000 digits)",
        ),
    ],
)
def test_work_past_the_budget_exits_three_naming_its_cause(argv, message, capsys):
    assert run_command(argv) == (3, None)
    assert message in capsys.readouterr().err


LONG_SUM = "+".join(["x"] * 10000)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--kmax", "8", "--map", LONG_SUM], "enumeration of 512 entries"),
        (["cycles", "--kmax", "4", "--map", LONG_SUM + "+sigma^2000000(x)"], "values of 2000004 digits"),
    ],
)
def test_budget_error_on_a_long_map_is_one_short_line(argv, message, capsys):
    # the node a budget error names is most of a left-deep sum: its text is cut to 80 characters
    assert run_command(argv) == (3, None)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300, len(err)
    assert message in err and " + x..." in err


def test_coefficient_scan_shapes_run_under_the_default_budget():
    argv = ["mahler", "--p", "2", "--K", "64", "--mmax", "4096", "--map", "sigma(x^2+x+1)"]
    assert run_command(argv)[0] == 0
    argv = ["mahler", "--p", "3", "--K", "48", "--mmax", "2048", "--map", "sigma^2(x^3+x+1)"]
    assert run_command(argv)[0] == 0


def test_mahler_points_are_budgeted(capsys):
    argv = ["mahler", "--map", "x^2+x", "--mmax", "100", "--budget"]
    assert run_command(argv + ["101"])[0] == 0
    assert run_command(argv + ["50"])[0] == 3
    assert "enumeration of 101 entries exceeds budget 50" in capsys.readouterr().err


def test_degenerate_automaton_file_is_config_error(tmp_path, capsys):
    aut = tmp_path / "silent.aut"
    aut.write_text("p 2\nstates s\ninitial s\ns 0 -> s / -\ns 1 -> s / -\n")
    code, _ = run_command(["cycles", "--file", str(aut), "--kmax", "3"])
    assert code == 2
    assert "degenerate at state s" in capsys.readouterr().err
    code, _ = run_command(["cycles", "--map", f'auto("{aut}")(x)', "--kmax", "3"])
    assert code == 2
    assert "degenerate at state s (at position" in capsys.readouterr().err


def test_unreadable_automaton_file_is_config_error(tmp_path, capsys):
    code, _ = run_command(["cycles", "--file", str(tmp_path / "missing.aut"), "--kmax", "3"])
    assert code == 2
    assert "missing.aut" in capsys.readouterr().err
    code, _ = run_command(["automaton", "check", "--file", str(tmp_path / "missing.aut")])
    assert code == 2
    assert "cannot read automaton file" in capsys.readouterr().err


def test_missing_automaton_in_map_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.aut"
    code, _ = run_command(["mahler", "--map", f'auto("{missing}")(x)'])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_verdicts_are_not_failures():
    code, report = run_command(["check", "lipschitz-ergodic", "--p", "2", "--map", "3*x+1"])
    assert code == 0
    verdict = report["verdicts"]["lipschitz_ergodic"]
    assert verdict["kind"] == "violated_at"
    assert verdict["m"] == 1 and verdict["observed"]
    assert verdict["definitive"]


# --- reports ---------------------------------------------------------------


def test_mahler_output(capsys):
    code, report = run_command(
        ["mahler", "--p", "2", "--K", "16", "--map", "sigma(x)", "--mmax", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "a_3" in out and "-2" in out
    signed = [row["signed"] for row in report["coefficients"]]
    assert signed == [0, 0, 1, -2, 4, -8]
    valuations = [row["valuation"] for row in report["coefficients"]]
    assert valuations == ["AtLeast(16)", "AtLeast(16)", "Exact(0)", "Exact(1)", "Exact(2)", "Exact(3)"]
    assert report["verdicts"] == {}  # coefficient dump only


def test_check_total_verdict(capsys):
    code, _ = run_command(
        [
            "check", "cs-ergodic",
            "--p", "2", "--n", "1",
            "--map", "mahler[0,0,1](x)",
            "--mmax", "64", "--K", "16",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "SatisfiedUpTo(64) (total: finitely many nonzero coefficients)" in out


def test_strict_m1_mode():
    code, report = run_command(
        ["check", "lipschitz-ergodic", "--map", "x+1", "--strict-m1"]
    )
    assert code == 0
    assert report["verdicts"]["lipschitz_ergodic"]["kind"] == "violated_at"
    assert report["verdicts"]["lipschitz_ergodic"]["m"] == 1


def test_report_schema_fixed(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run_command(
        ["analyze", "--p", "2", "--map", "sigma(x)", "--json", str(out)]
    )
    assert code == 0
    data = read_json(out)
    assert set(data) == REPORT_KEYS


def test_analyze_verdict_kinds(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run_command(
        ["analyze", "--p", "2", "--n", "1", "--map", "sigma(x)", "--json", str(out)]
    )
    assert code == 0
    data = read_json(out)
    assert data["verdicts"]["cs_mp"]["kind"] == "satisfied_up_to"
    assert data["verdicts"]["cs_ergodic"]["kind"] == "satisfied_up_to"
    assert all(row["uniform"] for row in data["census"])
    assert all(row["unique_cycle"] for row in data["cycles"])


def test_json_determinism(tmp_path):
    path = tmp_path / "report.json"
    argv = ["analyze", "--p", "2", "--map", "C(x,2)", "--mmax", "8", "--json", str(path)]
    blobs = []
    for _ in range(2):
        code, _ = run_command(argv)
        assert code == 0
        data = read_json(path)
        data.pop("timing")
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_parser_reuse_is_invisible(shift1_path, monkeypatch):
    # one process, one shared parser: every call's report, timing aside,
    # equals the report a freshly built parser gives for the same argv
    sequence = [
        ["orbit", "--map", "x^2+x+1", "--x0", "5", "--steps", "3"],
        ["check", "cs", "--map", "sigma(x)"],
        ["check", "no-such-check", "--map", "x"],
        ["automaton", "run", "--file", str(shift1_path), "--word", "1101"],
        ["analyze", "--map", "x+1", "--kmax", "2", "--strict-m1"],
        ["analyze", "--map", "x+1", "--kmax", "2"],
    ]

    def results():
        got = []
        for argv in sequence:
            code, report = run_command(argv)
            if report is not None:
                report.pop("timing")
            got.append((code, report))
        return got

    cli._build_parser.cache_clear()
    shared = results()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = results()
    assert shared == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 0, 0]
    configs = [report["config"] for _, report in fresh if report is not None]
    assert [set(c) - set(cli._ECHOED) for c in configs] == [
        {"x0", "steps", "m"}, {"which"}, {"action", "word"}, set(), set(),
    ]
    assert [(c["budget"], c["strict_m1"]) for c in configs[-2:]] == [(None, True), (None, False)]


def test_a_map_starting_with_minus_is_written_with_equals(capsys):
    code, report = run_command(["analyze", "--map=-x", "--kmax", "2"])
    assert code == 0
    assert report["config"]["map"] == "-x"
    # argparse reads a separate "-x" as an option, not as the value of --map
    assert run_command(["analyze", "--map", "-x", "--kmax", "2"]) == (2, None)
    assert "--map: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["check", "cs-ergodic", "--map", "mahler[0,0,1](x)", "--mmax", "8"], "satisfied_up_to"),
        (["check", "lipschitz-ergodic", "--map", "3*x+1"], "violated_at"),
        (["check", "lipschitz-mp", "--map", "x", "--K", "1"], "undecidable_at"),
    ],
)
def test_verdict_text_line_is_verdict_str(argv, kind, capsys):
    code, report = run_command(argv)
    assert code == 0
    ((name, data),) = report["verdicts"].items()
    assert data["kind"] == kind
    assert f"  {name}: {Verdict(**data)}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["check", "bernoulli", "--map", "sigma(x)", "--mmax", "1"],
            "  bernoulli: UndecidableAt(2): a_{p^1} = 1 needs M >= 2;"
            " coefficients computed only up to M = 1",
        ),
        (
            ["check", "lipschitz-ergodic", "--map", "x+1", "--K", "1"],
            "  lipschitz_ergodic: UndecidableAt(1): a_1 = 1 (mod 4) needs K >= 2;"
            " working precision is K = 1 [necessary and sufficient for p=2]",
        ),
        (
            ["check", "lipschitz-mp", "--map", "x", "--K", "1"],
            "  lipschitz_mp: UndecidableAt(2): a_2 = 0 (mod p^2)"
            " requires valuation beyond working precision [sufficient condition only]",
        ),
    ],
)
def test_undecidable_verdict_names_its_reason(argv, line, capsys):
    # a range or precision shortfall says so; a valuation past K keeps its old text
    assert run_command(argv)[0] == 0
    assert line in capsys.readouterr().out.splitlines()


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["mahler", "--map", "x", "--mmax", "2"]
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "padyn", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert run_command(argv)[0] == 0

    def untimed(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed:")]

    assert untimed(done.stdout) == untimed(capsys.readouterr().out)


# every value a JSON text can hold, with the strings, ints and int lists a report stresses
_json_strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é€😀\u2028", "a\"b\\c"])
_json_scalars = (
    st.none() | st.booleans() | st.floats() | _json_strings
    | st.integers() | st.integers(min_value=-(10**400), max_value=10**400)
)
# keys a row template must escape or encode: '%' (the template's own sign), '"' and non-ASCII
_json_keys = _json_strings | st.sampled_from(["%", "%s", "100%", "%(m)d", '"', 'a"%"b', "é€", "\u2028"])
_json_kinds = st.sampled_from([st.integers(), st.booleans(), st.none(), _json_strings, st.floats()])


def _json_rows(inner):
    """Two or more dicts with one set of keys, as a report's rows: the values of a key are all
    of one scalar kind, or any value (ints, bools, None, strs, floats and lists mixed)."""
    kinds = st.dictionaries(_json_keys, _json_kinds | st.just(inner), min_size=1, max_size=4)
    return kinds.flatmap(lambda kinds: st.lists(st.fixed_dictionaries(kinds), min_size=2, max_size=5))


_json_values = st.recursive(
    _json_scalars | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_json_strings, inner)
    | _json_rows(inner),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_json_writer_is_json_dumps(value):
    assert cli._json(value) + "\n" == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [{1: 2}, {"a": [{None: 0}]}, object(), [1, {2, 3}], {"a": 1.5j},
     [{1: 2}, {1: 3}], [{"a": 1}, {"a": 1.5j}], [{"a": 1}, {2: 1}]],
)
def test_json_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._json(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--map", "sigma(x^2+x+1)", "--kmax", "4", "--mmax", "32"],
        ["mahler", "--p", "3", "--map", "C(x,3)+x", "--mmax", "20"],
        ["check", "lipschitz-ergodic", "--map", "3*x+1"],
        ["preimages", "--map", "x^2", "--kmax", "4"],
        ["cycles", "--map", "x^2+x+1", "--kmax", "4"],
        ["orbit", "--map", "x+1", "--x0", "3", "--steps", "5"],
        ["plotset", "--map", "sigma(x)", "--kmax", "4", "--grid", "8"],
        ["automaton", "check", "--file", "{aut}"],
        ["automaton", "run", "--file", "{aut}", "--word", "1101"],
    ],
    ids=lambda argv: argv[0] if argv[0] != "automaton" else f"automaton-{argv[1]}",
)
def test_json_file_is_canonical_json_dumps(argv, shift1_path, tmp_path):
    out = tmp_path / "report.json"
    argv = [arg.format(aut=shift1_path) for arg in argv]
    assert run_command(argv + ["--json", str(out)])[0] == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("p, K", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_coefficient_rows_sign_like_mahler_coeffs(p, K):
    # every residue mod p^K, the p = 2 boundary 2r == p^K among them
    coeffs = MahlerCoeffs(p, K, tuple(range(p**K)))
    rows = cli._coefficient_rows(coeffs)
    assert [row["signed"] for row in rows] == [coeffs.signed(m) for m in range(p**K)]
    if p == 2:
        assert rows[2 ** (K - 1)]["signed"] == 2 ** (K - 1)
    coeffs = mahler_coeffs(parse_map("sigma(x^2+x+1)"), p, 40, K)
    assert [row["signed"] for row in cli._coefficient_rows(coeffs)] == list(map(coeffs.signed, range(41)))


def test_coefficient_lines_are_the_format_spec_lines():
    pairs = [(0, 0), (3, -2), (9999, 5), (10**4, -7), (123456, 10**24), (5, -(10**24)), (7, 10**30 + 1)]
    rows = [{"m": m, "residue": 0, "signed": s, "valuation": "Exact(0)"} for m, s in pairs]
    report = {
        "config": {"subcommand": "mahler", "p": 2, "K": 120},
        "coefficients": rows, "verdicts": {}, "census": [], "cycles": [], "plotset": None, "timing": None,
    }
    lines = render_report(report).splitlines()
    assert lines[3:] == [f"  a_{row['m']:<4d} = {row['signed']:<24d} [{row['valuation']}]" for row in rows]


def test_render_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report({"config": {}}, "yaml")


# --- oracle subcommands ---------------------------------------------------------


def test_orbit_command():
    code, report = run_command(
        ["orbit", "--map", "x+1", "--p", "2", "--x0", "0", "--steps", "4", "--m", "3"]
    )
    assert code == 0
    entry = report["cycles"][0]
    assert entry["points"] == [0, 1, 2, 3, 4]
    assert entry["cycle_start"] is None


def test_orbit_rejects_negative_steps(capsys):
    code, report = run_command(["orbit", "--map", "x+1", "--x0", "1", "--steps", "-3"])
    assert code == 2 and report is None
    assert "step count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--p", "3", "--m", "100000000", "--x0", "0", "--map", "x"],
         "error: a table on Z/p^100000000 needs inputs of 100000000 digits; the limit is 1048576"),
        (["analyze", "--p", "1000000000000000003", "--kmax", "1", "--mmax", "1", "--map", "x"],
         "error: enumeration of 1000000000000000006000000000000000009 entries exceeds budget 4194304"),
    ],
    ids=["orbit-m", "analyze-p"],
)
def test_a_wide_modulus_or_a_large_prime_exits_three_at_once(argv, message):
    # orbit built p^m before it read the digit limit, and p was trial-divided up to its
    # square root: each ran for minutes, so they run in a child under a timeout
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "padyn", *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert (done.returncode, done.stderr) == (3, message + "\n")


@pytest.mark.parametrize(
    "map_text, labels",
    [
        ("x+1", ["Transitive", "Transitive", "Transitive"]),
        ("x^2+x+1", ["OneCycle(covers 1 of 2^1)", "OneCycle(covers 2 of 2^2)",
                     "OneCycle(covers 4 of 2^3)"]),
    ],
)
def test_cycle_label_says_transitive_only_for_a_full_cycle(capsys, map_text, labels):
    code, _ = run_command(["cycles", "--p", "2", "--map", map_text, "--kmax", "3"])
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  m=")]
    assert [row.split(", ")[1] for row in rows] == labels


def test_preimages_command():
    code, report = run_command(
        ["preimages", "--map", "sigma(x)", "--p", "2", "--kmax", "4"]
    )
    assert code == 0
    assert [row["k"] for row in report["census"]] == [2, 3, 4]
    assert all(row["uniform"] and row["expected"] == 2 for row in report["census"])


def test_plotset_command_writes_artifacts(tmp_path):
    csv = tmp_path / "points.csv"
    pgm = tmp_path / "raster.pgm"
    code, report = run_command(
        [
            "plotset", "--map", "sigma(x)", "--p", "2",
            "--kmax", "4", "--grid", "8",
            "--csv", str(csv), "--pgm", str(pgm),
        ]
    )
    assert code == 0
    assert csv.read_text().startswith("xnum,xden,ynum,yden\n")
    assert pgm.read_text().startswith("P2\n8 8\n1\n")
    assert report["plotset"]["points"] == len(csv.read_text().splitlines()) - 1


@pytest.fixture
def evaluators(monkeypatch):
    """The argument tuples of every column evaluator made, so of every table built."""
    made, evaluator = [], mapdsl._evaluator

    def counting_evaluator(*args):
        made.append(args)
        return evaluator(*args)

    monkeypatch.setattr(mapdsl, "_evaluator", counting_evaluator)
    return made


@pytest.mark.parametrize("subcommand", ["plotset", "analyze"])
def test_bad_grid_leaves_the_csv_file_alone(subcommand, tmp_path, capsys, evaluators):
    csv = tmp_path / "points.csv"
    argv = [subcommand, "--map", "sigma(x)", "--kmax", "3", "--grid", "0", "--csv", str(csv)]
    assert run_command(argv) == (2, None)
    assert "grid size must be >= 1" in capsys.readouterr().err
    assert not csv.exists()
    csv.write_text("kept\n")
    assert run_command(argv)[0] == 2
    assert csv.read_text() == "kept\n"
    assert evaluators == []  # the grid is checked before the coefficients and the table


@pytest.mark.parametrize("subcommand", ["plotset", "analyze"])
def test_grid_over_the_cap_leaves_the_csv_file_alone(subcommand, tmp_path, capsys, evaluators):
    # grid**2 is capped at DEFAULT_BUDGET (grid <= 2048) whatever --budget says
    csv = tmp_path / "points.csv"
    argv = [subcommand, "--map", "x", "--kmax", "3", "--grid", "2049", "--csv", str(csv)]
    for extra in ([], ["--budget", str(2**23)]):
        assert run_command(argv + extra) == (3, None)
        assert "grid size 2049 needs 4198401 cells; the cap is 4194304" in capsys.readouterr().err
        assert not csv.exists()
    csv.write_text("kept\n")
    assert run_command(argv)[0] == 3
    assert csv.read_text() == "kept\n"
    assert evaluators == []


# paths that --json, --csv and --pgm cannot write: the first two are refused before any
# work; a name too long for the file system passes that check and fails when it is opened
_UNWRITABLE = {
    "missing directory": lambda tmp: tmp / "missing" / "out",
    "directory": lambda tmp: tmp,
    "long name": lambda tmp: tmp / ("x" * 300),
}


@pytest.mark.parametrize("flag", ["json", "csv", "pgm"])
@pytest.mark.parametrize("kind", list(_UNWRITABLE))
def test_an_unwritable_output_is_a_config_error_naming_its_flag(flag, kind, tmp_path, capsys):
    path = _UNWRITABLE[kind](tmp_path)
    argv = ["analyze", "--map", "x^2+x+1", "--kmax", "3", "--grid", "8", f"--{flag}", str(path)]
    assert run_command(argv) == (2, None)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --{flag} {path}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["json", "csv", "pgm"])
def test_only_a_new_output_file_needs_a_writable_directory(monkeypatch, flag, tmp_path, capsys):
    # as a user other than root sees /dev: no file can be made there, yet /dev/null can be
    # written; the directory is read-only here and the existing file is writable or not
    kept = tmp_path / "kept"
    kept.write_text("kept\n")
    writable = {tmp_path: False, kept: True}
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: writable.get(Path(path), access(path, mode))
    )
    argv = ["analyze", "--map", "x^2+x+1", "--kmax", "3", "--grid", "8", f"--{flag}"]
    assert run_command(argv + [str(kept)])[0] == 0
    assert kept.read_text() != "kept\n"
    capsys.readouterr()
    writable[kept] = False
    for path in (tmp_path / "new", kept):
        assert run_command(argv + [str(path)]) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{flag} {path}") and "not writable" in err, err


@pytest.mark.parametrize("subcommand", ["plotset", "analyze"])
@pytest.mark.parametrize("flag", ["json", "csv", "pgm"])
def test_an_unwritable_output_builds_no_table(monkeypatch, subcommand, flag, tmp_path, capsys):
    calls, reduced_map = [], dynamics.reduced_map
    monkeypatch.setattr(dynamics, "reduced_map", lambda *args: calls.append(args) or reduced_map(*args))
    kept = {other: tmp_path / f"kept.{other}" for other in ("json", "csv", "pgm") if other != flag}
    argv = [subcommand, "--map", "x^2+x+1", "--kmax", "4", f"--{flag}", str(tmp_path / "no" / "out")]
    for other, path in kept.items():
        path.write_text("kept\n")
        argv += [f"--{other}", str(path)]
    assert run_command(argv) == (2, None)
    assert f"--{flag}" in capsys.readouterr().err
    assert calls == []
    assert all(path.read_text() == "kept\n" for path in kept.values())  # nor truncated


# the (domain, codomain) digits of the one table each oracle subcommand builds at (p, n, kmax)
TABLE_SHAPES = {
    "preimages": lambda n, k: (n * k, n * (k - 1)),
    "cycles": lambda n, k: (n * k, n * k),
    "plotset": lambda n, k: (n + k, k),
    "analyze": lambda n, k: (max(n * k, n + k), n * k),
}


@pytest.mark.parametrize("subcommand", list(TABLE_SHAPES))
@pytest.mark.parametrize("p, n, kmax", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 4), (3, 2, 2), (5, 3, 1)])
def test_each_oracle_subcommand_builds_one_table(monkeypatch, subcommand, p, n, kmax):
    calls, reduced_map = [], dynamics.reduced_map

    def recording_reduced_map(e, *args):  # args: p, domain and codomain digits, budget
        calls.append(args)
        return reduced_map(e, *args)

    monkeypatch.setattr(dynamics, "reduced_map", recording_reduced_map)
    argv = [subcommand, "--p", str(p), "--n", str(n), "--kmax", str(kmax), "--mmax", "4"]
    code, report = run_command(argv + ["--grid", "4", "--map", "x^2+x+1"])
    assert code == 0
    if subcommand == "preimages" and kmax == 1:  # no census row, so no table
        assert calls == [] and report["census"] == []
    else:
        assert calls == [(p, *TABLE_SHAPES[subcommand](n, kmax), None)]


# --- automaton subcommands ---------------------------------------------------------


def test_automaton_run(tmp_path, capsys):
    aut = tmp_path / "shift.aut"
    aut.write_text(SHIFT1_FILE)
    code, report = run_command(
        ["automaton", "run", "--file", str(aut), "--word", "1101"]
    )
    assert code == 0
    assert report["verdicts"]["run"]["output"] == "101"
    assert report["verdicts"]["nondegenerate"]["kind"] == "nondegenerate"


def test_automaton_run_names_a_bad_word_letter(tmp_path, capsys):
    aut = tmp_path / "shift.aut"
    aut.write_text(SHIFT1_FILE)
    code, report = run_command(["automaton", "run", "--file", str(aut), "--word", "1a"])
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "--word" in err and "'a'" in err


def test_automaton_check(tmp_path):
    aut = tmp_path / "shift.aut"
    aut.write_text(SHIFT1_FILE)
    code, report = run_command(["automaton", "check", "--file", str(aut)])
    assert code == 0
    assert report["verdicts"]["synchronous"]["kind"] == "asynchronous"
    assert report["verdicts"]["lookahead"] == {"kind": "bounded", "deficit": 1}


def test_degenerate_witness_is_the_same_in_every_process(tmp_path):
    # a silent ring a -> b -> c -> d -> a; the walk follows the accessible states from the
    # initial one, whatever the string hash seed
    aut = tmp_path / "ring.aut"
    rules = "".join(f"{s} {d} -> {t} / -\n" for s, t in zip("abcd", "bcda") for d in (0, 1))
    aut.write_text("p 2\nstates a b c d\ninitial a\n" + rules)
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    argv = [sys.executable, "-m", "padyn", "automaton", "check", "--file", str(aut), "--json", str(out)]
    reports = []
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed))
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        report = read_json(out)
        del report["timing"]
        reports.append(report)
    assert reports == [reports[0]] * 4
    assert reports[0]["verdicts"]["nondegenerate"] == {"kind": "degenerate_at", "witness": "a"}


def test_automaton_file_with_missing_row(tmp_path, capsys):
    aut = tmp_path / "bad.aut"
    aut.write_text("p 2\nstates s\ninitial s\ns 0 -> s / 0\n")
    code, _ = run_command(["automaton", "check", "--file", str(aut)])
    assert code == 2
    assert "missing transition" in capsys.readouterr().err


def test_map_from_automaton_file(tmp_path):
    aut = tmp_path / "shift.aut"
    aut.write_text(SHIFT1_FILE)
    code, report = run_command(
        ["cycles", "--file", str(aut), "--p", "2", "--kmax", "3"]
    )
    assert code == 0
    assert all(row["unique_cycle"] for row in report["cycles"])


# --- fuzz ---------------------------------------------------------------------

_COMMANDS = [
    ["analyze"], ["mahler"], *(["check", which] for which in cli._CHECKS), ["preimages"],
    ["cycles"], ["orbit"], ["plotset"], ["automaton", "run"], ["automaton", "check"],
]


@pytest.fixture(scope="module")
def shift_files(tmp_path_factory):
    """A one-letter shift machine per prime, for the automata in EXPRESSIONS and --file."""
    folder = tmp_path_factory.mktemp("shifts")
    files = {}
    for p in (2, 3, 5):
        rules = [f"q0 {d} -> q1 / -" for d in range(p)] + [f"q1 {d} -> q1 / {d}" for d in range(p)]
        files[p] = folder / f"shift1-{p}.aut"
        files[p].write_text("\n".join([f"p {p}", "states q0 q1", "initial q0", *rules, ""]))
    return files


@st.composite
def _argv(draw, shift_files, out):
    p = draw(st.sampled_from(sorted(EXPRESSIONS)))
    command = draw(st.sampled_from(_COMMANDS))
    maps = st.one_of(
        EXPRESSIONS[p].map(lambda e: to_text(e).replace("<shift1>", str(shift_files[p]))),
        st.integers(1, 3000).map(_sum),
        st.integers(1, 3000).map(_signs),
        st.integers(1, 300).map(_brackets),
    )
    small, wide = st.integers(1, 3), st.integers(10000, 20000)
    argv = [*command, "--p", str(p), "--n", str(draw(st.one_of(st.integers(1, 2), wide)))]
    argv += ["--kmax", str(draw(st.one_of(small, wide))), "--mmax", str(draw(st.integers(1, 16)))]
    argv += ["--K", str(draw(st.integers(1, 16))), "--grid", str(draw(st.integers(1, 16)))]
    if command[0] == "automaton":
        argv += ["--file", str(shift_files[p]), "--word", draw(st.text("0123456789", max_size=6))]
    else:
        argv.append(f"--map={draw(maps)}")
    if command[0] == "orbit":
        argv += ["--m", str(draw(st.one_of(st.integers(1, 8), wide)))]
        argv += ["--x0", str(draw(st.integers(0, 9))), "--steps", str(draw(st.integers(0, 12)))]
    for flag in ("json", "csv", "pgm"):  # absent, fresh, in a missing directory, a directory
        paths = [None, out / f"out.{flag}", out / "missing" / f"out.{flag}", out]
        if (path := draw(st.sampled_from(paths))) is not None:
            argv += [f"--{flag}", str(path)]
    return argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_command_ends_with_a_report_or_a_padyn_error(shift_files, tmp_path_factory, data):
    # any argv ends in exit 0, 2 or 3, with no exception escaping and no Python-internal
    # error text: long sums, deep signs, 300 brackets and tables of 2^20000 entries included
    argv = data.draw(_argv(shift_files, tmp_path_factory.getbasetemp()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code, _ = run_command(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "int_max_str_digits" not in err.getvalue() and "Traceback" not in err.getvalue()
