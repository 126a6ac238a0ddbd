"""Command-line front end.

One analysis per process: parse the map (or automaton), compute Mahler
coefficients, run the coefficient-based theorem checks, corroborate with
the brute-force residue-ring oracles, and emit a text report plus an
optional JSON/CSV/PGM dump.  A map failing a theorem condition is still a
successful analysis; only configuration mistakes (exit 2) and blown
enumeration or precision budgets (exit 3) are process failures.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager

from . import automata, dynamics, mahler
from .errors import BudgetError, PadynError, PrecisionError, UnboundedLookaheadError
from .mapdsl import AutoApply, Var, _load_automaton, parse_map
from .padic import _check_prime

__all__ = ["main", "run_command", "render_report"]

# every theorem check by its CLI name; analyze runs all but the last, "bernoulli"
_CHECKS = {
    "lipschitz-mp": lambda c, args: mahler.check_lipschitz_mp(c),
    "lipschitz-ergodic": lambda c, args: mahler.check_lipschitz_ergodic(c, args.strict_m1),
    "cs": lambda c, args: mahler.check_complex_shift_bound(c, args.n),
    "cs-mp": lambda c, args: mahler.check_cs_mp(c, args.n),
    "cs-ergodic": lambda c, args: mahler.check_cs_ergodic(c, args.n),
    "bernoulli": lambda c, args: mahler.check_bernoulli_properties(c, args.n),
}


@functools.cache  # built on first use, then shared: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=2, help="prime alphabet size")
    common.add_argument("--K", type=int, default=16, help="working precision in digits")
    common.add_argument("--map", help="map expression in the DSL")
    common.add_argument("--file", help="automaton file defining the map")
    common.add_argument("--n", type=int, default=1, help="complex-shift level")
    common.add_argument("--mmax", type=int, default=16, help="highest Mahler index")
    common.add_argument("--kmax", type=int, default=6, help="oracle depth")
    common.add_argument("--grid", type=int, default=64, help="box-counting grid size")
    common.add_argument("--budget", type=int, help="enumeration budget (table entries)")
    common.add_argument("--json", help="write the JSON report to this path")
    common.add_argument("--csv", help="write the plot-point CSV to this path")
    common.add_argument("--pgm", help="write the raster PGM to this path")
    common.add_argument(
        "--strict-m1",
        action="store_true",
        dest="strict_m1",
        help="apply the ergodicity tail clause from m = 1 (comparison mode)",
    )

    parser = argparse.ArgumentParser(prog="padyn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("analyze", parents=[common], help="run the whole pipeline")
    sub.add_parser("mahler", parents=[common], help="Mahler coefficient table")
    check = sub.add_parser("check", parents=[common], help="one theorem check")
    check.add_argument("which", choices=_CHECKS)
    sub.add_parser("preimages", parents=[common], help="preimage censuses per level")
    sub.add_parser("cycles", parents=[common], help="cycle reports per level")
    orbit = sub.add_parser("orbit", parents=[common], help="iterate the padded endomap")
    orbit.add_argument("--x0", type=int, required=True, help="start point")
    orbit.add_argument("--steps", type=int, default=16, help="iteration count")
    orbit.add_argument("--m", type=int, default=8, help="modulus digit count")
    sub.add_parser("plotset", parents=[common], help="plot set and box counting")
    auto = sub.add_parser("automaton", parents=[common], help="inspect an automaton file")
    auto.add_argument("action", choices=("run", "check"))
    auto.add_argument("--word", default="", help="input word for 'run' (digit string)")
    return parser


def _resolve_budget(args) -> int | None:
    """--budget, else PADYN_BUDGET; it must be a positive integer."""
    source, budget = "--budget", args.budget
    if budget is None:
        source, text = "PADYN_BUDGET", os.environ.get("PADYN_BUDGET")
        if not text:
            return None
        try:
            budget = int(text)
        except ValueError:
            raise ValueError(f"PADYN_BUDGET must be an integer, got {text!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be >= 1, got {budget}")
    return budget


_ECHOED = (
    "subcommand", "p", "K", "map", "file", "n", "mmax", "kmax", "grid", "budget", "strict_m1",
    "json", "csv", "pgm",
)


def _config_echo(args, budget) -> dict:
    cfg = {key: getattr(args, key) for key in _ECHOED}
    cfg["budget"] = budget
    for extra in ("which", "action", "word", "x0", "steps", "m"):
        if hasattr(args, extra):
            cfg[extra] = getattr(args, extra)
    return cfg


def _get_expr(args):
    if (args.map is None) == (args.file is None):
        raise ValueError("exactly one of --map and --file is required")
    if args.map is not None:
        return parse_map(args.map)
    machine = _load_automaton(args.file)
    return AutoApply.checked(args.file, machine, Var())


def _printable(values, what: str) -> None:
    """A report's integers print in decimal: one past the digits str() converts is exit 3."""
    if (limit := sys.get_int_max_str_digits()) and (top := max(values)) >= _ten_to(limit):
        raise BudgetError(f"{what} reach {top.bit_length()} bits, past the {limit} digits a report prints")


_ten_to = functools.cache((10).__pow__)  # 10**limit is built once per limit, not once per report


def _coefficient_rows(coeffs: mahler.MahlerCoeffs) -> list[dict]:
    _printable(coeffs.residues, "Mahler coefficients mod p^K")
    # the text of each distinct valuation is made once, from an index that has it, keyed by the
    # int; "signed" is MahlerCoeffs.signed(m), the balanced representative, inline
    text = {v: str(coeffs.valuation(m)) for v, m in {v: m for m, v in enumerate(coeffs.orders)}.items()}
    q = coeffs.modulus
    return [
        {"m": m, "residue": r, "signed": r if 2 * r <= q else r - q, "valuation": text[v]}
        for m, (r, v) in enumerate(zip(coeffs.residues, coeffs.orders))
    ]


def _census_section(top: dynamics.ReducedLevelMap, args) -> list[dict]:
    rows, n = [], args.n
    for k in range(2, args.kmax + 1):  # level k counted off the table, Z/p^(n k) -> Z/p^(n (k - 1))
        census = dynamics._census(top.table, top.p ** (n * k), top.p ** (n * (k - 1)))
        rows.append(
            {
                "n": n,
                "k": k,
                "domain_digits": n * k,
                "codomain_digits": n * (k - 1),
                "expected": census.expected,
                "uniform": census.uniform,
                "verdict": str(census),
                "witness_point": census.witness_point,
                "witness_pair": list(census.witness_pair) if census.witness_pair else None,
                "counts": list(census.counts) if len(census.counts) <= 256 else None,
            }
        )
    return rows


def _cycles_section(top: dynamics.ReducedLevelMap, args) -> list[dict]:
    rows = []
    for k in range(1, args.kmax + 1):  # level k walked off the table, Z/p^(n k) -> Z/p^(n k)
        m = args.n * k
        report = dynamics._cycles(top.table, top.p**m)
        small = sum(len(c) for c in report.cycles) <= 256
        rows.append(
            {
                "kind": "cycles",
                "m": m,
                "cycle_count": len(report.cycles),
                "cycle_lengths": list(report.cycle_lengths),
                "unique_cycle": report.unique_cycle,
                "distance_histogram": {str(d): c for d, c in report.distance_histogram.items()},
                "cycles": [list(c) for c in report.cycles] if small else None,
            }
        )
    return rows


def _check_outputs(args, *flags: str) -> None:
    """Each of the output paths given must name a writable file, or a new one in a writable
    directory (so /dev/null passes).  Checked before any work, without creating or
    truncating the file."""
    for flag in flags:
        if path := getattr(args, flag):
            folder = os.path.dirname(path) or "."
            if os.path.isdir(path):
                raise ValueError(f"--{flag} {path} is a directory")
            if os.path.exists(path):
                if not os.access(path, os.W_OK):
                    raise ValueError(f"--{flag} {path} is not writable")
            elif not os.path.isdir(folder):
                raise ValueError(f"--{flag} {path}: no directory {folder}")
            elif not os.access(folder, os.W_OK | os.X_OK):
                raise ValueError(f"--{flag} {path}: the directory {folder} is not writable")


@contextmanager
def _output(args, flag: str):
    """The --flag file open for writing, or None without the flag; an OSError on it is a
    configuration error that names the flag."""
    if not (path := getattr(args, flag)):
        yield None
        return
    try:
        with open(path, "w") as file:
            yield file
    except OSError as exc:
        raise ValueError(f"--{flag} {path}: {exc.strerror or exc}") from exc


def _plotset_section(top: dynamics.ReducedLevelMap, args) -> dict:
    """The plot-set summary; also writes the --csv and --pgm files."""
    ps = dynamics.PlotSet(top, args.n, range(1, args.kmax + 1))
    with _output(args, "csv") as csv:
        bc = dynamics.box_count(ps, args.grid, csv)
    if args.pgm:
        text = dynamics.to_pgm(bc)
        with _output(args, "pgm") as pgm:
            pgm.write(text)
    return {
        "n": args.n,
        "k_max": args.kmax,
        "points": bc.points,
        "per_level": [{"k": k, "points": args.p ** (args.n + k)} for k in ps.k_values],
        "box": [
            {
                "grid": bc.grid,
                "covered": bc.covered,
                "cells": bc.grid * bc.grid,
                "fraction": str(bc.fraction),
            }
        ],
    }


# Each oracle section: the (domain, codomain) digits of the table its rows read at (n, kmax),
# and the function that reads them off that table
_ORACLES = {
    "census": (lambda n, k: (n * k, n * (k - 1)), _census_section),
    "cycles": (lambda n, k: (n * k, n * k), _cycles_section),
    "plotset": (lambda n, k: (n + k, k), _plotset_section),
}
# the report sections each map subcommand fills, in the order it computes them
_SECTIONS = {
    "mahler": ("coefficients",),
    "check": ("coefficients", "verdicts"),
    "preimages": ("census",),
    "cycles": ("cycles",),
    "plotset": ("plotset",),
    "analyze": ("coefficients", "verdicts", *_ORACLES),
}


def _dispatch(args, budget) -> dict:
    _check_prime(args.p)
    if min(args.K, args.mmax, args.kmax, args.n) < 1:
        raise ValueError("K, mmax, kmax and n must all be >= 1")
    _check_outputs(args, "json")
    report = {
        "config": _config_echo(args, budget),
        "coefficients": [],
        "verdicts": {},
        "census": [],
        "cycles": [],
        "plotset": None,
        "timing": None,
    }

    if args.subcommand == "automaton":
        if not args.file:
            raise ValueError("the automaton subcommand requires --file")
        machine = _load_automaton(args.file)
        verdict = automata.check_nondegenerate(machine)
        report["verdicts"]["nondegenerate"] = {
            "kind": "nondegenerate" if verdict.nondegenerate else "degenerate_at",
            "witness": verdict.witness,
        }
        report["verdicts"]["synchronous"] = {
            "kind": "synchronous" if machine.synchronous else "asynchronous"
        }
        if args.action == "check":
            if verdict.nondegenerate:
                try:
                    deficit = automata.max_output_deficit(machine)
                    report["verdicts"]["lookahead"] = {"kind": "bounded", "deficit": deficit}
                except UnboundedLookaheadError:
                    report["verdicts"]["lookahead"] = {"kind": "unbounded", "deficit": None}
        else:
            if bad := [c for c in args.word if c not in "0123456789"]:
                raise ValueError(f"--word must be a digit string; {bad[0]!r} is not a digit")
            word = [int(c) for c in args.word]
            trace = automata.run(machine, word)
            report["verdicts"]["run"] = {
                "kind": "run",
                "input": args.word,
                "output": "".join(str(d) for d in trace.output),
                "states": list(trace.states),
            }
        return report

    expr = _get_expr(args)

    if args.subcommand == "orbit":
        result = dynamics.orbit(expr, args.p, args.x0, args.steps, args.m, budget)
        _printable(result.points, "orbit points mod p^m")
        report["cycles"].append(
            {
                "kind": "orbit",
                "m": args.m,
                "x0": args.x0,
                "points": list(result.points),
                "cycle_start": result.cycle_start,
                "cycle_length": result.cycle_length,
            }
        )
        return report

    sections = _SECTIONS[args.subcommand]
    if "plotset" in sections:  # before the coefficients, any table and --csv
        dynamics._check_grid(args.grid)
        _check_outputs(args, "csv", "pgm")
    if "coefficients" in sections:
        coeffs = mahler.mahler_coeffs(expr, args.p, args.mmax, args.K, budget)
        report["coefficients"] = _coefficient_rows(coeffs)
    if "verdicts" in sections:
        checks = [args.which] if args.subcommand == "check" else list(_CHECKS)[:-1]
        for which in checks:
            report["verdicts"][which.replace("-", "_")] = _CHECKS[which](coeffs, args).to_json()
    # the oracle sections read one table, on the largest domain and codomain they need, and
    # each row reads its level off it; a codomain of 0 (preimages at kmax 1) leaves no row to read
    oracles = [name for name in sections if name in _ORACLES]
    shapes = [_ORACLES[name][0](args.n, args.kmax) for name in oracles]
    domain, codomain = map(max, zip((0, 0), *shapes))  # (0, 0) without an oracle section
    if codomain:
        top = dynamics.reduced_map(expr, args.p, domain, codomain, budget)
        for name in oracles:
            report[name] = _ORACLES[name][1](top, args)
    return report


def _verdict_line(name: str, data: dict) -> str:
    kind = data.get("kind", "")
    if kind in ("satisfied_up_to", "violated_at", "undecidable_at"):
        return f"  {name}: {mahler.Verdict(**data)}"
    text = ", ".join(f"{k}={v}" for k, v in data.items() if k != "kind" and v is not None)
    return f"  {name}: {kind}" + (f" ({text})" if text else "")


def _cycle_label(row: dict, p: int) -> str:
    """Transitive only when the one cycle covers all of Z/p**m."""
    if not row["unique_cycle"]:
        return "MultipleCycles"
    if row["cycle_lengths"][0] == p ** row["m"]:
        return "Transitive"
    return f"OneCycle(covers {row['cycle_lengths'][0]} of {p}^{row['m']})"


# JSON text of each scalar type, as json.dumps writes it; floats (the timing) go to json.dumps
_string = json.encoder.encode_basestring_ascii  # a TypeError for anything but a str
_SCALARS = {str: _string, int: int.__repr__, float: json.dumps,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json(v, indent: str = "\n") -> str:
    """``json.dumps(v, indent=2, sort_keys=True)``, byte for byte, for str-keyed dicts, lists
    and the scalars above; any other type, or a key that is not a str, is a TypeError.  With
    ``indent``, json.dumps runs its pure-Python encoder; this writer joins whole levels."""
    if write := _SCALARS.get(type(v)):
        return write(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items = [  # a scalar value is written here, without a call of its own
            f"{_string(k)}: {write(x) if (write := _SCALARS.get(type(x))) else _json(x, inner)}"
            for k, x in sorted(v.items())
        ]
        return "{" + inner + f",{inner}".join(items) + indent + "}" if v else "{}"
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if set(map(type, v)) == {int}:  # a list of ints (no bools), the long lists of a report, in one join
        items = map(int.__repr__, v)
    elif (items := _rows(v, inner)) is None:
        items = [_json(x, inner) for x in v]
    return "[" + inner + f",{inner}".join(items) + indent + "]" if v else "[]"


def _rows(rows: list, indent: str) -> list[str] | None:
    """The JSON texts of two or more dicts with one set of keys, a report's rows, or None for any
    other list: one ``%`` template of the sorted keys, filled from values written a column at a
    time, a column of one scalar type in one ``map``.  A key that is not a str is a TypeError."""
    keys = rows[0].keys() if len(rows) > 1 and isinstance(rows[0], dict) else ()
    if not keys or any(not isinstance(row, dict) or row.keys() != keys for row in rows):
        return None
    keys, inner = sorted(keys), indent + "  "
    template = "{" + ",".join(f"{inner}{_string(k).replace('%', '%%')}: %s" for k in keys) + indent + "}"
    columns = []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        columns.append(map(write, column) if write else [_json(x, inner) for x in column])
    return [template % values for values in zip(*columns)]


def render_report(report: dict, fmt: str = "text") -> str:
    """Serialize a report; JSON output is byte-deterministic, and byte for byte
    ``json.dumps(report, indent=2, sort_keys=True)`` plus a newline."""
    if fmt == "json":
        return _json(report) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    cfg = report["config"]
    shown = " ".join(
        f"{k}={v!r}" for k, v in cfg.items() if v is not None and v is not False
    )
    lines = [f"padyn {cfg.get('subcommand', '?')}", f"config: {shown}"]
    if report["coefficients"]:
        p, K = cfg["p"], cfg["K"]
        lines.append(f"coefficients (signed representatives mod {p}^{K}):")
        lines += [  # str(i).ljust(w) is f"{i:<wd}" for an int i, without the format-spec parse
            f"  a_{str(row['m']).ljust(4)} = {str(row['signed']).ljust(24)} [{row['valuation']}]"
            for row in report["coefficients"]
        ]
    if report["verdicts"]:
        lines.append("verdicts:")
        for name, data in report["verdicts"].items():
            lines.append(_verdict_line(name, data))
    if report["census"]:
        lines.append("preimage census:")
        for row in report["census"]:
            lines.append(
                f"  k={row['k']}: Z/{cfg['p']}^{row['domain_digits']} -> "
                f"Z/{cfg['p']}^{row['codomain_digits']}: {row['verdict']}"
            )
    if report["cycles"]:
        lines.append("cycle structure (zero-padded lift):")
        for row in report["cycles"]:
            if row.get("kind") == "orbit":
                flag = (
                    f"enters a {row['cycle_length']}-cycle at step {row['cycle_start']}"
                    if row["cycle_start"] is not None
                    else "no repeat within the horizon"
                )
                lines.append(f"  orbit of {row['x0']} mod {cfg['p']}^{row['m']}: {flag}")
                lines.append(f"    {row['points']}")
            else:
                detail = (
                    f"cycles {row['cycles']}"
                    if row["cycles"] is not None and row["cycle_count"] <= 8
                    else f"lengths {row['cycle_lengths'][:8]}"
                )
                verdict = _cycle_label(row, cfg["p"])
                lines.append(
                    f"  m={row['m']}: {row['cycle_count']} cycle(s), {verdict}, {detail}"
                )
    if report["plotset"]:
        ps = report["plotset"]
        lines.append(
            f"plot set: k=1..{ps['k_max']}, {ps['points']} distinct points"
        )
        for box in ps["box"]:
            lines.append(
                f"  grid {box['grid']}: {box['covered']}/{box['cells']} cells covered"
                f" ({box['fraction']})"
            )
    if report["timing"]:
        lines.append(f"elapsed: {report['timing']['seconds']}s")
    return "\n".join(lines) + "\n"


def run_command(argv) -> tuple[int, dict | None]:
    """Run one CLI invocation; returns (exit code, report or None)."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    started = time.perf_counter()
    try:
        budget = _resolve_budget(args)
        report = _dispatch(args, budget)
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
        text = render_report(report, "text")
        if args.json:  # before the text report goes out, so a failed write ends in an error
            with _output(args, "json") as out:
                out.write(render_report(report, "json"))
    except (PadynError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, (BudgetError, PrecisionError)) else 2), None
    sys.stdout.write(text)
    return 0, report


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:])[0])
