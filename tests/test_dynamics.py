import io
import tracemalloc
from array import array
from fractions import Fraction
from math import gcd
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS
from test_kernel import EXPRESSIONS

from padyn import cli, dynamics
from padyn.dynamics import (
    BoxCount,
    PlotSet,
    ReducedLevelMap,
    accumulate_plot,
    box_count,
    cycle_report,
    level_map,
    orbit,
    padded_endomap,
    preimage_census,
    reduced_map,
    to_pgm,
)
from padyn.errors import BudgetError, PadynError
from padyn.mapdsl import eval_map, lookahead_bound, parse_map, tabulate
from padyn.padic import PadicApprox


def to_csv(ps: PlotSet) -> str:
    """The CSV point dump ``box_count`` writes, as a string."""
    out = io.StringIO()
    box_count(ps, 1, out)
    return out.getvalue()


def plot_numerators(ps: PlotSet) -> frozenset[tuple[int, int]]:
    """Every level scaled by p**(kmax-k) onto the common denominators and unioned;
    at fixed denominators the integer pairs sort as the rationals do."""
    p, top = ps.m.p, ps.denominators[1]
    return frozenset(
        (x * (top // p**k), y * (top // p**k)) for k, pts in ps.level_numerators.items() for x, y in pts
    )


def plot_points(ps: PlotSet) -> frozenset[tuple[Fraction, Fraction]]:
    x_den, y_den = ps.denominators
    return frozenset((Fraction(x, x_den), Fraction(y, y_den)) for x, y in plot_numerators(ps))


def covered_cells(bc: BoxCount) -> frozenset[tuple[int, int]]:
    return frozenset(divmod(c, bc.grid)[::-1] for c, v in enumerate(bc.cells) if v)


# --- level maps ---------------------------------------------------------------


def test_level_map_shift():
    lm = level_map(parse_map("sigma(x)"), 2, 1, 2)
    assert tuple(lm.table) == (0, 0, 1, 1)
    assert (lm.domain_digits, lm.codomain_digits) == (2, 1)


def test_level_map_increment():
    assert tuple(level_map(parse_map("x+1"), 2, 1, 2).table) == (1, 0, 1, 0)


def test_level_map_binomial():
    lm = level_map(parse_map("C(x,2)"), 2, 1, 3)
    assert tuple(lm.table) == (0, 0, 1, 3, 2, 2, 3, 1)


def test_level_map_needs_census_depth():
    with pytest.raises(ValueError):
        level_map(parse_map("x"), 2, 1, 1)


def test_level_map_budget():
    with pytest.raises(BudgetError):
        level_map(parse_map("x"), 2, 1, 8, budget=10)


@pytest.mark.parametrize("p, top_digits", [(2, 6), (3, 4)])
def test_level_prefix_matches_direct_evaluation(corpus_texts, p, top_digits):
    # the level Z/p^d -> Z/p^c of a table is its first p**d entries mod p**c;
    # reference: each residue evaluated on its own, at L + domain digits
    for text in corpus_texts:
        e = parse_map(text)
        bound = lookahead_bound(e, p)
        top = reduced_map(e, p, top_digits, top_digits - 1)
        for d in range(1, top_digits + 1):
            for c in range(1, min(d, top_digits - 1) + 1):
                direct = tuple(
                    eval_map(e, PadicApprox(p, d + bound, i)).residue % p**c
                    for i in range(p**d)
                )
                assert tuple(v % p**c for v in top.table[: p**d]) == direct, (text, d, c)


@pytest.mark.parametrize(
    "table, message",
    [
        ((0, 1, 2), "table length"),
        ((0, 1, 2, 4), "out of codomain range"),
        ((0, -1, 2, 3), "out of codomain range"),
    ],
)
def test_constructor_checks_length_and_range(table, message):
    # reduced_map skips the range scan; a table built directly keeps both checks
    with pytest.raises(ValueError, match=message):
        ReducedLevelMap(2, 2, 2, table)
    assert ReducedLevelMap(2, 2, 2, (0, 1, 2, 3)).table == (0, 1, 2, 3)


# --- tables as machine words -------------------------------------------------

# codomain digits at p = 2 -> the itemsize of the table (None: a tuple, past 64 bits)
WORD_SIZES = [(8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8), (65, None)]


@pytest.mark.parametrize("digits, itemsize", WORD_SIZES)
def test_tables_take_the_narrowest_word(digits, itemsize):
    # -x-1 is p**digits - 1 at x = 0: every table holds its largest value
    e = parse_map("-x-1")
    m = reduced_map(e, 2, 3, digits)
    if itemsize is None:
        assert type(m.table) is tuple
    else:
        assert isinstance(m.table, array) and m.table.itemsize == itemsize
    assert tuple(m.table) == tabulate(e, 2, 8, digits)
    assert m.table[0] == 2**digits - 1


def test_a_word_holds_the_largest_value_exactly():
    # p**1 - 1 = 256 = 2**8 at p = 257: one past what a byte holds
    m = reduced_map(parse_map("-x-1"), 257, 1, 1)
    assert m.table.itemsize == 2 and m.table[0] == 256
    assert tuple(m.table) == tabulate(parse_map("-x-1"), 257, 257, 1)


def test_array_tables_compare_by_values_and_do_not_hash():
    m = reduced_map(parse_map("x+1"), 2, 2, 2)
    assert m == ReducedLevelMap(2, 2, 2, array("Q", [1, 2, 3, 0]))
    assert m != ReducedLevelMap(2, 2, 2, (1, 2, 3, 0))
    with pytest.raises(TypeError):
        hash(m)
    # a table given as a tuple is kept, and hashes as before
    t = ReducedLevelMap(2, 2, 2, (1, 2, 3, 0))
    assert type(t.table) is tuple and hash(t) == hash(ReducedLevelMap(2, 2, 2, (1, 2, 3, 0)))


def test_reduced_map_memory_is_its_words():
    # 2^16 values below 2^16 take 2 bytes each; the slack is one block's columns of ints
    e = parse_map("x^2+x+1")
    tracemalloc.start()
    try:
        m = reduced_map(e, 2, 16, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16 * 2 + 2**20, peak
    assert m.table.itemsize == 2


def test_cycle_walk_memory_per_node():
    # beyond the report it returns, the walk holds a state byte and a distance word per
    # node and its current path; a list each for state and distance took 16 bytes a node
    m = reduced_map(parse_map("x^2+x+1"), 2, 16, 16)
    tracemalloc.start()
    try:
        report = cycle_report(m)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.cycle_lengths == (2**15,)
    assert peak - kept < 12 * 2**16, (peak, kept)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_array_and_tuple_tables_give_the_same_oracles(data):
    # the analyze table and its tuple twin: the same census rows, cycles and plot bytes; each
    # row, read off the table in place, is the oracle of its level's own table
    p = data.draw(st.sampled_from(sorted(EXPRESSIONS)))
    e = data.draw(EXPRESSIONS[p])
    n = data.draw(st.integers(1, 2))
    k_max = data.draw(st.integers(1, {2: 4, 3: 3, 5: 2}[p] // n))
    grid = data.draw(st.sampled_from([1, 5, p**k_max]))
    try:
        top = reduced_map(e, p, max(n * k_max, n + k_max), n * k_max)
    except PadynError:
        return
    twin = ReducedLevelMap(p, top.domain_digits, top.codomain_digits, tuple(top.table))
    assert isinstance(top.table, array)
    args = SimpleNamespace(n=n, kmax=k_max)
    census, cycles = cli._census_section(top, args), cli._cycles_section(top, args)
    assert (census, cycles) == (cli._census_section(twin, args), cli._cycles_section(twin, args))
    assert [row["k"] for row in census] == list(range(2, k_max + 1))
    for row in census:
        alone = preimage_census(level_map(e, p, n, row["k"]))
        assert (row["expected"], row["verdict"], row["witness_point"]) == (
            alone.expected, str(alone), alone.witness_point
        )
        assert row["witness_pair"] == (list(alone.witness_pair) if alone.witness_pair else None)
        assert row["counts"] == (list(alone.counts) if len(alone.counts) <= 256 else None)
    assert [row["m"] for row in cycles] == [n * k for k in range(1, k_max + 1)]
    for row in cycles:
        alone = cycle_report(padded_endomap(e, p, row["m"]))
        assert row["cycle_lengths"] == list(alone.cycle_lengths)
        assert row["distance_histogram"] == {str(d): c for d, c in alone.distance_histogram.items()}
        assert row["cycles"] == ([list(c) for c in alone.cycles] if sum(alone.cycle_lengths) <= 256 else None)
    plots = []
    for m in (top, twin):
        out = io.StringIO()
        bc = box_count(PlotSet(m, n, range(1, k_max + 1)), grid, out)
        plots.append((bc, out.getvalue(), to_pgm(bc)))
    assert plots[0] == plots[1]


@pytest.mark.parametrize("p", [2, 3])
def test_cycle_report_refuses_a_census_table(p):
    # the form follows the digit counts, so a directly built Z/p^2 -> Z/p
    # table is a census and has no cycles to report
    m = ReducedLevelMap(p, 2, 1, tuple(i % p for i in range(p**2)))
    assert m.form == "census"
    assert ReducedLevelMap(p, 1, 1, tuple(range(p))).form == "endomap"
    with pytest.raises(ValueError, match="endomap"):
        cycle_report(m)
    with pytest.raises(TypeError):
        ReducedLevelMap(p, 2, 1, m.table, "endomap")


# --- censuses ---------------------------------------------------------------


def test_census_shift_uniform():
    census = preimage_census(level_map(parse_map("sigma(x)"), 2, 1, 3))
    assert census.uniform and census.expected == 2
    assert census.counts == (2, 2, 2, 2)


def test_census_binomial_uniform():
    census = preimage_census(level_map(parse_map("C(x,2)"), 2, 1, 3))
    assert census.uniform and census.counts == (2, 2, 2, 2)


def test_census_square_endomap_not_bijective():
    census = preimage_census(padded_endomap(parse_map("x^2"), 2, 2))
    assert not census.uniform
    assert census.expected == 1
    assert census.witness_pair == (0, 2)  # 0^2 = 2^2 (mod 4)


def test_census_mass(corpus_texts):
    for text in corpus_texts:
        lm = level_map(parse_map(text), 2, 1, 4)
        census = preimage_census(lm)
        assert sum(census.counts) == 2**4


def test_level_compatibility_for_zero_lookahead():
    for text in ("x", "x+1", "3*x+1", "x^2", "x^2+x+1"):
        e = parse_map(text)
        for k in (2, 3, 4):
            coarse = level_map(e, 2, 1, k).table
            fine = level_map(e, 2, 1, k + 1).table
            for i in range(2**k):
                assert coarse[i] == fine[i] % 2 ** (k - 1)


# --- endomaps and cycles ---------------------------------------------------------


def test_padded_endomap_examples():
    assert tuple(padded_endomap(parse_map("x+1"), 2, 2).table) == (1, 2, 3, 0)
    assert tuple(padded_endomap(parse_map("C(x,2)"), 2, 2).table) == (0, 0, 1, 3)
    assert tuple(padded_endomap(parse_map("sigma(x)"), 2, 2).table) == (0, 0, 1, 1)


def test_cycle_report_full_cycle():
    report = cycle_report(padded_endomap(parse_map("x+1"), 2, 2))
    assert report.unique_cycle
    assert report.cycles == ((0, 1, 2, 3),)
    assert report.distance_histogram == {0: 4}


def test_cycle_report_two_fixed_points():
    report = cycle_report(padded_endomap(parse_map("C(x,2)"), 2, 2))
    assert not report.unique_cycle
    assert sorted(report.cycles) == [(0,), (3,)]


def test_cycle_report_shift():
    report = cycle_report(padded_endomap(parse_map("sigma(x)"), 2, 2))
    assert report.unique_cycle and report.cycles == ((0,),)
    assert report.distance_histogram == {0: 1, 1: 1, 2: 2}


def test_cycle_report_partition(corpus_texts):
    for text in corpus_texts:
        report = cycle_report(padded_endomap(parse_map(text), 2, 5))
        assert sum(report.distance_histogram.values()) == 2**5
        covered = sum(len(c) for c in report.cycles)
        assert report.distance_histogram.get(0, 0) == covered


def test_bijective_endomap_has_no_tails():
    report = cycle_report(padded_endomap(parse_map("x+1"), 3, 3))
    assert report.distance_histogram == {0: 27}


def test_cycle_report_needs_endomap():
    with pytest.raises(ValueError):
        cycle_report(level_map(parse_map("x"), 2, 1, 3))


# --- orbits ---------------------------------------------------------------


def test_orbit_increment():
    result = orbit(parse_map("x+1"), 2, 0, 4, 3)
    assert result.points == (0, 1, 2, 3, 4)
    assert result.cycle_start is None


def test_orbit_binomial_fixed_point():
    result = orbit(parse_map("C(x,2)"), 2, 3, 4, 3)
    assert result.points == (3, 3, 3, 3, 3)
    assert (result.cycle_start, result.cycle_length) == (0, 1)


def test_orbit_shift():
    result = orbit(parse_map("sigma(x)"), 2, 5, 4, 3)
    assert result.points == (5, 2, 1, 0, 0)
    assert (result.cycle_start, result.cycle_length) == (3, 1)


def test_orbit_validates_start():
    with pytest.raises(ValueError):
        orbit(parse_map("x"), 2, 9, 2, 3)


def test_orbit_rejects_negative_steps():
    with pytest.raises(ValueError, match="step count"):
        orbit(parse_map("x+1"), 2, 1, -3, 3)


# --- plot sets ---------------------------------------------------------------


def test_plot_points_shift():
    ps = accumulate_plot(parse_map("sigma(x)"), 2, 1, 1)
    assert plot_points(ps) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(1, 2)),
    }


def test_plot_points_identity():
    ps = accumulate_plot(parse_map("x"), 2, 1, 1)
    assert plot_points(ps) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(3, 4), Fraction(1, 2)),
    }


def test_plot_point_count_bound(corpus_texts):
    for text in corpus_texts:
        for k in (1, 2, 3):
            ps = accumulate_plot(parse_map(text), 2, 1, k)
            assert len(ps.levels[k]) <= 2 ** (1 + k)


def test_accumulated_levels_equal_single_level_plots():
    e = parse_map("C(x,3)+sigma(x)")
    ps = accumulate_plot(e, 3, 1, 3)
    assert ps.k_values == (1, 2, 3)
    for k in ps.k_values:
        assert ps.levels[k] == PlotSet(reduced_map(e, 3, 1 + k, k), 1, (k,)).levels[k]


def test_plot_points_budget_counts_enumerated_points():
    e = parse_map("sigma(x)")  # lookahead 1 is not charged
    assert len(accumulate_plot(e, 2, 1, 3, budget=16).levels[3]) <= 16
    with pytest.raises(BudgetError):
        accumulate_plot(e, 2, 1, 3, budget=15)


def test_plot_denominators_divide_the_level_moduli():
    ps = accumulate_plot(parse_map("sigma(x)"), 2, 1, 3)
    for x, y in ps.levels[3]:
        assert 2 ** 4 % x.denominator == 0
        assert 2 ** 3 % y.denominator == 0


# --- box counting ---------------------------------------------------------------


def test_box_count_shift_level_one():
    bc = box_count(accumulate_plot(parse_map("sigma(x)"), 2, 1, 1), 2)
    assert covered_cells(bc) == {(0, 0), (1, 1)}
    assert bc.fraction == Fraction(1, 2)


def test_box_count_empty():
    m = padded_endomap(parse_map("x"), 2, 1)
    assert box_count(PlotSet(m, 1, ()), 7).fraction == 0


def test_box_count_grid_refinement():
    ps = accumulate_plot(parse_map("sigma(x)"), 2, 1, 6)
    for j in (1, 2, 3):
        coarse = box_count(ps, 2**j).covered
        fine = box_count(ps, 2 ** (j + 1)).covered
        assert fine <= 4 * coarse


def test_box_count_at_full_resolution_counts_points():
    k_max = 3
    ps = accumulate_plot(parse_map("sigma(x)"), 2, 1, k_max)
    grid = 2 ** (1 + k_max)
    assert box_count(ps, grid).covered == len(plot_points(ps))


def test_shift_plot_band(corpus_texts):
    # every shift plot point hugs the diagonal at its level
    for k in range(1, 7):
        for x, y in accumulate_plot(parse_map("sigma(x)"), 2, 1, k).levels[k]:
            assert abs(y - x) <= Fraction(1, 2 ** (k + 1))


# --- dumps ---------------------------------------------------------------


def test_csv_format():
    text = to_csv(accumulate_plot(parse_map("sigma(x)"), 2, 1, 1))
    lines = text.splitlines()
    assert lines[0] == "xnum,xden,ynum,yden"
    assert lines[1] == "0,1,0,1"
    assert len(lines) == 5


def test_pgm_format():
    bc = box_count(accumulate_plot(parse_map("sigma(x)"), 2, 1, 1), 2)
    text = to_pgm(bc)
    lines = text.splitlines()
    assert lines[:3] == ["P2", "2 2", "1"]
    assert lines[3] == "0 1"  # top row: the (1, 1) cell
    assert lines[4] == "1 0"


def test_dumps_are_deterministic():
    e = parse_map("sigma(x)")
    first = to_csv(accumulate_plot(e, 2, 1, 5))
    second = to_csv(accumulate_plot(e, 2, 1, 5))
    assert first == second


@pytest.mark.parametrize("text, p, n, k_max", [("sigma(x^2+x+1)", 2, 1, 6), ("C(x,3)+x", 3, 2, 3)])
def test_integer_plot_set_matches_its_fraction_view(text, p, n, k_max):
    # the dump and the box count read integer numerators; on the rationals
    # they are a sort of the points and floor(coord * grid)
    ps = accumulate_plot(parse_map(text), p, n, k_max)
    lines = [
        f"{x.numerator},{x.denominator},{y.numerator},{y.denominator}" for x, y in sorted(plot_points(ps))
    ]
    assert to_csv(ps).splitlines()[1:] == lines
    for grid in (1, 7, p**k_max, 64):
        cells = {
            (x.numerator * grid // x.denominator, y.numerator * grid // y.denominator)
            for x, y in plot_points(ps)
        }
        assert covered_cells(box_count(ps, grid)) == cells
    assert plot_points(ps) == frozenset().union(*ps.levels.values())


# --- the walk against the level-set merge ---------------------------------------


def reference_plot(m, n, k_values, grid):
    """The plot path the walk replaced: every level as a frozenset, their
    merge over the common denominators, a sorted CSV in lowest terms by
    gcd, a set of box cells and the PGM drawn from that set."""
    p = m.p
    levels = {k: frozenset(enumerate(v % p**k for v in m.table[: p ** (n + k)])) for k in k_values}
    k_max = max(levels, default=0)
    x_den, y_den = p ** (n + k_max), p ** k_max
    merged = set()
    for k, pts in levels.items():
        scale = y_den // p**k
        merged.update((x * scale, y * scale) for x, y in pts)
    lines = ["xnum,xden,ynum,yden"]
    for x, y in sorted(merged):
        gx, gy = gcd(x, x_den), gcd(y, y_den)
        lines.append(f"{x // gx},{x_den // gx},{y // gy},{y_den // gy}")
    cells = frozenset((x * grid // x_den, y * grid // y_den) for x, y in merged)
    rows = ["P2", f"{grid} {grid}", "1"]
    for row in range(grid):
        j = grid - 1 - row
        rows.append(" ".join("1" if (i, j) in cells else "0" for i in range(grid)))
    return {
        "csv": "\n".join(lines) + "\n",
        "pgm": "\n".join(rows) + "\n",
        "points": len(merged),
        "numerators": frozenset(merged),
        "cells": cells,
        "per_level": {k: len(pts) for k, pts in levels.items()},
    }


def assert_walk_matches_reference(m, n, k_values, grid):
    ps = PlotSet(m, n, k_values)
    bc = box_count(ps, grid)
    ref = reference_plot(m, n, k_values, grid)
    assert to_csv(ps) == ref["csv"]
    assert to_pgm(bc) == ref["pgm"]
    assert bc.points == ref["points"]
    assert plot_numerators(ps) == ref["numerators"]
    assert covered_cells(bc) == ref["cells"]
    assert bc.covered == len(ref["cells"])
    # the CLI reports level k as p**(n+k) points without building it
    assert ref["per_level"] == {k: m.p ** (n + k) for k in k_values}
    assert {k: len(pts) for k, pts in ps.level_numerators.items()} == ref["per_level"]


# (k_max, k_values) per prime: every level, gaps, and single levels
PLOT_LEVELS = {
    2: (4, [range(1, 5), (1, 3, 4), (2, 4), (1,), (3,), (4,)]),
    3: (3, [range(1, 4), (1, 3), (2,), (3,)]),
    5: (2, [range(1, 3), (1,), (2,)]),
}


@pytest.mark.parametrize("p", sorted(PLOT_LEVELS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plot_walk_matches_level_set_merge(p, n):
    k_max, level_choices = PLOT_LEVELS[p]
    for text in CORPUS:
        # a table one digit larger than needed, as the analyze table is
        m = reduced_map(parse_map(text), p, n + k_max + 1, k_max + 1)
        for k_values in level_choices:
            for grid in (1, 7, p**k_max):
                assert_walk_matches_reference(m, n, tuple(k_values), grid)


def test_plot_set_constructor_sorts_and_checks_its_levels():
    m = reduced_map(parse_map("x^2+x+1"), 2, 5, 4)
    ps = PlotSet(m, 1, (3, 1, 3))
    assert ps.k_values == (1, 3)
    assert ps.denominators == (2**4, 2**3)
    ref = reference_plot(m, 1, (3, 1, 3), 8)
    bc = box_count(ps, 8)
    assert to_csv(ps) == ref["csv"]
    assert (bc.points, covered_cells(bc)) == (ref["points"], ref["cells"])
    # n >= 1, and m must cover Z/p**(n+k) -> Z/p**k at every level k >= 1
    with pytest.raises(ValueError, match="level width"):
        PlotSet(m, 0, (1,))
    for n, k_values in [(1, (0, 1)), (1, (1, 5)), (4, (2,))]:
        with pytest.raises(ValueError, match=r"^a table of Z/2\^5 -> Z/2\^4 cannot give Z/2\^"):
            PlotSet(m, n, k_values)


@pytest.mark.parametrize("text, p, k_max", [("x^2+x+1", 2, 12), ("x^2+x+1", 3, 7)])
def test_plot_walk_matches_level_set_merge_across_csv_batches(text, p, k_max):
    # the CSV is written once per window of _BLOCK x values: this walk spans two or more,
    # and p=3 has y numerators divisible by p above x prime to p
    m = reduced_map(parse_map(text), p, 1 + k_max, k_max)
    assert to_csv(PlotSet(m, 1, range(1, k_max + 1))).count("\n") > 2 * dynamics._BLOCK
    assert p ** (1 + k_max) > dynamics._BLOCK
    assert_walk_matches_reference(m, 1, tuple(range(1, k_max + 1)), 64)


@pytest.mark.parametrize(
    "text, p, k_max, k_values, grid",
    [
        ("x^2+x+1", 3, 8, (2, 5, 8), 64),
        ("x^2+x+1", 3, 8, (1, 2, 8), 64),
        ("x^2+x+1", 2, 13, (1, 2, 4, 13), 64),
        ("sigma(x^2+x+1)", 2, 14, range(1, 15), 256),
        ("C(x,3)+x", 3, 8, range(1, 9), 243),
        ("x^2+x+1", 5, 5, range(1, 6), 125),
    ],
)
def test_plot_walk_matches_level_set_merge_across_windows(text, p, k_max, k_values, grid):
    # gapped levels: at (2, 5, 8) the third level's scale is p**3 times the second's, and at
    # (1, 2, 8) the x that one level reaches include multiples of p; at p = 3 the windows after
    # the first start off the multiples of p**2, and at p = 5 off those of p**2 and p**3.  The
    # p = 2 and p = 3 plots at every level are perfbench's deep-oracle plots, on the table
    # analyze builds for them.
    m = reduced_map(parse_map(text), p, 1 + k_max, k_max)
    assert p ** (1 + k_max) > 2 * dynamics._BLOCK and dynamics._BLOCK % 9 == 1
    assert dynamics._BLOCK % 25 == 21 and dynamics._BLOCK % 125 == 96
    assert_walk_matches_reference(m, 1, tuple(k_values), grid)


def test_box_count_caps_the_grid():
    ps = accumulate_plot(parse_map("x"), 2, 1, 1)
    assert box_count(ps, 2048).covered == 4
    with pytest.raises(BudgetError):
        box_count(ps, 2049)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plot_walk_matches_level_set_merge_on_random_maps(data):
    p = data.draw(st.sampled_from(sorted(EXPRESSIONS)))
    e = data.draw(EXPRESSIONS[p])
    n = data.draw(st.integers(1, 2))
    k_max = data.draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    k_values = data.draw(st.sets(st.integers(1, k_max), min_size=1))
    grid = data.draw(st.sampled_from([1, 5, p**k_max]))
    try:
        m = reduced_map(e, p, n + k_max, k_max)
    except PadynError:
        return
    assert_walk_matches_reference(m, n, tuple(k_values), grid)


@pytest.mark.parametrize("k", [12, 14])
def test_box_count_memory_is_the_grid_not_the_points(k):
    # the table is built before tracing starts, so the peak is the walk's own
    ps = accumulate_plot(parse_map("x^2+x+1"), 2, 1, k)
    tracemalloc.start()
    try:
        box_count(ps, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("k", [12, 14])
def test_box_count_csv_memory_is_the_grid_not_the_points(k):
    # the CSV path holds one batch of lines, not the walk's
    ps = accumulate_plot(parse_map("x^2+x+1"), 2, 1, k)
    tracemalloc.start()
    try:
        box_count(ps, 256, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


class _Window:
    """A slice of a ``_CountedTable``: each iteration or subscript of it is one read."""

    def __init__(self, table, values):
        self.table, self.values = table, values

    def __iter__(self):
        self.table.window_reads += 1
        return iter(self.values)

    def __getitem__(self, i):
        self.table.window_reads += 1
        return self.values[i]


class _CountedTable:
    """A table whose plain slices, the windows of level kmax, count the reads made of them."""

    def __init__(self, values):
        self.values, self.window_reads = values, 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice) and i.step is None:
            return _Window(self, self.values[i])
        return self.values[i]


@pytest.mark.parametrize("codomain", [7, 8])
def test_box_count_reads_each_window_of_level_kmax_once(codomain):
    # level kmax is read into a list once per window, whether or not it is reduced; the
    # comprehensions of the window read that list
    p, k_max, n = 3, 7, 1
    m = reduced_map(parse_map("x^2+x+1"), p, n + k_max, codomain)
    table = _CountedTable(m.table)
    counted = PlotSet(ReducedLevelMap(p, n + k_max, codomain, table, check_range=False), n, range(1, k_max + 1))
    out = io.StringIO()
    bc = box_count(counted, 64, out)
    assert table.window_reads == -(-(p ** (n + k_max)) // dynamics._BLOCK) == 2
    assert out.getvalue() == to_csv(PlotSet(m, n, range(1, k_max + 1)))
    assert bc == box_count(PlotSet(m, n, range(1, k_max + 1)), 64)


# --- the PGM renderer against the per-cell formatter it replaced ----------------


def reference_pgm(bc):
    g = bc.grid
    lines = ["P2", f"{g} {g}", "1"]
    for j in reversed(range(g)):
        lines.append(" ".join(map(str, bc.cells[j * g : (j + 1) * g])))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@example(grid=1, seed=0, density=0.0)
@example(grid=1, seed=0, density=1.0)
@example(grid=64, seed=0, density=1.0)
@example(grid=243, seed=0, density=0.5)
@example(grid=256, seed=1, density=0.5)
@given(
    grid=st.integers(1, 64),
    seed=st.integers(0, 2**32),
    density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
)
def test_pgm_matches_the_per_cell_formatter(grid, seed, density):
    rnd = Random(seed)
    cells = bytes(rnd.random() < density for _ in range(grid * grid))
    bc = BoxCount(grid, cells, cells.count(1))
    assert to_pgm(bc) == reference_pgm(bc)
