"""Brute-force oracles over finite residue rings, plus plot sets.

Everything here is ground truth by exhaustion: reduced level maps with
their preimage censuses (the measure-preservation criterion), functional
graphs with full cycle decompositions (the ergodicity condition), orbits,
and the unit-square plot sets with exact-rational box counting, read in
one walk of the table: memory is the table plus one byte per grid cell.

Non-1-Lipschitz maps are reduced with the zero-padded lift convention:
the representative of a residue class is always its unique lift in
[0, p**k).  Point dumps are CSV with header ``xnum,xden,ynum,yden``;
rasters are plain PGM (P2) with 1 = covered and row 0 at the top.
"""
from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, count
from math import gcd
from typing import TextIO

from ._record import Record
from .errors import BudgetError
from .mapdsl import _BLOCK, DEFAULT_BUDGET, MapExpr, _blocks, _evaluator, _table_size

__all__ = [
    "BoxCount",
    "CensusResult",
    "CycleReport",
    "OrbitResult",
    "PlotSet",
    "ReducedLevelMap",
    "accumulate_plot",
    "box_count",
    "cycle_report",
    "level_map",
    "orbit",
    "padded_endomap",
    "preimage_census",
    "reduced_map",
    "to_pgm",
]


class ReducedLevelMap(Record):
    """A finite reduction of the map: the full table of a function from
    Z/p**domain_digits to Z/p**codomain_digits.  ``check_range=False``
    skips the scan of the values, for a table reduced by construction.  ``reduced_map``
    gives an array (``_words``): it equals arrays of the same values, not tuples, and does
    not hash.  A smaller level is read in place: its first p**d entries mod p**c."""

    p: int
    domain_digits: int
    codomain_digits: int
    table: array | tuple[int, ...]

    def __post_init__(self, check_range: bool = True) -> None:
        if len(self.table) != self.p ** self.domain_digits:
            raise ValueError("table length does not match the domain size")
        limit = self.p ** self.codomain_digits
        if check_range and any(not 0 <= v < limit for v in self.table):
            raise ValueError("table value out of codomain range")

    @property
    def form(self) -> str:
        """'endomap' when the two digit counts are equal, else 'census'."""
        return "endomap" if self.domain_digits == self.codomain_digits else "census"


def _words(modulus: int, blocks: Iterable[list[int]]) -> array | tuple[int, ...]:
    """The values of ``blocks``, all below ``modulus``, filled a block at a time into one array
    of the narrowest unsigned typecode that holds modulus - 1; a tuple past 64 bits."""
    for code in "BHIQ":
        if modulus - 1 < 256 ** array(code).itemsize:
            table = array(code)
            for block in blocks:
                table.fromlist(block)
            return table
    return tuple(chain.from_iterable(blocks))


def reduced_map(
    e: MapExpr, p: int, domain_digits: int, codomain_digits: int, budget: int | None = None
) -> ReducedLevelMap:
    """The map on Z/p**domain_digits, reduced mod p**codomain_digits; every oracle reads
    its levels off this table in place.  Inputs of more than MAX_DIGITS digits are refused
    before p**domain_digits is computed."""
    blocks = _blocks(e, p, _table_size(p, domain_digits), codomain_digits, budget)
    table = _words(p**codomain_digits, blocks)  # reduced by construction: no range scan
    return ReducedLevelMap(p, domain_digits, codomain_digits, table, check_range=False)


def level_map(
    e: MapExpr, p: int, n: int, k: int, budget: int | None = None
) -> ReducedLevelMap:
    """The census-form reduction: Z/p**(n k) -> Z/p**(n (k-1))."""
    if n < 1:
        raise ValueError("level width n must be >= 1")
    if k < 2:
        raise ValueError("census form needs k >= 2")
    return reduced_map(e, p, n * k, n * (k - 1), budget)


def padded_endomap(e: MapExpr, p: int, m: int, budget: int | None = None) -> ReducedLevelMap:
    """The map folded onto Z/p**m via the zero-padded lift."""
    if m < 1:
        raise ValueError("digit count must be >= 1")
    return reduced_map(e, p, m, m, budget)


class CensusResult(Record):
    """Preimage counts of every codomain point, plus the uniformity verdict."""

    expected: int
    counts: tuple[int, ...]
    witness_point: int | None = None
    witness_pair: tuple[int, int] | None = None

    @property
    def uniform(self) -> bool:
        return self.witness_point is None

    def __str__(self) -> str:
        if self.uniform:
            return f"Uniform({self.expected})"
        if self.expected == 1 and self.witness_pair is not None:
            a, b = self.witness_pair
            return f"NotBijective(x={a} and x={b} collide)"
        return f"NotUniform(point {self.witness_point} has {self.counts[self.witness_point]} preimages)"


def preimage_census(m: ReducedLevelMap) -> CensusResult:
    """Count the preimages of every codomain point.

    The map preserves the uniform measure at this level iff every point
    has exactly domain/codomain preimages; for endomaps that expected
    count is 1, i.e. the census is a bijectivity check.
    """
    return _census(m.table, len(m.table), m.p**m.codomain_digits)


def _census(table, size: int, codomain: int) -> CensusResult:
    """The census of the map x -> table[x] mod codomain on range(size): a level of a wider
    table is counted off it, without a reduced copy."""
    counts = [0] * codomain
    for value in table[:size]:
        counts[value % codomain] += 1
    expected = size // codomain
    witness_point = next((point for point, count in enumerate(counts) if count != expected), None)
    witness_pair = None
    if witness_point is not None:
        first: dict[int, int] = {}
        for x, value in enumerate(table[:size]):
            if (value := value % codomain) in first:
                witness_pair = (first[value], x)
                break
            first[value] = x
    return CensusResult(expected, tuple(counts), witness_point, witness_pair)


class CycleReport(Record):
    """Full functional-graph decomposition of an endomap table."""

    cycles: tuple[tuple[int, ...], ...]
    distance_histogram: dict[int, int]  # distance-to-cycle -> node count

    @property
    def unique_cycle(self) -> bool:
        return len(self.cycles) == 1

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)


def cycle_report(m: ReducedLevelMap) -> CycleReport:
    """Find every cycle and the distance of every node to its cycle."""
    if m.form != "endomap":
        raise ValueError("cycle detection needs an endomap-form table")
    return _cycles(m.table, len(m.table))


def _cycles(table, size: int) -> CycleReport:
    """The cycle report of the map x -> table[x] mod size on range(size): a level of a wider
    table is walked off it, without a reduced copy."""
    seen = bytearray(size)  # 1 once a walk has reached the node
    done = _words(size + 1, [[0]]) * size  # 1 + the node's distance to its cycle, once known
    cycles: list[tuple[int, ...]] = []
    for start in range(size):
        if seen[start]:
            continue
        path: list[int] = []
        node = start
        while not seen[node]:
            seen[node] = 1
            path.append(node)
            node = table[node] % size
        if done[node]:  # the path runs into an earlier walk
            tail, base = path, done[node]
        else:  # the path ends in a new cycle from node on, kept without a copy
            at = path.index(node)
            tail, base = path[:at], 1
            del path[:at]
            cycles.append(tuple(path))
            for u in path:
                done[u] = 1
        for d, u in enumerate(reversed(tail), start=base + 1):
            done[u] = d
    return CycleReport(tuple(cycles), {d - 1: n for d, n in sorted(Counter(done).items())})


class OrbitResult(Record):
    points: tuple[int, ...]
    cycle_start: int | None = None  # index of first point that repeats
    cycle_length: int | None = None


def orbit(
    e: MapExpr, p: int, x0: int, steps: int, m: int, budget: int | None = None
) -> OrbitResult:
    """Iterate the padded endomap from x0, re-padding after every step;
    the ``steps`` evaluations are charged to the budget, and an m past
    ``MAX_DIGITS`` is refused before p**m is built."""
    if m < 1:
        raise ValueError("digit count must be >= 1")
    modulus = _table_size(p, m)
    if not 0 <= x0 < modulus:
        raise ValueError(f"start point {x0} outside Z/{p}^{m}")
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    column = _evaluator(e, p, m, modulus, steps, budget)
    points = [x0]
    first_seen = {x0: 0}
    cycle_start = cycle_length = None
    current = x0
    for _ in range(steps):
        current = column([current])[0]
        points.append(current)
        if cycle_start is None:
            if current in first_seen:
                cycle_start = first_seen[current]
                cycle_length = len(points) - 1 - cycle_start
            else:
                first_seen[current] = len(points) - 1
    return OrbitResult(tuple(points), cycle_start, cycle_length)


class PlotSet(Record):
    """The unit-square plot of the levels ``k_values`` (kept sorted) of table m:
    level k is the pairs (x, m.table[x] mod p**k), x < p**(n+k), for the
    points (x / p**(n+k), y / p**k).  The point sets are views built on access."""

    m: ReducedLevelMap
    n: int
    k_values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("level width n must be >= 1")
        object.__setattr__(self, "k_values", tuple(sorted(set(self.k_values))))
        p, domain, codomain = self.m.p, self.m.domain_digits, self.m.codomain_digits
        for k in self.k_values:
            if not (1 <= k <= codomain and self.n + k <= domain):
                level = f"Z/{p}^{self.n + k} -> Z/{p}^{k}"
                raise ValueError(f"a table of Z/{p}^{domain} -> Z/{p}^{codomain} cannot give {level}")

    @property
    def denominators(self) -> tuple[int, int]:
        """(p**(n+kmax), p**kmax), the common denominators of every level's points."""
        k_max = max(self.k_values, default=0)
        return self.m.p ** (self.n + k_max), self.m.p ** k_max

    @property
    def level_numerators(self) -> dict[int, frozenset[tuple[int, int]]]:
        p, t = self.m.p, self.m.table  # level k: the table's first p**(n+k) entries mod p**k
        return {k: frozenset(enumerate(map((p**k).__rmod__, t[: p ** (self.n + k)]))) for k in self.k_values}

    @property
    def levels(self) -> dict[int, frozenset[tuple[Fraction, Fraction]]]:
        p, n = self.m.p, self.n
        return {k: _fractions(pts, p ** (n + k), p ** k) for k, pts in self.level_numerators.items()}


def _fractions(pts, x_den: int, y_den: int) -> frozenset[tuple[Fraction, Fraction]]:
    return frozenset((Fraction(x, x_den), Fraction(y, y_den)) for x, y in pts)


def accumulate_plot(
    e: MapExpr, p: int, n: int, k_max: int, budget: int | None = None
) -> PlotSet:
    """Union of the plots for k = 1..k_max, all read off the level-k_max table."""
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    return PlotSet(reduced_map(e, p, n + k_max, k_max, budget), n, range(1, k_max + 1))


class BoxCount(Record):
    """``cells[j * grid + i]`` is 1 iff cell (i, j) holds one of the ``points`` points."""

    grid: int
    cells: bytes
    points: int

    @property
    def covered(self) -> int:
        return self.cells.count(1)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.covered, self.grid * self.grid)


def _check_grid(grid: int) -> None:
    """A box count's grid must be >= 1 (else a ``ValueError``), and its grid * grid cells are
    capped at ``DEFAULT_BUDGET`` whatever the budget says (else a ``BudgetError``)."""
    if grid < 1:
        raise ValueError("grid size must be >= 1")
    if grid * grid > DEFAULT_BUDGET:
        raise BudgetError(f"grid size {grid} needs {grid * grid} cells; the cap is {DEFAULT_BUDGET}")


def box_count(ps: PlotSet, grid: int, csv: TextIO | None = None) -> BoxCount:
    """Grid cells holding at least one plot point, in one walk of the table.

    Cell assignment is exact: a point lands in cell floor(coord * grid), computed on its
    integer numerator over the common denominator.  Given a text stream ``csv``, the same walk
    writes the CSV point dump to it, sorted by x then y, in lowest terms, one write per window
    of ``_BLOCK`` x.  Level kmax is a table slice, read into a list once per window and reduced
    only for a wider codomain; where a grid column holds 4 or more x, its cells are found a
    column's run of x at a time.  The other levels are walked by valuation class: the x = r mod
    p * g, g = gcd(x, x_den), reach level kmax and the levels whose scale divides g, and are
    x // g over x_den // g in lowest terms.  A class of one or two levels takes one
    comprehension, a deeper one a loop over its x; a y is y // g and tails[g], g = gcd(y, y_den),
    from a per-walk table.
    """
    _check_grid(grid)
    p, t = ps.m.p, ps.m.table
    x_den, y_den = ps.denominators
    k_max = max(ps.k_values, default=0)
    cells, points = bytearray(grid * grid), 0
    scales = [(y_den // p**k, p**k) for k in reversed(ps.k_values[:-1])]  # below kmax, finest first
    tails, tail = {p**v: f",{p ** (k_max - v)}\n" for v in range(k_max + 1)}, f",{y_den}\n"
    # x = 0, which every scale divides, is the class (x_den, 0); without a CSV stream a class
    # of level kmax alone has no work
    classes = [(g, r) for g in map(p.__pow__, range(ps.n + k_max)) for r in range(g, p * g, g)]
    classes = [(g, r, [(s, m) for s, m in scales if s <= g]) for g, r in classes + [(x_den, 0)]]
    classes = [(g, r, levels) for g, r, levels in classes if levels or csv is not None]
    if csv is not None:
        csv.write("xnum,xden,ynum,yden\n")
    for start in range(0, x_den if ps.k_values else 0, _BLOCK):
        xs = range(start, min(start + _BLOCK, x_den))
        ys = t[start : xs.stop]  # level kmax: a point at every x, already reduced at codomain kmax
        # a list, as every comprehension below reads it again and an array makes an int per read
        ys = [*ys] if ps.m.codomain_digits == k_max else [v % y_den for v in ys]
        points += len(xs)
        if x_den < 4 * grid:  # under 4 x a grid column: a column index per x
            for c in [y * grid // y_den * grid + x * grid // x_den for x, y in zip(xs, ys)]:
                cells[c] = 1
        else:  # column i holds the x from ceil(i x_den / grid) on: the ys are read a column at a time
            i = start * grid // x_den  # the run bounds, clipped to the window by max and by slicing
            runs = [max(0, -(-j * x_den // grid) - start) for j in range(i, (xs.stop - 1) * grid // x_den + 2)]
            for c in [y * grid // y_den * grid + j
                      for j, a, b in zip(count(i), runs, runs[1:]) for y in ys[a:b]]:
                cells[c] = 1
        rows = [None] * len(xs)
        for g, r, levels in classes:  # offsets from start, which need not be a multiple of p * g
            at, step = (r - start) % (p * g), p * g
            xr, ya, xt = xs[at::step], ys[at::step], f",{x_den // g},"
            hs = range(xr.start // g, x_den, p)  # x // g
            if not levels:
                rows[at::step] = [
                    f"{h}{xt}{y}{tail}" if y % p else f"{h}{xt}{y // (d := gcd(y, y_den))}{tails[d]}"
                    for h, y in zip(hs, ya)
                ]
            elif len(levels) == 1:
                (s, m), = levels
                ub = [v % m * s for v in t[xr.start // s : -(-xr.stop // s) : step // s]]  # t[x // s]
                points += sum(map(int.__ne__, ya, ub))
                for c in [u * grid // y_den * grid + x * grid // x_den for x, u in zip(xr, ub)]:
                    cells[c] = 1
                if csv is not None:
                    rows[at::step] = [  # one row when the two values are equal, else two by y
                        f"{h}{xt}{y // (d := gcd(y, y_den))}{tails[d]}"
                        f"{h}{xt}{u // (e := gcd(u, y_den))}{tails[e]}"
                        if y < u
                        else f"{h}{xt}{u // (e := gcd(u, y_den))}{tails[e]}"
                        f"{h}{xt}{y // (d := gcd(y, y_den))}{tails[d]}"
                        if u < y
                        else f"{h}{xt}{y // (d := gcd(y, y_den))}{tails[d]}"
                        for h, y, u in zip(hs, ya, ub)
                    ]
            else:
                for h, x, y in zip(hs, xr, ya):
                    column, i = [y], x * grid // x_den
                    for s, m in levels:
                        if (u := t[x // s] % m * s) not in column:
                            column.append(u)
                            cells[u * grid // y_den * grid + i] = 1
                    points += len(column) - 1
                    if csv is not None:
                        column.sort()
                        head, text = f"{h}{xt}", ""
                        for u in column:
                            d = gcd(u, y_den)
                            text += f"{head}{u // d}{tails[d]}"
                        rows[x - start] = text
        if csv is not None:
            csv.write("".join(rows))
    return BoxCount(grid, bytes(cells), points)


_PGM_DIGITS = bytes.maketrans(b"\0\1", b"01")


def to_pgm(bc: BoxCount) -> str:
    """Plain PGM (P2) raster of the covered cells, row 0 at the top: one bytearray of the rows,
    the cells top-down and translated in its even slots, a space or a newline in each odd one."""
    g, cells = bc.grid, bc.cells
    raster = bytearray(b" ") * (2 * g * g)
    raster[::2] = b"".join(cells[j * g : (j + 1) * g] for j in reversed(range(g))).translate(_PGM_DIGITS)
    raster[2 * g - 1 :: 2 * g] = b"\n" * g
    return f"P2\n{g} {g}\n1\n{raster.decode('ascii')}"
