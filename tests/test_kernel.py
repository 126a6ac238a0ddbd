"""The column evaluation kernel against the tree-walking reference.

``reference_eval_map`` is the exact-integer evaluator the kernel replaced:
it walks the tree at every point and makes every precision check there.
The kernel must agree with it digit for digit, and must raise the same
PrecisionError where the input precision is too small.

``guaranteed_output_length`` is the reference's digit count for an
automaton node: the fewest letters any input of length k makes the
machine emit.  The kernel certifies k minus the machine's largest output
deficit, which is never more than this count.
"""
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS, make_shift_automaton

from padyn import automata, cli, mapdsl
from padyn.dynamics import reduced_map
from padyn.errors import BudgetError, DegenerateAutomatonError, PadynError, PrecisionError
from padyn.mapdsl import (
    _BLOCK,
    _blocks,
    _compile,
    _fold,
    _running_sums,
    Add,
    AutoApply,
    Binom,
    Const,
    MahlerLit,
    Mul,
    Neg,
    Pow,
    Sigma,
    Sub,
    Var,
    eval_map,
    factorial_valuation,
    lookahead_bound,
    parse_map,
    tabulate,
)
from padyn.padic import PadicApprox, binomial_eval


def guaranteed_output_length(a: automata.Automaton, input_len: int) -> int:
    """Minimum emitted length over all inputs of the given length."""
    verdict = automata.check_nondegenerate(a)
    if not verdict.nondegenerate:
        raise DegenerateAutomatonError(f"degenerate at state {verdict.witness}")
    best = {a.initial: 0}
    for _ in range(input_len):
        nxt: dict[str, int] = {}
        for s, emitted in best.items():
            for letter in range(a.p):
                t = a.transitions[(s, letter)]
                total = emitted + len(a.outputs[(s, letter)])
                if t not in nxt or total < nxt[t]:
                    nxt[t] = total
        best = nxt
    return min(best.values())


def _eval(e, lift: int, precision: int, p: int, cap: int) -> tuple[int, int]:
    """Return (value, certified digit count); constants count as ``cap``."""
    if isinstance(e, Const):
        return e.value, cap
    if isinstance(e, Var):
        return lift, precision
    if isinstance(e, Neg):
        v, k = _eval(e.operand, lift, precision, p, cap)
        return -v, k
    if isinstance(e, (Add, Sub, Mul)):
        lv, lk = _eval(e.left, lift, precision, p, cap)
        rv, rk = _eval(e.right, lift, precision, p, cap)
        k = min(lk, rk)
        if isinstance(e, Add):
            return lv + rv, k
        if isinstance(e, Sub):
            return lv - rv, k
        return lv * rv, k
    if isinstance(e, Pow):
        v, k = _eval(e.base, lift, precision, p, cap)
        return v ** e.exponent, k
    if isinstance(e, Sigma):
        v, k = _eval(e.operand, lift, precision, p, cap)
        if k - e.shifts < 1:
            raise PrecisionError("digit shift exhausts working precision")
        return v // p ** e.shifts, k - e.shifts
    if isinstance(e, Binom):
        v, k = _eval(e.operand, lift, precision, p, cap)
        drop = factorial_valuation(e.lower, p)
        if k - drop < 1:
            raise PrecisionError("binomial denominator exhausts working precision")
        return binomial_eval(v, e.lower), k - drop
    if isinstance(e, MahlerLit):
        v, k = _eval(e.operand, lift, precision, p, cap)
        drop = max(
            (factorial_valuation(m, p) for m, a in enumerate(e.coeffs) if a != 0),
            default=0,
        )
        if k - drop < 1:
            raise PrecisionError("series denominators exhaust working precision")
        total = sum(a * binomial_eval(v, m) for m, a in enumerate(e.coeffs))
        return total, k - drop
    if isinstance(e, AutoApply):
        machine = e.automaton
        if machine.p != p:
            raise ValueError(f"automaton expects p={machine.p}, map evaluated at p={p}")
        v, k = _eval(e.operand, lift, precision, p, cap)
        rep = v % p ** k
        word = [(rep // p ** i) % p for i in range(k)]
        certain = guaranteed_output_length(machine, k)
        if certain < 1:
            raise PrecisionError("automaton output exhausts working precision")
        trace = automata.run(machine, word)
        value = 0
        for d in reversed(trace.output[:certain]):
            value = value * p + d
        return value, certain
    raise TypeError(f"not a map expression: {e!r}")


def reference_eval_map(e, x: PadicApprox) -> PadicApprox:
    bound = lookahead_bound(e, x.p)
    if x.precision <= bound:
        raise PrecisionError(f"need more than {bound} input digits, have {x.precision}")
    k_out = x.precision - bound
    value, _ = _eval(e, x.residue, x.precision, x.p, x.precision + bound)
    return PadicApprox(x.p, k_out, value % x.p ** k_out)


def _outcome(evaluate, e, x):
    """The result as (residue, precision), or the PrecisionError's text."""
    try:
        out = evaluate(e, x)
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"
    return out.residue, out.precision


def _agree_on_all_points(e, p: int, precision: int) -> bool:
    """Compare every residue mod p**precision; True if the precision was
    too small (both sides raised)."""
    residues = range(p ** precision)
    expected = [_outcome(reference_eval_map, e, PadicApprox(p, precision, r)) for r in residues]
    got = [_outcome(eval_map, e, PadicApprox(p, precision, r)) for r in residues]
    assert got == expected, (e, p, precision)
    if isinstance(expected[0], str):
        return True
    digits = expected[0][1]
    table = tabulate(e, p, p ** precision, digits)
    assert list(table) == [residue for residue, _ in expected]
    return False


def _shift_map(p: int, operand) -> AutoApply:
    machine = make_shift_automaton(1, p)
    return AutoApply("<shift1>", machine, automata.max_output_deficit(machine), operand)


# two output digits per input letter: the kernel keeps fewer digits of the
# automaton's value than it emits, so only the certified ones may show
WIDEN = automata.parse_automaton("p 2\nstates s\ninitial s\ns 0 -> s / 00\ns 1 -> s / 11\n")


# node kinds and signs the corpus leaves out: cubes, negation, subtraction,
# negative series coefficients, a binomial of a polynomial and one of negative values
EXTRA = ["x^3+2*x", "-x+5", "2-x^2", "sigma(3*x+1)+x^3", "mahler[0,1,-2,3](x)", "C(x^2+1,3)-x", "C(1-x,3)"]

# work the kernel reduces or charges: a high power, a long falling factorial, a
# series term at index 21, and a binomial of negative values
HEAVY = ["x^2000+x", "C(x,40)+x", "mahler[1," + "0," * 20 + "3](x^2)", "C(x-3,25)"]


@pytest.mark.parametrize("p, precisions", [(2, (1, 2, 3, 5, 8)), (3, (1, 2, 4, 5)), (5, (1, 2, 3))])
def test_kernel_matches_reference_on_corpus(p, precisions, shift1_path):
    exprs = [parse_map(text) for text in CORPUS + EXTRA + HEAVY]
    exprs.append(_shift_map(p, parse_map("x^2+1")))
    if p == 2:
        exprs.append(parse_map(f'auto("{shift1_path}")(sigma(x)) + x'))
        shift = make_shift_automaton(1, 2)
        exprs.append(AutoApply.checked("<widen>", WIDEN, parse_map("sigma(x)")))
        exprs.append(Sigma(2, AutoApply.checked("<widen>", WIDEN, parse_map("x^2+1"))))
        exprs.append(Add(AutoApply.checked("<shift1>", shift, Const(5)), Var()))
    too_small = [_agree_on_all_points(e, p, k) for e in exprs for k in precisions]
    assert any(too_small) and not all(too_small)
    # an automaton reading more than one chunk, the last one cut short: the shift map
    # reads all `precision` input digits, c at a time
    shifted = _shift_map(p, parse_map("x^2+1"))
    precision = {2: 11, 3: 7, 5: 4}[p]
    chunk = shifted.chunks[0]
    assert precision > chunk and precision % chunk
    assert not _agree_on_all_points(shifted, p, precision)
    # a heavy map needs more digits than an exhaustive table has: some lifts at
    # precision L + 3, and a 64-entry table
    for e in map(parse_map, HEAVY):
        precision = lookahead_bound(e, p) + 3
        for r in range(0, p**precision, p**precision // 40 + 1):
            x = PadicApprox(p, precision, r)
            assert _outcome(eval_map, e, x) == _outcome(reference_eval_map, e, x), (e, p, r)
        precision = lookahead_bound(e, p) + 6  # >= 3 output digits, lifts < 64 <= p**6
        expected = [reference_eval_map(e, PadicApprox(p, precision, i)).residue % p**3 for i in range(64)]
        assert list(tabulate(e, p, 64, 3)) == expected, (e, p)


def test_high_powers_are_charged_what_low_powers_are():
    # the budget charges a point by the operations it does on values of <= 128 bits;
    # x^20000 at 12 digits is one modular pow of 12-bit values, as x^2 is, so 2^12
    # points of either cost 2^12 entries, and the work of a long binomial shows
    for text in ("x^2+x", "x^20000+x", "x^99999999", "C(x,3)+x"):
        assert len(tabulate(parse_map(text), 2, 2**12, 12, budget=2**12)) == 2**12
        with pytest.raises(BudgetError, match=r"^enumeration of 4096 entries exceeds budget 4095$"):
            tabulate(parse_map(text), 2, 2**12, 12, budget=2**12 - 1)
    with pytest.raises(BudgetError, match=r"entries of work each .* in C\(x - 1, 600\)\) exceeds"):
        tabulate(parse_map("C(x-1,600)"), 2, 2**12, 12, budget=8 * 2**12)
    # and the charge is the work done: a power or product column stays within 64 bits
    # of 2^12, where the exact x^20000 would have 240,000 bits per point
    for text in ("x^20000", "x*x*x*x*x*x*x*x"):
        steps, bits = _compile(parse_map(text), 2, 12, 12, [])
        column = _fold(steps, lambda step, operands: step(list(range(2**12)), *operands))
        assert bits <= 13 + 64 and max(column).bit_length() <= bits


def _atoms(p: int):
    return st.one_of(st.just(Var()), st.integers(0, 2 * p).map(Const))


def _expressions(p: int):
    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Pow, children, st.integers(0, 3)),
            st.builds(Sigma, st.integers(1, 2), children),
            st.builds(Binom, children, st.integers(0, 4)),
            st.builds(
                MahlerLit, st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(tuple), children
            ),
            children.map(lambda child: _shift_map(p, child)),
        )

    return st.recursive(_atoms(p), extend, max_leaves=5)


# bounded random expressions per prime; the Mahler round-trip test draws from them too
EXPRESSIONS = {p: _expressions(p) for p in (2, 3, 5)}


@st.composite
def _cases(draw):
    p = draw(st.sampled_from(sorted(EXPRESSIONS)))
    e = draw(EXPRESSIONS[p])
    precision = draw(st.integers(1, {2: 8, 3: 5, 5: 3}[p]))
    residue = draw(st.integers(0, p ** precision - 1))
    return e, PadicApprox(p, precision, residue)


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_kernel_matches_reference_on_random_expressions(case):
    e, x = case
    assert _outcome(eval_map, e, x) == _outcome(reference_eval_map, e, x)


# --- van der Put reader ------------------------------------------------------


def first_van_der_put_failure(table, p: int):
    """The first m >= 1 whose van der Put difference B_m = f(m) - f(m - t p^k) has
    v_p(B_m) < k, with k = floor(log_p m) and t the leading digit of m; None if there is
    none.  On a table Z/p^N -> Z/p^N that is None exactly when the table is 1-Lipschitz."""
    scale = 1  # p^k, k = floor(log_p m)
    for m in range(1, len(table)):
        if m == scale * p:
            scale = m
        b = table[m] - table[m - m // scale * scale]
        if b % scale:  # v_p(b) < k
            return m
    return None


def _is_one_lipschitz(table, p: int) -> bool:
    """x = y mod p^k gives f(x) = f(y) mod p^k, for every k up to N, by brute force."""
    k, q = 0, 1
    while q < len(table):
        k, q = k + 1, q * p
        if any((table[x] - table[x % q]) % q for x in range(len(table))):
            return False
    return True


@pytest.mark.parametrize(
    "text, p, digits, first",
    [
        ("sigma(x^2+x+1)", 2, 8, 2),
        ("C(x,2)", 2, 8, 2),
        ("sigma^2(x)", 2, 8, 4),
        ("x^2+x+1", 2, 8, None),
        ("C(x,3)+x", 3, 5, 3),
        ("x^3+x", 3, 5, None),
    ],
)
def test_van_der_put_reader_examples(text, p, digits, first):
    table = tabulate(parse_map(text), p, p**digits, digits)
    assert first_van_der_put_failure(table, p) == first
    assert _is_one_lipschitz(table, p) is (first is None)


@st.composite
def _tables(draw):
    p = draw(st.sampled_from(sorted(EXPRESSIONS)))
    e = draw(EXPRESSIONS[p])
    digits = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[p]))
    return e, p, tabulate(e, p, p**digits, digits)


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_van_der_put_reader_decides_one_lipschitz(case):
    e, p, table = case
    first = first_van_der_put_failure(table, p)
    assert (first is None) is _is_one_lipschitz(table, p)
    if lookahead_bound(e, p) == 0:
        assert first is None


# --- running sums -------------------------------------------------------------


def _node_path(program, q, degree, reduced):
    """A polynomial subtree's instruction without running sums: its nodes on the whole block."""
    return lambda xs: _fold(program, lambda step, cols: step(xs, *cols))


def _bounded(program, q, degree, reduced):
    """The running-sum instruction, checked: on a block longer than degree + 1 its values lie
    in [0, q len(xs)^degree), or in [0, q) where its root reduces."""
    sums = _running_sums(program, q, degree, reduced)

    def checked(xs):
        column = sums(xs)
        if len(xs) > degree + 1:
            top = q if reduced else q * len(xs) ** degree
            assert len(column) == len(xs) and 0 <= min(column) and max(column) < top, (q, degree)
        return column

    return checked


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_running_sums_match_the_node_path(data):
    # tables of several blocks, and a row stopped inside a block, so that a short last block
    # (at most degree + 1 lifts) takes the node path
    p = data.draw(st.sampled_from([2, 3]))
    e = data.draw(EXPRESSIONS[p])
    size = {2: 2**13, 3: 3**8}[p]
    digits = data.draw(st.integers(1, {2: 13, 3: 8}[p]))
    stop = data.draw(st.sampled_from([size - 1, size - 2, _BLOCK + 1]) | st.integers(1, size))
    tables = []
    for instruction in (_bounded, _node_path):
        with mock.patch.object(mapdsl, "_running_sums", instruction):
            tables.append((tabulate(e, p, size, digits), list(_blocks(e, p, size, digits, None, stop))))
    (table, blocks), (expected, expected_blocks) = tables
    assert table == expected
    assert blocks == expected_blocks and sum(map(len, blocks)) == stop


@pytest.mark.parametrize(
    "text, degree",
    [
        ("x^2+x+1", 2),
        ("sigma(x^2+x+1)", 2),
        ("C(x,3)+x", 3),
        ("2*C(x,3)+x^3+3", 3),
        ("mahler[1,2,4](x)", 2),
        ("3*x+1", 1),
        ("sigma(x)*(x^2+3)", 2),  # the subtree under a product with a digit shift
        ("x+1", None),  # one running sum, one operation per point: no gain
        ("x^5+3*x+1", None),  # five sums of a 4096-lift block pass the 64-bit slack
        ("x^20000+x", None),
        ("C(x,40)+x", None),
        ("sigma(x)", None),
    ],
)
def test_running_sums_where_they_take_fewer_passes(monkeypatch, text, degree):
    made = []
    monkeypatch.setattr(mapdsl, "_running_sums", lambda *args: made.append(args[2]) or _running_sums(*args))
    steps, _ = _compile(parse_map(text), 2, 14, 14, [])
    assert made == ([] if degree is None else [degree])
    # and the block's values are the reference's, at every 97th lift
    e, column = parse_map(text), _fold(steps, lambda step, operands: step(list(range(_BLOCK)), *operands))
    precision = 14 + lookahead_bound(e, 2)
    expected = [reference_eval_map(e, PadicApprox(2, precision, x)).residue for x in range(0, _BLOCK, 97)]
    assert [v % 2**14 for v in column[::97]] == expected


# --- cylinder graph reader -----------------------------------------------------


def cylinder_components(e, p: int, k: int) -> int:
    """The number of strongly connected components of the level-k cylinder graph G_k: the
    nodes Z/p^k, and the edges u -> T[u + p^k s] for s < p^L, with T = reduced_map(e, p, k + L,
    k) and L the lookahead bound.  G_k does not depend on the lift, and more than one component
    refutes ergodicity.  Tarjan's algorithm on an explicit stack of (node, its unread edges)."""
    lookahead = lookahead_bound(e, p)
    table, size = reduced_map(e, p, k + lookahead, k).table, p**k
    edges = [{table[u + size * s] for s in range(p**lookahead)} for u in range(size)]
    index, low, stack, on_stack, components = {}, {}, [], set(), 0
    for root in range(size):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            u, unread = work[-1]
            for v in unread:
                if v not in index:  # descend; u's other edges are read when v is done
                    index[v] = low[v] = len(index)
                    stack.append(v)
                    on_stack.add(v)
                    work.append((v, iter(edges[v])))
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:  # u roots a component: pop it off the stack
                    components += 1
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        if w == u:
                            break
    return components


@pytest.mark.parametrize(
    "text, counts",
    [
        ("sigma(x)", [1] * 6),
        ("sigma^2(x)", [1] * 6),
        ("C(x,2)", [1] * 6),  # two padded cycles from m = 2 on: the padding's, not the map's
        ("sigma(x^2+x+1)", [1] * 6),
        ("x-2*sigma(x)+2*sigma^2(x)", [2] * 6),  # digit 0 is invariant
        ("x^2+x+1", [2 ** (k - 1) + 1 for k in range(1, 7)]),  # its cycle, and each node off it
    ],
)
def test_cylinder_graph_components_at_two(text, counts):
    e = parse_map(text)
    assert [cylinder_components(e, 2, k) for k in range(1, 7)] == counts


@st.composite
def _levels(draw):
    p = draw(st.sampled_from(sorted(EXPRESSIONS)))
    return p, draw(EXPRESSIONS[p]), draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))


@settings(max_examples=60, deadline=None)
@example((2, parse_map("x+1"), 5))  # transitive at every level: random maps seldom are
@example((2, parse_map("5*x+3"), 5))
@example((3, parse_map("4*x+1"), 3))
@example((5, parse_map("x+2"), 2))
@given(_levels())
def test_one_cylinder_component_where_the_cycle_row_is_transitive(case):
    # the padded endomap's edges (s = 0) are edges of G_k, so a transitive cycle row leaves
    # one component; for L = 0 they are all of G_k, its functional graph, and one component
    # is one cycle through Z/p^k.  The rows are those analyze reads off its top table.
    p, e, k_max = case
    try:
        top = reduced_map(e, p, k_max + 1, k_max)
    except PadynError:
        return
    rows = cli._cycles_section(top, SimpleNamespace(n=1, kmax=k_max))
    for k, row in enumerate(rows, start=1):
        components = cylinder_components(e, p, k)
        if cli._cycle_label(row, p) == "Transitive":
            assert components == 1, (e, k)
        elif lookahead_bound(e, p) == 0:
            assert components > 1, (e, k)
