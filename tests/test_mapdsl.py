import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SHIFT1_FILE

from padyn import mapdsl
from padyn.automata import parse_automaton
from padyn.errors import (
    AutomatonFormatError,
    BudgetError,
    DegenerateAutomatonError,
    MapSyntaxError,
    PadynError,
    PrecisionError,
)
from padyn.mahler import mahler_coeffs
from padyn.mapdsl import (
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
    binomial_degree,
    decompose_complex_shift,
    eval_map,
    lookahead_bound,
    parse_map,
    step_order,
    tabulate,
    to_text,
)
from padyn.padic import PadicApprox


# --- parsing ---------------------------------------------------------------


def test_parse_polynomial():
    assert parse_map("x^2 + x + 1") == Add(Add(Pow(Var(), 2), Var()), Const(1))


def test_parse_shift_of_affine():
    assert parse_map("sigma^2(3*x + 1)") == Sigma(2, Add(Mul(Const(3), Var()), Const(1)))


def test_parse_sigma_default_power():
    assert parse_map("sigma(x)") == Sigma(1, Var())


def test_parse_binom_and_mahler():
    assert parse_map("C(x, 2)") == Binom(Var(), 2)
    assert parse_map("mahler[1,2,4](x)") == MahlerLit((1, 2, 4), Var())
    assert parse_map("mahler[0,-2](x)") == MahlerLit((0, -2), Var())


def test_parse_auto(shift1_path):
    e = parse_map(f'auto("{shift1_path}")(x)')
    assert isinstance(e, AutoApply)
    assert e.deficit == 1


def test_degenerate_automaton_is_rejected_by_class(tmp_path):
    # one check, two error classes: the DSL reports a syntax error at the atom
    path = tmp_path / "silent.aut"
    path.write_text("p 2\nstates s\ninitial s\ns 0 -> s / -\ns 1 -> s / -\n")
    with pytest.raises(DegenerateAutomatonError, match="silent.aut"):
        AutoApply.checked(str(path), parse_automaton(path.read_text()), Var())
    with pytest.raises(MapSyntaxError, match="degenerate at state s"):
        parse_map(f'auto("{path}")(x)')


def test_parse_auto_missing_file(tmp_path):
    missing = tmp_path / "missing.aut"
    with pytest.raises(AutomatonFormatError, match="missing.aut"):
        parse_map(f'auto("{missing}")(x)')


@pytest.mark.parametrize(
    "text",
    ["x^-1", "y + 1", "sigma(x", "C(x)", "mahler[](x)", "3 +", "x x", 'auto(f)(x)'],
)
def test_parse_errors(text):
    with pytest.raises(MapSyntaxError):
        parse_map(text)


@pytest.mark.parametrize(
    "text, position",
    [("1" * 5000, 0), ("x^" + "2" * 5000, 2), ("mahler[1,-" + "3" * 5000 + "](x)", 10)],
    ids=["constant", "exponent", "mahler"],
)
def test_over_long_number_is_a_syntax_error_at_its_position(text, position):
    # int() refuses strings of more than 4300 digits; that is a syntax error of the literal
    message = rf"a number of 5000 digits is too long \(at position {position}\)"
    with pytest.raises(MapSyntaxError, match=message):
        parse_map(text)


# every kind of token, spaces, quotes and non-ASCII letters and digits; no "auto", so no file is read
_TOKENS = st.sampled_from(
    ["0", "7", "12", "007", "x", "sigma", "C", "mahler", "y", "_z", "x1", *"+-*^(),[]",
     '"', '"p"', " ", "\t", "\n", "\u00b2", "\u0663", "\u00e9", "\u03bb", "#"]
)
# well-formed expressions, so that the round trip is exercised too
_EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "0", "7", "12"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*"]), inner).map("".join),
        *(
            inner.map(form.format)
            for form in ["-{}", "({})^2", "sigma^2({})", "C({},3)", "mahler[1,-2]({})"]
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(_TOKENS, max_size=14).map("".join), _EXPRESSIONS))
@example("9" * 5000)
@example("sigma^2(x)+C(-x,3)*mahler[0,-1](x^2)")
def test_parse_map_round_trips_or_names_a_position(text):
    try:
        tree = parse_map(text)
    except MapSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse_map(to_text(tree)) == tree


class _RecursiveParser(mapdsl._Parser):
    """The recursive descent that ``mapdsl._Parser.parse`` replaced, kept as its reference.
    It spends four stack frames per bracket (expr, factor, atom, group), so it reads about
    200 nested brackets under the default recursion limit."""

    def group(self, close: str = ")"):
        self.expect("sym", "(")
        e = self.expr()
        self.expect("sym", close)
        return e

    def parse(self):
        e = self.expr()
        kind, _, at = self.tokens[self.pos]
        if kind != "end":
            raise MapSyntaxError("trailing input", position=at)
        return e

    def expr(self):
        e, op = None, "+"
        while op:
            term = self.factor()
            while self.accept("*"):
                term = Mul(term, self.factor())
            e = term if e is None else (Add if op == "+" else Sub)(e, term)
            op = self.accept("+-")
        return e

    def factor(self):
        signs = 0
        while self.accept("-"):
            signs += 1
        e = self.atom()
        if self.accept("^"):
            e = Pow(e, self.expect("int"))
        for _ in range(signs):
            e = Neg(e)
        return e

    def atom(self):
        kind, value, at = self.tokens[self.pos]
        if kind == "sym" and value == "(":
            return self.group()
        self.pos += 1
        if kind == "int":
            return Const(value)
        if kind != "name":
            raise MapSyntaxError("expected an expression", position=at)
        if value == "x":
            return Var()
        if value == "sigma":
            shifts = self.expect("int") if self.accept("^") else 1
            return Sigma(shifts, self.group())
        if value == "C":
            e, lower = self.group(","), self.expect("int")
            self.expect("sym", ")")
            return Binom(e, lower)
        if value == "mahler":
            self.expect("sym", "[")
            coeffs = []
            while not coeffs or self.accept(","):
                coeffs.append(-self.expect("int") if self.accept("-") else self.expect("int"))
            self.expect("sym", "]")
            return MahlerLit(tuple(coeffs), self.group())
        if value == "auto":
            self.expect("sym", "(")
            pat = self.tokens[self.pos][2]
            path = self.expect("str")
            self.expect("sym", ")")
            e, machine = self.group(), mapdsl._load_automaton(path)
            try:
                return AutoApply.checked(path, machine, e)
            except DegenerateAutomatonError as exc:
                raise MapSyntaxError(str(exc), position=pat) from None
        raise MapSyntaxError(f"unknown identifier {value!r}", position=at)


def _parsed(parser, text):
    """The tree a parser reads from text, or the class, message and position of its error."""
    try:
        return parser(text).parse()
    except PadynError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@st.composite
def _corrupted(draw):
    """A well-formed expression with up to three characters replaced by up to two tokens."""
    text = draw(_EXPRESSIONS)
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(start + 3, len(text))))
    return text[:start] + "".join(draw(st.lists(_TOKENS, max_size=2))) + text[stop:]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_TOKENS, max_size=14).map("".join), _corrupted()))
@example("(" * 200 + "x" + ")" * 200)
@example("sigma(" * 150 + "x" + ")" * 149)
@example("C(" * 60 + "x" + ",2)" * 59 + ",)")
@example("-(x^2*-sigma^2(x) - -(C(x,3)))^3 * mahler[1,-2](-x)^2 x")
def test_parser_matches_the_recursive_reference(text):
    # the same tree, or the same error at the same position, on every input of at most 200 brackets
    assert text.count("(") <= 200
    assert _parsed(mapdsl._Parser, text) == _parsed(_RecursiveParser, text)


@pytest.mark.parametrize(
    "text",
    [
        'auto("{good}")(sigma(x))^2 + x', 'auto("{good}")(x', 'auto("{missing}")(x',
        'auto("{missing}")(x x)', 'auto("{missing}")(x)', 'auto("{silent}")(x + C(x, 2))',
        'auto("{silent}")(x + C(x, 2)', 'x + auto("{good}")(auto("{silent}")(x)) + auto("{missing}")(x)',
    ],
)
def test_parser_loads_an_automaton_where_the_reference_does(text, shift1_path, tmp_path):
    # a file is read once its operand is parsed and its bracket closed, so a syntax
    # error inside it comes before the file's own errors
    silent = tmp_path / "silent.aut"
    silent.write_text("p 2\nstates s\ninitial s\ns 0 -> s / -\ns 1 -> s / -\n")
    text = text.format(good=shift1_path, missing=tmp_path / "missing.aut", silent=silent)
    assert _parsed(mapdsl._Parser, text) == _parsed(_RecursiveParser, text)


@pytest.mark.parametrize("text", ["x^\u00b2", "x+\u0663"])  # a superscript two, an Arabic-Indic three
def test_only_ascii_digits_are_numbers(text):
    with pytest.raises(MapSyntaxError, match=r"unexpected character .* \(at position 2\)"):
        parse_map(text)


@pytest.mark.parametrize(
    "text",
    [
        "x^2 + x + 1",
        "sigma^2(3*x + 1)",
        "-x^2 + 3",
        "(x + 1)*(x - 1)",
        "C(sigma(x), 4)",
        "mahler[1,-2,4](x^2)",
        "x - (x - 1)",
        "2*x*x - -3",
    ],
)
def test_pretty_print_round_trip(text):
    tree = parse_map(text)
    assert parse_map(to_text(tree)) == tree


def test_auto_round_trip(shift1_path):
    tree = parse_map(f'auto("{shift1_path}")(sigma(x)) + x')
    assert parse_map(to_text(tree)) == tree
    assert tree != parse_map(f'auto("{shift1_path}")(x) + x')


def test_corpus_round_trip(corpus_texts):
    for text in corpus_texts:
        tree = parse_map(text)
        assert parse_map(to_text(tree)) == tree


# --- lookahead ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text, p, expected",
    [
        ("x^2+1", 2, 0),
        ("sigma^2(x)", 2, 2),
        ("C(x,4)", 2, 3),
        ("C(x,4)", 3, 1),
        ("mahler[1,2,4](x)", 2, 1),
        ("mahler[1,2,4](x)", 3, 0),
        ("sigma(C(x,2))", 2, 2),
        ("sigma(x) + sigma^3(x)", 2, 3),
    ],
)
def test_lookahead_bound(text, p, expected):
    assert lookahead_bound(parse_map(text), p) == expected


def test_lookahead_bound_auto(shift1_path):
    e = parse_map(f'auto("{shift1_path}")(sigma(x))')
    assert lookahead_bound(e, 2) == 2


def test_polynomials_have_zero_lookahead(corpus_texts):
    for text in corpus_texts:
        if "sigma" in text or "C(" in text or "mahler" in text:
            continue
        assert lookahead_bound(parse_map(text), 2) == 0


# --- evaluation ---------------------------------------------------------------


def test_eval_shift_of_increment():
    out = eval_map(parse_map("sigma(x+1)"), PadicApprox(2, 4, 3))
    assert (out.residue, out.precision) == (2, 3)


def test_eval_square():
    out = eval_map(parse_map("x^2"), PadicApprox(3, 2, 2))
    assert (out.residue, out.precision) == (4, 2)


def test_eval_mahler_literal():
    out = eval_map(parse_map("mahler[0,0,1](x)"), PadicApprox(2, 4, 5))
    assert (out.residue, out.precision) == (2, 3)  # C(5,2) = 10, one digit spent


def test_eval_precision_exhausted():
    with pytest.raises(PrecisionError):
        eval_map(parse_map("sigma^2(x)"), PadicApprox(2, 2, 3))


def test_eval_auto_matches_sigma(shift1_path):
    e = parse_map(f'auto("{shift1_path}")(x)')
    for r in range(16):
        out = eval_map(e, PadicApprox(2, 4, r))
        assert (out.residue, out.precision) == (r // 2, 3)


def test_eval_auto_mismatched_prime(shift1_path):
    e = parse_map(f'auto("{shift1_path}")(x)')
    with pytest.raises(ValueError, match="p="):
        eval_map(e, PadicApprox(3, 4, 5))


def test_eval_auto_composes_with_sigma(shift1_path):
    e = parse_map(f'auto("{shift1_path}")(sigma(x))')
    for r in range(32):
        out = eval_map(e, PadicApprox(2, 5, r))
        assert (out.residue, out.precision) == (r // 4, 3)


# --- tabulation ---------------------------------------------------------------


def test_tabulate_increment():
    assert tabulate(parse_map("x+1"), 2, 4, 2) == (1, 2, 3, 0)


def test_tabulate_shift():
    assert tabulate(parse_map("sigma(x)"), 2, 8, 2) == (0, 0, 1, 1, 2, 2, 3, 3)


def test_tabulate_square():
    assert tabulate(parse_map("x^2"), 2, 4, 2) == (0, 1, 0, 1)


def test_tabulate_budget():
    with pytest.raises(BudgetError):
        tabulate(parse_map("x"), 2, 2**8, 8, budget=100)
    assert len(tabulate(parse_map("x"), 2, 100, 8, budget=100)) == 100


def test_budget_message_is_rendered_only_when_the_budget_trips(monkeypatch):
    # C(x,40) costs 2 entries per point, so its budget message names a node; printing
    # the node walks its tree, which a call that fits the budget must not pay for
    rendered = []
    monkeypatch.setattr(mapdsl, "to_text", lambda e: rendered.append(e) or to_text(e))
    assert len(tabulate(parse_map("C(x,40)"), 2, 256, 14)) == 256
    assert rendered == []
    with pytest.raises(BudgetError, match=r"2 entries of work each \(41 operations per point, "
                       r"41 of them in C\(x, 40\)\) exceeds budget 256$"):
        tabulate(parse_map("C(x,40)"), 2, 256, 14, budget=256)
    assert rendered == [Binom(Var(), 40)]


def test_polynomial_tables_are_one_lipschitz(corpus_texts):
    # zero-lookahead expressions: table over Z/p^k must be 1-Lipschitz
    for text in corpus_texts:
        e = parse_map(text)
        if lookahead_bound(e, 2) != 0:
            continue
        table = tabulate(e, 2, 32, 5)
        for a in range(32):
            for b in range(a + 1, 32):
                agree = ((a ^ b) & -(a ^ b)).bit_length() - 1  # lowest differing bit
                assert (table[a] - table[b]) % (2**agree) == 0


# --- deep trees ---------------------------------------------------------------


def _chain(make, depth, leaf=Var()):
    e = leaf
    for _ in range(depth):
        e = make(e)
    return e


@pytest.mark.parametrize(
    "build, bound, degree, shape, slope",
    [
        (lambda leaf: _chain(lambda e: Sigma(1, e), 2000, leaf), 2000, None, "sigma(" * 2000 + "x" + ")" * 2000, 0),
        (lambda leaf: _chain(lambda e: Add(e, Var()), 9999, leaf), 0, 1, " + ".join(["x"] * 10000), 10000),
        (lambda leaf: _chain(Neg, 2000, leaf), 0, 1, "-" * 2000 + "x", 1),
    ],
    ids=["sigma-2000", "sum-10000", "neg-2000"],
)
def test_deep_trees_are_analysed_and_evaluated_without_recursion(build, bound, degree, shape, slope):
    # the parser is a loop over the tokens, every other walk a loop over the map's program,
    # and ==, hash and repr walk the records in a loop, so the default recursion limit of
    # 1000 is no bound.  The sum is 10000 x, the signs an even count of negations, and
    # sigma^2000 of an input below 3^2003 its digits past the 2000th
    p, q = 3, 27
    e, twin = build(Var()), build(Var())
    assert e == twin and e is not twin and hash(e) == hash(twin) and e != build(Const(1))
    assert repr(e) == repr(twin) and repr(e).startswith(f"{type(e).__name__}(")
    assert lookahead_bound(e, p) == bound
    assert binomial_degree(e) == degree
    text = to_text(e)
    assert text == shape
    parsed = parse_map(text)
    assert parsed == e and hash(parsed) == hash(e)
    assert tabulate(e, p, q, 3) == tuple(slope * i % q for i in range(q))
    x = PadicApprox(p, bound + 3, 5 * p**bound)
    assert eval_map(e, x).residue == (5 if bound else slope * 5 % q)
    assert mahler_coeffs(e, p, 4, 3).residues == (0, slope % q, 0, 0, 0)


# --- step order ---------------------------------------------------------------


def test_step_order_examples():
    assert step_order([7, 7, 7, 7], 2) == 0
    assert step_order([0, 1, 0, 1], 2) == 1  # table of delta_0 over Z/4
    assert step_order([0, 1, 2, 3, 0, 1, 2, 3], 2) == 2  # x mod 4 over Z/8
    assert step_order([5], 3) == 0


def test_step_order_rejects_bad_length():
    with pytest.raises(ValueError):
        step_order([1, 2, 3], 2)


def test_step_order_and_factorial_valuation_refuse_a_p_that_is_not_prime():
    # each call looped forever before p was checked, so they run in a child under a timeout
    probe = (
        "from padyn.mapdsl import factorial_valuation, step_order\n"
        "for call in ('step_order([0, 0], 1)', 'step_order([0, 0, 0], -1)', 'factorial_valuation(5, 1)'):\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(mapdsl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=30)
    assert done.stdout.splitlines() == [
        "p must be prime, got 1", "p must be prime, got -1", "p must be prime, got 1",
    ], done.stderr


# --- complex-shift decomposition ------------------------------------------------


def test_decompose_shift():
    d = decompose_complex_shift(parse_map("sigma(x)"), 2, 1, 6)
    assert d.verified
    assert d.t_table == (0, 0)
    for z in (0, 1):
        for t in range(8):
            assert d.g_value(z, t) == t
    assert step_order(d.t_table, 2) <= 1


def test_decompose_identity():
    d = decompose_complex_shift(parse_map("x"), 2, 1, 6)
    assert d.verified
    assert d.t_table == (0, 1)
    for z in (0, 1):
        for t in range(8):
            assert d.g_value(z, t) == 2 * t
    assert step_order(d.t_table, 2) <= 1


def test_decompose_double_shift_fails_at_level_one():
    d = decompose_complex_shift(parse_map("sigma^2(x)"), 2, 1, 3)
    assert not d.verified
    z, t0, t1, j = d.witness
    # the witness really breaks the Lipschitz comparison
    assert (t0 - t1) % 2**j == 0
    assert (d.g_value(z, t0) - d.g_value(z, t1)) % 2**j != 0


def test_decompose_budget():
    with pytest.raises(BudgetError):
        decompose_complex_shift(parse_map("x"), 2, 1, 10, budget=100)


def test_decompose_refuses_a_table_past_max_digits_before_its_size_is_computed():
    # 3^4000000 alone takes seconds to compute; the refusal is the one reduced_map gives
    limit = mapdsl.MAX_DIGITS
    message = f"a table on Z/p^4000001 needs inputs of 4000001 digits; the limit is {limit}"
    with pytest.raises(BudgetError, match=re.escape(message)):
        decompose_complex_shift(parse_map("x"), 3, 4000000, 1)


# --- padding independence --------------------------------------------------------


@pytest.mark.parametrize("p, digits", [(2, 8), (3, 5)])
def test_padding_independence(corpus_texts, p, digits):
    # inputs congruent mod p^(k + bound) give outputs congruent mod p^k
    for text in corpus_texts:
        e = parse_map(text)
        bound = lookahead_bound(e, p)
        values = [
            eval_map(e, PadicApprox(p, digits, v)).residue for v in range(p**digits)
        ]
        for k in range(1, digits - bound + 1):
            window = p ** (k + bound)
            for v in range(p**digits):
                assert (values[v] - values[v % window]) % p**k == 0, (text, k, v)
