"""A small expression language for self-maps of the p-adic integers.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := uint | 'x' | '(' expr ')'
            | 'sigma' ['^' uint] '(' expr ')'
            | 'C' '(' expr ',' uint ')'
            | 'mahler' '[' int {',' int} ']' '(' expr ')'
            | 'auto' '(' string ')' '(' expr ')'

Signed integers are accepted inside mahler coefficient lists and as unary
minus on factors; exponents and binomial lower indices stay unsigned.

Evaluation works on integers: the input is lifted to its unique
zero-padded integer representative, and the result is the exact integer
value there, reduced to the precision the lookahead bound certifies.  A
map is flattened once into a post-order program that every analysis loops
over; the column evaluator runs it on a block of lifts at a time, each node
reading its operands only mod the power of p its own certified digits need
(digit shifts are floor divisions, binomials exact ones, automata keep the
output digits their input certifies).  A polynomial subtree of low degree is built on the
block by running sums of its first differences.  Its work per point is charged to the budget.
"""
from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import comb
from pathlib import Path

from . import automata
from ._record import Record
from .errors import AutomatonFormatError, BudgetError, DegenerateAutomatonError
from .errors import MapSyntaxError, PrecisionError
from .padic import PadicApprox, _check_prime, _count_factors

__all__ = [
    "DEFAULT_BUDGET",
    "MAX_DIGITS",
    "MapExpr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Pow",
    "Sigma",
    "Binom",
    "MahlerLit",
    "AutoApply",
    "ComplexShiftDecomposition",
    "binomial_degree",
    "decompose_complex_shift",
    "eval_map",
    "factorial_valuation",
    "lookahead_bound",
    "parse_map",
    "step_order",
    "tabulate",
    "to_text",
]

DEFAULT_BUDGET = 1 << 22  # max table entries for any single enumeration


# --- abstract syntax ---------------------------------------------------


class Const(Record):
    value: int


class Var(Record):
    pass


class Neg(Record):
    operand: "MapExpr"


class Add(Record):
    left: "MapExpr"
    right: "MapExpr"


class Sub(Record):
    left: "MapExpr"
    right: "MapExpr"


class Mul(Record):
    left: "MapExpr"
    right: "MapExpr"


class Pow(Record):
    base: "MapExpr"
    exponent: int


class Sigma(Record):
    shifts: int
    operand: "MapExpr"


class Binom(Record):
    operand: "MapExpr"
    lower: int


class MahlerLit(Record):
    coeffs: tuple[int, ...]
    operand: "MapExpr"


class AutoApply(Record):
    path: str
    automaton: automata.Automaton
    deficit: int
    operand: "MapExpr"

    @classmethod
    def checked(cls, path: str, machine: automata.Automaton, operand: "MapExpr") -> AutoApply:
        """Apply a loaded machine to operand; degenerate machines and ones
        with unbounded lookahead are rejected."""
        verdict = automata.check_nondegenerate(machine)
        if not verdict.nondegenerate:
            raise DegenerateAutomatonError(
                f"automaton {path!r} is degenerate at state {verdict.witness}"
            )
        return cls(path, machine, automata.max_output_deficit(machine), operand)

    @cached_property
    def chunks(self) -> tuple[int, list[int], list[int], list[int]]:
        """``automata.chunk_tables`` of the machine, built once per node."""
        return automata.chunk_tables(self.automaton)


MapExpr = (
    Const | Var | Neg | Add | Sub | Mul | Pow | Sigma | Binom | MahlerLit | AutoApply
)


# --- tokenizer / parser ------------------------------------------------

_SYMBOLS = "+-*^(),[]"
_DIGITS = "0123456789"  # ASCII only: str.isdigit also takes superscripts and other scripts' digits
_EXPECTED = {"int": "expected a non-negative integer", "str": "expected a quoted file path"}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c, j = text[i], i + 1
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
        elif c in _DIGITS:
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise MapSyntaxError(f"a number of {j - i} digits is too long", position=i) from None
        elif c.isalpha() or c == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif c == '"':
            j = text.find('"', i + 1) + 1
            if not j:
                raise MapSyntaxError("unterminated string", position=i)
            tokens.append(("str", text[i + 1 : j - 1], i))
        elif not c.isspace():
            raise MapSyntaxError(f"unexpected character {c!r}", position=i)
        i = j
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """The tokens read through one cursor, in one loop: ``accept`` takes an optional symbol,
    ``expect`` a required token, and ``atom`` an atom or the opening of a bracketed one."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def accept(self, symbols: str) -> str | None:
        """The next token if it is one of ``symbols``, consumed; else None."""
        kind, value, _ = self.tokens[self.pos]
        if kind != "sym" or value not in symbols:
            return None
        self.pos += 1
        return value

    def expect(self, kind: str, symbol: str | None = None):
        """The value of the next token, consumed; it must be of ``kind`` (and be ``symbol``)."""
        found, value, at = self.tokens[self.pos]
        if found != kind or symbol not in (None, value):
            raise MapSyntaxError(_EXPECTED.get(kind, f"expected {symbol!r}"), position=at)
        self.pos += 1
        return value

    def parse(self) -> MapExpr:
        """expr, then the end of the text.  An expression's state is its sum, the sign that
        adds the next term, the term's product so far and the minus signs of its factor.  A
        bracket's '(' pushes a frame of its closer, the builder of its node and the state
        outside it; the closer pops it, and the built node is an atom of the outer factor."""
        frames = []
        total, op, product, signs = None, "+", None, 0
        while True:
            while self.accept("-"):
                signs += 1
            atom = self.atom()
            if isinstance(atom, tuple):
                frames.append((atom, total, op, product, signs))
                total, op, product, signs = None, "+", None, 0
                continue
            while True:  # the factor ends; so may its term, its expression and its brackets
                if self.accept("^"):
                    atom = Pow(atom, self.expect("int"))
                for _ in range(signs):
                    atom = Neg(atom)
                product, signs = atom if product is None else Mul(product, atom), 0
                if self.accept("*"):
                    break
                total = product if total is None else (Add if op == "+" else Sub)(total, product)
                product, op = None, self.accept("+-")
                if op:
                    break
                if not frames:
                    kind, _, at = self.tokens[self.pos]
                    if kind != "end":
                        raise MapSyntaxError("trailing input", position=at)
                    return total
                inner, ((close, build), total, op, product, signs) = total, frames.pop()
                self.expect("sym", close)
                atom = build(inner)

    def atom(self) -> MapExpr | tuple[str, Callable]:
        """An atom without brackets, or, once the '(' of one with brackets is read, the
        closer of that bracket and the builder of the atom from the expression inside."""
        kind, value, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            return Const(value)
        if kind == "sym" and value == "(":
            return ")", lambda e: e
        if kind != "name":
            raise MapSyntaxError("expected an expression", position=at)
        if value == "x":
            return Var()
        if value == "sigma":
            shifts = self.expect("int") if self.accept("^") else 1
            self.expect("sym", "(")
            return ")", lambda e: Sigma(shifts, e)
        if value == "C":  # the operand ends at the comma; the builder reads the lower index and ')'
            self.expect("sym", "(")
            return ",", lambda e: Binom(e, (self.expect("int"), self.expect("sym", ")"))[0])
        if value == "mahler":
            self.expect("sym", "[")
            coeffs = []
            while not coeffs or self.accept(","):
                coeffs.append(-self.expect("int") if self.accept("-") else self.expect("int"))
            self.expect("sym", "]")
            self.expect("sym", "(")
            return ")", lambda e: MahlerLit(tuple(coeffs), e)
        if value == "auto":
            self.expect("sym", "(")
            pat = self.tokens[self.pos][2]
            path = self.expect("str")
            self.expect("sym", ")")
            self.expect("sym", "(")

            def apply(e: MapExpr) -> AutoApply:  # the file is read once its operand is parsed
                machine = _load_automaton(path)
                try:
                    return AutoApply.checked(path, machine, e)
                except DegenerateAutomatonError as exc:
                    raise MapSyntaxError(str(exc), position=pat) from None

            return ")", apply
        raise MapSyntaxError(f"unknown identifier {value!r}", position=at)


def _load_automaton(path: str) -> automata.Automaton:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise AutomatonFormatError(
            f"cannot read automaton file {path!r}: {exc.strerror or exc}"
        ) from exc
    return automata.parse_automaton(text)


def parse_map(text: str) -> MapExpr:
    """Parse a map expression; automaton references are loaded eagerly."""
    return _Parser(text).parse()


# --- programs ----------------------------------------------------------


def _program(e: MapExpr) -> list[tuple[MapExpr, tuple[int, ...]]]:
    """e in post order, without recursion: (node, indices of its operands) per node, e
    last.  A node's operands are its fields that are map nodes, in field order."""
    if not isinstance(e, MapExpr):
        raise TypeError(f"not a map expression: {e!r}")
    program, unread, todo = [], [], [(e, None)]  # unread: indices no reader has taken yet
    while todo:
        node, arity = todo.pop()
        if arity is None:
            operands = [v for v in node._values(node) if isinstance(v, MapExpr)]
            todo += [(node, len(operands)), *((v, None) for v in reversed(operands))]
        else:  # its operands are the last ``arity`` unread instructions
            program.append((node, tuple(unread[len(unread) - arity :])))
            unread[len(unread) - arity :] = [len(program) - 1]
    return program


def _fold(program: list, rule: Callable):
    """rule(node, its operands' results) over a program, in order: the last result.
    A result is dropped once it is read."""
    results = {}
    for i, (node, args) in enumerate(program):
        results[i] = rule(node, [results.pop(j) for j in args])
    return results[i]


# --- pretty printer ----------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4
# node type -> (the least precedence of each unbracketed operand, its own, its text)
_TEXT = {
    Const: ((), _PREC_ATOM, lambda e: str(e.value)),
    Var: ((), _PREC_ATOM, lambda e: "x"),
    Neg: ((_PREC_UNARY,), _PREC_UNARY, lambda e, v: f"-{v}"),
    Add: ((_PREC_ADD, _PREC_ADD + 1), _PREC_ADD, lambda e, a, b: f"{a} + {b}"),
    Sub: ((_PREC_ADD, _PREC_ADD + 1), _PREC_ADD, lambda e, a, b: f"{a} - {b}"),
    Mul: ((_PREC_MUL, _PREC_MUL + 1), _PREC_MUL, lambda e, a, b: f"{a}*{b}"),
    Pow: ((_PREC_ATOM,), _PREC_UNARY, lambda e, v: f"{v}^{e.exponent}"),
    Sigma: ((0,), _PREC_ATOM, lambda e, v: f"sigma({v})" if e.shifts == 1 else f"sigma^{e.shifts}({v})"),
    Binom: ((0,), _PREC_ATOM, lambda e, v: f"C({v}, {e.lower})"),
    MahlerLit: ((0,), _PREC_ATOM, lambda e, v: f"mahler[{','.join(str(c) for c in e.coeffs)}]({v})"),
    AutoApply: ((0,), _PREC_ATOM, lambda e, v: f'auto("{e.path}")({v})'),
}


def _render(e: MapExpr, operands: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of e and its precedence, from those of its operands."""
    least, prec, text = _TEXT[type(e)]
    return text(e, *(t if own >= need else f"({t})" for (t, own), need in zip(operands, least))), prec


def to_text(e: MapExpr) -> str:
    """Render an expression so that re-parsing reproduces the same tree."""
    return _fold(_program(e), _render)[0]


# --- lookahead analysis ------------------------------------------------


def factorial_valuation(m: int, p: int) -> int:
    """Exponent of p in m! (Legendre's formula); p must be prime."""
    _check_prime(p)
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def _series_top(e: Binom | MahlerLit) -> int:
    """The index of a series' last nonzero coefficient: m for C(v, m), 0 for none."""
    if isinstance(e, Binom):
        return e.lower
    return max((m for m, a in enumerate(e.coeffs) if a != 0), default=0)


def _consumed(e: MapExpr, p: int) -> int:
    """Digits e itself consumes: its operand mod p**(k + this) fixes e mod p**k.  Digit
    shifts spend their shifts, series v_p(top!), automata their deficit, other nodes none."""
    if isinstance(e, Sigma):
        return e.shifts
    if isinstance(e, (Binom, MahlerLit)):
        return factorial_valuation(_series_top(e), p)
    if isinstance(e, AutoApply):
        return e.deficit
    return 0


def lookahead_bound(e: MapExpr, p: int) -> int:
    """A certified bound L: inputs equal mod p**(k+L) give outputs equal
    mod p**k.  Polynomial expressions get 0; digit shifts and binomial
    denominators consume digits."""
    return _fold(_program(e), lambda node, bounds: max(bounds, default=0) + _consumed(node, p))


def binomial_degree(e: MapExpr) -> int | None:
    """Degree of the expression as a polynomial, or None if it is not one.

    A polynomial of degree d has zero Mahler coefficients beyond index d,
    which lets theorem checkers report a total verdict.
    """
    return _fold(_program(e), _degree)


def _degree(node: MapExpr, degrees: list[int | None]) -> int | None:  # from its operands'
    if None in degrees or isinstance(node, (Sigma, AutoApply)):
        return None
    if isinstance(node, Mul):
        return sum(degrees)
    if isinstance(node, (Pow, Binom, MahlerLit)):
        return degrees[0] * (node.exponent if isinstance(node, Pow) else _series_top(node))
    return max(degrees, default=int(isinstance(node, Var)))  # Neg, Add, Sub; Const 0, Var 1


# --- evaluation --------------------------------------------------------

# A column is the values of a node at a block of consecutive zero-padded lifts,
# or at one lift.  A node certifying d digits returns values congruent to the
# exact integer value mod p**d, with a bound on their bit length.  Sigma,
# binomials, series and automata reduce into [0, p**d) in the pass that computes
# them; a product or power reduces only where its bound passes p**d by
# _SLACK_BITS; Var, Neg, Add and Sub never do.  Running sums may pass their
# nodes' bound, which their reader is charged by, up to _SLACK_BITS past p**d.
Column = Callable[[Sequence[int]], Sequence[int]]

_BLOCK = 4096  # lifts per column: the columns of one block live next to the table, so keep them short
_SLACK_BITS = 64  # a product this much wider than its modulus costs less than reducing it
_OPS_PER_ENTRY = 32  # operations per point on values of <= 128 bits that one budget entry stands for
MAX_DIGITS = 1 << 20  # the widest values the evaluator takes on: output digits + lookahead bound


def _units(bits: int) -> int:
    """Operations on values of <= 128 bits that one operation on ``bits``-bit values
    stands for, the other operand being small; two wide operands cost the product."""
    return 1 + bits // 128


def _reduced_exponent(exponent: int, p: int, digits: int) -> int:
    """An exponent with the same power mod p**digits at every integer: a unit's
    powers repeat with period phi(p**digits), and v**e = 0 mod p**digits once p | v
    and e >= digits."""
    phi = p ** (digits - 1) * (p - 1)
    return exponent if exponent < digits + phi else digits + (exponent - digits) % phi


def _step(
    e: MapExpr, p: int, digits: int, q: int, wide: int, operand_bits: list[int], lift_bits: int, costs: list
) -> tuple[Callable, int]:
    """Node e's instruction certifying ``digits`` digits, mod q = p**digits, its operands
    read mod ``wide``: a function of the lifts and its operands' columns, and its values'
    bit bound from theirs.  Appends (operations per point, e) to ``costs`` if e does work."""
    if isinstance(e, Const):
        value = e.value % q
        return (lambda xs: [value] * len(xs)), value.bit_length()
    if isinstance(e, Var):
        return (lambda xs: xs), lift_bits
    if isinstance(e, (Neg, Add, Sub)):  # a sum is a bit wider than its terms
        bits = max(operand_bits)
        costs.append((_units(bits), e))
        op = {Neg: operator.neg, Add: operator.add, Sub: operator.sub}[type(e)]
        return (lambda xs, *cols: list(map(op, *cols))), bits + len(operand_bits) - 1
    if isinstance(e, Mul):
        lbits, rbits = operand_bits
        costs.append((_units(lbits) * _units(rbits), e))
        if lbits + rbits <= q.bit_length() + _SLACK_BITS:
            return (lambda xs, a, b: list(map(operator.mul, a, b))), lbits + rbits
        return (lambda xs, a, b: [u * v % q for u, v in zip(a, b)]), q.bit_length()
    (bits,) = operand_bits
    if isinstance(e, Pow):
        exponent = _reduced_exponent(e.exponent, p, digits)
        costs.append((max(1, exponent.bit_length()) * _units(min(bits * exponent, q.bit_length())) ** 2, e))
        if bits * exponent <= q.bit_length() + _SLACK_BITS:
            return (lambda xs, v: list(map(pow, v, repeat(exponent)))), max(1, bits * exponent)
        return (lambda xs, v: list(map(pow, v, repeat(exponent), repeat(q)))), q.bit_length()
    if isinstance(e, Sigma):
        costs.append((_units(bits), e))
        divisor = p**e.shifts
        return (lambda xs, v: [u % wide // divisor for u in v]), q.bit_length()
    if isinstance(e, AutoApply):
        return _transducer(e, p, digits, q, bits, costs)
    return _series(e, p, q, wide, bits, costs)


def _compile(e: MapExpr, p: int, digits: int, lift_bits: int, costs: list) -> tuple[list, int]:
    """e's (instruction, operand indices) for ``_fold``, and its values' bit bound, for lifts
    of at most ``lift_bits`` bits.  Appends (operations per point, node) to ``costs`` for
    each node that does work, operands first.  Values past MAX_DIGITS digits are refused."""
    program = _program(e)
    need = [digits] * len(program)  # digits each node certifies: its reader's, plus what that consumes
    for i in range(len(program) - 1, -1, -1):
        node, args = program[i]
        for j in args:
            need[j] = need[i] + _consumed(node, p)
    if max(need) > MAX_DIGITS:
        raise BudgetError(f"{_brief(e)} needs values of {max(need)} digits; the limit is {MAX_DIGITS}")
    moduli = [p**digits] * len(program)  # p**need, each from its reader's by one product
    for i in range(len(program) - 1, -1, -1):
        for j in program[i][1]:
            moduli[j] = moduli[i] * p ** (need[j] - need[i])
    degrees = []  # each node's degree, None for a node that is no polynomial
    for node, args in program:
        degrees.append(_degree(node, [degrees[j] for j in args]))
    inner = {j for (_, args), degree in zip(program, degrees) if degree is not None for j in args}
    steps, bits, at, starts = [], [], [], []  # at: each node's index in steps
    for i, ((node, args), d, q, degree) in enumerate(zip(program, need, moduli, degrees)):
        starts.append(starts[args[0]] if args else (len(steps), len(costs)))  # at its subtree's first node
        wide = moduli[args[0]] if args else q  # every operand of a node certifies the same digits
        step, b = _step(node, p, d, q, wide, [bits[j] for j in args], lift_bits, costs)
        at.append(len(steps))
        steps.append((step, tuple(at[j] for j in args)))
        bits.append(b)
        # a maximal polynomial subtree is one instruction where its running sums take fewer passes
        # than its operations per point, and stay within the slack a product column has
        base, mark = starts[i]  # no subtree of a polynomial is replaced, so base is still its start
        if i not in inner and degree is not None and degree < sum(c for c, _ in costs[mark:]):
            if degree * _BLOCK.bit_length() <= _SLACK_BITS:
                subtree = [(f, tuple(j - base for j in a)) for f, a in steps[base:]]
                reduced = isinstance(node, (Binom, MahlerLit))  # as the root's own pass leaves it
                steps[base:] = [(_running_sums(subtree, q, degree, reduced), ())]
                at[i] = base
    return steps, bits[-1]


def _running_sums(program: list, q: int, degree: int, reduced: bool) -> Callable:
    """A polynomial subtree's instruction, its nodes' ``program``, on a block of consecutive
    lifts: the program at the first degree + 1, their forward differences mod q, and the block
    from those by ``degree`` running sums, as Delta^(degree + 1) of it is 0; a shorter block
    takes the program.  Values are below q len(xs)^degree, or ``reduced`` mod q."""

    def sums(xs):
        head = _fold(program, lambda step, cols: step(xs[: degree + 1], *cols))
        if len(xs) <= degree + 1:
            return head
        deltas = []
        for _ in range(degree + 1):
            deltas.append(head[0] % q)
            head = list(map(operator.sub, head[1:], head))
        column = repeat(deltas.pop(), len(xs) - degree)
        for delta in reversed(deltas):  # Delta^j f from Delta^(j + 1) f, lazily, in C
            column = accumulate(column, initial=delta)
        return [v % q for v in column] if reduced else list(column)

    return sums


def _series(
    e: Binom | MahlerLit, p: int, q: int, wide: int, bits: int, costs: list
) -> tuple[Callable, int]:
    """The sum of a_m C(v, m) mod q, v the operand's column, certified mod ``wide`` =
    q p**v_p(top!).  While v (v-1) ... (v-top+1) stays within _SLACK_BITS of wide, each
    C(v, m) is an exact ``math.comb``.  Past that, with e_m = v_p(m!), the falling factorial
    v (v-1) ... (v-m+1) = m! C(v, m) is taken mod wide and divided by p**e_m exactly; the
    rest of m! is a unit, inverted mod q."""
    coeffs = {e.lower: 1} if isinstance(e, Binom) else {m: a for m, a in enumerate(e.coeffs) if a}
    top = _series_top(e)
    scales = {}  # m -> (p**e_m, a_m times the inverse of the unit part of m!, mod q)
    valuation, unit = 0, 1
    for m in range(1, top + 1):
        v = _count_factors(m, p)
        valuation, unit = valuation + v, unit * (m // p**v) % q
        if m in coeffs:
            scales[m] = p**valuation, coeffs[m] * pow(unit, -1, q) % q
    constant = coeffs.get(0, 0) % q
    exact = top * (bits + 1) <= wide.bit_length() + _SLACK_BITS
    width = min(top * (bits + 1), wide.bit_length() + _SLACK_BITS)
    costs.append(((top + len(scales)) * _units(width) * _units(bits), e))

    def series(xs, v):
        falling = v  # v (v-1) ... (v-t+1) at step t
        total = [constant] * len(v)
        for t in range(1, top + 1):
            if exact and t in scales:  # C(v, t) = (-1)^t C(t - 1 - v, t) for v < 0
                a, sign = coeffs[t] % q, (-1) ** t
                total = [
                    (s + a * (comb(u, t) if u >= 0 else sign * comb(t - 1 - u, t))) % q
                    for s, u in zip(total, v)
                ]
            elif not exact:
                if t > 1:
                    falling = [a * (b - t + 1) % wide for a, b in zip(falling, v)]
                if t in scales:
                    divisor, scale = scales[t]
                    total = [(s + a // divisor * scale) % q for s, a in zip(total, falling)]
        return total

    return series, q.bit_length()


def _transducer(
    e: AutoApply, p: int, digits: int, q: int, bits: int, costs: list
) -> tuple[Callable, int]:
    """The machine's first ``digits`` output digits, mod q.  No run of k letters emits fewer
    than k - deficit, so the operand's first digits + deficit letters fix them; they are read
    c at a time through the chunk tables, and letters past those only append output."""
    if e.automaton.p != p:
        raise ValueError(f"automaton expects p={e.automaton.p}, map evaluated at p={p}")
    c, nexts, values, scales = e.chunks
    steps = -(-(digits + e.deficit) // c)
    chunk = p**c
    costs.append((5 * steps * _units(max(bits, q.bit_length())), e))

    def transduce(xs, v):  # v's p-adic digits, also for a negative value: floor division
        state, value, scale = [0] * len(v), [0] * len(v), [1] * len(v)
        for _ in range(steps):
            at = [s + u % chunk for s, u in zip(state, v)]
            v = [u // chunk for u in v]
            value = [a + values[i] * w for a, i, w in zip(value, at, scale)]
            scale = [w * scales[i] for w, i in zip(scale, at)]
            state = list(map(nexts.__getitem__, at))
        return [a % q for a in value]

    return transduce, q.bit_length()


def _brief(e: MapExpr) -> str:
    """e's text cut to 80 characters, for an error line: a node of a long sum is most of it."""
    text = to_text(e)
    return text if len(text) <= 80 else text[:77] + "..."


def _check_budget(entries: int, budget: int | None, cost: int = 1, why: Callable[[], str] = str) -> None:
    """Charge ``entries`` points of ``cost`` entries of work each; ``why()`` names them, on error."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if entries * cost > limit:
        work = f" at {cost} entries of work each ({why()})" if cost > 1 else ""
        # str() refuses 4300+ digits by default: a wider count goes by its bit length
        count = entries if entries.bit_length() <= 2048 else f"at least 2^{entries.bit_length() - 1}"
        raise BudgetError(f"enumeration of {count} entries{work} exceeds budget {limit}")


def _evaluator(
    e: MapExpr, p: int, digits: int, lifts: int, entries: int, budget: int | None
) -> Column:
    """The one evaluator: the column function of e certifying ``digits`` digits at
    lifts below ``lifts``, once ``entries`` points of it are charged to the budget.
    A point costs one entry per _OPS_PER_ENTRY operations it does on values of
    <= 128 bits, and at least one.  Values wider than MAX_DIGITS digits are refused."""
    _check_prime(p)
    costs = []
    steps, bits = _compile(e, p, digits, (lifts - 1).bit_length(), costs)
    if not isinstance(e, (Sigma, Binom, MahlerLit, AutoApply)):  # may leave [0, p**digits)
        costs.append((_units(bits), e))
        q = p**digits
        steps.append(((lambda xs, v: [u % q for u in v]), (len(steps) - 1,)))
    ops = sum(c for c, _ in costs)
    most, node = max(costs, key=lambda c: c[0], default=(0, e))
    why = lambda: f"{ops} operations per point, {most} of them in {_brief(node)}"
    _check_budget(entries, budget, 1 + ops // _OPS_PER_ENTRY, why)
    return lambda xs: _fold(steps, lambda step, cols: step(xs, *cols))


def eval_map(e: MapExpr, x: PadicApprox) -> PadicApprox:
    """Evaluate at x; the result keeps x.precision - L digits, L the lookahead bound
    (``PrecisionError`` when that is none).

    The value is the exact integer value at the zero-padded lift of x, reduced; the
    reported digits never depend on the choice of lift.  It is a one-point column of
    the evaluator ``tabulate`` uses.
    """
    bound = lookahead_bound(e, x.p)
    if x.precision <= bound:
        raise PrecisionError(f"need more than {bound} input digits, have {x.precision}")
    digits = x.precision - bound
    (value,) = _evaluator(e, x.p, digits, x.p ** x.precision, 1, None)([x.residue])
    return PadicApprox(x.p, digits, value)


def _blocks(
    e: MapExpr, p: int, size: int, digits: int, budget: int | None, stop: int | None = None
) -> Iterator[list[int]]:
    """``tabulate``'s values, a list per ``_BLOCK`` lifts, each evaluated when read;
    the arguments and the budget are checked at the call.  Given ``stop`` <= size, only
    the lifts below it are evaluated, but all size points are charged."""
    if size < 1 or digits < 1:
        raise ValueError("need a table size >= 1 and an output digit count >= 1")
    column = _evaluator(e, p, digits, size, size, budget)
    stop = size if stop is None else stop
    return (column(list(range(start, min(start + _BLOCK, stop)))) for start in range(0, stop, _BLOCK))


def tabulate(
    e: MapExpr, p: int, size: int, digits: int, budget: int | None = None
) -> tuple[int, ...]:
    """Values f(i) mod p**digits for i in range(size), at zero-padded lifts.

    ``dynamics.reduced_map`` keeps the same blocks in an array.  The ``size``
    entries are charged to the budget at the map's work per point.
    """
    return tuple(chain.from_iterable(_blocks(e, p, size, digits, budget)))


def _table_size(p: int, d: int) -> int:
    """p**d, the size of a table on Z/p**d; inputs of more than MAX_DIGITS digits are
    refused before the power is computed."""
    if d > MAX_DIGITS:
        raise BudgetError(f"a table on Z/p^{d} needs inputs of {d} digits; the limit is {MAX_DIGITS}")
    return p**d


def step_order(table, p: int) -> int:
    """Smallest L such that the table is constant on cosets mod p**L; p must be prime."""
    _check_prime(p)
    table = list(table)
    depth = 0
    while p**depth < len(table):
        depth += 1
    if p**depth != len(table):
        raise ValueError(f"table length {len(table)} is not a power of {p}")
    # constant on cosets mod p**L: the table is its first p**L entries repeated
    return next(level for level in range(depth + 1) if table == table[: p**level] * p ** (depth - level))


# --- complex-shift decomposition ----------------------------------------


class ComplexShiftDecomposition(Record):
    """Split f(x) = G_z(t) + T(x) at level n, checked to a finite depth.

    ``t_table[z]`` is the step-function value on the coset of z mod p**n;
    ``g_value(z, t)`` evaluates the residual map, which must be
    1-Lipschitz in t for the split to be valid.  ``witness`` carries
    (z, t, t', j) for the first failed Lipschitz comparison.
    """

    p: int
    n: int
    depth: int
    t_table: tuple[int, ...]
    f_table: tuple[int, ...]
    verified: bool
    witness: tuple[int, int, int, int] | None

    @property
    def modulus(self) -> int:
        return self.p ** (self.n + self.depth)

    def g_value(self, z: int, t: int) -> int:
        return (self.f_table[z + self.p ** self.n * t] - self.t_table[z]) % self.modulus


def decompose_complex_shift(
    e: MapExpr, p: int, n: int, depth: int, budget: int | None = None
) -> ComplexShiftDecomposition:
    """Extract T and the G_z family and verify the split exhaustively.

    T(z) is the value of the map at the zero-padded representative of z;
    G_z(t) = f(z + p**n t) - T(z).  The sweep checks that every G_z is
    1-Lipschitz at all depths j <= depth.
    """
    if n < 1:
        raise ValueError("complex-shift level must be >= 1")
    if depth < 1:
        raise ValueError("test depth must be >= 1")
    f_table = tabulate(e, p, _table_size(p, n + depth), n + depth, budget)
    block = p ** n
    t_table = f_table[:block]
    # G_z is 1-Lipschitz at depth j iff G_z(t) = G_z(t mod p**j) mod p**j for all t
    witness = next(
        (
            (z, t % p ** j, t, j)
            for z in range(block)
            for j in range(1, depth + 1)
            for t in range(p ** depth)
            if (f_table[z + block * t] - f_table[z + block * (t % p ** j)]) % p ** j
        ),
        None,
    )
    return ComplexShiftDecomposition(p, n, depth, t_table, f_table, witness is None, witness)
