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
zero-padded integer representative, the tree is computed over the integers
(digit shifts are floor divisions, binomials are exact falling-factorial
divisions, automata keep the output digits their input certifies), and the
result is reduced to the precision the lookahead bound certifies.  Maps
are compiled once (``compile_map``) into closures doing per-point work only.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import automata
from .errors import AutomatonFormatError, BudgetError, DegenerateAutomatonError
from .errors import MapSyntaxError, PrecisionError
from .padic import PadicApprox, binomial_eval, is_prime

__all__ = [
    "DEFAULT_BUDGET",
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
    "compile_map",
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


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "MapExpr"


@dataclass(frozen=True)
class Add:
    left: "MapExpr"
    right: "MapExpr"


@dataclass(frozen=True)
class Sub:
    left: "MapExpr"
    right: "MapExpr"


@dataclass(frozen=True)
class Mul:
    left: "MapExpr"
    right: "MapExpr"


@dataclass(frozen=True)
class Pow:
    base: "MapExpr"
    exponent: int


@dataclass(frozen=True)
class Sigma:
    shifts: int
    operand: "MapExpr"


@dataclass(frozen=True)
class Binom:
    operand: "MapExpr"
    lower: int


@dataclass(frozen=True)
class MahlerLit:
    coeffs: tuple[int, ...]
    operand: "MapExpr"


@dataclass(frozen=True)
class AutoApply:
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


MapExpr = (
    Const | Var | Neg | Add | Sub | Mul | Pow | Sigma | Binom | MahlerLit | AutoApply
)


# --- tokenizer / parser ------------------------------------------------

_SYMBOLS = "+-*^(),[]"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise MapSyntaxError("unterminated string", position=i)
            tokens.append(("str", text[i + 1 : j], i))
            i = j + 1
            continue
        raise MapSyntaxError(f"unexpected character {c!r}", position=i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, at = self.next()
        if kind != "sym" or value != sym:
            raise MapSyntaxError(f"expected {sym!r}", position=at)

    def expect_uint(self) -> int:
        kind, value, at = self.next()
        if kind != "int":
            raise MapSyntaxError("expected a non-negative integer", position=at)
        return value

    def expect_int(self) -> int:
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.next()
            return -self.expect_uint()
        return self.expect_uint()

    def parse(self) -> MapExpr:
        e = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise MapSyntaxError("trailing input", position=at)
        return e

    def expr(self) -> MapExpr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if value == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> MapExpr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "*":
                self.next()
                e = Mul(e, self.factor())
            else:
                return e

    def factor(self) -> MapExpr:
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.next()
            return Neg(self.factor())
        e = self.atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.next()
            return Pow(e, self.expect_uint())
        return e

    def atom(self) -> MapExpr:
        kind, value, at = self.next()
        if kind == "int":
            return Const(value)
        if kind == "sym" and value == "(":
            e = self.expr()
            self.expect_sym(")")
            return e
        if kind == "name":
            if value == "x":
                return Var()
            if value == "sigma":
                shifts = 1
                k, v, _ = self.peek()
                if k == "sym" and v == "^":
                    self.next()
                    shifts = self.expect_uint()
                self.expect_sym("(")
                e = self.expr()
                self.expect_sym(")")
                return Sigma(shifts, e)
            if value == "C":
                self.expect_sym("(")
                e = self.expr()
                self.expect_sym(",")
                lower = self.expect_uint()
                self.expect_sym(")")
                return Binom(e, lower)
            if value == "mahler":
                self.expect_sym("[")
                coeffs = [self.expect_int()]
                while True:
                    k, v, _ = self.peek()
                    if k == "sym" and v == ",":
                        self.next()
                        coeffs.append(self.expect_int())
                    else:
                        break
                self.expect_sym("]")
                self.expect_sym("(")
                e = self.expr()
                self.expect_sym(")")
                return MahlerLit(tuple(coeffs), e)
            if value == "auto":
                self.expect_sym("(")
                k, path, pat = self.next()
                if k != "str":
                    raise MapSyntaxError("expected a quoted file path", position=pat)
                self.expect_sym(")")
                self.expect_sym("(")
                e = self.expr()
                self.expect_sym(")")
                machine = _load_automaton(path)
                try:
                    return AutoApply.checked(path, machine, e)
                except DegenerateAutomatonError as exc:
                    raise MapSyntaxError(str(exc), position=pat) from None
            raise MapSyntaxError(f"unknown identifier {value!r}", position=at)
        raise MapSyntaxError("expected an expression", position=at)


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


# --- pretty printer ----------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _render(e: MapExpr) -> tuple[str, int]:
    if isinstance(e, Const):
        return str(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return "x", _PREC_ATOM
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_UNARY
    if isinstance(e, Sigma):
        inner, _ = _render(e.operand)
        head = "sigma" if e.shifts == 1 else f"sigma^{e.shifts}"
        return f"{head}({inner})", _PREC_ATOM
    if isinstance(e, Binom):
        inner, _ = _render(e.operand)
        return f"C({inner}, {e.lower})", _PREC_ATOM
    if isinstance(e, MahlerLit):
        inner, _ = _render(e.operand)
        return f"mahler[{','.join(str(c) for c in e.coeffs)}]({inner})", _PREC_ATOM
    if isinstance(e, AutoApply):
        inner, _ = _render(e.operand)
        return f'auto("{e.path}")({inner})', _PREC_ATOM
    raise TypeError(f"not a map expression: {e!r}")


def _wrap(e: MapExpr, min_prec: int) -> str:
    text, prec = _render(e)
    return text if prec >= min_prec else f"({text})"


def to_text(e: MapExpr) -> str:
    """Render an expression so that re-parsing reproduces the same tree."""
    return _render(e)[0]


# --- lookahead analysis ------------------------------------------------


def factorial_valuation(m: int, p: int) -> int:
    """Exponent of p in m! (Legendre's formula)."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def _series_drop(coeffs: tuple[int, ...], p: int) -> int:
    """Digits a Mahler series spends on its binomial denominators."""
    return max(
        (factorial_valuation(m, p) for m, a in enumerate(coeffs) if a != 0), default=0
    )


def lookahead_bound(e: MapExpr, p: int) -> int:
    """A certified bound L: inputs equal mod p**(k+L) give outputs equal
    mod p**k.  Polynomial expressions get 0; digit shifts and binomial
    denominators consume digits."""
    if isinstance(e, (Const, Var)):
        return 0
    if isinstance(e, Neg):
        return lookahead_bound(e.operand, p)
    if isinstance(e, (Add, Sub, Mul)):
        return max(lookahead_bound(e.left, p), lookahead_bound(e.right, p))
    if isinstance(e, Pow):
        return lookahead_bound(e.base, p)
    if isinstance(e, Sigma):
        return e.shifts + lookahead_bound(e.operand, p)
    if isinstance(e, Binom):
        return lookahead_bound(e.operand, p) + factorial_valuation(e.lower, p)
    if isinstance(e, MahlerLit):
        return lookahead_bound(e.operand, p) + _series_drop(e.coeffs, p)
    if isinstance(e, AutoApply):
        return lookahead_bound(e.operand, p) + e.deficit
    raise TypeError(f"not a map expression: {e!r}")


def binomial_degree(e: MapExpr) -> int | None:
    """Degree of the expression as a polynomial, or None if it is not one.

    A polynomial of degree d has zero Mahler coefficients beyond index d,
    which lets theorem checkers report a total verdict.
    """
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return 1
    if isinstance(e, Neg):
        return binomial_degree(e.operand)
    if isinstance(e, (Add, Sub)):
        l, r = binomial_degree(e.left), binomial_degree(e.right)
        return None if l is None or r is None else max(l, r)
    if isinstance(e, Mul):
        l, r = binomial_degree(e.left), binomial_degree(e.right)
        return None if l is None or r is None else l + r
    if isinstance(e, Pow):
        d = binomial_degree(e.base)
        return None if d is None else d * e.exponent
    if isinstance(e, Binom):
        d = binomial_degree(e.operand)
        return None if d is None else d * e.lower
    if isinstance(e, MahlerLit):
        d = binomial_degree(e.operand)
        top = max((m for m, a in enumerate(e.coeffs) if a != 0), default=0)
        return None if d is None else d * top
    return None


# --- evaluation --------------------------------------------------------


def _compile(e: MapExpr, p: int, precision: int) -> Callable[[int], int]:
    """Return fn: fn(lift) is the value of e at ``lift``, certified mod
    p**(precision - L) for L = ``lookahead_bound(e, p)``; the caller has
    checked that this is at least one digit."""
    if isinstance(e, Const):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, Neg):
        f = _compile(e.operand, p, precision)
        return lambda x: -f(x)
    if isinstance(e, (Add, Sub, Mul)):
        lf = _compile(e.left, p, precision)
        rf = _compile(e.right, p, precision)
        if isinstance(e, Add):
            return lambda x: lf(x) + rf(x)
        if isinstance(e, Sub):
            return lambda x: lf(x) - rf(x)
        return lambda x: lf(x) * rf(x)
    if isinstance(e, Pow):
        f = _compile(e.base, p, precision)
        exponent = e.exponent
        return lambda x: f(x) ** exponent
    if isinstance(e, Sigma):
        f = _compile(e.operand, p, precision)
        divisor = p ** e.shifts
        return lambda x: f(x) // divisor
    if isinstance(e, Binom):
        f = _compile(e.operand, p, precision)
        lower = e.lower
        return lambda x: binomial_eval(f(x), lower)
    if isinstance(e, MahlerLit):
        f = _compile(e.operand, p, precision)
        terms = tuple((m, a) for m, a in enumerate(e.coeffs) if a != 0)

        def series(x: int) -> int:
            v = f(x)
            return sum(a * binomial_eval(v, m) for m, a in terms)

        return series
    if isinstance(e, AutoApply):
        machine = e.automaton
        if machine.p != p:
            raise ValueError(f"automaton expects p={machine.p}, map evaluated at p={p}")
        f = _compile(e.operand, p, precision)
        # k certified input digits; no run of k letters emits fewer than k - deficit
        k = precision - lookahead_bound(e.operand, p)
        certain = k - e.deficit
        powers = [p ** i for i in range(k)]

        def transduce(x: int) -> int:
            rep = f(x)
            word = [rep // q % p for q in powers]
            value = 0
            for digit in reversed(automata.run(machine, word).output[:certain]):
                value = value * p + digit
            return value

        return transduce
    raise TypeError(f"not a map expression: {e!r}")


def compile_map(e: MapExpr, p: int, precision: int) -> tuple[Callable[[int], int], int]:
    """Compile e for inputs known to ``precision`` digits: returns (f, k),
    f(lift) the value at a zero-padded lift 0 <= lift < p**precision,
    certified mod p**k, k = precision - L for L the lookahead bound.  This
    is the one precision check; the bound, shift divisors and automaton
    digit counts are worked out here, once per map."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    bound = lookahead_bound(e, p)
    if precision <= bound:
        raise PrecisionError(f"need more than {bound} input digits, have {precision}")
    return _compile(e, p, precision), precision - bound


def eval_map(e: MapExpr, x: PadicApprox) -> PadicApprox:
    """Evaluate at x; the result keeps x.precision - lookahead digits.

    The value is computed exactly over the integers on the zero-padded
    lift of x, then reduced; the reported digits never depend on the
    choice of lift.  It is a one-point ``compile_map``.
    """
    f, k_out = compile_map(e, x.p, x.precision)
    return PadicApprox(x.p, k_out, f(x.residue) % x.p ** k_out)


def _check_budget(entries: int, budget: int | None) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if entries > limit:
        raise BudgetError(f"enumeration of {entries} entries exceeds budget {limit}")


def _digit_length(value: int, p: int) -> int:
    """Number of base-p digits of value >= 0 (zero has one)."""
    length = 1
    while p ** length <= value:
        length += 1
    return length


def tabulate(
    e: MapExpr, p: int, size: int, digits: int, budget: int | None = None
) -> tuple[int, ...]:
    """Values f(i) mod p**digits for i in range(size), at zero-padded lifts.

    This is the one enumeration of a map over residues: every oracle
    slices and reduces a table made here, and its ``size`` entries are
    what the budget is charged for.  The map is compiled once for inputs
    of L + max(digits, digit length of size - 1) digits, L the lookahead
    bound, which certifies ``digits`` output digits at every point.
    """
    if size < 1 or digits < 1:
        raise ValueError("need a table size >= 1 and an output digit count >= 1")
    _check_budget(size, budget)
    k_in = lookahead_bound(e, p) + max(digits, _digit_length(size - 1, p))
    f, _ = compile_map(e, p, k_in)
    modulus = p ** digits
    return tuple(f(i) % modulus for i in range(size))


def step_order(table, p: int) -> int:
    """Smallest L such that the table is constant on cosets mod p**L."""
    table = list(table)
    size = len(table)
    depth = 0
    span = 1
    while span < size:
        span *= p
        depth += 1
    if span != size:
        raise ValueError(f"table length {size} is not a power of {p}")
    for level in range(depth + 1):
        period = p ** level
        if all(table[i] == table[i % period] for i in range(size)):
            return level
    return depth


# --- complex-shift decomposition ----------------------------------------


@dataclass(frozen=True)
class ComplexShiftDecomposition:
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
    log: tuple[str, ...]

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
    block = p ** n
    f_table = tabulate(e, p, p ** (n + depth), n + depth, budget)
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
    if witness:
        z, t0, t1, j = witness
        sweep = f"G_z 1-Lipschitz sweep: FAIL at z={z}, t={t0} vs t'={t1} mod {p}^{j}"
    else:
        sweep = f"G_z 1-Lipschitz sweep at depth {depth}: pass"
    log = [f"T extracted on Z/{p}^{n}: {list(t_table)}", sweep]
    return ComplexShiftDecomposition(
        p=p,
        n=n,
        depth=depth,
        t_table=t_table,
        f_table=f_table,
        verified=witness is None,
        witness=witness,
        log=tuple(log),
    )
