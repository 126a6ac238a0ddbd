"""Mahler coefficients and coefficient-based transformation tests.

Coefficients are the finite differences of the map at 0, 1, 2, ...; they
are computed exactly and stored as residues mod p**K.  The checkers turn
divisibility conditions on the coefficients into verdicts that are honest
about their bounds: every condition quantifies over all indices, so a
finite scan can only report "satisfied up to M" unless the map is a
polynomial, in which case the verdict is total.
"""
from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, compress
from operator import mul

from ._record import Record, _set
from .errors import BudgetError
from .mapdsl import _OPS_PER_ENTRY, MapExpr, _blocks, _check_budget, binomial_degree
from .padic import Valuation, _check_residues, _orders, binomial_eval

__all__ = [
    "MahlerCoeffs",
    "Verdict",
    "check_bernoulli_properties",
    "check_complex_shift_bound",
    "check_cs_ergodic",
    "check_cs_mp",
    "check_lipschitz_ergodic",
    "check_lipschitz_mp",
    "eval_mahler",
    "mahler_coeffs",
]

_SPLIT_CUTOFF = 32  # Mahler rows up to this length take the plain difference loop (measured)
_DIVIDES = "a_{} = 0 (mod p^{})".format  # the clause p**req | a_m, as condition(m, req)
_SUFFICIENT = "sufficient condition only"


class MahlerCoeffs(Record):
    """Coefficients a_0..a_M of a map in the binomial basis, mod p**K.

    ``degree_bound`` is set when the map is a polynomial of known degree,
    certifying that all coefficients beyond it vanish exactly.  Construction refuses a p that is
    not prime, a precision below 1 and a residue outside [0, p**K), then sets ``modulus``, p**K,
    and ``orders``: each coefficient's valuation as an int, below K, or K for a zero residue.
    """

    p: int
    precision: int
    residues: tuple[int, ...]
    degree_bound: int | None = None

    def __post_init__(self) -> None:
        p, K = self.p, self.precision
        _set(self, "modulus", _check_residues(p, K, self.residues))
        _set(self, "orders", _orders(self.residues, p, K))

    @property
    def max_index(self) -> int:
        return len(self.residues) - 1

    def valuation(self, m: int) -> Valuation:
        """The valuation of a_m: exactly ``orders[m]``, or at least K for a zero residue."""
        v = self.orders[m]
        return Valuation(v, v < self.precision)

    def residue(self, m: int) -> int:
        """a_m mod p**K; past the row, 0 when the row is total (else an ``IndexError``)."""
        return self.residues[m] if m < len(self.residues) or not self.total else 0

    def signed(self, m: int) -> int:
        """Balanced representative of ``residue(m)`` in (-p**K/2, p**K/2], nicer to read."""
        r = self.residue(m)
        return r if 2 * r <= self.modulus else r - self.modulus

    @property
    def total(self) -> bool:
        """True when the listed coefficients provably include every nonzero one."""
        return self.degree_bound is not None and self.degree_bound <= self.max_index


class Verdict(Record):
    """Outcome of a bounded theorem-condition check.

    kind is one of "satisfied_up_to", "violated_at", "undecidable_at".
    Violations carry the index, the condition text and the observation;
    ``definitive`` marks cases where the condition is known necessary.
    An undecidable verdict with an observation names the range or precision
    shortfall; without one, a coefficient's valuation exceeds working precision.
    """

    kind: str
    bound: int
    m: int | None = None
    condition: str = ""
    observed: str = ""
    definitive: bool = False
    total: bool = False
    note: str = ""

    @property
    def satisfied_up_to(self) -> bool:
        return self.kind == "satisfied_up_to"

    def __str__(self) -> str:
        if self.kind == "satisfied_up_to":
            text = f"SatisfiedUpTo({self.bound})"
            if self.total:
                text += " (total: finitely many nonzero coefficients)"
        elif self.kind == "violated_at":
            text = f"ViolatedAt({self.m}): {self.condition}; observed {self.observed}"
            if self.definitive:
                text += " [definitive: condition is necessary for p=2]"
        else:
            reason = (
                f"; {self.observed}"
                if self.observed
                else " requires valuation beyond working precision"
            )
            text = f"UndecidableAt({self.m}): {self.condition}{reason}"
        if self.note:
            text += f" [{self.note}]"
        return text

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


def mahler_coeffs(
    e: MapExpr, p: int, max_index: int, precision: int, budget: int | None = None
) -> MahlerCoeffs:
    """Coefficients a_0..a_max_index, the forward differences at 0.

    The map is evaluated at the integer points 0..max_index with enough
    input digits that each value is certified mod p**precision; those
    max_index + 1 points are charged to the budget.  A polynomial of
    binomial degree d < max_index has a_m = 0 exactly for m > d, the
    certificate behind its total verdicts, so only its first d + 1 points
    are evaluated and transformed, and the rest of the row is zeros.  The
    transform is charged to the budget too, for its top product, before it runs.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    degree = binomial_degree(e)
    last = max_index if degree is None else min(degree, max_index)
    row = list(chain.from_iterable(_blocks(e, p, max_index + 1, precision, budget, last + 1)))
    cost = _transform_cost(last + 1, p ** precision)
    _check_budget(last + 1, budget, cost, lambda: f"the Mahler transform at K = {precision} digits")
    coeffs = _differences(row, p ** precision) + [0] * (max_index - last)
    return MahlerCoeffs(p, precision, tuple(coeffs), degree)


def _transform_cost(n: int, q: int) -> int:
    """Entries of work per point of ``_differences`` on n residues mod q.  Its top product
    multiplies about n slots of log2((n/3 + 1) (q - 1)^2) bits, and a product of b-bit
    integers costs about (b / 128)^log2(3) operations on 128-bit values (Karatsuba)."""
    bits = n * ((n // 3 + 1) * (q - 1) ** 2).bit_length()
    return 1 + int((bits / 128) ** math.log2(3)) // (_OPS_PER_ENTRY * n)


def _differences(row, q: int) -> list[int]:
    """Delta^m row(0) mod q for m < len(row), for residues 0 <= row(i) < q.  The first h
    are those of row[:h], the rest those of g(j) = Delta^h row(j) = sum_t (-1)^t C(h, t)
    row(j + h - t): one product of packed integers, each slot wide enough for (h + 1)(q - 1)^2,
    so no carry crosses into the next.  It keeps n - h of its n + h slots, so h is the largest
    power of two <= n / 3 (measured); each kernel is packed once per call, as q is fixed.
    A part that is zero mod q has zero differences, so it returns zeros without a product.
    When the head's coefficients end at a_d, d up to about 0.61 h (``_worth_checking``), the
    head's polynomial is probed at the last point, then the row's (d + 1)-th differences are
    read: if they vanish mod q, its coefficients past d are zero, since the transform mod q is
    unitriangular, and the top product is skipped.  So the zero tail of a continuous map's
    coefficients costs a product by a (d + 2)-slot kernel.  A row that passes the probe but
    fails the test keeps those differences, whose (h - d - 1)-th differences are the row's
    h-th: a product by an (h - d)-slot kernel takes the place of the top one.  The charge of
    ``_transform_cost`` is the top product's either way, so no test moves it."""
    kernels = {}

    def kernel(order, width):
        # (-1)^t C(order, t) mod q for t <= order, in slots of width bytes
        if (order, width) not in kernels:
            signed = [(-c if t % 2 else c) % q for t, c in enumerate(_binomials(order, order))]
            kernels[order, width] = _pack(signed, width)
        return kernels[order, width]

    def split(row):
        n = len(row)
        if not any(row):
            return [0] * n
        if n == 1:
            return [row[0]]
        if n <= _SPLIT_CUTOFF:
            return [row[0]] + split([(b - a) % q for a, b in zip(row, row[1:])])
        h = 1 << ((n // 3).bit_length() - 1)
        head = split(row[:h])
        width = -(-((h + 1) * (q - 1) ** 2).bit_length() // 8)
        packed = _pack(row, width)

        def product(order, packed, length):
            # slot s is Delta^order of the packed values at s - order, for order <= s < length
            return (kernel(order, width) * packed).to_bytes((length + order + 1) * width, "little")

        def slots(data, first, last):
            cut = range(first * width, last * width, width)
            return (int.from_bytes(data[i : i + width], "little") % q for i in cut)

        d = max(compress(range(h), head), default=-1)
        order = h
        # the head's polynomial sum_{m <= d} a_m C(j, m) is probed at the last point, in O(d),
        # before its (d+1)-th differences are read over the tail
        if _worth_checking(d, h) and sum(map(mul, head, _binomials(n - 1, d))) % q == row[-1]:
            data = product(d + 1, packed, n)
            if _vanishes(data[h * width : n * width], width, q):
                return head + [0] * (n - h)
            # the test's Delta^(d+1) row(j), j < n - d - 1, are not wasted: Delta^h row is
            # their (h - d - 1)-th differences, a product by a smaller kernel than the top one
            packed, n, order = _pack(list(slots(data, d + 1, n)), width), n - d - 1, h - d - 1
        return head + split(list(slots(product(order, packed, n), order, n)))

    try:
        return split(row)
    finally:
        del split  # split's cell refers to split: emptied, the closures go without a gc pass


def _worth_checking(d: int, h: int) -> bool:
    """Whether a row whose head row[:h] has coefficients ending at a_d is tested against that
    head before the top product.  A product of the n-slot row by an s-slot kernel runs as about
    n/s Karatsuba products of s slots, n s^e in all (e = log2(3) - 1), so the test's (d + 2)-slot
    product costs x = ((d + 2) / (h + 1))^e of the (h + 1)-slot one it can skip.  The O(d)
    last-point probe runs first and turns away almost every row whose tail does not vanish,
    and a failed test's product is kept (``_differences``), so the test is tried whenever a
    pass saves at least a quarter of the top product: x <= 3/4, i.e. (d + 2) / (h + 1) <= 0.61.
    A failed test then costs x + ((h - d) / (h + 1))^e <= 2^(1 - e), about 4/3, of the top
    product in this estimate.  Past the share a pass saves little, and trying the test on every
    row made ``sigma(x)`` at p = 2, K = 2000, 4097 points slower (measured).  A zero head
    (d = -1) is never tested: an all-zero row has returned before, so the tail cannot vanish."""
    return d >= 0 and 4 * (d + 2) ** (math.log2(3) - 1) <= 3 * (h + 1) ** (math.log2(3) - 1)


def _vanishes(data: bytes, width: int, q: int) -> bool:
    """Whether every little-endian slot of width bytes in data is 0 mod q.  For q = 2**K it is
    one AND of data, read as one integer, with q - 1 in every slot: O(len(data)) at any K.  For
    odd q each slot is read and reduced.  One long division of data by q would be exact too, but
    it measured 2x slower than the slot read at p = 3, K = 1000 (README, Mahler transform)."""
    if q & (q - 1):
        cut = range(0, len(data), width)
        return not any(int.from_bytes(data[i : i + width], "little") % q for i in cut)
    mask = (q - 1).to_bytes(width, "little") * (len(data) // width)
    return not int.from_bytes(data, "little") & int.from_bytes(mask, "little")


def _binomials(top: int, last: int):
    """C(top, t) for 0 <= t <= last."""
    return accumulate(range(last), lambda c, t: c * (top - t) // (t + 1), initial=1)


def _pack(values, width: int) -> int:
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def eval_mahler(c: MahlerCoeffs, i: int) -> int:
    """Reconstruct the map at an integer point from its coefficients.

    Exact mod p**K for 0 <= i <= max_index, where the truncated series
    loses nothing because C(i, m) = 0 for m > i.
    """
    if not 0 <= i <= c.max_index:
        raise ValueError(f"point {i} outside tabulated range 0..{c.max_index}")
    total = sum(c.residues[m] * binomial_eval(i, m) for m in range(i + 1))
    return total % c.modulus


class _Scan:
    """Collects per-index clause results with violation-first priority; each verdict
    carries the check's ``note``."""

    def __init__(self, c: MahlerCoeffs, note: str = ""):
        self.c, self.note = c, note
        self.violation: Verdict | None = None
        self.undecided: Verdict | None = None

    def require_runs(self, runs, condition, definitive=False):
        """Require p**req | a_m on each run lo <= m < hi of one req (lo < hi, runs in order of m);
        ``condition(m, req)`` names a failed clause.  A run fails first at its first valuation
        below min(req, K), found by one pass over a slice of the valuations as ints, where a zero
        residue reads K; if req > K, a zero residue before that, at lo, is undecidable.  The
        verdict reports only the first violation, so the scan stops there."""
        if self.violation is not None:
            return
        K, orders = self.c.precision, self.c.orders
        for lo, hi, required in runs:
            if required > K and orders[lo] == K:
                self.short(lo, condition(lo, required), "")
            window, bar = orders[lo:hi], min(required, K)
            if min(window) < bar:
                m = lo + list(map(bar.__gt__, window)).index(True)
                v = self.c.valuation(m)
                self.require(False, m, condition(m, required), f"valuation {v}", definitive)
                return

    def reaches(self, m: int, condition: str) -> bool:
        """Whether a_m is known: the coefficients reach index m, or the row is total, so
        a_m = 0 past it.  If not, ``condition`` falls short there."""
        M = self.c.max_index
        if m <= M or self.c.total:
            return True
        self.short(m, f"{condition} needs M >= {m}", f"coefficients computed only up to M = {M}")
        return False

    def short(self, m: int, condition: str, observed: str) -> None:
        """``condition`` is undecidable at m for the shortfall ``observed`` (none: a valuation
        past working precision), below any violation, and below an earlier undecidable."""
        if self.undecided is None:
            self.undecided = Verdict(
                "undecidable_at", self.c.max_index, m, condition, observed, note=self.note
            )

    def require(self, ok: bool, m: int, condition: str, observed: str, definitive=False):
        if self.violation is None and not ok:
            self.violation = Verdict(
                "violated_at", self.c.max_index, m, condition, observed, definitive, note=self.note
            )

    def verdict(self, total: bool = False) -> Verdict:
        return self.violation or self.undecided or Verdict(
            "satisfied_up_to", self.c.max_index, total=total, note=self.note
        )


def _block(p: int, n: int) -> int:
    """p**n, the index the level-n checks read; n must be >= 1, and p**n must have no more
    decimal digits than a report prints, else a ``BudgetError``."""
    if n < 1:
        raise ValueError("complex-shift level must be >= 1")
    limit = sys.get_int_max_str_digits()
    # 2**n <= p**n < 2**(n * p.bit_length()) and 8**limit < 10**limit < 16**limit: a level
    # past 4 * limit is refused before p**n is built, and only one near the limit is compared
    if limit and n * p.bit_length() > 3 * limit and (n > 4 * limit or p**n >= 10**limit):
        raise BudgetError(f"level n = {n} puts the index p^{n} past the {limit} digits a report prints")
    return p**n


def _log_runs(start: int, stop: int, base: int):
    """(lo, hi, e) for the runs lo <= m < hi that cover 1 <= start <= m < stop, on each of
    which floor(log_base m) = e: the runs end at the powers of base."""
    e, edge = 0, base
    while start < stop:
        while edge <= start:
            e += 1
            edge *= base
        yield start, min(edge, stop), e
        start = edge


def check_bernoulli_properties(c: MahlerCoeffs, n: int) -> Verdict:
    """Structural properties of the n-fold digit shift's coefficients:
    zero below p**n, one at p**n, and p**j dividing a_m once
    m > j*p**n - j + 1."""
    M, K, block = c.max_index, c.precision, _block(c.p, n)
    scan = _Scan(c)
    m = next(compress(range(block), c.residues[:block]), None)  # the first nonzero a_m, m < p^n
    if m is not None:
        scan.require(False, m, f"a_{m} = 0 for m < p^{n}", f"a_{m} = {c.signed(m)}")
    clause = f"a_{{p^{n}}} = 1"
    if not scan.reaches(block, clause):
        return scan.verdict()
    scan.require(c.residue(block) == 1, block, clause, f"a_{block} = {c.signed(block)}")
    # the largest j with m > j*(p^n - 1) + 1, up to K, is constant on runs of b = p^n - 1
    # indices from m = 2; the run of j = K reaches M
    b = block - 1
    runs = (
        (j * b + 2, M + 1 if j == K else min(j * b + b + 2, M + 1), j)
        for j in range(min(K, (M - 2) // b) + 1)
    )
    scan.require_runs(runs, lambda m, j: f"p^{j} | a_{m} (m > {j}*p^{n} - {j} + 1)")
    return scan.verdict()


def check_lipschitz_mp(c: MahlerCoeffs) -> Verdict:
    """Coefficient conditions for a 1-Lipschitz measure-preserving map:
    a_1 a unit, and a_m divisible by p**(floor(log_p m) + 1) for m >= 2."""
    p, M = c.p, c.max_index
    clause = "a_1 not = 0 (mod p)"
    scan = _Scan(c, _SUFFICIENT)
    if not scan.reaches(1, clause):
        return scan.verdict()
    scan.require(c.residue(1) % p != 0, 1, clause, f"a_1 = {c.signed(1)}")
    scan.require_runs(((lo, hi, e + 1) for lo, hi, e in _log_runs(2, M + 1, p)), _DIVIDES)
    return scan.verdict(total=c.total)


def check_lipschitz_ergodic(c: MahlerCoeffs, strict_m1: bool = False) -> Verdict:
    """Coefficient conditions for a 1-Lipschitz ergodic map.

    a_0 a unit; a_1 = 1 mod p (mod 4 when p = 2); tail divisibility
    p**(floor(log_p(m+1)) + 1) | a_m.  The tail clause is applied from
    m = 2 because its m = 1 instance contradicts the unit condition on
    a_1; ``strict_m1`` applies it from m = 1 anyway, for comparison.
    For p = 2 the conditions are necessary, so violations are definitive.
    """
    p, M = c.p, c.max_index
    definitive = p == 2
    note = "necessary and sufficient for p=2" if definitive else _SUFFICIENT
    scan = _Scan(c, note)
    scan.require(
        c.residues[0] % p != 0,
        0,
        "a_0 not = 0 (mod p)",
        f"a_0 = {c.signed(0)}",
        definitive=definitive,
    )
    clause = "a_1 = 1 (mod 4)" if p == 2 else "a_1 = 1 (mod p)"
    if not scan.reaches(1, clause):
        return scan.verdict()
    if p == 2 and c.precision < 2:
        scan.short(1, f"{clause} needs K >= 2", f"working precision is K = {c.precision}")
        return scan.verdict()
    mod = 4 if p == 2 else p
    scan.require(
        c.residue(1) % mod == 1, 1, clause, f"a_1 = {c.signed(1) % mod} (mod {mod})", definitive
    )
    start = 1 if strict_m1 else 2
    scan.require_runs(
        ((lo - 1, hi - 1, e + 1) for lo, hi, e in _log_runs(start + 1, M + 2, p)),
        _DIVIDES,
        definitive,
    )
    return scan.verdict(total=c.total)


def check_complex_shift_bound(c: MahlerCoeffs, n: int) -> Verdict:
    """Coefficient growth bound characterising complex shifts at level n:
    |a_m| <= p**(1 - floor(log_{p^n} m)) for every m >= 1."""
    M, base = c.max_index, _block(c.p, n)
    scan = _Scan(c)
    scan.require_runs(
        ((lo, hi, e - 1) for lo, hi, e in _log_runs(1, M + 1, base)),
        lambda m, req: f"|a_{m}| <= p^(1 - log_{{p^{n}}} {m})",
    )
    return scan.verdict(total=c.total)


def check_cs_mp(c: MahlerCoeffs, n: int) -> Verdict:
    """Sufficient conditions for a level-n complex shift to preserve the
    uniform measure: a unit at index p**n, then tail divisibility
    p**floor(log_{p^n} m) | a_m for m > p**n."""
    p, M, block = c.p, c.max_index, _block(c.p, n)
    clause = f"a_m not = 0 (mod p) for m = p^{n}"
    scan = _Scan(c, _SUFFICIENT)
    if not scan.reaches(block, clause):
        return scan.verdict()
    scan.require(
        c.residue(block) % p != 0,
        block,
        clause,
        f"a_{block} = {c.signed(block)}",
    )
    scan.require_runs(_log_runs(block + 1, M + 1, block), _DIVIDES)
    return scan.verdict(total=c.total)


def check_cs_ergodic(c: MahlerCoeffs, n: int) -> Verdict:
    """Sufficient conditions for a level-n complex shift to be ergodic:
    a_{p^n} = 1 mod p, the head sum a_1 + ... + a_{p^n - 1} divisible by
    p, and the same tail divisibility as the measure-preservation test."""
    p, M, block = c.p, c.max_index, _block(c.p, n)
    clause = f"a_m = 1 (mod p) for m = p^{n}"
    scan = _Scan(c, _SUFFICIENT)
    if not scan.reaches(block, clause):
        return scan.verdict()
    scan.require(
        c.residue(block) % p == 1,
        block,
        clause,
        f"a_{block} = {c.signed(block) % p} (mod {p})",
    )
    head = sum(c.residues[1:block]) % p  # past M the row is total: those a_m are 0
    scan.require(
        head == 0,
        block - 1,
        f"a_1 + ... + a_{{p^{n} - 1}} = 0 (mod p)",
        f"sum = {head} (mod {p})",
    )
    scan.require_runs(_log_runs(block + 1, M + 1, block), _DIVIDES)
    return scan.verdict(total=c.total)
