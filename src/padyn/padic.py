"""Exact arithmetic on p-adic integers truncated to K base-p digits.

A value is stored as its residue mod p**K together with p and K.  Every
operation is pure and exact, and reports the precision it can still
guarantee; nothing here ever rounds.  Residues are arbitrary-precision
integers, so p**K may exceed machine words freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError

__all__ = [
    "PadicApprox",
    "Valuation",
    "PNorm",
    "binomial_eval",
    "distance",
    "from_digits",
    "is_prime",
    "residue_valuation",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; the primes used here are tiny."""
    if n < 2:
        return False
    for f in (2, 3):
        if n % f == 0:
            return n == f
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class Valuation:
    """Power of p dividing a value: exactly ``value``, or at least ``value``.

    ``at_least(K)`` is produced when the residue vanishes at working
    precision K; a finite digit window cannot distinguish 0 from p**K, so
    we never invent an "infinite" valuation.
    """

    value: int
    exact: bool = True

    @classmethod
    def exactly(cls, v: int) -> Valuation:
        return cls(v, True)

    @classmethod
    def at_least(cls, k: int) -> Valuation:
        return cls(k, False)

    def meets(self, required: int) -> bool | None:
        """Whether the valuation is >= ``required``; None if undecidable."""
        if required <= self.value:
            return True
        return False if self.exact else None

    def __str__(self) -> str:
        return f"Exact({self.value})" if self.exact else f"AtLeast({self.value})"


@dataclass(frozen=True)
class PNorm:
    """A p-adic absolute value p**-v, or a zero-at-precision marker.

    The marker (``exact`` False) means the true norm is <= p**-K.  Order
    comparisons sort the marker below every exactly-known norm.
    """

    p: int
    valuation: Valuation

    @property
    def exact(self) -> bool:
        return self.valuation.exact

    @property
    def value(self) -> Fraction | None:
        """The norm as an exact rational; None for the marker."""
        if not self.exact:
            return None
        return Fraction(1, self.p ** self.valuation.value)

    @property
    def upper_bound(self) -> Fraction:
        """Smallest certified bound: equals ``value`` when exact."""
        return Fraction(1, self.p ** self.valuation.value)

    def _key(self) -> Fraction:
        return self.upper_bound if self.exact else Fraction(0)

    def __lt__(self, other: PNorm) -> bool:
        return self._key() < other._key()

    def __le__(self, other: PNorm) -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: PNorm) -> bool:
        return other < self

    def __ge__(self, other: PNorm) -> bool:
        return other <= self

    def __str__(self) -> str:
        if not self.exact:
            return f"<={self.p}^-{self.valuation.value}"
        return str(self.value)


def residue_valuation(residue: int, p: int, precision: int) -> Valuation:
    """Valuation of a residue known mod p**precision."""
    if residue % p ** precision == 0:
        return Valuation.at_least(precision)
    v = 0
    while residue % p == 0:
        residue //= p
        v += 1
    return Valuation.exactly(v)


@dataclass(frozen=True)
class PadicApprox:
    """A p-adic integer known to ``precision`` base-p digits.

    Invariants: p is prime, precision >= 1, 0 <= residue < p**precision.
    """

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if not 0 <= self.residue < self.p ** self.precision:
            raise ValueError(
                f"residue {self.residue} out of range for {self.p}^{self.precision}"
            )

    @classmethod
    def from_int(cls, value: int, p: int, precision: int) -> PadicApprox:
        """Reduce an arbitrary integer mod p**precision (negatives wrap)."""
        return cls(p, precision, value % p ** precision)

    def digit(self, i: int) -> int:
        """The i-th base-p digit; only the first ``precision`` are known."""
        if not 0 <= i < self.precision:
            raise PrecisionError(f"digit {i} not known at precision {self.precision}")
        return (self.residue // self.p ** i) % self.p

    def digits(self) -> tuple[int, ...]:
        return tuple(self.digit(i) for i in range(self.precision))

    def reduce(self, k: int) -> PadicApprox:
        """Image under the reduction map mod p**k, for k <= precision."""
        if not 1 <= k <= self.precision:
            raise PrecisionError(f"cannot reduce to level {k} from precision {self.precision}")
        return PadicApprox(self.p, k, self.residue % self.p ** k)

    def sigma(self, n: int = 1) -> PadicApprox:
        """Drop the n lowest digits; costs n digits of precision."""
        if n < 0:
            raise ValueError("shift count must be >= 0")
        if n >= self.precision:
            raise PrecisionError(f"shift by {n} exhausts precision {self.precision}")
        return PadicApprox(self.p, self.precision - n, self.residue // self.p ** n)

    def is_unit(self) -> bool:
        """Invertible in the p-adic integers iff the lowest digit is nonzero."""
        return self.residue % self.p != 0

    def valuation(self) -> Valuation:
        return residue_valuation(self.residue, self.p, self.precision)

    def norm(self) -> PNorm:
        return PNorm(self.p, self.valuation())

    def _binop(self, other: PadicApprox, op) -> PadicApprox:
        if not isinstance(other, PadicApprox):
            return NotImplemented
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} and {other.p}")
        k = min(self.precision, other.precision)
        return PadicApprox(self.p, k, op(self.residue, other.residue) % self.p ** k)

    def __add__(self, other: PadicApprox) -> PadicApprox:
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other: PadicApprox) -> PadicApprox:
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other: PadicApprox) -> PadicApprox:
        return self._binop(other, lambda a, b: a * b)


def from_digits(digits, p: int) -> PadicApprox:
    """Build a value from its base-p digits, lowest first."""
    digits = list(digits)
    if not digits:
        raise ValueError("need at least one digit")
    for d in digits:
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for base {p}")
    residue = 0
    for d in reversed(digits):
        residue = residue * p + d
    return PadicApprox(p, len(digits), residue)


def distance(x: PadicApprox, y: PadicApprox) -> PNorm:
    """p-adic distance |x - y|, a zero-at-precision marker when residues agree."""
    if x.p != y.p:
        raise ValueError(f"mismatched primes {x.p} and {y.p}")
    k = min(x.precision, y.precision)
    diff = (x.residue - y.residue) % x.p ** k
    return PNorm(x.p, residue_valuation(diff, x.p, k))


def binomial_eval(x_rep: int, m: int) -> int:
    """Exact integer binomial coefficient C(x_rep, m).

    Equals the falling factorial x(x-1)...(x-m+1) divided (exactly) by m!,
    for any integer x_rep; negative arguments go through the reflection
    identity C(-x, m) = (-1)**m C(x+m-1, m).
    """
    if m < 0:
        raise ValueError("lower index must be >= 0")
    if x_rep >= 0:
        return math.comb(x_rep, m)
    return (-1) ** m * math.comb(m - x_rep - 1, m)
