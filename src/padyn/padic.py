"""p-adic integers truncated to K base-p digits, and the exact helpers the
pipeline reads them with.

``PadicApprox`` is the value type of ``eval_map``: a residue mod p**K
together with p and K, validated on construction.  The maps themselves
are evaluated on bare integer residues; what is left here is the
valuation of such a residue (exact, or a lower bound when it vanishes at
working precision), the exact binomial coefficient, and the primality
test every entry point applies to p.  Nothing here ever rounds.
"""
from __future__ import annotations

import math
from ._record import Record

__all__ = [
    "PadicApprox",
    "Valuation",
    "binomial_eval",
    "is_prime",
    "residue_valuation",
]


def is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2 ... 37: exact for every n below 2^64, and a
    ``ValueError`` past it (318665857834031151167461, near 3.18e23, passes all twelve)."""
    if n >= 1 << 64:
        raise ValueError(f"is_prime decides n < 2^64 only, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base a: a^d = 1, or a^(d 2^r) = -1 for some r < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in bases)


def _check_prime(p: int) -> None:
    """A ``ValueError`` unless p is a prime below 2^64, the range ``is_prime`` decides."""
    if p >= 1 << 64 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}" if p < 1 << 64 else f"p must be prime below 2^64, got {p}")


class Valuation(Record):
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


def residue_valuation(residue: int, p: int, precision: int) -> Valuation:
    """Valuation of a residue known mod p**precision: exact, or at least precision when the
    residue vanishes there.  A p that is not prime or a precision below 1 is a ``ValueError``."""
    (v,) = _orders([residue % _check_residues(p, precision, ())], p, precision)
    return Valuation(v, v < precision)


def _orders(residues, p: int, precision: int) -> tuple[int, ...]:
    """The valuation of each residue in [0, p**precision) as an int: exact below precision, and
    precision for a zero residue, whose valuation is only known to be at least that."""
    return tuple(_count_factors(r, p) if r else precision for r in residues)


def _count_factors(n: int, p: int) -> int:
    """The number of factors of p in a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicApprox(Record):
    """A p-adic integer known to ``precision`` base-p digits.

    Invariants: p is prime, precision >= 1, 0 <= residue < p**precision.
    """

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        _check_residues(self.p, self.precision, (self.residue,))


def _check_residues(p: int, precision: int, residues) -> int:
    """p**precision, once p is prime, precision >= 1 and every residue in [0, p**precision)."""
    _check_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    q = p**precision
    if bad := [r for r in residues if not 0 <= r < q]:
        raise ValueError(f"residue {bad[0]} out of range for {p}^{precision}")
    return q


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
