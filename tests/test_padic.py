from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padyn.errors import PrecisionError
from padyn.padic import (
    PadicApprox,
    Valuation,
    binomial_eval,
    distance,
    from_digits,
    is_prime,
)


def pairs_at_common_precision(max_k=8):
    return st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.integers(1, max_k).flatmap(
            lambda k: st.tuples(
                st.just(p),
                st.just(k),
                st.integers(0, p**k - 1),
                st.integers(0, p**k - 1),
                st.integers(0, p**k - 1),
            )
        )
    )


# --- construction and digits -------------------------------------------


@pytest.mark.parametrize(
    "digits, p, residue",
    [([1, 0, 1, 1], 2, 13), ([0], 3, 0), ([2, 1], 3, 5)],
)
def test_from_digits(digits, p, residue):
    x = from_digits(digits, p)
    assert x.residue == residue
    assert x.precision == len(digits)


def test_from_digits_rejects_bad_input():
    with pytest.raises(ValueError):
        from_digits([2], 2)
    with pytest.raises(ValueError):
        from_digits([], 2)
    with pytest.raises(ValueError):
        from_digits([1, 0], 4)  # not prime


@pytest.mark.parametrize(
    "residue, p, k, i, expected",
    [(6, 2, 4, 1, 1), (6, 2, 4, 0, 0), (5, 3, 2, 1, 1)],
)
def test_digit(residue, p, k, i, expected):
    assert PadicApprox(p, k, residue).digit(i) == expected


def test_digit_out_of_precision():
    with pytest.raises(PrecisionError):
        PadicApprox(2, 3, 5).digit(3)


def test_residue_range_validated():
    with pytest.raises(ValueError):
        PadicApprox(2, 3, 8)
    with pytest.raises(ValueError):
        PadicApprox(2, 0, 0)


# --- reduction, arithmetic, shift --------------------------------------


@pytest.mark.parametrize(
    "residue, p, K, k, expected",
    [(11, 2, 4, 2, 3), (5, 3, 2, 2, 5), (9, 3, 3, 2, 0)],
)
def test_reduce(residue, p, K, k, expected):
    out = PadicApprox(p, K, residue).reduce(k)
    assert out.residue == expected and out.precision == k


def test_reduce_beyond_precision():
    with pytest.raises(PrecisionError):
        PadicApprox(2, 3, 5).reduce(4)


def test_arith_examples():
    a = PadicApprox(2, 3, 3)
    b = PadicApprox(2, 3, 5)
    assert (a + b).residue == 0
    assert (PadicApprox(2, 3, 1) - PadicApprox(2, 3, 2)).residue == 7
    assert (PadicApprox(2, 3, 2) * PadicApprox(2, 3, 3)).residue == 6


def test_arith_mismatched_primes():
    with pytest.raises(ValueError):
        PadicApprox(2, 3, 1) + PadicApprox(3, 3, 1)


def test_arith_precision_is_minimum():
    out = PadicApprox(2, 5, 17) * PadicApprox(2, 3, 3)
    assert out.precision == 3


@pytest.mark.parametrize(
    "residue, p, K, n, expected, k_out",
    [(11, 2, 4, 1, 5, 3), (11, 2, 4, 0, 11, 4), (5, 3, 2, 1, 1, 1)],
)
def test_sigma_shift(residue, p, K, n, expected, k_out):
    out = PadicApprox(p, K, residue).sigma(n)
    assert out.residue == expected and out.precision == k_out


def test_sigma_shift_exhausts_precision():
    with pytest.raises(PrecisionError):
        PadicApprox(2, 4, 11).sigma(4)


# --- valuation, norm, units ---------------------------------------------


@pytest.mark.parametrize(
    "residue, p, K, expected",
    [
        (12, 2, 6, Valuation.exactly(2)),
        (0, 2, 6, Valuation.at_least(6)),
        (5, 3, 4, Valuation.exactly(0)),
    ],
)
def test_valuation(residue, p, K, expected):
    assert PadicApprox(p, K, residue).valuation() == expected


def test_distance_examples():
    d = distance(PadicApprox(2, 4, 3), PadicApprox(2, 4, 11))
    assert d.value == Fraction(1, 8)
    same = distance(PadicApprox(2, 4, 9), PadicApprox(2, 4, 9))
    assert same.value is None and same.upper_bound == Fraction(1, 16)
    assert distance(PadicApprox(3, 2, 1), PadicApprox(3, 2, 2)).value == 1


@pytest.mark.parametrize(
    "residue, p, expected",
    [(3, 2, True), (6, 2, False), (5, 5, False)],
)
def test_is_unit(residue, p, expected):
    assert PadicApprox(p, 4, residue).is_unit() is expected


# --- binomials ----------------------------------------------------------


@pytest.mark.parametrize("x, m, expected", [(5, 2, 10), (4, 0, 1), (3, 5, 0)])
def test_binomial_eval(x, m, expected):
    assert binomial_eval(x, m) == expected


def test_binomial_eval_negative_argument_matches_falling_factorial():
    for x in range(-6, 7):
        for m in range(6):
            num = 1
            for i in range(m):
                num *= x - i
            import math

            assert binomial_eval(x, m) * math.factorial(m) == num


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# --- invariants ----------------------------------------------------------


@given(pairs_at_common_precision())
def test_ultrametric(data):
    p, k, a, b, c = data
    x, y, z = (PadicApprox(p, k, r) for r in (a, b, c))
    assert distance(x, z) <= max(distance(x, y), distance(y, z))


@given(pairs_at_common_precision())
def test_digit_round_trip(data):
    p, k, a, _, _ = data
    x = PadicApprox(p, k, a)
    assert from_digits(x.digits(), p) == x


@given(pairs_at_common_precision())
def test_valuation_multiplicativity(data):
    p, k, a, b, _ = data
    x, y = PadicApprox(p, k, a), PadicApprox(p, k, b)
    vx, vy = x.valuation(), y.valuation()
    if vx.exact and vy.exact and vx.value + vy.value < k:
        assert (x * y).valuation() == Valuation.exactly(vx.value + vy.value)


@given(pairs_at_common_precision())
def test_reduction_coherence(data):
    p, k, a, b, _ = data
    x = PadicApprox(p, k, a)
    j = 1 + b % k
    mid = 1 + a % k
    lo, hi = min(j, mid), max(j, mid)
    assert x.reduce(hi).reduce(lo) == x.reduce(lo)


@pytest.mark.parametrize("p, kmax", [(2, 6), (3, 5)])
def test_shift_digit_identity(p, kmax):
    # x = delta_0(x) + p * sigma(x), compared at precision K - 1
    for K in range(2, kmax + 1):
        for r in range(p**K):
            x = PadicApprox(p, K, r)
            lhs = PadicApprox.from_int(x.digit(0), p, K - 1) + (
                PadicApprox.from_int(p, p, K - 1) * x.sigma(1)
            )
            assert lhs == x.reduce(K - 1)


@pytest.mark.parametrize("p, K", [(2, 6), (3, 4)])
def test_sigma_is_p_power_lipschitz(p, K):
    for n in (1, 2):
        for a in range(p**K):
            for b in range(p**K):
                x, y = PadicApprox(p, K, a), PadicApprox(p, K, b)
                lhs = distance(x.sigma(n), y.sigma(n))
                rhs = distance(x, y)
                assert lhs.upper_bound <= p**n * rhs.upper_bound
