import math

import pytest
from hypothesis import given, strategies as st

from padyn.padic import PadicApprox, Valuation, binomial_eval, is_prime, residue_valuation


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


# --- construction ---------------------------------------------------------


def test_residue_range_validated():
    with pytest.raises(ValueError):
        PadicApprox(2, 3, 8)
    with pytest.raises(ValueError):
        PadicApprox(2, 0, 0)
    with pytest.raises(ValueError):
        PadicApprox(4, 2, 1)  # not prime


# --- valuations ----------------------------------------------------------


@pytest.mark.parametrize(
    "residue, p, K, expected",
    [
        (12, 2, 6, Valuation.exactly(2)),
        (0, 2, 6, Valuation.at_least(6)),
        (5, 3, 4, Valuation.exactly(0)),
        # p**K and its multiples vanish at precision K, as a zero residue does
        (2**6, 2, 6, Valuation.at_least(6)),
        (-3 * 2**6, 2, 6, Valuation.at_least(6)),
        (-12, 2, 6, Valuation.exactly(2)),
    ],
)
def test_valuation(residue, p, K, expected):
    assert residue_valuation(residue, p, K) == expected


@pytest.mark.parametrize(
    "residue, p, K, message",
    [
        (5, 1, 3, "p must be prime, got 1"),
        (3, 0, 2, "p must be prime, got 0"),
        (3, 4, 2, "p must be prime, got 4"),
        (3, 2, 0, "precision must be >= 1, got 0"),
        (3, 2, -1, "precision must be >= 1, got -1"),
    ],
)
def test_valuation_refuses_a_p_that_is_not_prime_and_a_precision_below_one(residue, p, K, message):
    with pytest.raises(ValueError, match=message):
        residue_valuation(residue, p, K)


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


def _trial_division(n: int) -> bool:
    """The primality test ``is_prime`` replaced, kept as its reference."""
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n) != _trial_division(n)] == []


@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_is_prime_refuses_products_and_agrees_on_factors(a, b):
    assert not is_prime(a * b) and is_prime(a) == _trial_division(a)


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
        (3825123056546413051, False),  # 149491 * 747451 * 34233211, one to every base through 23
        (1000000000000000003, True),
        (2**61 - 1, True),
        (2**64 - 59, True),  # the largest prime below 2^64
        (2**64 - 1, False),
    ],
)
def test_is_prime_decides_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_numbers_past_two_to_the_64():
    with pytest.raises(ValueError, match=r"^is_prime decides n < 2\^64 only, got 18446744073709551616$"):
        is_prime(2**64)


# --- invariants ----------------------------------------------------------


def valuation_mod(r: int, p: int, k: int) -> int:
    """v_p of r as known mod p**k; k when r vanishes there."""
    return residue_valuation(r % p**k, p, k).value


@given(pairs_at_common_precision())
def test_ultrametric(data):
    p, k, a, b, c = data
    assert valuation_mod(a - c, p, k) >= min(valuation_mod(a - b, p, k), valuation_mod(b - c, p, k))


@given(pairs_at_common_precision())
def test_valuation_multiplicativity(data):
    p, k, a, b, _ = data
    vx, vy = residue_valuation(a, p, k), residue_valuation(b, p, k)
    if vx.exact and vy.exact and vx.value + vy.value < k:
        assert residue_valuation(a * b % p**k, p, k) == Valuation.exactly(vx.value + vy.value)


@pytest.mark.parametrize("p, K", [(2, 6), (3, 4)])
def test_sigma_is_p_power_lipschitz(p, K):
    # dropping n digits costs n digits of agreement, and leaves K - n known
    for n in (1, 2):
        for a in range(p**K):
            for b in range(p**K):
                lhs = valuation_mod(a // p**n - b // p**n, p, K - n)
                assert lhs >= valuation_mod(a - b, p, K) - n
