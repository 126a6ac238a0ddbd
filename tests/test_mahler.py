import gc
import math
import operator
import random
import re
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS
from test_kernel import EXPRESSIONS, EXTRA

from padyn import cli, mahler, mapdsl
from padyn.mahler import (
    MahlerCoeffs,
    Verdict,
    check_bernoulli_properties,
    check_complex_shift_bound,
    check_cs_ergodic,
    check_cs_mp,
    check_lipschitz_ergodic,
    check_lipschitz_mp,
    eval_mahler,
    mahler_coeffs,
)
from padyn.errors import BudgetError
from padyn.mapdsl import eval_map, lookahead_bound, parse_map, tabulate
from padyn.padic import PadicApprox, residue_valuation


def coeffs_of(text, p, M=12, K=16):
    return mahler_coeffs(parse_map(text), p, M, K)


def alternating_sum(values, m, modulus):
    # the direct formula, independent of the difference-table implementation
    total = sum((-1) ** (m + i) * values[i] * math.comb(m, i) for i in range(m + 1))
    return total % modulus


# ground truth for the corpus maps as plain integer functions
PLAIN = {
    "x": lambda i, p: i,
    "x+1": lambda i, p: i + 1,
    "3*x+1": lambda i, p: 3 * i + 1,
    "x^2": lambda i, p: i * i,
    "x^2+x+1": lambda i, p: i * i + i + 1,
    "sigma(x)": lambda i, p: i // p,
    "sigma^2(x)": lambda i, p: i // p**2,
    "sigma(x^2+x+1)": lambda i, p: (i * i + i + 1) // p,
    "C(x,2)": lambda i, p: math.comb(i, 2),
    "mahler[1,2,4](x)": lambda i, p: 1 + 2 * i + 4 * math.comb(i, 2),
}


# --- coefficient computation ------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_difference_table_matches_alternating_sum(corpus_texts, p):
    K = 12
    for text in corpus_texts:
        c = coeffs_of(text, p, M=12, K=K)
        values = [PLAIN[text](i, p) for i in range(13)]
        for m in range(13):
            assert c.residues[m] == alternating_sum(values, m, p**K), (text, m)


def reference_differences(row, modulus):
    """The row-by-row forward-difference table the divide-and-conquer
    transform replaced: M^2/2 subtractions, exact on the integers, each a_m then
    reduced mod the modulus."""
    coeffs = [row[0] % modulus]
    for _ in range(len(row) - 1):
        row = list(map(operator.sub, row[1:], row))
        coeffs.append(row[0] % modulus)
    return coeffs


# lengths on both sides of the base-case cutoff, odd and even, up to 601; 47-49,
# 95-96 and 191-193 put the split's second part (n - h = 32, 33) and its kernel
# (h = 16, 32, 64) on either side of the cutoff
LENGTHS = [1, 2, 3, 7, 31, 32, 33, 34, 47, 48, 49, 63, 64, 65, 66, 95, 96, 100, 129]
LENGTHS += [191, 192, 193, 257, 600, 601]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transform_matches_reference_on_random_rows(p):
    rng = random.Random(p)
    for n in LENGTHS:
        for K in (1, rng.randint(2, 69), 70):
            q = p**K
            row = [rng.randrange(q) for _ in range(n)]
            assert mahler._differences(list(row), q) == reference_differences(row, q), (n, K)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transform_matches_reference_on_worst_case_rows(p):
    # rows of q - 1 fill each packed slot closest to its width; alternating
    # q - 1 and 0 keeps the slots near full with differences that do not vanish
    for n in LENGTHS:
        for K in (1, 2, 33, 70):
            q = p**K
            for row in ([q - 1] * n, [(q - 1) * (i % 2) for i in range(n)]):
                assert mahler._differences(list(row), q) == reference_differences(row, q), (n, K)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transform_matches_reference_on_rows_whose_differences_vanish(p):
    # a polynomial row of degree d has zero differences past d, so its h-th differences
    # are all zero once h > d; a row that is zero except at its middle or last entry
    # starts with a zero row[0] and row[:h] yet has nonzero differences
    rng = random.Random(p)
    for n in LENGTHS:
        for K in (1, 33, 70):
            q = p**K
            rows = []
            for d in range(6):
                coeffs = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
                coeffs[0] *= d % 2  # odd degrees vanish at 0
                rows.append([sum(c * j**i for i, c in enumerate(coeffs)) % q for j in range(n)])
            for k in {0, n // 2, n - 1}:
                rows.append([rng.randrange(1, q) if j == k else 0 for j in range(n)])
            for row in rows:
                assert mahler._differences(list(row), q) == reference_differences(row, q), (n, K)


def _split_point(n):
    # the transform's h for a row of n: the largest power of two <= n / 3 (1 below n = 3)
    return 1 << max((n // 3).bit_length() - 1, 0)


def _changed_at(coeffs, j, delta, q):
    """The coefficients of a row once its point j moves by delta: a_m + delta (-1)^(m-j) C(m, j)
    for m >= j, as a_m = sum_i (-1)^(m-i) C(m, i) row(i)."""
    moved = [(a + delta * (-1) ** (m - j) * math.comb(m, j)) % q for m, a in enumerate(coeffs[j:], j)]
    return coeffs[:j] + moved


def _sparse_head_rows(n, q, rng):
    """(d, tail, row, coefficients) for rows whose first h coefficients are a_0, a_{d/2} and a_d
    (a_d nonzero), on degrees up to h // 2, where the transform's head test is tried once
    h >= 16, and at 3h // 4, past its share.
    The tail after row[:h] is: zero (the row is the head's polynomial), dense (random
    values), zero except a_{n-1} (the polynomial but for its last point), or the
    polynomial but for the middle point of the tail, which the last-point probe cannot see.
    The coefficients are in closed form (``_changed_at``), None for a dense tail."""
    h = _split_point(n)
    for d in sorted({min(d, h - 1) for d in (0, 1, 2, h // 2, 3 * h // 4)}):
        a = {0: rng.randrange(q), d // 2: rng.randrange(q), d: rng.randrange(1, q)}
        poly = [sum(c * math.comb(j, m) for m, c in a.items()) % q for j in range(n)]
        coeffs = [a.get(m, 0) for m in range(n)]
        yield d, "zero", poly, coeffs
        yield d, "dense", poly[:h] + [rng.randrange(q) for _ in range(h, n)], None
        delta = rng.randrange(1, q)
        yield d, "last", poly[:-1] + [(poly[-1] + delta) % q], _changed_at(coeffs, n - 1, delta, q)
        j = (h + n) // 2
        if j < n - 1:
            delta = rng.randrange(1, q)
            row = poly[:j] + [(poly[j] + delta) % q] + poly[j + 1 :]
            yield d, "inner point", row, _changed_at(coeffs, j, delta, q)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_head_closed_form_matches_reference(p):
    rng = random.Random(p)
    for n in (3, 7, 33, 49, 66, 100):
        for K in (1, 33):
            q = p**K
            for d, tail, row, coeffs in _sparse_head_rows(n, q, rng):
                if coeffs is not None:
                    assert coeffs == reference_differences(row, q), (n, K, d, tail)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transform_matches_reference_after_a_sparse_head(p, monkeypatch):
    # a row its head's polynomial explains skips the top product: its kernel of h + 1
    # slots is never packed when the head test is tried; every other row falls through
    lengths = []
    pack = mahler._pack
    monkeypatch.setattr(
        mahler, "_pack", lambda values, width: lengths.append(len(values)) or pack(values, width)
    )
    rng = random.Random(p)
    for n in LENGTHS:
        h = _split_point(n)
        for K in (1, 33, 70):
            q = p**K
            for d, tail, row, coeffs in _sparse_head_rows(n, q, rng):
                lengths.clear()
                expected = reference_differences(row, q) if coeffs is None else coeffs
                assert mahler._differences(list(row), q) == expected, (n, K, d, tail)
                if tail == "zero" and n > mahler._SPLIT_CUTOFF and mahler._worth_checking(d, h):
                    assert h + 1 not in lengths, (n, K, d)


def test_transform_matches_reference_at_scan_size():
    e = parse_map("sigma(x^2+x+1)")
    c = mahler_coeffs(e, 2, 4096, 64)
    row = tabulate(e, 2, 4097, 64)
    assert list(c.residues) == reference_differences(list(row), 2**64)


def test_transform_matches_reference_at_scan_size_base_three():
    e = parse_map("sigma^2(x^3+x+1)")
    c = mahler_coeffs(e, 3, 2048, 48)
    row = tabulate(e, 3, 2049, 48)
    assert list(c.residues) == reference_differences(list(row), 3**48)


def test_transform_leaves_no_cyclic_garbage():
    # the transform's recursive closure is unlinked when it returns, so its closures and
    # kernels go by reference counting; the first call warms the map's caches
    e = parse_map("sigma(x^3+1)")
    mahler_coeffs(e, 3, 200, 16)
    gc.collect()
    gc.disable()
    try:
        mahler_coeffs(e, 3, 200, 16)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_transform_kernels_live_for_one_call():
    # equal lengths under two moduli in one process: a kernel kept past its call,
    # or looked up by h alone, would carry one modulus's binomials into the other
    rng = random.Random(2)
    for n in (100, 257, 601):
        for q in (2**64, 3**40, 5**3, 2**64):
            row = [rng.randrange(q) for _ in range(n)]
            assert mahler._differences(list(row), q) == reference_differences(row, q), (n, q)


@st.composite
def _residue_rows(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(1, 70))
    q = p**K
    residue = st.one_of(
        st.just(0),
        st.just(q - 1),
        st.integers(0, K - 1).map(lambda j: p**j),
        st.integers(0, q - 1),
    )
    return p, K, draw(st.lists(residue, min_size=1, max_size=40))


@pytest.mark.parametrize(
    "p, K, residues, message",
    [
        (1, 2, (0, 1, 0), "p must be prime, got 1"),  # its valuations would never return
        (4, 2, (0, 1, 0), "p must be prime, got 4"),
        (2, 0, (0,), "precision must be >= 1, got 0"),
        (2, 3, (0, 2**4, 1), "residue 16 out of range for 2^3"),  # would read Exact(4), not AtLeast(3)
        (3, 2, (1, -1), "residue -1 out of range for 3^2"),
    ],
)
def test_coefficients_are_validated_at_construction(p, K, residues, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MahlerCoeffs(p, K, residues)


@settings(max_examples=200, deadline=None)
@given(_residue_rows())
def test_valuations_and_rows_match_the_per_residue_reference(case):
    p, K, residues = case
    q = p**K
    c = MahlerCoeffs(p, K, tuple(residues))
    expected = [residue_valuation(r, p, K) for r in residues]
    assert [c.valuation(m) for m in range(len(residues))] == expected
    assert c.orders == tuple(v.value for v in expected)
    assert cli._coefficient_rows(c) == [
        {
            "m": m,
            "residue": r,
            "signed": r if 2 * r <= q else r - q,
            "valuation": str(residue_valuation(r, p, K)),
        }
        for m, r in enumerate(residues)
    ]


@st.composite
def _round_trip_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return draw(EXPRESSIONS[p]), p, draw(st.integers(0, 48)), draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(_round_trip_cases())
def test_mahler_round_trip_on_random_expressions(case):
    e, p, M, K = case
    c = mahler_coeffs(e, p, M, K)
    table = tabulate(e, p, M + 1, K)
    assert [eval_mahler(c, i) for i in range(M + 1)] == list(table)
    if c.total:
        assert not any(c.residues[c.degree_bound + 1 :])


def test_shift_coefficients_base_two():
    c = coeffs_of("sigma(x)", 2, M=5)
    assert [c.signed(m) for m in range(6)] == [0, 0, 1, -2, 4, -8]


def test_shift_coefficients_base_three():
    c = coeffs_of("sigma(x)", 3, M=9)
    assert [c.signed(m) for m in range(10)] == [0, 0, 0, 1, -3, 6, -9, 9, 0, -27]


def test_increment_coefficients():
    c = coeffs_of("x+1", 2, M=6)
    assert [c.signed(m) for m in range(7)] == [1, 1, 0, 0, 0, 0, 0]


def test_square_coefficients():
    c = coeffs_of("x^2", 2, M=6)
    assert [c.signed(m) for m in range(7)] == [0, 1, 2, 0, 0, 0, 0]


def test_degree_bound_marks_polynomials():
    assert coeffs_of("x^2+x+1", 2).degree_bound == 2
    assert coeffs_of("mahler[1,2,4](x)", 2).degree_bound == 2
    assert coeffs_of("sigma(x)", 2).degree_bound is None
    assert coeffs_of("x^2", 2, M=12).total


def test_residue_past_a_total_row_is_zero():
    # 3x + 1 = 1 + 3 C(x,1): a row to M = 1 is total, so every a_m past it is 0
    total = coeffs_of("3*x+1", 2, M=1)
    assert [total.residue(m) for m in range(4)] == [1, 3, 0, 0] and total.signed(3) == 0
    with pytest.raises(IndexError):  # a row that is not total stops at M
        coeffs_of("sigma(x)", 2, M=1).residue(2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree_cut_matches_reference_on_the_full_row(p):
    # mahler_coeffs transforms a polynomial's first degree + 1 points only; the
    # reference differences all 65, so a degree that under-reports shows here
    K = 16
    for text in CORPUS + EXTRA:
        e = parse_map(text)
        c = mahler_coeffs(e, p, 64, K)
        assert (c.degree_bound is None) == ("sigma" in text), text
        row = tabulate(e, p, 65, K)
        assert list(c.residues) == reference_differences(list(row), p**K), text


def test_zero_row_packs_nothing(monkeypatch):
    widths = []
    pack = mahler._pack
    monkeypatch.setattr(
        mahler, "_pack", lambda values, width: widths.append(width) or pack(values, width)
    )
    q = 2**64
    assert mahler._differences([0] * 4097, q) == [0] * 4097
    assert widths == []
    # the indicator of the last point: Delta^m of it at 0 is 0 below m = 4096, then 1
    last = [0] * 4096 + [1]
    assert mahler._differences(last, q) == last
    assert widths


def test_scan_row_skips_its_top_products(monkeypatch):
    # sigma(x^2+x+1) = C(x+1, 2) at p = 2: its coefficients end at a_2, so the top level's
    # head test (a 4-slot kernel) explains the row and the h = 1024 kernel is never packed
    lengths = []
    pack = mahler._pack
    monkeypatch.setattr(
        mahler, "_pack", lambda values, width: lengths.append(len(values)) or pack(values, width)
    )
    c = mahler_coeffs(parse_map("sigma(x^2+x+1)"), 2, 4096, 64)
    assert c.residues[:3] == (0, 1, 1) and not any(c.residues[3:])
    assert 4 in lengths and 1025 not in lengths


def test_a_failed_head_test_replaces_the_top_product(monkeypatch):
    # the head's polynomial but for one inner point passes the last-point probe and fails
    # the head test; the test's (d+1)-th differences then give the h-th ones by an
    # (h - d)-slot kernel, so the (h+1)-slot kernel is never packed
    lengths = []
    pack = mahler._pack
    monkeypatch.setattr(
        mahler, "_pack", lambda values, width: lengths.append(len(values)) or pack(values, width)
    )
    n, d, q = 200, 20, 3**33
    h = _split_point(n)
    assert mahler._worth_checking(d, h) and _split_point(n - h) < h
    rng = random.Random(1)
    a = {0: rng.randrange(q), d // 2: rng.randrange(q), d: rng.randrange(1, q)}
    row = [sum(c * math.comb(j, m) for m, c in a.items()) % q for j in range(n)]
    row[150] = (row[150] + 1) % q
    assert mahler._differences(row, q) == reference_differences(row, q)
    assert h - d in lengths and h + 1 not in lengths


def test_a_zero_head_is_not_tested(monkeypatch):
    # a zero head (d = -1) and a zero last point pass the probe, but the row is not all zero,
    # so the head test would fail: it is not tried, and no 1-slot kernel is packed for it
    lengths = []
    pack = mahler._pack
    monkeypatch.setattr(
        mahler, "_pack", lambda values, width: lengths.append(len(values)) or pack(values, width)
    )
    n, q = 200, 2**64
    row = [0] * n
    row[150] = 12345
    assert not any(row[: _split_point(n)]) and row[-1] == 0
    assert mahler._differences(list(row), q) == reference_differences(row, q)
    assert 1 not in lengths


def _slot_strings(K, rng):
    """(width, slots) for slot strings that vanish mod 2**K but for at most one slot, at the
    first, last or a middle position.  Widths are the fewest bytes that hold K bits, one more,
    and twice as many.  A bad slot is nonzero mod 2**K only in the partial byte (or, at a whole
    number of bytes, in the top byte of q - 1), only at bit K - 1, or anywhere; a slot that
    vanishes is 0 or nonzero only above bit K."""
    full = -(-K // 8)
    top = 8 * (K // 8) if K % 8 else 8 * full - 8  # the lowest bit of q - 1's top byte
    for width in (full, full + 1, 2 * full):
        above = 256**width >> K  # the values above bit K a slot can hold, plus one
        zero = lambda: rng.randrange(above) << K if above > 1 and rng.randrange(2) else 0
        bad = (
            lambda: rng.randrange(1, 1 << (K - top)) << top | zero(),
            lambda: 1 << (K - 1),
            lambda: rng.randrange(1, 256**width),
        )
        for count in (1, 2, 3, 5):
            yield width, [zero() for _ in range(count)]
            for make in bad:
                for at in {0, count // 2, count - 1}:
                    slots = [zero() for _ in range(count)]
                    slots[at] = make()
                    yield width, slots


@pytest.mark.parametrize("K", [1, 7, 8, 9, 33, 61, 64, 70])
def test_two_adic_zero_test_matches_the_slot_read(K):
    q = 2**K
    rng = random.Random(K)
    for width, slots in _slot_strings(K, rng):
        data = b"".join(v.to_bytes(width, "little") for v in slots)
        assert mahler._vanishes(data, width, q) == all(v % q == 0 for v in slots), (width, slots)


def test_polynomial_row_is_cut_at_its_degree(monkeypatch):
    lengths = []
    differences = mahler._differences
    monkeypatch.setattr(
        mahler, "_differences", lambda row, q: lengths.append(len(row)) or differences(row, q)
    )
    c = mahler_coeffs(parse_map("x^5+3*x+1"), 2, 4096, 64)
    assert lengths == [6]
    assert c.max_index == 4096 and c.total
    assert c.residues[5] == 120 and not any(c.residues[6:])


def test_polynomial_row_evaluates_its_degree_points_and_charges_all(monkeypatch):
    # x^5+3x+1 has binomial degree 5: of the 4097 points charged, six are evaluated, and
    # the coefficients are the differences of the full tabulation
    evaluated = []
    evaluator = mapdsl._evaluator

    def counting(*args):
        column = evaluator(*args)
        return lambda xs: evaluated.extend(xs) or column(xs)

    monkeypatch.setattr(mapdsl, "_evaluator", counting)
    e = parse_map("x^5+3*x+1")
    c = mahler_coeffs(e, 2, 4096, 64)
    assert evaluated == list(range(6))
    with pytest.raises(BudgetError, match="enumeration of 4097 entries exceeds budget 4096"):
        mahler_coeffs(e, 2, 4096, 64, budget=4096)
    monkeypatch.undo()
    assert list(c.residues) == reference_differences(list(tabulate(e, 2, 4097, 64)), 2**64)


# --- reconstruction -----------------------------------------------------------


def test_eval_mahler_examples():
    assert eval_mahler(coeffs_of("x^2", 2, M=6), 3) == 9
    assert eval_mahler(coeffs_of("sigma(x)", 2, M=6), 5) == 2
    c = coeffs_of("3*x+1", 3, M=4)
    assert eval_mahler(c, 0) == c.residues[0]


def test_eval_mahler_range_checked():
    with pytest.raises(ValueError):
        eval_mahler(coeffs_of("x", 2, M=4), 5)


@pytest.mark.parametrize("p", [2, 3])
def test_reconstruction(corpus_texts, p):
    K = 16
    for text in corpus_texts:
        e = parse_map(text)
        c = mahler_coeffs(e, p, 16, K)
        bound = lookahead_bound(e, p)
        k_in = K + bound + 4
        for i in range(17):
            expected = eval_map(e, PadicApprox(p, k_in, i)).residue % p**K
            assert eval_mahler(c, i) == expected, (text, i)


def test_linearity():
    p, K, M = 3, 10, 10
    f = coeffs_of("x^2", p, M, K)
    g = coeffs_of("sigma(x)", p, M, K)
    both = coeffs_of("x^2 + sigma(x)", p, M, K)
    for m in range(M + 1):
        assert both.residues[m] == (f.residues[m] + g.residues[m]) % p**K


@pytest.mark.parametrize("j", [0, 1, 2, 5])
def test_binomial_basis_is_indicator(j):
    c = coeffs_of(f"C(x,{j})", 2, M=8)
    assert [c.signed(m) for m in range(9)] == [1 if m == j else 0 for m in range(9)]


# --- structural shift properties ------------------------------------------------


def test_bernoulli_properties_base_two():
    c = coeffs_of("sigma(x)", 2, M=5)
    assert check_bernoulli_properties(c, 1).satisfied_up_to


def test_bernoulli_properties_base_three():
    c = coeffs_of("sigma(x)", 3, M=9)
    assert check_bernoulli_properties(c, 1).satisfied_up_to


def test_bernoulli_injected_fault():
    c = coeffs_of("sigma(x)", 2, M=5)
    residues = list(c.residues)
    residues[2] = 0
    broken = MahlerCoeffs(c.p, c.precision, tuple(residues))
    verdict = check_bernoulli_properties(broken, 1)
    assert verdict.kind == "violated_at" and verdict.m == 2


# --- 1-Lipschitz conditions ------------------------------------------------------


def test_lipschitz_mp_increment():
    assert check_lipschitz_mp(coeffs_of("x+1", 2)).satisfied_up_to


def test_lipschitz_mp_square_base_three():
    verdict = check_lipschitz_mp(coeffs_of("x^2", 3))
    assert verdict.kind == "violated_at" and verdict.m == 2


def test_lipschitz_mp_identity():
    assert check_lipschitz_mp(coeffs_of("x", 5)).satisfied_up_to


def test_lipschitz_ergodic_increment():
    verdict = check_lipschitz_ergodic(coeffs_of("x+1", 2))
    assert verdict.satisfied_up_to


def test_lipschitz_ergodic_three_x_plus_one():
    verdict = check_lipschitz_ergodic(coeffs_of("3*x+1", 2))
    assert verdict.kind == "violated_at" and verdict.m == 1
    assert verdict.definitive


def test_lipschitz_ergodic_identity():
    verdict = check_lipschitz_ergodic(coeffs_of("x", 2))
    assert verdict.kind == "violated_at" and verdict.m == 0


def test_lipschitz_ergodic_strict_mode_exposes_the_clause_conflict():
    # the tail clause applied at m = 1 contradicts a_1 = 1 (mod 4)
    verdict = check_lipschitz_ergodic(coeffs_of("x+1", 2), strict_m1=True)
    assert verdict.kind == "violated_at" and verdict.m == 1


def test_lipschitz_undecidable_at_low_precision():
    verdict = check_lipschitz_mp(coeffs_of("x+1", 2, M=6, K=1))
    assert verdict.kind == "undecidable_at" and verdict.m == 2


def test_scan_stops_at_the_first_violation():
    c = coeffs_of("x^2", 2, M=12)  # a_0 = 0 is past precision, a_1 = 1 is a unit
    read = []

    def runs():
        for run in ((0, 1, 1), (1, 4, 1), (4, 8, 1), (8, 13, 1)):
            read.append(run)
            yield run

    scan = mahler._Scan(c)
    scan.require_runs(runs(), mahler._DIVIDES)
    assert read == [(0, 1, 1), (1, 4, 1)]
    assert scan.verdict().m == 1 and scan.undecided is None
    scan.require_runs(runs(), mahler._DIVIDES)
    assert read == [(0, 1, 1), (1, 4, 1)]


def _logs(start, stop, base):
    """(m, floor(log_base m)) for 1 <= start <= m < stop, one index at a time."""
    out = []
    for m in range(start, stop):
        e = 0
        while base ** (e + 1) <= m:
            e += 1
        out.append((m, e))
    return out


def _per_index_requirements(check, c, n, strict_m1):
    """The (m, required) list of each check, one pair per coefficient: the old scan's input."""
    p, M, K, block = c.p, c.max_index, c.precision, c.p**n
    return {
        "bernoulli": [(m, min(-(-(m - 1) // (block - 1)) - 1, K)) for m in range(2, M + 1)],
        "lipschitz-mp": [(m, e + 1) for m, e in _logs(2, M + 1, p)],
        "lipschitz-ergodic": [(m - 1, e + 1) for m, e in _logs(2 if strict_m1 else 3, M + 2, p)],
        "cs": [(m, e - 1) for m, e in _logs(1, M + 1, block)],
        "cs-mp": _logs(block + 1, M + 1, block),
        "cs-ergodic": _logs(block + 1, M + 1, block),
    }[check]


def _per_index_scan(scan, requirements, condition, definitive=False):
    """The scan the block scan replaced: p**req | a_m for each (m, req) in order, reading one
    valuation at a time; the first violation ends it, the first undecidable one is kept."""
    if scan.violation is not None:
        return
    for m, required in requirements:
        v = scan.c.valuation(m)
        if required <= v.value:
            continue
        if v.exact:
            scan.violation = Verdict(
                "violated_at", scan.c.max_index, m, condition(m, required), f"valuation {v}",
                definitive, note=scan.note,
            )
            return
        if scan.undecided is None:
            scan.undecided = Verdict(
                "undecidable_at", scan.c.max_index, m, condition(m, required), note=scan.note
            )


@st.composite
def _check_rows(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(1, 8))
    M = draw(st.integers(0, 80))
    # a unit times p^j, or 0 at j = K: valuations on both sides of every requirement
    orders = [b % (K + 1) for b in draw(st.binary(min_size=M + 1, max_size=M + 1))]
    rng = draw(st.randoms(use_true_random=False))
    units = [rng.randrange(1, p ** (K - j)) if j < K else 0 for j in orders]
    residues = tuple(p**j * (u + (u % p == 0)) if j < K else 0 for j, u in zip(orders, units))
    degree = draw(st.sampled_from([None, M, M + 5]))
    # runs for the scan itself: a cut of 0..M, each part with a requirement up to K + 2
    cuts = sorted(draw(st.sets(st.integers(1, M), max_size=6))) if M else []
    edges = [0] + cuts + [M + 1]
    runs = [(lo, hi, draw(st.integers(0, K + 2))) for lo, hi in zip(edges, edges[1:])]
    return MahlerCoeffs(p, K, residues, degree), draw(st.integers(1, 3)), draw(st.booleans()), runs


@settings(max_examples=250, deadline=None)
@given(_check_rows())
def test_block_scan_matches_the_per_index_scan(case):
    c, n, strict_m1, runs = case
    args = types.SimpleNamespace(n=n, strict_m1=strict_m1)
    block_scan = mahler._Scan.require_runs
    for name, check in cli._CHECKS.items():
        requirements = _per_index_requirements(name, c, n, strict_m1)
        read = []

        def reading(scan, runs, condition, definitive=False):
            runs = list(runs)
            read.append([(m, required) for lo, hi, required in runs for m in range(lo, hi)])
            block_scan(scan, runs, condition, definitive)

        def per_index(scan, runs, condition, definitive=False):
            _per_index_scan(scan, requirements, condition, definitive)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mahler._Scan, "require_runs", reading)
            verdict = check(c, args).to_json()
            patch.setattr(mahler._Scan, "require_runs", per_index)
            assert verdict == check(c, args).to_json(), name
        # the runs cover the per-index list exactly, unless the check returned before its scan
        assert read in ([], [requirements]), name
    # the Bernoulli head: the first nonzero a_m below p^n is the violation
    first = next((m for m in range(min(c.p**n, c.max_index + 1)) if c.residues[m]), None)
    if first is not None:
        assert check_bernoulli_properties(c, n).m == first
    # the scan's own state, the undecidable kept under a violation too
    scan, reference = mahler._Scan(c), mahler._Scan(c)
    scan.require_runs(runs, mahler._DIVIDES)
    per_index = [(m, required) for lo, hi, required in runs for m in range(lo, hi)]
    _per_index_scan(reference, per_index, mahler._DIVIDES)
    assert (scan.violation, scan.undecided) == (reference.violation, reference.undecided)


# --- complex-shift conditions ------------------------------------------------------


def test_cs_bound_shift():
    assert check_complex_shift_bound(coeffs_of("sigma(x)", 2, M=16), 1).satisfied_up_to


def test_cs_bound_identity():
    assert check_complex_shift_bound(coeffs_of("x", 2, M=16), 1).satisfied_up_to


def test_cs_bound_injected_unit():
    c = coeffs_of("sigma(x)", 2, M=16)
    residues = list(c.residues)
    residues[4] = 1  # a unit at index p^(2n) breaks the growth bound
    broken = MahlerCoeffs(c.p, c.precision, tuple(residues))
    verdict = check_complex_shift_bound(broken, 1)
    assert verdict.kind == "violated_at" and verdict.m == 4


def test_cs_mp_shift():
    assert check_cs_mp(coeffs_of("sigma(x)", 2, M=12), 1).satisfied_up_to


def test_cs_mp_binomial():
    assert check_cs_mp(coeffs_of("mahler[0,0,1](x)", 2, M=12), 1).satisfied_up_to


def test_cs_mp_identity_is_one_sided():
    verdict = check_cs_mp(coeffs_of("x", 2, M=12), 1)
    assert verdict.kind == "violated_at" and verdict.m == 2
    assert verdict.note == "sufficient condition only"


def test_cs_ergodic_shift():
    assert check_cs_ergodic(coeffs_of("sigma(x)", 2, M=12), 1).satisfied_up_to


def test_cs_ergodic_binomial():
    assert check_cs_ergodic(coeffs_of("C(x,2)", 2, M=12), 1).satisfied_up_to


def test_cs_ergodic_identity():
    verdict = check_cs_ergodic(coeffs_of("x", 2, M=12), 1)
    assert verdict.kind == "violated_at" and verdict.m == 2


def test_cs_checks_need_enough_coefficients():
    c = coeffs_of("sigma(x)", 2, M=1)
    for check in (check_cs_ergodic, check_cs_mp):
        verdict = check(c, 1)
        assert verdict.kind == "undecidable_at" and verdict.m == 2 and verdict.bound == 1
        assert verdict.condition.endswith("needs M >= 2")
        assert verdict.observed == "coefficients computed only up to M = 1"
        with pytest.raises(ValueError):
            check(c, 0)


def test_lipschitz_checks_on_a_row_without_a_1():
    c = coeffs_of("x+1", 2, M=0)
    verdict = check_lipschitz_mp(c)
    assert verdict.kind == "undecidable_at" and verdict.m == 1
    assert verdict.observed == "coefficients computed only up to M = 0"
    verdict = check_lipschitz_ergodic(c)
    assert verdict.kind == "undecidable_at" and verdict.m == 1
    assert verdict.condition == "a_1 = 1 (mod 4) needs M >= 1"
    # a violation already found outranks the shortfall
    assert check_lipschitz_ergodic(coeffs_of("2*x", 2, M=0)).kind == "violated_at"


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_theorem_cross_consistency_on_shift(p, n):
    M = 2 * p ** (2 * n)
    c = mahler_coeffs(parse_map(f"sigma^{n}(x)"), p, M, 24)
    assert check_complex_shift_bound(c, n).satisfied_up_to
    assert check_cs_mp(c, n).satisfied_up_to
    assert check_cs_ergodic(c, n).satisfied_up_to


def test_verdict_stability():
    for M in (8, 16, 32):
        verdict = check_lipschitz_ergodic(coeffs_of("3*x+1", 2, M=M))
        assert verdict.kind == "violated_at" and verdict.m == 1
    for M in (12, 24, 48):
        verdict = check_cs_mp(coeffs_of("x", 2, M=M), 1)
        assert verdict.kind == "violated_at" and verdict.m == 2


def test_verdict_to_json_is_asdict():
    # the fields in order, as a fresh dict of the same scalars
    verdicts = [
        check_lipschitz_ergodic(coeffs_of("3*x+1", 2, M=8)),
        check_cs_mp(coeffs_of("sigma(x)", 2, M=16), 1),
        check_cs_mp(coeffs_of("sigma(x)", 2, M=1), 1),
    ]
    for verdict in verdicts:
        data = verdict.to_json()
        assert list(data) == list(Verdict.__match_args__)
        assert list(data.values()) == [getattr(verdict, name) for name in Verdict.__match_args__]
        data["kind"] = "changed"
        assert verdict.to_json()["kind"] != "changed"
