import pytest

from conftest import IDENTITY_FILE, SHIFT1_FILE, XOR_PREV_FILE, make_shift_automaton
from test_kernel import guaranteed_output_length

from padyn.automata import (
    Automaton,
    check_nondegenerate,
    max_output_deficit,
    parse_automaton,
    run,
)
from padyn.errors import (
    AutomatonFormatError,
    DegenerateAutomatonError,
    PrecisionError,
    UnboundedLookaheadError,
)
from padyn.mapdsl import AutoApply, Var, eval_map
from padyn.padic import PadicApprox, residue_valuation


def all_empty_machine():
    return parse_automaton("p 2\nstates s0\ninitial s0\ns0 0 -> s0 / -\ns0 1 -> s0 / -\n")


# --- parsing -------------------------------------------------------------


def test_parse_identity_machine_is_synchronous():
    machine = parse_automaton(IDENTITY_FILE)
    assert machine.synchronous
    assert run(machine, [1, 1, 0, 1]).output == (1, 1, 0, 1)


def test_parse_shift_file_matches_constructor():
    assert parse_automaton(SHIFT1_FILE) == make_shift_automaton(1, 2)
    assert not parse_automaton(SHIFT1_FILE).synchronous


def test_parse_missing_row():
    text = "p 2\nstates s\ninitial s\ns 0 -> s / 0\n"
    with pytest.raises(AutomatonFormatError, match="missing transition"):
        parse_automaton(text)


@pytest.mark.parametrize(
    "text, match",
    [
        ("p 4\nstates s\ninitial s\ns 0 -> s / 0\n", "prime"),
        # the size is read before primality: 9 is not prime, 2^64 + 13 past is_prime's range
        ("p 9\nstates s\ninitial s\n", "line 1: file format supports p <= 7 only"),
        ("p 18446744073709551629\nstates s\ninitial s\n", "line 1: file format supports p <= 7 only"),
        ("p 2\nstates s\ninitial t\ns 0 -> s / 0\ns 1 -> s / 1\n", "unknown initial"),
        ("p 2\nstates s\ninitial s\ns 0 -> t / 0\ns 1 -> s / 1\n", "unknown state"),
        ("p 2\nstates s\ninitial s\ns 0 -> s / 2\ns 1 -> s / 1\n", "out of range"),
        ("p 2\nstates s\ninitial s\ns 0 -> s / 0\ns 0 -> s / 1\ns 1 -> s / 1\n", "duplicate"),
        ("p 2\nstates s\ninitial s\nbogus line\ns 1 -> s / 1\n", "expected"),
        # ASCII digits only: an Arabic-Indic two and zero, and a superscript two
        ("p \u0662\nstates s\ninitial s\ns 0 -> s / 0\ns 1 -> s / 1\n", "line 1: bad prime"),
        ("p 2\nstates s\ninitial s\ns \u0660 -> s / 0\ns 1 -> s / 1\n", "line 4: bad letter"),
        ("p 2\nstates s\ninitial s\ns 0 -> s / \u00b2\ns 1 -> s / 1\n", "line 4: bad output word"),
        # more digits than int() converts
        pytest.param(
            "p " + "2" * 5000 + "\nstates s\ninitial s\n",
            "line 1: prime of 5000 digits is too long",
            id="over-long prime",
        ),
        pytest.param(
            "p 2\nstates s\ninitial s\ns " + "0" * 5000 + " -> s / 0\n",
            "line 4: letter of 5000 digits is too long",
            id="over-long letter",
        ),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(AutomatonFormatError, match=match):
        parse_automaton(text)


def test_parse_error_carries_line_number():
    text = "p 2\nstates s\ninitial s\n# comment\ns 0 -> s / 0\nnope\ns 1 -> s / 1\n"
    with pytest.raises(AutomatonFormatError, match="line 6"):
        parse_automaton(text)


@pytest.mark.parametrize("p", [4, 2**64, 2**64 + 13])
def test_constructor_refuses_an_alphabet_that_is_not_a_prime_below_2_to_the_64(p):
    # past 2^64 primality is not decided: the machine is refused with the format error all the same
    with pytest.raises(AutomatonFormatError, match=f"^alphabet size must be prime, got {p}$"):
        Automaton(p, ("s",), "s", {}, {})


def test_inaccessible_states_warn():
    text = (
        "p 2\nstates a b\ninitial a\n"
        "a 0 -> a / 0\na 1 -> a / 1\nb 0 -> b / 0\nb 1 -> b / 1\n"
    )
    with pytest.warns(UserWarning, match="inaccessible"):
        parse_automaton(text)


# --- shift machines -------------------------------------------------------


def test_shift_zero_is_identity():
    machine = make_shift_automaton(0, 2)
    assert machine.synchronous
    assert run(machine, [1, 0, 1]).output == (1, 0, 1)


def test_shift_one_drops_first_letter():
    machine = make_shift_automaton(1, 2)
    assert run(machine, [1, 1, 0, 1]).output == (1, 0, 1)


def test_shift_two_base_three():
    machine = make_shift_automaton(2, 3)
    assert run(machine, [1, 2, 0]).output == (0,)


def test_run_trace_states():
    trace = run(make_shift_automaton(1, 2), [1, 1, 0, 1])
    assert trace.states == ("q0", "q1", "q1", "q1", "q1")
    assert trace.consumed == 4


def test_run_rejects_bad_letters():
    with pytest.raises(ValueError):
        run(make_shift_automaton(0, 2), [2])


def test_run_all_empty_outputs():
    assert run(all_empty_machine(), [1, 0]).output == ()


# --- nondegeneracy ---------------------------------------------------------


def test_shift_machines_nondegenerate():
    for n in range(4):
        assert check_nondegenerate(make_shift_automaton(n, 2)).nondegenerate


def test_all_empty_machine_degenerate():
    verdict = check_nondegenerate(all_empty_machine())
    assert not verdict.nondegenerate
    assert verdict.witness == "s0"


def test_synchronous_machine_nondegenerate():
    assert check_nondegenerate(parse_automaton(XOR_PREV_FILE)).nondegenerate


# --- output lengths ---------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_guaranteed_length_of_shift(n):
    machine = make_shift_automaton(n, 2)
    for L in range(8):
        assert guaranteed_output_length(machine, L) == max(L - n, 0)


def test_guaranteed_length_identity():
    machine = make_shift_automaton(0, 3)
    assert guaranteed_output_length(machine, 5) == 5
    assert guaranteed_output_length(make_shift_automaton(1, 2), 0) == 0


def test_guaranteed_length_rejects_degenerate():
    with pytest.raises(DegenerateAutomatonError):
        guaranteed_output_length(all_empty_machine(), 3)


def test_guaranteed_length_monotone_and_growing():
    for machine in (
        make_shift_automaton(2, 2),
        parse_automaton(XOR_PREV_FILE),
        parse_automaton(SHIFT1_FILE),
    ):
        size = len(machine.states)
        lengths = [guaranteed_output_length(machine, L) for L in range(4 * size + size + 1)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))
        for L in range(4 * size):
            assert lengths[L + size] >= lengths[L] + 1


def test_max_output_deficit():
    assert max_output_deficit(make_shift_automaton(0, 2)) == 0
    assert max_output_deficit(make_shift_automaton(3, 2)) == 3
    assert max_output_deficit(parse_automaton(XOR_PREV_FILE)) == 0


def test_max_output_deficit_unbounded():
    # one letter out per two letters in: the deficit grows without bound
    text = (
        "p 2\nstates a b\ninitial a\n"
        "a 0 -> b / -\na 1 -> b / -\nb 0 -> a / 0\nb 1 -> a / 1\n"
    )
    with pytest.raises(UnboundedLookaheadError):
        max_output_deficit(parse_automaton(text))


# --- induced maps ------------------------------------------------------------


def induced(machine):
    """The map x -> machine(x), evaluated at the precision it certifies."""
    return AutoApply("<machine>", machine, max_output_deficit(machine), Var())


def test_induced_identity():
    out = eval_map(induced(make_shift_automaton(0, 2)), PadicApprox(2, 4, 11))
    assert (out.residue, out.precision) == (11, 4)


def test_induced_shift():
    out = eval_map(induced(make_shift_automaton(1, 2)), PadicApprox(2, 4, 11))
    assert (out.residue, out.precision) == (5, 3)


def test_induced_precision_exhausted():
    with pytest.raises(PrecisionError):
        eval_map(induced(make_shift_automaton(2, 2)), PadicApprox(2, 2, 3))


def test_widening_outputs():
    # two output digits per input letter: precision grows instead of shrinking
    machine = parse_automaton(
        "p 2\nstates s\ninitial s\ns 0 -> s / 00\ns 1 -> s / 11\n"
    )
    assert max_output_deficit(machine) == 0
    assert guaranteed_output_length(machine, 3) == 6
    assert run(machine, [1, 0, 1]).output == (1, 1, 0, 0, 1, 1)
    # the six widened digits of 0b101, certified once the input has six
    out = eval_map(induced(machine), PadicApprox(2, 6, 0b101))
    assert (out.residue, out.precision) == (0b110011, 6)


@pytest.mark.parametrize("p, kmax", [(2, 12), (3, 7)])
def test_induced_shift_equals_sigma(p, kmax):
    for n in (0, 1, 2):
        e = induced(make_shift_automaton(n, p))
        for K in range(n + 1, kmax + 1):
            for r in range(p**K):
                assert eval_map(e, PadicApprox(p, K, r)) == PadicApprox(p, K - n, r // p**n)


def test_synchronous_induced_map_is_one_lipschitz():
    machine = parse_automaton(XOR_PREV_FILE)
    K = 6
    images = [eval_map(induced(machine), PadicApprox(2, K, r)) for r in range(2**K)]
    assert all(image.precision == K for image in images)
    for a in range(2**K):
        for b in range(a + 1, 2**K):
            lhs = residue_valuation((images[a].residue - images[b].residue) % 2**K, 2, K)
            assert lhs.value >= residue_valuation((a - b) % 2**K, 2, K).value


def test_prefix_monotonicity():
    for machine in (
        make_shift_automaton(2, 2),
        parse_automaton(XOR_PREV_FILE),
        all_empty_machine(),
    ):
        for r in range(2**6):
            word = [(r >> i) & 1 for i in range(6)]
            full = run(machine, word).output
            for cut in range(7):
                prefix = run(machine, word[:cut]).output
                assert full[: len(prefix)] == prefix
