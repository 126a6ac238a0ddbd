import pytest

from padyn.automata import Automaton

# The expression corpus exercised across modules: plain polynomials,
# digit shifts, compositions, and binomial-basis literals.
CORPUS = [
    "x",
    "x+1",
    "3*x+1",
    "x^2",
    "x^2+x+1",
    "sigma(x)",
    "sigma^2(x)",
    "sigma(x^2+x+1)",
    "C(x,2)",
    "mahler[1,2,4](x)",
]

SHIFT1_FILE = """\
# drops the first letter, then copies its input
p 2
states q0 q1
initial q0
q0 0 -> q1 / -
q0 1 -> q1 / -
q1 0 -> q1 / 0
q1 1 -> q1 / 1
"""

IDENTITY_FILE = """\
p 2
states s
initial s
s 0 -> s / 0
s 1 -> s / 1
"""

# synchronous two-state machine: emits input xor previous input digit
XOR_PREV_FILE = """\
p 2
states z o
initial z
z 0 -> z / 0
z 1 -> o / 1
o 0 -> z / 1
o 1 -> o / 0
"""


def make_shift_automaton(n: int, p: int) -> Automaton:
    """The machine that swallows the first n letters, then copies its input.

    n = 0 gives the identity transducer; n = 1 induces the digit shift.
    """
    states = tuple(f"q{i}" for i in range(n + 1))
    transitions, outputs = {}, {}
    for i in range(n):
        for a in range(p):
            transitions[(f"q{i}", a)] = f"q{i + 1}"
            outputs[(f"q{i}", a)] = ()
    for a in range(p):
        transitions[(f"q{n}", a)] = f"q{n}"
        outputs[(f"q{n}", a)] = (a,)
    return Automaton(p, states, states[0], transitions, outputs)


@pytest.fixture
def corpus_texts():
    return list(CORPUS)


@pytest.fixture
def shift1_path(tmp_path):
    path = tmp_path / "shift1.aut"
    path.write_text(SHIFT1_FILE)
    return path
