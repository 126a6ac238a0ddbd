"""Finite letter-to-word transducers over the alphabet {0..p-1}.

An automaton reads one input letter per step, moves to a new state and
emits a finite (possibly empty) word.  Synchronous machines emit exactly
one letter per step and induce 1-Lipschitz maps on truncated p-adic
integers; asynchronous ones induce continuous maps whenever they are
nondegenerate (no reachable way to consume forever while emitting
nothing).

File format (line-oriented, '#' starts a comment)::

    p <prime>
    states <id> <id> ...
    initial <id>
    <state> <letter> -> <state> / <output>

with one rule line per (state, letter) pair; ``<output>`` is a string of
digits, or ``-`` for the empty word.  Because outputs are written one
digit per character, files are limited to p <= 7.
"""
from __future__ import annotations

import warnings

from ._record import Record
from .errors import AutomatonFormatError, UnboundedLookaheadError
from .padic import is_prime

__all__ = [
    "Automaton",
    "RunTrace",
    "NondegeneracyVerdict",
    "accessible_states",
    "check_nondegenerate",
    "chunk_tables",
    "max_output_deficit",
    "parse_automaton",
    "run",
]


class Automaton(Record):
    """A letter-to-word transducer with input and output alphabet {0..p-1}."""

    p: int
    states: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, int], str]
    outputs: dict[tuple[str, int], tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.p >= 1 << 64 or not is_prime(self.p):  # is_prime decides p < 2^64 only
            raise AutomatonFormatError(f"alphabet size must be prime, got {self.p}")
        if self.initial not in self.states:
            raise AutomatonFormatError(f"initial state {self.initial!r} not declared")
        for s in self.states:
            for a in range(self.p):
                if (s, a) not in self.transitions:
                    raise AutomatonFormatError(f"missing transition for ({s}, {a})")
                if (s, a) not in self.outputs:
                    raise AutomatonFormatError(f"missing output for ({s}, {a})")
        for (s, a), t in self.transitions.items():
            if t not in self.states:
                raise AutomatonFormatError(f"transition ({s}, {a}) -> unknown state {t!r}")
        for (s, a), w in self.outputs.items():
            for d in w:
                if not 0 <= d < self.p:
                    raise AutomatonFormatError(f"output digit {d} of ({s}, {a}) out of range")

    @property
    def synchronous(self) -> bool:
        """True when every output word has length exactly one."""
        return all(len(w) == 1 for w in self.outputs.values())


class RunTrace(Record):
    """Observable record of one deterministic run."""

    states: tuple[str, ...]
    output: tuple[int, ...]
    consumed: int


class NondegeneracyVerdict(Record):
    nondegenerate: bool
    witness: str | None = None


def accessible_states(a: Automaton) -> tuple[str, ...]:
    """States reachable from the initial one, in breadth-first order."""
    seen = {a.initial}
    order = [a.initial]
    frontier = [a.initial]
    while frontier:
        nxt = []
        for s in frontier:
            for letter in range(a.p):
                t = a.transitions[(s, letter)]
                if t not in seen:
                    seen.add(t)
                    order.append(t)
                    nxt.append(t)
        frontier = nxt
    return tuple(order)


def parse_automaton(text: str) -> Automaton:
    """Parse the line-oriented automaton format described in the module doc."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if len(lines) < 3:
        raise AutomatonFormatError("expected at least p, states and initial lines")

    lineno, body = lines[0]
    parts = body.split()
    if len(parts) != 2 or parts[0] != "p":
        raise AutomatonFormatError("expected 'p <prime>'", line=lineno)
    p = _number(parts[1], "prime", lineno)
    if p > 7:
        raise AutomatonFormatError("file format supports p <= 7 only", line=lineno)
    if not is_prime(p):
        raise AutomatonFormatError(f"alphabet size must be prime, got {p}", line=lineno)

    lineno, body = lines[1]
    parts = body.split()
    if parts[0] != "states" or len(parts) < 2:
        raise AutomatonFormatError("expected 'states <id> ...'", line=lineno)
    states = tuple(parts[1:])
    if len(set(states)) != len(states):
        raise AutomatonFormatError("duplicate state id", line=lineno)

    lineno, body = lines[2]
    parts = body.split()
    if len(parts) != 2 or parts[0] != "initial":
        raise AutomatonFormatError("expected 'initial <id>'", line=lineno)
    initial = parts[1]
    if initial not in states:
        raise AutomatonFormatError(f"unknown initial state {initial!r}", line=lineno)

    transitions: dict[tuple[str, int], str] = {}
    outputs: dict[tuple[str, int], tuple[int, ...]] = {}
    for lineno, body in lines[3:]:
        try:
            head, tail = body.split("->")
            target, outword = tail.split("/")
        except ValueError:
            raise AutomatonFormatError(
                "expected '<state> <letter> -> <state> / <output>'", line=lineno
            ) from None
        head_parts = head.split()
        if len(head_parts) != 2:
            raise AutomatonFormatError("expected '<state> <letter>' before '->'", line=lineno)
        src, letter_text = head_parts
        if src not in states:
            raise AutomatonFormatError(f"unknown state {src!r}", line=lineno)
        letter = _number(letter_text, "letter", lineno)
        if not 0 <= letter < p:
            raise AutomatonFormatError(f"letter {letter} out of range for p={p}", line=lineno)
        target = target.strip()
        if target not in states:
            raise AutomatonFormatError(f"unknown state {target!r}", line=lineno)
        outword = outword.strip()
        if outword == "-":
            word: tuple[int, ...] = ()
        else:
            if not (outword.isascii() and outword.isdigit()):
                raise AutomatonFormatError(f"bad output word {outword!r}", line=lineno)
            word = tuple(int(c) for c in outword)
            if any(d >= p for d in word):
                raise AutomatonFormatError(f"output digit out of range in {outword!r}", line=lineno)
        if (src, letter) in transitions:
            raise AutomatonFormatError(f"duplicate rule for ({src}, {letter})", line=lineno)
        transitions[(src, letter)] = target
        outputs[(src, letter)] = word

    automaton = Automaton(p, states, initial, transitions, outputs)
    reachable = set(accessible_states(automaton))
    dead = [s for s in states if s not in reachable]
    if dead:
        warnings.warn(f"ignoring inaccessible states: {', '.join(dead)}", stacklevel=2)
    return automaton


def _number(text: str, what: str, lineno: int) -> int:
    """An ASCII digit string as a number, or an ``AutomatonFormatError`` naming ``what``."""
    if not (text.isascii() and text.isdigit()):
        raise AutomatonFormatError(f"bad {what} {text!r}", line=lineno)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise AutomatonFormatError(f"{what} of {len(text)} digits is too long", line=lineno) from None


def run(a: Automaton, word) -> RunTrace:
    """Run the machine on a finite letter sequence from its initial state."""
    word = list(word)
    for letter in word:
        if not 0 <= letter < a.p:
            raise ValueError(f"letter {letter} out of range for p={a.p}")
    state = a.initial
    visited = [state]
    emitted: list[int] = []
    for letter in word:
        emitted.extend(a.outputs[(state, letter)])
        state = a.transitions[(state, letter)]
        visited.append(state)
    return RunTrace(tuple(visited), tuple(emitted), len(word))


_CHUNK_TABLE = 256  # chunk_tables reads c letters per step, p**c <= this many chunks per state


def chunk_tables(a: Automaton) -> tuple[int, list[int], list[int], list[int]]:
    """The machine read c letters per step: (c, next, value, scale).  Entry
    s * p**c + u is for the state of index s (the initial one is 0) and the chunk
    u, its c letters least significant first: the state reached, times p**c; the
    output word as a number; and p**(its length)."""
    p, c = a.p, 1
    while p ** (c + 1) <= _CHUNK_TABLE:
        c += 1
    states = sorted(a.states, key=lambda s: s != a.initial)
    index = {s: i for i, s in enumerate(states)}
    letter = [  # per state and letter: the state reached, the output as a number, p**(its length)
        [(index[a.transitions[s, d]], _value(a.outputs[s, d], p), p**len(a.outputs[s, d])) for d in range(p)]
        for s in states
    ]
    rows = [[(i, 0, 1)] for i in range(len(states))]  # per state, the chunks of l letters
    for _ in range(c):  # one more letter d, the most significant: chunk u + d p**l
        rows = [
            [(letter[t][d][0], v + letter[t][d][1] * w, w * letter[t][d][2])
             for d in range(p) for t, v, w in row]
            for row in rows
        ]
    entries = [entry for row in rows for entry in row]
    return c, [t * p**c for t, _, _ in entries], [v for _, v, _ in entries], [w for _, _, w in entries]


def _value(word: tuple[int, ...], p: int) -> int:
    """A word of base-p digits as a number, the first letter least significant."""
    return sum(d * p**j for j, d in enumerate(word))


def check_nondegenerate(a: Automaton) -> NondegeneracyVerdict:
    """Degenerate iff the empty-output transition subgraph, restricted to
    accessible states, contains a cycle (an infinite silent run)."""
    reachable = accessible_states(a)  # breadth-first: the same witness in every process
    silent: dict[str, list[str]] = {s: [] for s in reachable}
    for s in reachable:
        for letter in range(a.p):
            if not a.outputs[(s, letter)]:
                t = a.transitions[(s, letter)]
                silent[s].append(t)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {s: WHITE for s in reachable}
    for root in reachable:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(silent[root]))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if color[t] == GREY:
                    return NondegeneracyVerdict(False, witness=t)
                if color[t] == WHITE:
                    color[t] = GREY
                    stack.append((t, iter(silent[t])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return NondegeneracyVerdict(True)


def max_output_deficit(a: Automaton) -> int:
    """Largest value of (letters consumed - letters emitted) over all runs.

    Finite exactly when every reachable cycle emits at least as many
    letters as it consumes; computed as a longest-walk weight with edge
    weight 1 - len(output).
    """
    reachable = accessible_states(a)
    best: dict[str, int] = {a.initial: 0}
    for round_ in range(len(reachable) + 1):
        changed = False
        for s in list(best):
            for letter in range(a.p):
                t = a.transitions[(s, letter)]
                w = best[s] + 1 - len(a.outputs[(s, letter)])
                if t not in best or w > best[t]:
                    best[t] = w
                    changed = True
        if not changed:
            return max(0, max(best.values()))
    raise UnboundedLookaheadError(
        "a reachable cycle consumes more letters than it emits"
    )

