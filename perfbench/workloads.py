"""Job lists of the three benchmark workloads.

Every job is one ``padyn analyze`` invocation.  The fixed jobs are the
same on every seed and their outputs are compared with digests recorded
at the seed commit; the seed only fixes the job order and, for
``corpus-sweep``, adds a few maps drawn from a small bounded generator,
whose outputs are checked against invariants instead.

This module imports nothing from padyn, so the client process can list
jobs without loading the program.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("deep-oracle", "coeff-scan", "corpus-sweep")

# The expression corpus of the test suite, copied so that the benchmark
# does not change when the tests do.
CORPUS = (
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
)

# synchronous two-state machine: emits input xor previous input digit
XOR_PREV = """\
p 2
states z o
initial z
z 0 -> z / 0
z 1 -> o / 1
o 0 -> z / 1
o 1 -> o / 0
"""

# drops the first two letters, then copies its input
SHIFT2 = """\
p 2
states q0 q1 q2
initial q0
q0 0 -> q1 / -
q0 1 -> q1 / -
q1 0 -> q2 / -
q1 1 -> q2 / -
q2 0 -> q2 / 0
q2 1 -> q2 / 1
"""

AUTOMATA = {"xor.aut": XOR_PREV, "shift2.aut": SHIFT2}

# (p, n, kmax) shapes of corpus-sweep; the automaton maps run at the p=2 ones
CORPUS_SHAPES = ((2, 1, 9), (3, 1, 5), (2, 2, 4))
SEEDED_MAPS = 3
SEEDED_SHAPE = (2, 2, 4)


@dataclass(frozen=True)
class Job:
    """One analyze invocation.  ``fixed`` jobs have recorded digests."""

    key: str
    p: int
    n: int
    kmax: int
    mmax: int
    K: int
    grid: int
    map: str
    writes_files: bool
    fixed: bool

    def argv(self, out_stem: str | None) -> list[str]:
        args = [
            "analyze",
            "--p", str(self.p),
            "--n", str(self.n),
            "--kmax", str(self.kmax),
            "--mmax", str(self.mmax),
            "--K", str(self.K),
            "--grid", str(self.grid),
            "--map", self.map,
        ]
        if self.writes_files:
            args += ["--json", f"{out_stem}.json", "--csv", f"{out_stem}.csv", "--pgm", f"{out_stem}.pgm"]
        return args

    @property
    def useful_evals(self) -> int:
        """Evaluations a single-table analyze needs: the largest enumerated
        domain, max(p^(n kmax), p^(n+kmax)), plus the mmax+1 Mahler points."""
        p, n, k = self.p, self.n, self.kmax
        return max(p ** (n * k), p ** (n + k)) + self.mmax + 1


def _job(map_text, p, n, kmax, mmax, K, grid, writes_files, fixed=True) -> Job:
    key = f"p{p}n{n}k{kmax}m{mmax}K{K}g{grid}:{map_text}"
    return Job(key, p, n, kmax, mmax, K, grid, map_text, writes_files, fixed)


def write_inputs(workdir: str) -> None:
    """Write the automaton files the corpus-sweep maps refer to."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for name, text in AUTOMATA.items():
        Path(workdir, name).write_text(text)


def generate_map(rng: random.Random) -> str:
    """A map from a small bounded grammar: c*A + B + d with A, B drawn
    from a few atoms.  Every map has the same shape, so the seeded jobs
    cost about the same on every seed, and none can fail."""
    atoms = ("x", "x^2", "x^3", "sigma(x)", "C(x,2)", "sigma(x^2+x)", "C(x,3)")
    a, b = rng.choice(atoms), rng.choice(atoms)
    c, d = rng.randint(1, 5), rng.randint(0, 7)
    return f"{c}*{a}+{b}+{d}"


def jobs_for(workload: str, seed: int, workdir: str) -> list[Job]:
    """The job list of one pass, in the order the seed fixes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-oracle":
        jobs = [
            _job("sigma(x^2+x+1)", 2, 1, 14, 256, 16, 256, True),
            _job("C(x,3)+x", 3, 1, 8, 256, 16, 243, True),
        ]
    elif workload == "coeff-scan":
        jobs = [
            _job("sigma(x^2+x+1)", 2, 1, 2, 4096, 64, 16, False),
            _job("C(x,3)+sigma(x)", 2, 1, 2, 4096, 64, 16, False),
            _job("x^5+3*x+1", 2, 1, 2, 4096, 64, 16, False),
            _job("sigma^2(x^3+x+1)", 3, 2, 2, 2048, 48, 16, False),
        ]
    elif workload == "corpus-sweep":
        auto_maps = (
            f'auto("{workdir}/xor.aut")(x)+1',
            f'auto("{workdir}/shift2.aut")(x^2+x)',
        )
        jobs = []
        for p, n, kmax in CORPUS_SHAPES:
            maps = CORPUS + (auto_maps if p == 2 else ())
            jobs += [_job(m, p, n, kmax, 64, 16, 64, True) for m in maps]
        p, n, kmax = SEEDED_SHAPE
        jobs += [
            _job(generate_map(rng), p, n, kmax, 64, 16, 64, True, fixed=False)
            for _ in range(SEEDED_MAPS)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    return jobs
