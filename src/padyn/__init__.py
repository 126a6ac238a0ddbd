"""Exact p-adic dynamics: automaton maps, Mahler coefficient tests, and
brute-force oracles over finite residue rings."""

from .errors import (
    AutomatonFormatError,
    BudgetError,
    DegenerateAutomatonError,
    MapSyntaxError,
    PadynError,
    PrecisionError,
    UnboundedLookaheadError,
)
from .padic import (
    PadicApprox,
    Valuation,
    binomial_eval,
    is_prime,
)
from .automata import (
    Automaton,
    RunTrace,
    check_nondegenerate,
    max_output_deficit,
    parse_automaton,
    run,
)
from .mapdsl import (
    DEFAULT_BUDGET,
    ComplexShiftDecomposition,
    MapExpr,
    decompose_complex_shift,
    eval_map,
    lookahead_bound,
    parse_map,
    step_order,
    tabulate,
    to_text,
)
from .mahler import (
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
from .dynamics import (
    BoxCount,
    CensusResult,
    CycleReport,
    OrbitResult,
    PlotSet,
    ReducedLevelMap,
    accumulate_plot,
    box_count,
    cycle_report,
    level_map,
    orbit,
    padded_endomap,
    preimage_census,
    reduced_map,
    to_pgm,
)
from .cli import render_report, run_command

__version__ = "0.1.0"
