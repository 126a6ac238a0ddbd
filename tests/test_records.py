"""The value classes behave as frozen dataclasses did: construction with
defaults, argument errors, equality only within a class, hash, repr, immutability,
pickle and deepcopy, ``match`` and the cached properties."""
import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from padyn.automata import Automaton, NondegeneracyVerdict, RunTrace, parse_automaton
from padyn.dynamics import (
    BoxCount,
    CensusResult,
    CycleReport,
    OrbitResult,
    PlotSet,
    ReducedLevelMap,
)
from padyn.mahler import MahlerCoeffs, Verdict
from padyn.mapdsl import (
    Add,
    AutoApply,
    Binom,
    ComplexShiftDecomposition,
    Const,
    MahlerLit,
    Mul,
    Neg,
    Pow,
    Sigma,
    Sub,
    Var,
    parse_map,
)
from padyn.padic import PadicApprox, Valuation

XOR = parse_automaton(
    "p 2\nstates z o\ninitial z\nz 0 -> z / 0\nz 1 -> o / 1\no 0 -> z / 1\no 1 -> o / 0\n"
)

# one record of every value class, built from all of its fields by position
RECORDS = [
    Valuation(3, False),
    PadicApprox(5, 2, 7),
    RunTrace(("z", "o"), (0, 1), 2),
    NondegeneracyVerdict(False, "z"),
    Const(3),
    Var(),
    Neg(Var()),
    Add(Var(), Const(1)),
    Sub(Var(), Const(1)),
    Mul(Const(2), Var()),
    Pow(Var(), 3),
    Sigma(2, Var()),
    Binom(Var(), 3),
    MahlerLit((1, 2), Var()),
    AutoApply("xor.aut", XOR, 0, Var()),
    ComplexShiftDecomposition(2, 1, 1, (1, 0), (1, 0, 1, 0), True, None),
    MahlerCoeffs(2, 3, (1, 2, 0), 1),
    ReducedLevelMap(2, 1, 1, (1, 0)),
    CensusResult(1, (2, 0), 0, (0, 1)),
    CycleReport(((0, 1),), {0: 2}),
    OrbitResult((0, 1, 0), 0, 2),
    PlotSet(ReducedLevelMap(2, 2, 1, (0, 1, 0, 1)), 1, (1,)),
    BoxCount(2, b"\x01\x00\x00\x01", 2),
    Verdict("violated_at", 8, 1, "a_1 = 1 (mod 4)", "a_1 = 3 (mod 4)", True, False, "note"),
    XOR,
]

# the fields each class may leave out, with their defaults
DEFAULTS = {
    Valuation: {"exact": True},
    NondegeneracyVerdict: {"witness": None},
    MahlerCoeffs: {"degree_bound": None},
    CensusResult: {"witness_point": None, "witness_pair": None},
    OrbitResult: {"cycle_start": None, "cycle_length": None},
    Verdict: {"m": None, "condition": "", "observed": "", "definitive": False, "total": False, "note": ""},
}

UNHASHABLE = (AutoApply, CycleReport, Automaton)  # an Automaton field, dict fields


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__match_args__}


def _ids(records):
    return [type(r).__name__ for r in records]


def test_every_frozen_class_is_covered():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 25


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_keyword_and_positional_construction_agree(record):
    cls, fields = type(record), _fields(record)
    assert cls(**fields) == record
    assert cls(*fields.values()) == record
    defaults = DEFAULTS.get(cls, {})
    required = [v for name, v in fields.items() if name not in defaults]
    short = cls(*required)
    assert _fields(short) == {**fields, **defaults}
    assert cls(*required, **{name: fields[name] for name in defaults}) == record


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_missing_or_extra_arguments_raise_type_error(record):
    cls, values = type(record), list(_fields(record).values())
    with pytest.raises(TypeError):
        cls(*values, values[-1] if values else 0)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    required = len(values) - len(DEFAULTS.get(cls, {}))
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


def test_equality_is_within_one_class():
    a, b = Var(), Const(1)
    assert Add(a, b) != Sub(a, b)
    assert Add(a, b) == Add(Var(), Const(1))
    assert Valuation(3) != (3, True)
    assert Const(1) != 1


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_equal_records_hash_equal(record):
    twin = type(record)(*_fields(record).values())
    assert twin == record and twin is not record
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_repr_names_every_field():
    assert repr(parse_map("sigma^2(x^2+3*x)-C(x,3)*mahler[1,2](x)")) == (
        "Sub(left=Sigma(shifts=2, operand=Add(left=Pow(base=Var(), exponent=2), "
        "right=Mul(left=Const(value=3), right=Var()))), right=Mul(left=Binom(operand=Var(), "
        "lower=3), right=MahlerLit(coeffs=(1, 2), operand=Var())))"
    )
    assert repr(CensusResult(1, (1, 1))) == (
        "CensusResult(expected=1, counts=(1, 1), witness_point=None, witness_pair=None)"
    )


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_repr_is_the_class_and_its_fields(record):
    body = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__qualname__}({body})"


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in type(record).__match_args__:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_pickle_and_deepcopy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record


def test_match_by_keyword_and_position():
    match parse_map("x+1"):
        case Add(left=Var(), right=Const(value=c)):
            assert c == 1
        case _:
            pytest.fail("keyword pattern did not match")
    match parse_map("C(x,3)"):
        case Binom(Var(), m):
            assert m == 3
        case _:
            pytest.fail("positional pattern did not match")
    assert Add.__match_args__ == ("left", "right") and Var.__match_args__ == ()


def test_cached_properties_are_computed_once():
    coeffs = MahlerCoeffs(2, 3, (1, 2, 0), 1)
    assert (coeffs.modulus, coeffs.orders) == (8, (0, 1, 3))  # set at construction
    node = AutoApply("xor.aut", XOR, 0, Var())
    assert node.chunks is node.chunks
    # a value set at construction or cached is not a field: it changes neither equality nor the repr
    assert coeffs == MahlerCoeffs(2, 3, (1, 2, 0), 1)
    assert "orders" not in repr(coeffs) and "modulus" not in repr(coeffs)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError):
        PadicApprox(4, 2, 1)
    with pytest.raises(ValueError):
        ReducedLevelMap(2, 1, 1, (1, 2))
    assert ReducedLevelMap(2, 1, 1, (1, 2), check_range=False).table == (1, 2)
    assert PlotSet(ReducedLevelMap(2, 3, 2, (0,) * 8), 1, (2, 1, 2)).k_values == (1, 2)
