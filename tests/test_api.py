"""The public surface: every exported name resolves, and removed API stays gone."""
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import padyn
from padyn.automata import NondegeneracyVerdict
from padyn.dynamics import ReducedLevelMap
from padyn.mahler import Verdict
from padyn.padic import PadicApprox

# the layer modules whose ``__all__`` is walked to find the public functions
LAYERS = ("cli", "mapdsl", "padic", "automata", "mahler", "dynamics")


def test_every_all_name_resolves():
    for layer in LAYERS:
        module = importlib.import_module(f"padyn.{layer}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], layer


def test_removed_api_stays_gone():
    removed = (
        "PNorm", "distance", "from_digits", "guaranteed_output_length", "plot_points",
        "plot_levels", "CoefficientRangeError", "MAX_DEPTH",
    )
    for module in [padyn] + [importlib.import_module(f"padyn.{layer}") for layer in LAYERS]:
        assert [name for name in removed if hasattr(module, name)] == [], module.__name__
    members = ("from_int", "digit", "digits", "reduce", "sigma", "is_unit", "valuation", "norm")
    assert [name for name in members if hasattr(PadicApprox, name)] == []
    assert [name for name in ("satisfied", "violated", "undecidable") if hasattr(Verdict, name)] == []
    # every level is read in place, as a prefix of the table: no reduced copy
    assert [name for name in ("restrict", "_require_digits") if hasattr(ReducedLevelMap, name)] == []
    assert not hasattr(padyn.dynamics, "_level")
    assert "__add__" not in vars(PadicApprox) and "__str__" not in vars(NondegeneracyVerdict)
    assert padyn.padic.__all__ == [
        "PadicApprox", "Valuation", "binomial_eval", "is_prime", "residue_valuation",
    ]


def test_no_layer_exports_a_dataclass():
    """A dataclass generates and execs its methods when its module is imported, about a
    millisecond per class; the value classes share ``padyn._record.Record`` instead."""
    found = set()
    for layer in LAYERS:
        module = importlib.import_module(f"padyn.{layer}")
        found |= {
            name for name in module.__all__
            if isinstance(getattr(module, name), type) and dataclasses.is_dataclass(getattr(module, name))
        }
    assert found == set(), (
        f"new dataclasses {sorted(found)}: derive a new value class from padyn._record.Record, "
        "which costs no code generation at import"
    )


def test_importing_the_cli_loads_no_dataclasses():
    """``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, about 8 ms of a fresh import;
    ``Record`` imports ``FrozenInstanceError`` only when it raises one."""
    probe = "import sys, padyn.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    src = str(Path(padyn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
