"""The public surface: every exported name resolves, and removed API stays gone."""
import importlib

import padyn
from padyn.automata import NondegeneracyVerdict
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
        "plot_levels", "CoefficientRangeError",
    )
    for module in [padyn] + [importlib.import_module(f"padyn.{layer}") for layer in LAYERS]:
        assert [name for name in removed if hasattr(module, name)] == [], module.__name__
    members = ("from_int", "digit", "digits", "reduce", "sigma", "is_unit", "valuation", "norm")
    assert [name for name in members if hasattr(PadicApprox, name)] == []
    assert "__add__" not in vars(PadicApprox) and "__str__" not in vars(NondegeneracyVerdict)
    assert padyn.padic.__all__ == [
        "PadicApprox", "Valuation", "binomial_eval", "is_prime", "residue_valuation",
    ]
