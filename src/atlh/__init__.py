"""Model checking for strategic logics with knowledge and uncertainty operators.

Each public name loads its module when it is first read (PEP 562), so
`import atlh` loads none of the package's modules, and `import atlh.cli`
loads only the three that every `atlh check` runs: `formula`, `cegm` and
`mcheck`. The modules themselves (`atlh.translate`, ...) load the same way.
"""

TYPE_CHECKING = False  # `typing.TYPE_CHECKING` without importing `typing`
if TYPE_CHECKING:
    from atlh.cegm import Cegm, ModelError, load_model, save_model
    from atlh.formula import (
        AtlhError,
        Formula,
        FormulaError,
        LogOfCount,
        Real,
        formula_length,
        parse_formula,
        pretty_print,
        subformulas_by_length,
    )
    from atlh.mcheck import CheckError, CheckOptions, check, find_witness, hartley_classes, label
    from atlh.scenarios import (
        ScenarioError,
        coercion_epistemic,
        coercion_hartley,
        gen_referendum_double,
        gen_referendum_single,
        gen_threeballot,
        threeballot_infosets,
    )
    from atlh.succinct import SuccinctError, fsg_min_win, gen_Mn, gen_Nnj, min_mel_formula, phi_n
    from atlh.translate import TranslateError, check_translation_equivalence, h_to_k, k_to_h

# The module that defines each public name: the one list of them.
_HOME = {
    name: module
    for module, names in (
        ("cegm", ("Cegm", "ModelError", "load_model", "save_model")),
        (
            "formula",
            (
                "AtlhError", "Formula", "FormulaError", "LogOfCount", "Real",
                "formula_length", "parse_formula", "pretty_print", "subformulas_by_length",
            ),
        ),
        (
            "mcheck",
            ("CheckError", "CheckOptions", "check", "find_witness", "hartley_classes", "label"),
        ),
        (
            "scenarios",
            (
                "ScenarioError", "coercion_epistemic", "coercion_hartley",
                "gen_referendum_double", "gen_referendum_single", "gen_threeballot",
                "threeballot_infosets",
            ),
        ),
        ("succinct", ("SuccinctError", "fsg_min_win", "gen_Mn", "gen_Nnj", "min_mel_formula", "phi_n")),
        ("translate", ("TranslateError", "check_translation_equivalence", "h_to_k", "k_to_h")),
    )
    for name in names
}
__all__ = sorted(_HOME)
_MODULES = ("cegm", "cli", "formula", "mcheck", "sampling", "scenarios", "succinct", "translate")


def __getattr__(name):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
