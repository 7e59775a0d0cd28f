"""Model checking for strategic logics with knowledge and uncertainty operators."""

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

__all__ = [
    "AtlhError",
    "Cegm",
    "CheckError",
    "CheckOptions",
    "Formula",
    "FormulaError",
    "LogOfCount",
    "ModelError",
    "Real",
    "ScenarioError",
    "SuccinctError",
    "TranslateError",
    "check",
    "check_translation_equivalence",
    "coercion_epistemic",
    "coercion_hartley",
    "find_witness",
    "formula_length",
    "fsg_min_win",
    "gen_Mn",
    "gen_Nnj",
    "gen_referendum_double",
    "gen_referendum_single",
    "gen_threeballot",
    "h_to_k",
    "hartley_classes",
    "k_to_h",
    "label",
    "load_model",
    "min_mel_formula",
    "parse_formula",
    "phi_n",
    "pretty_print",
    "save_model",
    "subformulas_by_length",
    "threeballot_infosets",
]
