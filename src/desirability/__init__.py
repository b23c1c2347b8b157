"""Exact inference for coherent sets of desirable gambles on finite spaces.

The package models uncertainty as sets of gambles an agent strictly
prefers to the status quo.  All arithmetic is exact (``fractions``); the
decision procedures are rational linear programs with verified
certificates.  Main entry points:

- :mod:`desirability.space` — variables, scopes, gambles, assignments.
- :mod:`desirability.desirable` — set expressions and exact membership.
- :mod:`desirability.structure` — marginalisation, extension, conditioning.
- :mod:`desirability.maximal` — lexicographic (maximal) models.
- :mod:`desirability.independence` — irrelevance and independent products.
- :mod:`desirability.previsions` — prices, credal sets, strong products.
- :mod:`desirability.model` — canonical JSON documents.
- :mod:`desirability.cli` — the ``desirability`` command.

The package root re-exports the names the README, the scripts and the
benchmark use; everything else is imported from its module.
"""

from .desirable import (
    CellSet,
    GeneratorSet,
    IrrExt,
    Tri,
    avoids_nonpositivity,
    member,
)
from .errors import (
    BudgetExceededError,
    DegenerateConditioningError,
    DesirabilityError,
    DimensionMismatchError,
    EngineError,
    ExactnessError,
    IncoherentBaseError,
    MissingConditionError,
    ModelFormatError,
    OutcomeError,
    ScopeError,
    UnsupportedQueryError,
)
from .independence import (
    factorisation_check,
    independent_product,
    inex_member,
    is_independent,
    is_irrelevant,
)
from .maximal import LexSystem, lex_is_coherent, lex_is_maximal, nonmaximality_witness
from .previsions import (
    CredalSet,
    conditional_lower_prevision,
    credal_vertices,
    credal_view,
    gbr_residual,
    inex_lower_prevision,
    lower_prevision,
    strictly_desirable,
    strong_product_lower,
    upper_prevision,
)
from .space import Assignment, Gamble, Scope, Variable, format_rational

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BudgetExceededError",
    "CellSet",
    "CredalSet",
    "DegenerateConditioningError",
    "DesirabilityError",
    "DimensionMismatchError",
    "EngineError",
    "ExactnessError",
    "Gamble",
    "GeneratorSet",
    "IncoherentBaseError",
    "IrrExt",
    "LexSystem",
    "MissingConditionError",
    "ModelFormatError",
    "OutcomeError",
    "Scope",
    "ScopeError",
    "Tri",
    "UnsupportedQueryError",
    "Variable",
    "avoids_nonpositivity",
    "conditional_lower_prevision",
    "credal_vertices",
    "credal_view",
    "factorisation_check",
    "format_rational",
    "gbr_residual",
    "independent_product",
    "inex_lower_prevision",
    "inex_member",
    "is_independent",
    "is_irrelevant",
    "lex_is_coherent",
    "lex_is_maximal",
    "lower_prevision",
    "member",
    "nonmaximality_witness",
    "strictly_desirable",
    "strong_product_lower",
    "upper_prevision",
    "__version__",
]
