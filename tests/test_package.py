"""The package root: what it exports, and the README's library example."""

import contextlib
import io
import re
from pathlib import Path

import desirability

README = Path(__file__).resolve().parent.parent / "README.md"

# The names the README, the scripts and the benchmark use, the conditional
# price functions' ``Assignment``, the error classes and ``__version__``.
EXPORTS = {
    "Gamble", "Scope", "Variable", "Tri", "GeneratorSet", "CellSet",
    "LexSystem", "IrrExt", "CredalSet", "Assignment",
    "member", "lower_prevision", "upper_prevision",
    "conditional_lower_prevision", "gbr_residual", "strictly_desirable",
    "independent_product", "inex_member", "is_irrelevant", "is_independent",
    "factorisation_check", "credal_vertices", "credal_view",
    "inex_lower_prevision", "strong_product_lower", "format_rational",
    "lex_is_maximal", "lex_is_coherent", "nonmaximality_witness",
    "avoids_nonpositivity",
    "BudgetExceededError", "DegenerateConditioningError", "DesirabilityError",
    "DimensionMismatchError", "EngineError", "ExactnessError",
    "IncoherentBaseError", "MissingConditionError", "ModelFormatError",
    "OutcomeError", "ScopeError", "UnsupportedQueryError",
    "__version__",
}


def test_root_exports_exactly_the_used_names():
    assert len(EXPORTS) == 43
    assert set(desirability.__all__) == EXPORTS
    assert len(desirability.__all__) == len(EXPORTS)


def test_every_export_imports():
    namespace: dict = {}
    exec("from desirability import *", namespace)
    assert EXPORTS <= set(namespace)


def test_readme_library_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["Tri.IN", "0"]
