"""Numerical certification and falsification of (strong) quasiconvexity.

Checks the defining segment inequality and the first-order gradient
conditions for sigma-quasiconvexity on box domains, estimates the
largest admissible sigma, and runs adversarial counterexample searches.
"""

__version__ = "0.1.0"

from .conditions import (CheckConfig, Verdict, Witness, check_b, check_c,
                         check_lemma, default_lambda_grid, margin_a,
                         sigma_star_estimate, sigma_star_segment)
from .expr import parse, pretty_print
from .families import ExprFamily, family_by_name, shipped_families
from .field import (DomainBox, GradReport, ScalarField, catalog,
                    catalog_field, fd_grad, make_field_from_expr,
                    validate_grad)
from .search import (FalsificationResult, HarnessReport, Sampler,
                     SearchBudget, falsify, implication_harness,
                     open_question_search, sample_pairs)

__all__ = [
    "__version__",
    "CheckConfig", "Verdict", "Witness",
    "check_b", "check_c", "check_lemma", "margin_a",
    "sigma_star_estimate", "sigma_star_segment", "default_lambda_grid",
    "parse", "pretty_print",
    "DomainBox", "ScalarField", "GradReport",
    "catalog", "catalog_field", "fd_grad", "make_field_from_expr",
    "validate_grad",
    "Sampler", "SearchBudget", "FalsificationResult", "HarnessReport",
    "sample_pairs", "falsify", "implication_harness", "open_question_search",
    "ExprFamily", "shipped_families", "family_by_name",
]
