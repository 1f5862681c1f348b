"""Exact computation in finite Coxeter groups: reduced words, Demazure
products, weak/Bruhat/sorting orders, subword complexes, exact simplicial
homology, and the subset-image fiber machinery, with a verification suite
that re-proves the package's structural theorems at desk scale.
"""

from .coxeter import CoxeterSystem, Element, parse_word, word_str
from .errors import BudgetExceededError, VoidComplexError
from .fibermap import (FiberReport, IntervalReport, certify_fiber_contractible,
                       certify_interval_sphere, certify_interval_spheres,
                       check_order_preserving, fiber_open, fiber_up, subset_image)
from .hecke import (bruhat_leq, bruhat_row, demazure, reduced_words, sorting_subword,
                    weak_leq)
from .homology import BettiProfile, SimplicialComplex, order_complex, reduced_betti
from .posets import (Poset, RelationUnion, bruhat_interval, relation_intersection,
                     relation_union, sorting_order, weak_interval)
from .subword import (SubwordComplex, SubwordReport, certify_subword_complex,
                      certify_subword_complexes, subword_complex)
from .totalpos import (RationalMatrix, chevalley, is_totally_nonnegative, seeded_trials,
                       verify_additive_identity, verify_braid_identity)
from .verify import (CheckResult, Context, RunConfig, named_system, run_check,
                     run_verification)

__version__ = "0.1.0"

__all__ = [
    "CoxeterSystem", "Element", "parse_word", "word_str",
    "BudgetExceededError", "VoidComplexError",
    "demazure", "reduced_words", "bruhat_leq", "weak_leq", "bruhat_row",
    "sorting_subword",
    "Poset", "RelationUnion",
    "bruhat_interval", "weak_interval", "sorting_order",
    "relation_intersection", "relation_union",
    "SubwordComplex", "subword_complex", "SubwordReport", "certify_subword_complex",
    "certify_subword_complexes",
    "SimplicialComplex", "BettiProfile", "reduced_betti", "order_complex",
    "subset_image", "check_order_preserving", "fiber_up", "fiber_open",
    "FiberReport", "IntervalReport",
    "certify_fiber_contractible", "certify_interval_sphere", "certify_interval_spheres",
    "RationalMatrix", "chevalley", "verify_additive_identity",
    "verify_braid_identity", "is_totally_nonnegative", "seeded_trials",
    "RunConfig", "CheckResult", "Context", "named_system",
    "run_check", "run_verification",
    "__version__",
]
