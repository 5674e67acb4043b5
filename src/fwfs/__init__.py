"""Exhaustive verification of factorisation-system structure on finite
categories: lifting operations, their double-categorical axioms, and the
equivalent comonad/monad presentation, together with the constructive
translations between the two."""

from .report import (Budget, BudgetExceeded, Report, EXIT_OK, EXIT_VIOLATION,
                     EXIT_INCONCLUSIVE, EXIT_USAGE, UNBOUNDED)
from .fincat import (FinCategory, Functor, NatTransformation, Adjunction,
                     OppositeCategory, arrow_category, build_finset,
                     check_adjunction, check_category, check_functor,
                     terminal_category, walking_arrow)
from .dblcat import (ClassDouble, ClosureError, ConcreteDouble,
                     ConcreteDoubleMap, DoubleCategory, OppositeDouble,
                     check_double_category, dbl_from_class, sq, to_internal)
from .lifting import (FactorisationAssignment, LiftingOperation,
                      LiftingStructure, LlpDouble, LlpVertical, NotOrthogonal,
                      RlpDouble, RlpVertical, SideMismatch, canonical_left,
                      check_factorisation_axiom,
                      check_lifting_awfs,
                      check_lifting_operation, check_pre_awfs,
                      check_structure_morphism, enumerate_fillers,
                      llp_verify, restrict, rlp_verify, rlp_vertical_compose,
                      transpose_l, transpose_r, unique_filler_lifting)
from .awfs import (AlgDouble, Algebra, Awfs, Coalgebra, CoalgDouble,
                   FunctorialFactorisation, awfs_from_lifting, check_awfs,
                   check_awfs_morphism, check_essential_image,
                   check_functorial_factorisation,
                   enumerate_algebras, enumerate_coalgebras,
                   factorisation_assignment, roundtrip_compare, sem)
from .catlib import (CatRoster, CommaData, FillerError, SplitFibration,
                     SplitReflection, build_roster, canonical_filler,
                     cat_lifting_operation,
                     check_cat_roster, check_cofree_split_reflection,
                     check_free_split_fibration, check_split_fibration,
                     check_split_reflection, comma_category,
                     enumerate_functors)

__version__ = "0.1.0"
