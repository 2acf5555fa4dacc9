"""Exact linear algebra over the rational quaternions, a noncommutative skew field.

Matrices of quaternions carry two contraction products exchanged by the
transpose duality functor, with quasideterminants, minor-based rank, exact
solvers for ``x * A = b``, coordinate vector-space models, finite
representation morphisms and their factorization, and fiberwise algebra over
finite bases.
"""

from .bundles import (
    Base,
    Bijection,
    FiberedLinearMap,
    FiberOperation,
    Section,
    add_sections,
    apply_fibered_map,
    check_transition,
    compose_fibered_maps,
    lift_operation,
    scalar_action,
    section_from_json,
    section_to_json,
)
from .errors import (
    BaseMismatchError,
    DimensionMismatch,
    IllDefinedQuotientError,
    InvalidMorphismError,
    InvalidRepresentationError,
    InvalidRowError,
    ParseError,
    SingularMatrixError,
)
from .matrix import (
    Matrix,
    cr_product,
    extended_matrix,
    format_matrix,
    identity,
    parse_matrix,
    rc_product,
    transpose,
)
from .quasidet import (
    cr_inverse,
    cr_quasideterminant,
    is_rc_nonsingular,
    rc_inverse,
    rc_inverse_via_quasidet,
    rc_quasideterminant,
    solve_nonsingular,
)
from .quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    format_quaternion,
    parse_quaternion,
)
from .rank import (
    IndexSelection,
    RankReport,
    SolutionSet,
    cr_rank,
    cr_singular_family,
    rc_rank,
    rc_singular_family,
    row_dependence,
    solve_general,
)
from .representations import (
    FiniteMonoid,
    FiniteRepresentation,
    MorphismDecomposition,
    RepMorphism,
    RepresentationTraits,
    check_morphism,
    classify,
    compose_morphisms,
    cyclic_monoid,
    decompose_morphism,
    identity_morphism,
    morphism_from_base_points,
    morphism_from_json,
    morphism_to_json,
    reduced_action,
    representation_from_json,
    representation_to_json,
    rotation_representation,
    validate_representation,
)
from .spaces import (
    BasisModel,
    apply_map,
    compose_maps,
    dualize,
    expand_in_basis,
    is_automorphism,
    is_independent,
)

__version__ = "0.1.0"
