"""Exact linear algebra over the rational quaternions, a noncommutative skew field.

Matrices of quaternions carry two contraction products exchanged by the
transpose duality functor, with quasideterminants, minor-based rank, exact
solvers for ``x * A = b``, coordinate vector-space models, finite
representation morphisms and their factorization, and fiberwise algebra over
finite bases.

``import skewlin`` loads the linear-algebra core: the quaternions, matrices,
quasideterminants, rank and solvers, and the vector-space models.  The names
of the two feature modules, ``representations`` (finite representation
morphisms) and ``bundles`` (fiberwise algebra), are listed in ``_LAZY`` and
load their module on first access, so a program that never touches them
never pays for importing them.  ``dir(skewlin)`` and ``from skewlin import
*`` include them either way.
"""

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
from .spaces import (
    BasisModel,
    expand_in_basis,
    is_automorphism,
    is_independent,
)

__version__ = "0.1.0"

# Each name of the two feature modules, and each module itself, with the
# submodule that defines it: resolved on first access (PEP 562).
_LAZY = {
    "bundles": "bundles",
    "Base": "bundles",
    "Bijection": "bundles",
    "FiberedLinearMap": "bundles",
    "FiberOperation": "bundles",
    "Section": "bundles",
    "add_sections": "bundles",
    "apply_fibered_map": "bundles",
    "check_transition": "bundles",
    "compose_fibered_maps": "bundles",
    "lift_operation": "bundles",
    "scalar_action": "bundles",
    "section_from_json": "bundles",
    "section_to_json": "bundles",
    "representations": "representations",
    "FiniteMonoid": "representations",
    "FiniteRepresentation": "representations",
    "MorphismDecomposition": "representations",
    "RepMorphism": "representations",
    "RepresentationTraits": "representations",
    "check_morphism": "representations",
    "classify": "representations",
    "compose_morphisms": "representations",
    "cyclic_monoid": "representations",
    "decompose_morphism": "representations",
    "identity_morphism": "representations",
    "morphism_from_base_points": "representations",
    "morphism_from_json": "representations",
    "morphism_to_json": "representations",
    "reduced_action": "representations",
    "representation_from_json": "representations",
    "representation_to_json": "representations",
    "rotation_representation": "representations",
    "validate_representation": "representations",
}

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    """Import the submodule of a name in ``_LAZY`` and keep the name here,
    so later lookups do not come back."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
