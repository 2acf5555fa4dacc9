"""Coordinate models of vector spaces over a skew field and their linear maps.

Vectors are coordinate rows relative to an ambient standard basis, and a
linear map is identified with its matrix relative to chosen bases (the
commuting square ``expand then multiply == apply then expand`` makes the
identification sound).  Only the left-scalar row convention is implemented
natively; the other three notational models are reached through ``dualize``
(the transpose duality functor) and mirrored evaluation order.
"""

from dataclasses import dataclass

from .matrix import Matrix, rc_product
from .quasidet import is_rc_nonsingular
from .rank import rc_rank, solve_nonsingular


@dataclass(frozen=True)
class BasisModel:
    """A basis given by its coordinate matrix: row ``a`` holds the
    coordinates of the a-th basis vector in the ambient space."""

    matrix: Matrix

    @property
    def dimension(self):
        return self.matrix.rows

    def is_valid(self):
        """Rows independent; for a square matrix this means nonsingular."""
        return is_independent(self.matrix)


def expand_in_basis(v, basis):
    """Coordinates of the row ``v`` relative to ``basis``: the unique ``x``
    with ``x * E == v``.  Raises :class:`SingularMatrixError` when the
    claimed basis is not one."""
    return solve_nonsingular(basis.matrix, v)


def is_independent(vectors):
    """Rows of the m x n coordinate matrix are independent iff its rank is m."""
    return rc_rank(vectors).rank == vectors.rows


def apply_map(a, h):
    """Image of the coordinate row ``a`` under the map with matrix ``h``."""
    return rc_product(a, h)


def compose_maps(a, b):
    """Matrix of ``apply b after apply a``; associativity of the product is
    exactly commutativity of the composition diagram."""
    return rc_product(a, b)


def is_automorphism(h):
    """True iff ``h`` presents an invertible self-map: square and nonsingular
    (:func:`is_rc_nonsingular` is False on non-square input).  Such matrices
    form a group under the product."""
    return is_rc_nonsingular(h)


def dualize(a):
    """The duality functor on presentations: transpose the grid.  Any
    identity verified in the native model verifies in the mirrored model
    with the two products exchanged; applying it twice is the identity."""
    return a.transpose()
