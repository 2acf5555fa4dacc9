"""Coordinate models of vector spaces over a skew field and their linear maps.

Vectors are coordinate rows relative to an ambient standard basis, and a
linear map is identified with its matrix relative to chosen bases (the
commuting square ``expand then multiply == apply then expand`` makes the
identification sound).  Only the left-scalar row convention is implemented
natively; the other three notational models are reached through
:func:`transpose` (the duality functor) and mirrored evaluation order.

A basis is valid exactly when ``is_independent(basis.matrix)``.  The
matrix operations read as operations on maps: :func:`rc_product` applies the
map with matrix ``h`` to the coordinate row ``a`` as ``rc_product(a, h)``
and composes ``apply b after apply a`` as ``rc_product(a, b)``, so
associativity of the product is commutativity of the composition diagram.
Any identity verified in the native model verifies in the mirrored model
with the two products exchanged, and transposing twice is the identity.
``is_automorphism(h)`` is :func:`is_rc_nonsingular`: ``h`` presents an
invertible self-map, square and nonsingular; such matrices form a group
under the product.
"""

from collections import namedtuple

from .matrix import _Frozen
from .quasidet import is_rc_nonsingular, solve_nonsingular
from .rank import rc_rank


class BasisModel(_Frozen, namedtuple("BasisModel", "matrix")):
    """A basis given by its coordinate matrix: row ``a`` holds the
    coordinates of the a-th basis vector in the ambient space."""

    __slots__ = ()


def expand_in_basis(v, basis):
    """Coordinates of the row ``v`` relative to ``basis``: the unique ``x``
    with ``x * E == v``.  A basis of ``n``-space is ``n`` independent rows,
    so a claimed basis that is not one raises :class:`DimensionMismatch`
    when its matrix is not square and :class:`SingularMatrixError` when its
    rows are dependent.  A ``v`` that is not a row of the basis width also
    raises :class:`DimensionMismatch`."""
    return solve_nonsingular(basis.matrix, v)


def is_independent(vectors):
    """Rows of the m x n coordinate matrix are independent iff its rank is m."""
    return rc_rank(vectors).rank == vectors.rows


is_automorphism = is_rc_nonsingular
