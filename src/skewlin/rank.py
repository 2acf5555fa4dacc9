"""Rank via nonsingular minors, row dependence, and solvers for x*A = b.

Rank is *defined* as the largest order of a square minor with a two-sided
inverse.  Minors are enumerated in decreasing order, lexicographically by
rows and then by columns within each order, and the first nonsingular one
in that enumeration is the major minor; its index sets are what the
solvers and :class:`RankReport` carry.

The major minor is read off the library's one forward elimination pass
with left row operations (``quasidet._eliminate_rows``) rather than found by
testing minors:

* rows: each row, in order, is reduced against the echelon rows kept so
  far and kept when a nonzero remains.  Left-independent rows form a
  matroid, so this greedy choice is the lexicographically first set of
  ``rank`` independent rows, the rows of the major minor;
* columns: the minor's columns are the pivot (leading) columns of the kept
  rows' echelon form.  Left row operations preserve every right dependence
  among columns, so the pivots are the first nonsingular column set.

The pass costs polynomial time, whatever the rank deficiency.  The tests
keep the literal enumeration as the oracle for both readings.  The pass
also records its multipliers, which factor the kept rows as ``L * E``
(lower triangular times echelon).  The solvers reduce a row against ``E``
and back-substitute through ``L`` (``quasidet._solve_row``); none of them
forms an inverse:

* :func:`solve_nonsingular` (from ``quasidet``) solves ``x * A = b`` for
  square nonsingular ``A``;
* :func:`row_dependence` is ``solve_nonsingular`` on the major minor, for
  the row's entries on the minor's columns;
* :func:`solve_general` solves ``x * A = b`` for any ``A``.  A dependent
  row's homogeneous basis row is its unit row minus the back substitution
  of its own multipliers; it calls ``quasidet._complete``, which reduces
  the rows after the pass's stop against the final echelon rows for theirs.

All index sets are 1-based and refer to the matrix's own display grid.
"""

from collections import namedtuple

from .errors import DimensionMismatch, InvalidRowError, SingularMatrixError
from .matrix import Matrix, _Frozen, rc_product
from .quasidet import (
    _back_substitute,
    _complete,
    _eliminate_rows,
    _factor,
    _solve_row,
    solve_nonsingular,
)
from .quaternion import Quaternion


class IndexSelection(_Frozen, namedtuple("IndexSelection", "rows cols")):
    """Row and column index sets of equal size, 1-based, strictly increasing.

    A named tuple that checks its fields: ``_make`` and ``_replace`` build
    through the constructor, so no instance skips the checks."""

    __slots__ = ()

    def __new__(cls, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("row and column sets must have equal size")
        for seq in (rows, cols):
            if any(type(i) is not int for i in seq) or not all(
                i < j for i, j in zip((0,) + seq, seq)
            ):
                raise ValueError(
                    f"indices must be distinct 1-based naturals in increasing order: {seq}"
                )
        return super().__new__(cls, rows, cols)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RankReport(_Frozen, namedtuple("RankReport", "rank minor")):
    """The rank and the major minor's :class:`IndexSelection`; ``minor`` is
    None exactly when ``rank`` is 0."""

    __slots__ = ()


def rc_rank(a):
    """Rank and major minor under the row-times-column product."""
    elimination = _eliminate_rows(a)
    if not elimination.kept:
        return RankReport(0, None)
    rows = tuple(p + 1 for p in elimination.kept)
    cols = tuple(pivot + 1 for pivot, *_ in elimination.echelon)
    return RankReport(len(rows), IndexSelection(rows, cols))


def cr_rank(a):
    """Rank under the column-times-row product, computed on the transposed
    grid per the duality principle; the reported index sets are swapped back
    so they refer to ``a``'s own rows and columns."""
    report = rc_rank(a.transpose())
    if report.minor is None:
        return report
    return RankReport(report.rank, IndexSelection(report.minor.cols, report.minor.rows))


def row_dependence(a, report, p):
    """Coefficient row expressing row ``p`` through the major-minor rows.

    Returns the 1 x k row ``c`` with ``c * (rows S of a) == row p of a`` on
    every column, where ``S`` is ``report.minor.rows``.  ``p`` must lie
    outside ``S``.
    """
    entries = a.row_entries(p)  # range check
    if report.rank == 0:
        return Matrix.zeros(1, 0)
    sel = report.minor
    if p in sel.rows:
        raise InvalidRowError(f"row {p} belongs to the major minor {sel.rows}")
    core = a.minor(sel.rows, sel.cols)
    outside = [entries[t - 1] for t in sel.cols]
    return solve_nonsingular(core, Matrix.row(outside))


class SolutionSet(_Frozen, namedtuple(
        "SolutionSet", "consistent particular homogeneous_basis free_variables")):
    """Complete description of the solutions of ``x * a = b``.

    ``particular`` (a 1 x m row, or None when inconsistent) has every free
    variable set to zero; each row of the tuple ``homogeneous_basis``
    activates exactly one free variable with value one, and
    ``free_variables`` holds their 1-based row numbers.  Every solution is
    ``particular`` plus a left-scalar combination of the basis rows.  The
    basis describes ``x * a = 0`` and is reported even for inconsistent
    systems.
    """

    __slots__ = ()


def solve_general(a, b):
    """Solve ``x * a = b`` for an arbitrary m x n matrix ``a`` and 1 x n row
    ``b``.  The system is consistent iff ``b`` lies in the left row span of
    ``a``, which is the rank criterion: ``a`` and the extended matrix have
    equal rank.  One elimination pass over the rows of ``a`` gives the major
    minor, the homogeneous basis (one row per dependent row, from that row's
    multipliers) and, by reducing ``b`` against the echelon rows and
    back-substituting, consistency and the particular solution.
    """
    if b.rows != 1 or b.cols != a.cols:
        raise DimensionMismatch(
            f"right-hand side must be 1 x {a.cols}, got {b.shape}"
        )
    elimination = _eliminate_rows(a)
    _complete(elimination, a)
    factor = _factor(elimination)
    kept, leads = elimination.kept, elimination.leads
    independent = set(kept)
    dependent = [p for p in range(a.rows) if p not in independent]
    free = tuple(p + 1 for p in dependent)
    # a dependent row p is y * (kept rows) for the y that solves y * L ==
    # its own multipliers, so e_p - y annihilates a
    one = Quaternion.one()
    basis = tuple(
        _on_rows(kept + [p],
                 [-c for c in _back_substitute(*leads[p], factor)] + [one], a)
        for p in dependent
    )
    x = _solve_row(b.cells[0], factor)
    if x is None:
        return SolutionSet(False, None, basis, free)
    # the free variables, on the rows outside the major minor, are zero
    particular = _on_rows(kept, x, a)
    if rc_product(particular, a) != b:
        raise SingularMatrixError("internal: particular solution fails x * a == b")
    return SolutionSet(True, particular, basis, free)


def _on_rows(rows, coefficients, a):
    """The 1 x m row of left coefficients on the rows of ``a``: each of
    ``coefficients`` on the matching 0-based row of ``rows``, zero on every
    other row."""
    entries = [Quaternion.zero()] * a.rows
    for p, c in zip(rows, coefficients):
        entries[p] = c
    return Matrix.row(entries)


def rc_singular_family(b, c, d):
    """The parametric 2x2 family ``[[d, d*c], [b*d, b*d*c]]``; its second row
    is the left multiple ``b * row1``, so every member is singular under the
    row-times-column product."""
    return Matrix([[d, d * c], [b * d, b * d * c]])


def cr_singular_family(b, c, d):
    """The mirror family ``[[d, c*d], [d*b, c*d*b]]``, singular under the
    column-times-row product for every choice of parameters."""
    return Matrix([[d, c * d], [d * b, c * d * b]])
