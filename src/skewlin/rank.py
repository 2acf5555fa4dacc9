"""Rank via nonsingular minors, row dependence, and solvers for x*A = b.

Rank is *defined* as the largest order of a square minor with a two-sided
inverse.  Minors are enumerated in decreasing order, lexicographically by
rows and then by columns within each order, and the first nonsingular one
in that enumeration is the major minor; its index sets are what the
solvers and :class:`RankReport` carry.

The major minor is computed in one forward elimination pass with left row
operations rather than by testing minors:

* rows: each row, in order, is reduced against the echelon rows kept so
  far and kept when a nonzero remains.  Left-independent rows form a
  matroid, so this greedy choice is the lexicographically first set of
  ``rank`` independent rows, the rows of the major minor;
* columns: the minor's columns are the pivot (leading) columns of the kept
  rows' echelon form.  Left row operations preserve every right dependence
  among columns, so the pivots are the first nonsingular column set.

The pass costs polynomial time, whatever the rank deficiency.  The tests
keep the literal enumeration as the oracle for both readings.

All index sets are 1-based and refer to the matrix's own display grid.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidRowError, SingularMatrixError
from .matrix import Matrix, rc_product
from .quasidet import rc_inverse


@dataclass(frozen=True)
class IndexSelection:
    """Row and column index sets of equal size, 1-based, strictly increasing."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        rows, cols = tuple(self.rows), tuple(self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols):
            raise ValueError("row and column sets must have equal size")
        for seq in (rows, cols):
            if len(set(seq)) != len(seq) or any(i < 1 for i in seq):
                raise ValueError(f"indices must be distinct 1-based naturals: {seq}")

    @property
    def order(self):
        return len(self.rows)


@dataclass(frozen=True)
class RankReport:
    rank: int
    minor: "IndexSelection | None"  # None exactly when rank == 0


def _eliminate_rows(a, track):
    """One forward elimination pass over the rows of ``a``, in order, with
    left row operations.

    Returns ``(kept, echelon, dependences)``.  ``kept`` lists the 0-based
    rows that stayed independent of the rows before them.  ``echelon`` holds
    one ``(pivot, tail, combination)`` per kept row, sorted by pivot column:
    the row reduced against the earlier kept rows and scaled to a one at its
    pivot, stored as the ``(column, entry)`` pairs of its nonzero entries
    right of the pivot.  With ``track`` set, ``combination`` maps original
    rows to the left coefficients that produce the echelon row, and
    ``dependences`` maps each dependent row ``p`` to the combination that
    annihilates ``a``: one at ``p``, minus its dependence on the kept rows.
    Without ``track`` both are left empty and the pass stops once every
    column holds a pivot.
    """
    zero = a.field.zero()
    kept, echelon, dependences = [], [], {}
    for p, cells in enumerate(a.cells):
        if not track and len(echelon) == a.cols:
            break
        entries = list(cells)
        combination = {p: a.field.one()} if track else None
        _reduce(entries, combination, echelon, zero)
        pivot = next((j for j, e in enumerate(entries) if not e.is_zero()), None)
        if pivot is None:
            if track:
                dependences[p] = combination
            continue
        scale = entries[pivot].inverse()
        tail = [
            (j, scale * e)
            for j, e in enumerate(entries[pivot + 1:], pivot + 1)
            if not e.is_zero()
        ]
        if track:
            combination = {i: scale * c for i, c in combination.items()}
        echelon.append((pivot, tail, combination))
        echelon.sort(key=lambda row: row[0])
        kept.append(p)
    return kept, echelon, dependences


def _reduce(entries, combination, echelon, zero):
    """Subtract left multiples of the echelon rows from ``entries`` (changed
    in place) until it is zero on every pivot column.  Going by increasing
    pivot never disturbs a column already cleared, since each echelon row is
    zero left of its pivot.  The same operations are applied to
    ``combination`` unless it is None."""
    for pivot, tail, row_combination in echelon:
        lead = entries[pivot]
        if lead.is_zero():
            continue
        entries[pivot] = zero
        for j, e in tail:
            entries[j] = entries[j] - lead * e
        if combination is not None:
            for i, c in row_combination.items():
                combination[i] = combination.get(i, zero) - lead * c


def rc_rank(a):
    """Rank and major minor under the row-times-column product."""
    kept, echelon, _ = _eliminate_rows(a, track=False)
    if not kept:
        return RankReport(0, None)
    rows = tuple(p + 1 for p in kept)
    cols = tuple(pivot + 1 for pivot, _, _ in echelon)
    return RankReport(len(kept), IndexSelection(rows, cols))


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
    if report.rank == 0:
        a.row_entries(p)  # range check
        return Matrix.zeros(1, 0, field=a.field)
    sel = report.minor
    if p in sel.rows:
        raise InvalidRowError(f"row {p} belongs to the major minor {sel.rows}")
    outside_row = Matrix.row(
        [a[p - 1, t - 1] for t in sel.cols], field=a.field
    )
    core_inverse = rc_inverse(a.minor(sel.rows, sel.cols))
    return rc_product(outside_row, core_inverse)


def solve_nonsingular(a, b):
    """Unique solution of ``x * a = b`` for square nonsingular ``a``:
    ``x = b * inverse(a)``.  Raises :class:`SingularMatrixError` otherwise."""
    return rc_product(b, rc_inverse(a))


@dataclass(frozen=True)
class SolutionSet:
    """Complete description of the solutions of ``x * a = b``.

    ``particular`` has every free variable set to zero; each homogeneous
    basis row activates exactly one free variable with value one.  Every
    solution is ``particular`` plus a left-scalar combination of the basis
    rows.  The basis describes ``x * a = 0`` and is reported even for
    inconsistent systems.
    """

    consistent: bool
    particular: "Matrix | None"
    homogeneous_basis: tuple
    free_variables: tuple


def solve_general(a, b):
    """Solve ``x * a = b`` for an arbitrary m x n matrix ``a`` and 1 x n row
    ``b``.  The system is consistent iff ``b`` lies in the left row span of
    ``a``, which is the rank criterion: ``a`` and the extended matrix have
    equal rank.  One elimination pass over the rows of ``a`` gives the major
    minor, the homogeneous basis (one row per dependent row) and, by reducing
    ``b`` against the echelon rows, consistency and the particular solution.
    """
    if b.rows != 1 or b.cols != a.cols:
        raise DimensionMismatch(
            f"right-hand side must be 1 x {a.cols}, got {b.shape}"
        )
    zero = a.field.zero()
    _, echelon, dependences = _eliminate_rows(a, track=True)
    free = tuple(p + 1 for p in dependences)
    basis = tuple(_combination_row(c, a) for c in dependences.values())

    entries = list(b.cells[0])
    combination = {}
    _reduce(entries, combination, echelon, zero)
    if not all(e.is_zero() for e in entries):
        return SolutionSet(False, None, basis, free)
    # b minus the combination of rows is zero, so b is the negated combination;
    # rows outside the major minor never enter it, so free variables are zero.
    particular = _combination_row({i: -c for i, c in combination.items()}, a)
    if rc_product(particular, a) != b:
        raise SingularMatrixError("internal: particular solution fails x * a == b")
    return SolutionSet(True, particular, basis, free)


def _combination_row(combination, a):
    """The 1 x m row of left coefficients on the rows of ``a``."""
    entries = [a.field.zero()] * a.rows
    for i, c in combination.items():
        entries[i] = c
    return Matrix.row(entries, field=a.field)


def rc_singular_family(b, c, d):
    """The parametric 2x2 family ``[[d, d*c], [b*d, b*d*c]]``; its second row
    is the left multiple ``b * row1``, so every member is singular under the
    row-times-column product."""
    return Matrix([[d, d * c], [b * d, b * d * c]])


def cr_singular_family(b, c, d):
    """The mirror family ``[[d, c*d], [d*b, c*d*b]]``, singular under the
    column-times-row product for every choice of parameters."""
    return Matrix([[d, c * d], [d * b, c * d * b]])
