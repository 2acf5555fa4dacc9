"""Quasideterminants, inversion and the elimination kernel.

One forward elimination pass with left row operations decides every
singular/nonsingular question in the library.  :func:`_eliminate_rows` reduces
each row, in order, against the echelon rows kept so far and keeps it when a
nonzero remains; :func:`_solve_row` reduces a further row against the kept
echelon rows and reads off the left coefficients that produce it.  A square
matrix is invertible exactly when the pass keeps every row, and the inverse
solves ``x * a = e`` for each unit row ``e``; it is automatically two-sided
because one-sided inverses coincide in a matrix ring over a division ring.
``rank`` builds rank, row dependence and the solvers on the same pass.

The quasideterminant at position ``(p, r)`` is the noncommutative analogue of
a determinant cofactor ratio:

    qdet(A, p, r) = A[p][r] - row_p(A without col r)
                    * inverse(A without row p, col r)
                    * col_r(A without row p)

It is computed as the last pivot of elimination (Gelfand, Gelfand, Retakh and
Wilson, *Quasideterminants*): eliminate ``A`` without row ``p``, with column
``r`` moved last; when the pivots fill every other column, reducing row ``p``
(reordered the same way) leaves exactly the value above in its last entry.
It is *undefined* (returned as ``None``) whenever the complementary submatrix
is singular; undefined is distinct from the matrix itself being singular and
the two states are never conflated.
"""

from .errors import DimensionMismatch, SingularMatrixError
from .matrix import Matrix, rc_product
from .quaternion import Quaternion


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
    zero = Quaternion.zero()
    kept, echelon, dependences = [], [], {}
    for p, cells in enumerate(a.cells):
        if not track and len(echelon) == a.cols:
            break
        entries = list(cells)
        combination = {p: Quaternion.one()} if track else None
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


def _solve_row(entries, echelon, a):
    """Left coefficients ``x`` (a list, one per row of ``a``) with
    ``x * a == entries``, from the echelon rows of a tracked pass over ``a``;
    None when ``entries`` is outside the left row span of ``a``.  Rows that
    the pass did not keep get a zero coefficient."""
    zero = Quaternion.zero()
    entries = list(entries)
    combination = {}
    _reduce(entries, combination, echelon, zero)
    if not all(e.is_zero() for e in entries):
        return None
    # entries minus the combination of rows is zero, so x is its negation
    x = [zero] * a.rows
    for i, c in combination.items():
        x[i] = -c
    return x


def _nonsingular_echelon(a):
    """Echelon rows of a tracked pass over ``a``; raises
    :class:`DimensionMismatch` unless ``a`` is square and
    :class:`SingularMatrixError` unless the pass keeps every row."""
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    kept, echelon, _ = _eliminate_rows(a, track=True)
    if len(kept) < a.rows:
        raise SingularMatrixError(f"matrix {a} is singular")
    return echelon


def rc_inverse(a):
    """Two-sided inverse under the row-times-column product.

    Raises :class:`SingularMatrixError` when no inverse exists and
    :class:`DimensionMismatch` for non-square input.
    """
    echelon = _nonsingular_echelon(a)
    unit_rows = Matrix.identity(a.rows).cells
    return Matrix([_solve_row(e, echelon, a) for e in unit_rows])


def is_rc_nonsingular(a):
    """True when ``a`` is square and has a two-sided inverse."""
    if not a.is_square:
        return False
    kept, _, _ = _eliminate_rows(a, track=False)
    return len(kept) == a.rows


def rc_quasideterminant(a, p, r):
    """Quasideterminant of square ``a`` at 1-based position ``(p, r)``.

    Returns the quaternion value, or ``None`` when it is undefined because
    the complementary submatrix has no inverse.  For a 1x1 matrix the value
    is the entry itself (the correction term vanishes with the empty
    complementary minor).
    """
    if not a.is_square:
        raise DimensionMismatch(f"quasideterminant needs a square matrix, got {a.shape}")
    a.row_entries(p)  # range checks
    a.column_entries(r)
    n = a.rows
    # column r moved last: the complement fills the first n - 1 columns
    cells = [row[:r - 1] + row[r:] + (row[r - 1],) for row in a.cells]
    target = list(cells.pop(p - 1))
    _, echelon, _ = _eliminate_rows(Matrix(cells, cols=n), track=False)
    if [pivot for pivot, _, _ in echelon] != list(range(n - 1)):
        return None
    _reduce(target, None, echelon, Quaternion.zero())
    return target[-1]


def cr_quasideterminant(a, i, j):
    """Column-times-row quasideterminant; the duality functor image of
    :func:`rc_quasideterminant`, evaluated on the transposed grid."""
    return rc_quasideterminant(a.transpose(), i, j)


def rc_inverse_via_quasidet(a):
    """Inverse assembled entrywise from quasideterminants.

    Entry ``(r, p)`` of the inverse is ``inverse(qdet(a, p, r))``; positions
    whose quasideterminant is undefined correspond exactly to zero entries of
    the inverse.  A quasideterminant that is defined but zero certifies the
    matrix singular.  The assembled candidate is verified by a product
    round-trip, so this route never calls :func:`rc_inverse` and stays an
    independent check of it.
    """
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    n = a.rows
    if n == 0:
        return a
    zero = Quaternion.zero()
    cells = [[zero] * n for _ in range(n)]
    for p in range(1, n + 1):
        for r in range(1, n + 1):
            q = rc_quasideterminant(a, p, r)
            if q is None:
                continue
            if q.is_zero():
                raise SingularMatrixError(
                    f"quasideterminant at ({p}, {r}) is zero, matrix is singular"
                )
            cells[r - 1][p - 1] = q.inverse()
    candidate = Matrix(cells)
    if rc_product(a, candidate) != Matrix.identity(n):
        raise SingularMatrixError("no inverse: quasideterminant candidate fails round-trip")
    return candidate


def cr_inverse(a):
    """Two-sided inverse under the column-times-row product, obtained through
    the duality functor: transpose, invert, transpose back."""
    return rc_inverse(a.transpose()).transpose()
