"""The elimination kernel against the complex representation, past 5x5.

``chi`` sends ``w + x i + (y + z i) j`` to the 2 x 2 block ``[[a, b], [-conj(b),
conj(a)]]`` over ``Q(i)``, with ``a = w + x i`` and ``b = y + z i``.  It is
an injective ring homomorphism, so on an m x n quaternion matrix ``A`` the
block matrix ``chi(A)`` over the field ``Q(i)`` has

* rank ``2 * rank(A)``;
* rows in which the prefix rank rises by 2 exactly at the rows of ``A``'s
  major minor, and columns in which it rises by 2 exactly at its columns;
* the inverse ``chi(A^-1)`` whenever ``A`` is invertible;
* for a row ``b``, a solution of ``x * A = b`` exactly when ``chi(A)`` and
  ``chi(A)`` with ``chi(b)`` appended have the same rank.

Since ``det chi(q) = N(q)`` for a quaternion ``q``, ``det chi`` of a square
quaternion matrix is its Study determinant.  Scaled by their
``row_scales`` and restricted to the pivot columns of the first ``t + 1``
kept rows, the first ``t + 1`` kept rows factor as ``L * E`` with ``E``
unit triangular up to the order of its columns, so ``det chi`` of them is
the prefix Study determinant ``dets[t]`` of ``quasidet._factor``.

The oracle computes these by Gaussian elimination over ``Q(i)``, written
here with ``Fraction`` pairs.  It shares no code with ``skewlin.quasidet``:
it reads the quaternions' components, and calls the library only for the
``rc_rank``, ``rc_inverse`` and ``solve_general`` it checks, and for the
elimination and factorization records whose kept rows, pivot columns, row
scales and prefix determinants it reads.  The brute-force oracles stop at
5 x 5; this one checks the forward pass and the factorization at n = 6, 8
and 12, at full rank and at half rank, and the general solver on tall and
wide shapes up to 12 x 8.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from skewlin import (
    Matrix,
    Quaternion,
    SingularMatrixError,
    quasidet,
    rc_inverse,
    rc_rank,
    solve_general,
)

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _inverse(u):
    norm = u[0] * u[0] + u[1] * u[1]
    return (u[0] / norm, -u[1] / norm)


def chi(a):
    """The 2m x 2n matrix over Q(i) of the m x n quaternion matrix ``a``, as
    lists of ``(re, im)`` pairs."""
    rows = []
    for cells in a.cells:
        top, bottom = [], []
        for q in cells:
            w, x, y, z = q.w, q.x, q.y, q.z
            top += [(w, x), (y, z)]
            bottom += [(-y, z), (w, -x)]
        rows += [top, bottom]
    return rows


def gauss_jordan(rows, augment=False):
    """Gauss-Jordan elimination over Q(i) on ``rows`` in order, without row
    exchanges, each row reduced against the rows kept before it and kept
    when a nonzero remains.  Returns the rank of the first k rows for each
    k and, with ``augment``, the inverse of the square matrix ``rows`` (None
    when it is singular): the identity appended to the rows ends up holding
    it once every kept row is a unit row."""
    n, width = len(rows), len(rows[0])
    basis = []  # [pivot, row]: a one at the pivot, zero at every other pivot
    ranks = []
    for r, row in enumerate(rows):
        row = list(row) + ([ONE if c == r else ZERO for c in range(n)] if augment else [])
        for pivot, b in basis:
            lead = row[pivot]
            if lead != ZERO:
                row = [_sub(e, _mul(lead, f)) for e, f in zip(row, b)]
        pivot = next((j for j in range(width) if row[j] != ZERO), None)
        if pivot is not None:
            scale = _inverse(row[pivot])
            row = [_mul(scale, e) for e in row]
            for kept in basis:
                lead = kept[1][pivot]
                if lead != ZERO:
                    kept[1] = [_sub(e, _mul(lead, f)) for e, f in zip(kept[1], row)]
            basis.append([pivot, row])
        ranks.append(len(basis))
    if not augment or len(basis) < width:
        return ranks, None
    return ranks, [row[width:] for _, row in sorted(basis, key=lambda kept: kept[0])]


def determinant(rows):
    """The determinant over Q(i) of the square matrix ``rows``, by Gaussian
    elimination with row exchanges."""
    rows = [list(row) for row in rows]
    det = ONE
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c] != ZERO), None)
        if r is None:
            return ZERO
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = (-det[0], -det[1])
        det = _mul(det, rows[c][c])
        scale = _inverse(rows[c][c])
        for row in rows[c + 1:]:
            lead = _mul(row[c], scale)
            if lead != ZERO:
                row[c:] = [_sub(e, _mul(lead, f)) for e, f in zip(row[c:], rows[c][c:])]
    return det


def rises(ranks):
    """The 1-based positions of the quaternion rows (pairs of rows) at which
    the prefix rank rises by 2."""
    return tuple(p + 1 for p in range(len(ranks) // 2)
                 if ranks[2 * p + 1] - (ranks[2 * p - 1] if p else 0) == 2)


def _entry(rng):
    """A quaternion with components in -2..2 over 1, 2 or 3, a fifth of
    them zero."""
    if rng.random() < 0.2:
        return Quaternion.zero()
    return Quaternion(*[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(4)])


def _matrix(rng, m, n):
    return [[_entry(rng) for _ in range(n)] for _ in range(m)]


def _product(b, c):
    """``b * c`` by the definition, one scalar product at a time."""
    return [[sum((b_row[k] * c[k][j] for k in range(len(c))), Quaternion.zero())
             for j in range(len(c[0]))] for b_row in b]


def _case(n, kind, seed):
    """An n x n matrix: dense, of full rank with high probability, or of
    rank n / 2 as a product through an inner dimension n / 2.  In the half
    rank one the first row is zero on the first n / 2 columns, so the
    echelon rows are not kept in the order of their pivots."""
    rng = random.Random(seed)
    if kind == "full":
        return Matrix(_matrix(rng, n, n), cols=n)
    r = n // 2
    b, c = _matrix(rng, n, r), _matrix(rng, r, n)
    b[0] = [Quaternion.zero()] * (r - 1) + [Quaternion.one()]
    c[-1][:r] = [Quaternion.zero()] * r
    return Matrix(_product(b, c), cols=n)


@pytest.mark.parametrize("kind", ["full", "half"])
@pytest.mark.parametrize("n", [6, 8, 12])
@given(seed=st.integers(0, 2**32 - 1))
# no shrinking: a smaller seed draws no simpler matrix
@settings(max_examples=1, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_kernel_matches_chi_oracle(n, kind, seed):
    a = _case(n, kind, seed)
    rows = chi(a)
    row_ranks, expected = gauss_jordan(rows, augment=kind == "full")
    report = rc_rank(a)
    assert 2 * report.rank == row_ranks[-1]
    if kind == "half":
        assert report.rank == n // 2
    if report.rank:
        minor_rows = rises(row_ranks)
        assert report.minor.rows == minor_rows
        # the columns of chi restricted to the minor's rows, as rows
        kept = [rows[i] for p in minor_rows for i in (2 * p - 2, 2 * p - 1)]
        assert report.minor.cols == rises(gauss_jordan(list(zip(*kept)))[0])
    if expected is None:
        with pytest.raises(SingularMatrixError):
            rc_inverse(a)
    else:
        assert chi(rc_inverse(a)) == expected


@pytest.mark.parametrize("kind", ["full", "half"])
@pytest.mark.parametrize("n", [6, 8, 12])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=1, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_prefix_study_determinants_match_chi_oracle(n, kind, seed):
    a = _case(n, kind, seed)
    elimination = quasidet._eliminate_rows(a)
    factor = quasidet._factor(elimination)
    column = {t: pivot for pivot, _, t, *_ in factor.echelon}
    scales = [r for r in factor.row_scales for _ in (0, 1)]  # two rows of chi per row
    for t, det in enumerate(factor.dets):
        columns = [column[k] for k in range(t + 1)]
        block = Matrix([[a.cells[p][j] for j in columns] for p in elimination.kept[:t + 1]],
                       cols=t + 1)
        scaled = [[(r * re, r * im) for re, im in row] for row, r in zip(chi(block), scales)]
        assert determinant(scaled) == (det, 0)


def _rectangular_case(m, n, seed):
    """An m x n matrix of rank m / 2, a product through that inner dimension,
    and two right-hand sides: a left combination of its rows and a fresh
    row.  Where m is twice n the rank is n, so the elimination pass stops
    halfway down and every row is in the row span."""
    rng = random.Random(seed)
    r = m // 2
    a = _product(_matrix(rng, m, r), _matrix(rng, r, n))
    combination = _product(_matrix(rng, 1, m), a)[0]
    return Matrix(a, cols=n), [Matrix.row(combination), Matrix.row(_matrix(rng, 1, n)[0])]


@pytest.mark.parametrize("m,n", [(8, 6), (12, 8), (12, 6), (6, 8)])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=1, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_solve_general_matches_chi_oracle(m, n, seed):
    a, rows = _rectangular_case(m, n, seed)
    zero = [[Quaternion.zero()] * n]
    for b in rows:
        ranks, _ = gauss_jordan(chi(a) + chi(b))
        rank = ranks[2 * m - 1]
        solution = solve_general(a, b)
        assert solution.consistent == (rank == ranks[-1])
        assert 2 * (m - len(solution.homogeneous_basis)) == rank
        for row in solution.homogeneous_basis:
            assert _product(row.cells, a.cells) == zero
        if solution.consistent:
            assert _product(solution.particular.cells, a.cells) == [list(b.cells[0])]
        else:
            assert solution.particular is None
