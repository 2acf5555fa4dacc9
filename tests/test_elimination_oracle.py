"""The shared elimination kernel against the Gauss-Jordan routines it replaced.

``oracle_eliminate``, ``oracle_rc_inverse``, ``oracle_is_rc_nonsingular``,
``oracle_rc_quasideterminant``, ``oracle_row_dependence`` and
``oracle_solve_nonsingular`` are the original implementations, kept verbatim
(apart from their names, and ``schoolbook_product`` in place of the library's
``rc_product``) as the definition: Gauss-Jordan elimination with an augmented
identity decides invertibility and gives the inverse, and the
quasideterminant, the row dependence and the unique solution are read off that
inverse by products.  ``schoolbook_product`` sums scalar products one at a
time, so the oracles share no arithmetic with the library's fused products,
which a property below checks against it.  The library must return the same
values, the same ``None`` for an undefined quasideterminant and the same
exceptions on every square matrix of order at most 5, under both products.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import skewlin as lib
from skewlin import (
    DimensionMismatch,
    IndexSelection,
    InvalidRowError,
    Matrix,
    Quaternion,
    RankReport,
    SingularMatrixError,
    cr_product,
    rc_product,
)
from skewlin.sampling import (
    random_matrix,
    random_nonsingular_matrix,
    random_rank_deficient_stack,
)

# -- the oracle ----------------------------------------------------------------


def schoolbook_product(a, b):
    """Row-times-column product as a left fold of scalar ``*`` and ``+``."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"rc product needs {a.shape} x {b.shape} inner match")
    cells = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = Quaternion.zero()
            for k in range(a.cols):
                total = total + a[i, k] * b[k, j]
            row.append(total)
        cells.append(row)
    return Matrix(cells, cols=b.cols)


def oracle_eliminate(grid, augmented):
    """In-place forward+back elimination with left multiplications.

    Returns False as soon as a pivot column has no nonzero entry (the matrix
    is singular), True when ``grid`` has been reduced to the identity.
    """
    n = len(grid)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not grid[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            return False
        if pivot_row != col:
            grid[col], grid[pivot_row] = grid[pivot_row], grid[col]
            if augmented is not None:
                augmented[col], augmented[pivot_row] = augmented[pivot_row], augmented[col]
        factor = grid[col][col].inverse()
        grid[col] = [factor * e for e in grid[col]]
        if augmented is not None:
            augmented[col] = [factor * e for e in augmented[col]]
        for r in range(n):
            if r == col:
                continue
            lead = grid[r][col]
            if lead.is_zero():
                continue
            grid[r] = [e - lead * p for e, p in zip(grid[r], grid[col])]
            if augmented is not None:
                augmented[r] = [e - lead * p for e, p in zip(augmented[r], augmented[col])]
    return True


def oracle_rc_inverse(a):
    """Two-sided inverse under the row-times-column product.

    Raises :class:`SingularMatrixError` when no inverse exists and
    :class:`DimensionMismatch` for non-square input.
    """
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    n = a.rows
    if n == 0:
        return a
    grid = [list(row) for row in a.cells]
    one, zero = Quaternion.one(), Quaternion.zero()
    augmented = [[one if i == j else zero for j in range(n)] for i in range(n)]
    if not oracle_eliminate(grid, augmented):
        raise SingularMatrixError(f"matrix {a} is singular")
    return Matrix(augmented)


def oracle_is_rc_nonsingular(a):
    """True when ``a`` is square and has a two-sided inverse."""
    if not a.is_square:
        return False
    if a.rows == 0:
        return True
    return oracle_eliminate([list(row) for row in a.cells], None)


def oracle_rc_quasideterminant(a, p, r):
    """Quasideterminant of square ``a`` at 1-based position ``(p, r)``.

    Returns the skew-field value, or ``None`` when it is undefined because
    the complementary submatrix has no inverse.  For a 1x1 matrix the value
    is the entry itself (the correction term vanishes with the empty
    complementary minor).
    """
    if not a.is_square:
        raise DimensionMismatch(f"quasideterminant needs a square matrix, got {a.shape}")
    complement = a.without(p, r)  # validates p, r
    n = a.rows
    if n == 1:
        return a[0, 0]
    try:
        inv = oracle_rc_inverse(complement)
    except SingularMatrixError:
        return None
    row = Matrix.row([a[p - 1, t] for t in range(n) if t != r - 1])
    col = Matrix.column([a[s, r - 1] for s in range(n) if s != p - 1])
    correction = schoolbook_product(schoolbook_product(row, inv), col)
    return a[p - 1, r - 1] - correction[0, 0]


def oracle_row_dependence(a, report, p):
    """Coefficient row expressing row ``p`` through the major-minor rows.

    Returns the 1 x k row ``c`` with ``c * (rows S of a) == row p of a`` on
    every column, where ``S`` is ``report.minor.rows``.  ``p`` must lie
    outside ``S``.
    """
    if report.rank == 0:
        a.row_entries(p)  # range check
        return Matrix.zeros(1, 0)
    sel = report.minor
    if p in sel.rows:
        raise InvalidRowError(f"row {p} belongs to the major minor {sel.rows}")
    outside_row = Matrix.row(
        [a[p - 1, t - 1] for t in sel.cols]
    )
    core_inverse = oracle_rc_inverse(a.minor(sel.rows, sel.cols))
    return schoolbook_product(outside_row, core_inverse)


def oracle_solve_nonsingular(a, b):
    """Unique solution of ``x * a = b`` for square nonsingular ``a``:
    ``x = b * inverse(a)``.  Raises :class:`SingularMatrixError` otherwise."""
    return schoolbook_product(b, oracle_rc_inverse(a))


# -- comparison ------------------------------------------------------------------


def outcome(f, *args):
    """The value, or the type and message of the exception, of ``f(*args)``."""
    try:
        return ("value", f(*args))
    except (ArithmeticError, ValueError, IndexError) as exc:
        return ("raised", type(exc), str(exc))


def _sparse(rng, n):
    zero = Quaternion.zero()
    dense = random_matrix(rng, n, n, bound=3)
    return Matrix(
        [[e if rng.random() < 0.4 else zero for e in row] for row in dense.cells],
        cols=n,
    )


def _permutation(perm):
    one, zero = Quaternion.one(), Quaternion.zero()
    n = len(perm)
    return Matrix([[one if perm[i] == j else zero for j in range(n)] for i in range(n)], cols=n)


def _cases(n):
    rng = random.Random(500 + n)
    cases = [random_nonsingular_matrix(rng, n, bound=4)]
    cases += [random_rank_deficient_stack(rng, n, n, k) for k in range(n + 1)]
    cases += [_sparse(rng, n) for _ in range(3)]
    cases.append(Matrix.zeros(n, n))
    perms = list(permutations(range(n)))
    if len(perms) > 8:
        perms = perms[:2] + rng.sample(perms[2:], 6)
    cases += [_permutation(perm) for perm in perms]
    return cases


def _selections(n):
    """Every report a caller could pass for an n x n matrix: each order with
    each choice of rows and columns, nonsingular or not."""
    reports = [RankReport(0, None)]
    for k in range(1, n + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                reports.append(RankReport(k, IndexSelection(rows, cols)))
    return reports


def _check_against_oracle(a, rng, reports):
    n = a.rows
    assert lib.is_rc_nonsingular(a) == oracle_is_rc_nonsingular(a), a
    assert outcome(lib.rc_inverse, a) == outcome(oracle_rc_inverse, a), a
    dual = outcome(oracle_rc_inverse, a.transpose())
    if dual[0] == "value":
        dual = ("value", dual[1].transpose())
    assert outcome(lib.cr_inverse, a) == dual, a
    via = outcome(lib.rc_inverse_via_quasidet, a)
    if oracle_is_rc_nonsingular(a):
        assert via == ("value", oracle_rc_inverse(a)), a
    else:
        assert via[:2] == ("raised", SingularMatrixError), a

    for p in range(n + 2):
        for r in range(n + 2):
            expected = outcome(oracle_rc_quasideterminant, a, p, r)
            assert outcome(lib.rc_quasideterminant, a, p, r) == expected, (a, p, r)
            expected = outcome(oracle_rc_quasideterminant, a.transpose(), p, r)
            assert outcome(lib.cr_quasideterminant, a, p, r) == expected, (a, p, r)

    for report in reports + [lib.rc_rank(a)]:
        for p in range(1, n + 1):
            expected = outcome(oracle_row_dependence, a, report, p)
            assert outcome(lib.row_dependence, a, report, p) == expected, (a, report, p)

    for height in range(3):
        b = random_matrix(rng, height, n, bound=3) if n else Matrix.zeros(height, 0)
        expected = outcome(oracle_solve_nonsingular, a, b)
        assert outcome(lib.solve_nonsingular, a, b) == expected, (a, b)
    misshaped = random_matrix(rng, 1, n + 1, bound=3)
    expected = outcome(oracle_solve_nonsingular, a, misshaped)
    assert outcome(lib.solve_nonsingular, a, misshaped) == expected, a


@pytest.mark.parametrize("n", range(6))
def test_kernel_matches_oracle(n):
    rng = random.Random(n)
    cases = _cases(n)
    # every report only on a few matrices of order 5: 252 of them per matrix
    all_reports = _selections(n)
    for index, a in enumerate(cases):
        reports = all_reports if n < 5 or index < 3 else []
        _check_against_oracle(a, rng, reports)
        _check_against_oracle(a.transpose(), rng, reports)


def test_swap_quasideterminant_undefined_where_oracle_says():
    swap = _permutation((1, 0))
    assert lib.rc_quasideterminant(swap, 1, 1) is None
    assert oracle_rc_quasideterminant(swap, 1, 1) is None
    assert lib.rc_quasideterminant(swap, 1, 2) == oracle_rc_quasideterminant(swap, 1, 2)


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 3), (3, 2), (0, 2)])
def test_non_square_input_matches_oracle(shape):
    rng = random.Random(sum(shape))
    a = random_matrix(rng, *shape, bound=3) if shape[0] else Matrix.zeros(*shape)
    b = random_matrix(rng, 1, shape[1], bound=3)
    assert lib.is_rc_nonsingular(a) is oracle_is_rc_nonsingular(a) is False
    for f, oracle, args in [
        (lib.rc_inverse, oracle_rc_inverse, (a,)),
        (lib.rc_quasideterminant, oracle_rc_quasideterminant, (a, 1, 1)),
        (lib.solve_nonsingular, oracle_solve_nonsingular, (a, b)),
    ]:
        expected = outcome(oracle, *args)
        assert expected[:2] == ("raised", DimensionMismatch)
        assert outcome(f, *args) == expected


# entries over mixed denominators, zero among them
_rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([1, 2, 3, 4, 7])
)
_quaternions = st.builds(Quaternion, _rationals, _rationals, _rationals, _rationals)


@st.composite
def _matrix_pairs(draw):
    m, k, n = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))

    def matrix(rows, cols):
        cells = draw(st.lists(
            st.lists(_quaternions, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        ))
        return Matrix(cells, cols=cols)

    return matrix(m, k), matrix(k, n)


@given(_matrix_pairs())
@settings(max_examples=60)
def test_products_match_schoolbook_product(pair):
    a, b = pair
    assert rc_product(a, b) == schoolbook_product(a, b)
    # cr_product(a.T, b.T)[j][i] = sum_k a.T[k][i] * b.T[j][k] = sum_k a[i][k] * b[k][j]
    assert cr_product(a.T, b.T).T == schoolbook_product(a, b)


def _big_integer_matrix(rng, rows, cols, digits):
    def entry():
        return Quaternion(*(rng.randrange(-10**digits, 10**digits) for _ in range(4)))

    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_matches_oracle_on_big_entries(seed):
    # 60-digit integer entries grow to denominators of hundreds of digits;
    # nearly every update of a row by its own lead then divides exactly by
    # the lead's denominator
    rng = random.Random(seed)
    a = _big_integer_matrix(rng, 4, 4, 60)
    assert lib.rc_inverse(a) == oracle_rc_inverse(a)
    for p, r in ((4, 4), (1, 1)):
        assert lib.rc_quasideterminant(a, p, r) == oracle_rc_quasideterminant(a, p, r)
    b = _big_integer_matrix(rng, 2, 4, 60)
    assert lib.solve_nonsingular(a, b) == oracle_solve_nonsingular(a, b)
