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

``oracle_rc_inverse_via_quasidet`` is the original entrywise inverse, one
``rc_quasideterminant`` call per position (the function checked above), the
definition that the library's one elimination per row must reproduce, value
for value and message for message, up to order 8.

``rational_factor`` and ``rational_back_substitute`` are the rational back
substitution that the library's integer one replaced, and the solvers built
on them the definition that ``rc_inverse``, ``solve_nonsingular``,
``row_dependence`` and ``solve_general`` must reproduce up to order 9, on
rational, 20-to-80-digit and half-rank matrices.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

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
from skewlin.matrix import _SUMS_FROM
from skewlin.quasidet import _WIDE, _complete, _eliminate_rows, _factor, _numerators, _reduce
from skewlin.quaternion import _dot
from skewlin.rank import SolutionSet, _on_rows
from skewlin.sampling import (
    random_matrix,
    random_nonsingular_matrix,
    random_quaternion,
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


def oracle_rc_inverse_via_quasidet(a):
    """Inverse assembled entrywise from quasideterminants.

    Entry ``(r, p)`` of the inverse is ``inverse(qdet(a, p, r))``; positions
    whose quasideterminant is undefined correspond exactly to zero entries of
    the inverse.  A quasideterminant that is defined but zero certifies the
    matrix singular.  The assembled candidate is verified by a product
    round-trip.
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
            q = lib.rc_quasideterminant(a, p, r)
            if q is None:
                continue
            if q.is_zero():
                raise SingularMatrixError(
                    f"quasideterminant at ({p}, {r}) is zero, matrix is singular"
                )
            cells[r - 1][p - 1] = q.inverse()
    candidate = Matrix(cells)
    if schoolbook_product(a, candidate) != Matrix.identity(n):
        raise SingularMatrixError("no inverse: quasideterminant candidate fails round-trip")
    return candidate


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
    assert via == outcome(oracle_rc_inverse_via_quasidet, a), a
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


# -- the inverse from quasideterminants, one elimination per row ----------------


def _with_rows(a, replacements):
    cells = [list(row) for row in a.cells]
    for i, row in replacements.items():
        cells[i] = row
    return Matrix(cells, cols=a.cols)


def _triangular(rng, n):
    """Nonsingular and lower triangular, so its inverse is zero above the
    diagonal: every position above it has an undefined quasideterminant."""
    zero = Quaternion.zero()
    return Matrix(
        [
            [random_quaternion(rng, 4, nonzero=True) if j == i
             else random_quaternion(rng, 4) if j < i else zero
             for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )


def _via_quasidet_cases(n):
    rng = random.Random(800 + n)
    full = random_nonsingular_matrix(rng, n, bound=4)
    triangular = _triangular(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    # the inverse of a permuted triangular matrix is zero off a permuted
    # triangle, so its undefined positions are scattered over every row
    cases = [full, triangular, _sparse(rng, n), _permutation(perm),
             schoolbook_product(_permutation(perm), _triangular(rng, n))]
    if n == 1:
        return cases + [Matrix.zeros(1, 1)]
    i, j = rng.sample(range(n), 2)
    q = random_quaternion(rng, 4, nonzero=True)
    zero_row = [Quaternion.zero()] * n
    return cases + [
        # rank n - 1: row i a left multiple of row j
        _with_rows(full, {i: [q * e for e in full.cells[j]]}),
        _with_rows(triangular, {i: [q * e for e in triangular.cells[j]]}),
        # rank at most n - 2: two zero rows
        _with_rows(full, {i: zero_row, j: zero_row}),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_via_quasidet_matches_per_position_oracle(n):
    for a in _via_quasidet_cases(n):
        for b in (a, a.transpose()):
            expected = outcome(oracle_rc_inverse_via_quasidet, b)
            assert outcome(lib.rc_inverse_via_quasidet, b) == expected, b


def test_inverse_via_quasidet_cases_cover_every_branch():
    # the cases above must reach each outcome of the per-position loop:
    # an inverse with zero entries, a defined zero quasideterminant, and a
    # singular matrix whose quasideterminants are all undefined
    outcomes = [
        outcome(oracle_rc_inverse_via_quasidet, a)
        for n in range(1, 9)
        for a in _via_quasidet_cases(n)
    ]
    messages = [o[2] for o in outcomes if o[0] == "raised"]
    assert any(o[0] == "value" and any(e.is_zero() for row in o[1] for e in row)
               for o in outcomes)
    assert any("is zero" in m for m in messages)
    assert any("round-trip" in m for m in messages)


def test_inverse_via_quasidet_does_not_call_the_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rc_inverse_via_quasidet must not use the solver")

    rng = random.Random(9)
    a = random_nonsingular_matrix(rng, 5, bound=4)
    expected = oracle_rc_inverse(a)
    for name in ("rc_inverse", "_solve_row", "_back_substitute"):
        monkeypatch.setattr(lib.quasidet, name, forbidden)
    assert lib.rc_inverse_via_quasidet(a) == expected


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
    # with at, bt the transposes of a, b:
    # cr_product(at, bt)[j][i] = sum_k at[k][i] * bt[j][k] = sum_k a[i][k] * b[k][j]
    at, bt = a.transpose(), b.transpose()
    assert cr_product(at, bt).transpose() == schoolbook_product(a, b)


# rc_product takes the prepared sums when every dimension of the product is
# at least _SUMS_FROM.  Sizes just past the rule, and below it: 0, 1 and one
# short of it.
_PAST_RULE = (_SUMS_FROM, _SUMS_FROM + 1)
_BELOW_RULE = (0, 1, _SUMS_FROM - 1)
# mixed-denominator rationals with whole zero entries among them
_sparse_quaternions = _quaternions | st.just(Quaternion.zero())


@st.composite
def _straddling_pairs(draw):
    """Factors of shapes ``m x k`` and ``k x n`` with every dimension just
    past the shape rule, or all but one, which is 0, 1 or one short of it.
    The entries of both are ``_sparse_quaternions``, or integer quaternions
    of up to ``digits`` digits, 100 to 300, with zeros among them."""
    shape = [draw(st.sampled_from(_PAST_RULE)) for _ in range(3)]
    below = draw(st.sampled_from((None, 0, 1, 2)))
    if below is not None:
        shape[below] = draw(st.sampled_from(_BELOW_RULE))
    digits = draw(st.none() | st.integers(min_value=100, max_value=300))
    entries = _sparse_quaternions
    if digits is not None:
        bound = 10**digits
        entries = (st.builds(Quaternion, *[st.integers(min_value=-bound, max_value=bound)] * 4)
                   | st.just(Quaternion.zero()))
    m, k, n = shape
    return (Matrix(_rows(draw, m, k, entries), cols=k),
            Matrix(_rows(draw, k, n, entries), cols=n))


def _pinned_pair(seed, m, k, n, digits=None):
    """Factors of shapes ``m x k`` and ``k x n``: a fifth of the entries
    zero, the rest rationals over mixed denominators, or integers of up to
    ``digits`` digits."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.2:
            return Quaternion.zero()
        if digits is None:
            return Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7)))
                                for _ in range(4)))
        return Quaternion(*(rng.randrange(-10**digits, 10**digits) for _ in range(4)))

    return (Matrix([[entry() for _ in range(k)] for _ in range(m)], cols=k),
            Matrix([[entry() for _ in range(n)] for _ in range(k)], cols=n))


# Each pinned example and whether rc_product takes the prepared sums on it
_K = _SUMS_FROM
_PINNED_PRODUCTS = [
    (_pinned_pair(1, _K, _K, _K), True),
    (_pinned_pair(2, _K + 1, _K, _K + 2), True),
    (_pinned_pair(3, _K, _K, _K, digits=300), True),
    (_pinned_pair(4, _K - 1, _K, _K), False),
    (_pinned_pair(5, _K, _K - 1, _K), False),
    (_pinned_pair(6, _K, _K, _K - 1), False),
    (_pinned_pair(7, 1, _K, _K, digits=100), False),
    (_pinned_pair(8, _K, 1, _K), False),
    (_pinned_pair(9, _K, 0, _K), False),
    (_pinned_pair(10, 0, _K, _K), False),
    (_pinned_pair(11, _K - 1, _K - 1, _K - 1, digits=300), False),
]


def _pinned(test):
    for pair, _ in _PINNED_PRODUCTS:
        test = example(pair)(test)
    return test


@_pinned
@given(_straddling_pairs())
@settings(max_examples=30)
def test_products_straddling_the_shape_rule_match_schoolbook(pair):
    """Both products agree with the schoolbook fold on each side of
    ``rc_product``'s shape rule, as ``test_products_match_schoolbook_product``
    checks below it."""
    a, b = pair
    expected = schoolbook_product(a, b)
    assert rc_product(a, b) == expected
    at, bt = a.transpose(), b.transpose()
    assert cr_product(at, bt).transpose() == expected


def test_pinned_products_take_their_forms(monkeypatch):
    """The pinned examples above reach both forms, each where the list says:
    one prepared-sums entry, or one ``_dot``, per entry of the product, and
    never the other."""
    calls = []
    for name in ("_dot", "_dot_of_sums"):
        form = getattr(lib.matrix, name)
        monkeypatch.setattr(lib.matrix, name,
                            lambda *args, form=form, name=name: calls.append(name) or form(*args))
    for (a, b), sums in _PINNED_PRODUCTS:
        for product, left, right in ((rc_product, a, b),
                                     (cr_product, a.transpose(), b.transpose())):
            calls.clear()
            product(left, right)
            expected = "_dot_of_sums" if sums else "_dot"
            assert calls == [expected] * (a.rows * b.cols)
    assert {sums for _, sums in _PINNED_PRODUCTS} == {True, False}


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


# -- above the brute-force sizes ---------------------------------------------------
#
# The oracles above enumerate minors and permutations, so they stop at 5x5.
# Past that the results are checked by their defining equations, through
# schoolbook_product: an inverse must be two-sided, a solution must solve, a
# dependence must reproduce its row and a homogeneous basis row must
# annihilate the matrix.


def _entry(rng, digits):
    if digits is None:
        return random_quaternion(rng, 4)
    return Quaternion(*(rng.randrange(-10**digits, 10**digits) for _ in range(4)))


def _left_combination(rng, rows):
    coefficients = [random_quaternion(rng, 3) for _ in rows]
    return [
        sum((c * row[j] for c, row in zip(coefficients, rows)), Quaternion.zero())
        for j in range(len(rows[0]))
    ]


def _half_rank(rng, n, digits):
    """Rank ceil(n/2): every odd-numbered row (1-based) is fresh and every
    even-numbered one is a left combination of the fresh rows above it, so
    the kept rows are interleaved with the dependent ones and a row's kept
    index differs from its row index."""
    rows = []
    for i in range(n):
        rows.append([_entry(rng, digits) for _ in range(n)] if i % 2 == 0
                    else _left_combination(rng, rows[::2]))
    return Matrix(rows, cols=n)


def _check_general_solution(a, b, consistent):
    solution = lib.solve_general(a, b)
    assert solution.consistent is consistent
    if consistent:
        assert schoolbook_product(solution.particular, a) == b
    else:
        assert solution.particular is None
    assert len(solution.homogeneous_basis) == a.rows - lib.rc_rank(a).rank
    for row, p in zip(solution.homogeneous_basis, solution.free_variables):
        assert row[0, p - 1] == Quaternion.one()
        assert schoolbook_product(row, a) == Matrix.zeros(1, a.cols)


def _check_half_rank(rng, n, digits):
    a = _half_rank(rng, n, digits)
    report = lib.rc_rank(a)
    assert report.minor.rows == tuple(range(1, n + 1, 2))
    kept_rows = a.minor(report.minor.rows, tuple(range(1, n + 1)))
    for p in range(2, n + 1, 2):
        c = lib.row_dependence(a, report, p)
        assert schoolbook_product(c, kept_rows) == Matrix.row(a.row_entries(p))
    _check_general_solution(a, Matrix.row(_left_combination(rng, a.cells)), True)
    _check_general_solution(a, Matrix.row([_entry(rng, digits) for _ in range(n)]), False)
    with pytest.raises(SingularMatrixError):
        lib.solve_nonsingular(a, Matrix.row(a.row_entries(1)))


def _check_full_column_rank(rng, n):
    # 2n x n of rank n: n fresh rows, then n left combinations of them.  The
    # elimination pass holds a pivot in every column halfway down and stops,
    # so solve_general reduces the later rows itself.  Every row is in the
    # row span of a full-column-rank matrix: each right-hand side is
    # consistent.
    fresh = [[_entry(rng, None) for _ in range(n)] for _ in range(n)]
    a = Matrix(fresh + [_left_combination(rng, fresh) for _ in range(n)], cols=n)
    first = tuple(range(1, n + 1))
    assert lib.rc_rank(a) == RankReport(n, IndexSelection(first, first))
    _check_general_solution(a, Matrix.row(_left_combination(rng, a.cells)), True)
    _check_general_solution(a, Matrix.row([_entry(rng, None) for _ in range(n)]), True)
    assert lib.cr_rank(a.transpose()) == RankReport(n, IndexSelection(first, first))


@pytest.mark.parametrize("n", range(6, 13))
def test_back_substitution_above_oracle_sizes(n):
    rng = random.Random(600 + n)
    a = Matrix([[_entry(rng, None) for _ in range(n)] for _ in range(n)], cols=n)
    x = lib.rc_inverse(a)
    assert schoolbook_product(a, x) == Matrix.identity(n) == schoolbook_product(x, a)
    b = Matrix([[_entry(rng, None) for _ in range(n)] for _ in range(2)], cols=n)
    assert schoolbook_product(lib.solve_nonsingular(a, b), a) == b
    _check_general_solution(a, Matrix.row(b.row_entries(1)), True)
    _check_half_rank(rng, n, None)
    _check_full_column_rank(rng, n)


@pytest.mark.parametrize("n", range(6, 13))
def test_back_substitution_above_oracle_sizes_on_big_entries(n):
    # a 60-digit inverse costs seconds at n = 12, so the full-rank inverse is
    # checked at the smallest size and solve_nonsingular, which runs the same
    # back substitution, at every size
    rng = random.Random(700 + n)
    a = Matrix([[_entry(rng, 60) for _ in range(n)] for _ in range(n)], cols=n)
    if n == 6:
        x = lib.rc_inverse(a)
        assert schoolbook_product(a, x) == Matrix.identity(n) == schoolbook_product(x, a)
    b = Matrix.row([_entry(rng, 60) for _ in range(n)])
    assert schoolbook_product(lib.solve_nonsingular(a, b), a) == b
    _check_half_rank(rng, n, 60)


# -- the integer back substitution against the rational one ---------------------
#
# The library solves ``x * L == z`` over the integers, on the prefix Study
# determinants of the kept rows.  The rational back substitution it replaced
# is kept here as the slow definition, verbatim apart from its names and the
# shapes of the forward pass's results (``value`` turns a multiplier's or a
# pivot's numerators into a quaternion): ``rational_factor`` inverts each
# pivot with ``Quaternion.inverse`` and divides each multiplier by its pivot
# once (``mu``), and ``rational_back_substitute`` sums each unknown with
# ``_dot``.  The solvers built on it, ``rational_solve_nonsingular`` and
# ``rational_solve_general``, repeat the library's own on the same forward
# pass, which the library's ``_complete`` extends to every row.


def value(numerators):
    w, x, y, z, d = numerators
    return Quaternion(Fraction(w, d), Fraction(x, d), Fraction(y, d), Fraction(z, d))


def rational_factor(elimination):
    scales = [value(pivot).inverse() for pivot in elimination.pivots]
    below = [[] for _ in elimination.kept]
    for k, p in enumerate(elimination.kept):
        for j, lead in elimination.leads[p][0]:
            below[j].append((k, -(value(lead) * scales[j])))
    return elimination.echelon, scales, below


def rational_back_substitute(z, factor):
    _, scales, below = factor
    zero = Quaternion.zero()
    z = dict(z)
    y = [zero] * len(scales)
    for j in reversed(range(len(scales))):
        left, right = [], []
        if j in z:
            left.append(value(z[j]))
            right.append(scales[j])
        for k, minus_mu in below[j]:
            if not y[k].is_zero():
                left.append(y[k])
                right.append(minus_mu)
        if left:
            y[j] = _dot(left, right)
    return y


def rational_solve_row(entries, factor):
    z, rest, _ = _reduce(*_numerators(entries), factor[0])
    if not all(e == (0, 0, 0, 0) for e in rest):
        return None
    return rational_back_substitute(z, factor)


def rational_solve_nonsingular(a, b):
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    elimination = _eliminate_rows(a)
    if len(elimination.kept) < a.rows:
        raise SingularMatrixError(f"matrix {a} is singular")
    factor = rational_factor(elimination)
    if b.cols != a.rows:
        raise DimensionMismatch(f"rc product needs {b.shape} x {a.shape} inner match")
    return Matrix([rational_solve_row(row, factor) for row in b.cells], cols=a.rows)


def rational_rc_inverse(a):
    return rational_solve_nonsingular(a, Matrix.identity(a.rows))


def rational_row_dependence(a, report, p):
    entries = a.row_entries(p)
    if report.rank == 0:
        return Matrix.zeros(1, 0)
    sel = report.minor
    if p in sel.rows:
        raise InvalidRowError(f"row {p} belongs to the major minor {sel.rows}")
    core = a.minor(sel.rows, sel.cols)
    outside = [entries[t - 1] for t in sel.cols]
    return rational_solve_nonsingular(core, Matrix.row(outside))


def rational_solve_general(a, b):
    if b.rows != 1 or b.cols != a.cols:
        raise DimensionMismatch(
            f"right-hand side must be 1 x {a.cols}, got {b.shape}"
        )
    elimination = _eliminate_rows(a)
    _complete(elimination, a)
    factor = rational_factor(elimination)
    kept, leads = elimination.kept, elimination.leads
    independent = set(kept)
    dependent = [p for p in range(a.rows) if p not in independent]
    free = tuple(p + 1 for p in dependent)
    one = Quaternion.one()
    basis = tuple(
        _on_rows(kept + [p], [-c for c in rational_back_substitute(leads[p][0], factor)] + [one], a)
        for p in dependent
    )
    x = rational_solve_row(b.cells[0], factor)
    if x is None:
        return SolutionSet(False, None, basis, free)
    particular = _on_rows(kept, x, a)
    if rc_product(particular, a) != b:
        raise SingularMatrixError("internal: particular solution fails x * a == b")
    return SolutionSet(True, particular, basis, free)


def _integers(digits):
    return st.integers(min_value=-10**digits, max_value=10**digits)


def _rows(draw, count, n, entries):
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=count, max_size=count))


def _combination(draw, rows):
    """A left combination of ``rows`` with drawn coefficients."""
    coefficients = _rows(draw, 1, len(rows), _quaternions)[0]
    return [
        sum((c * row[j] for c, row in zip(coefficients, rows)), Quaternion.zero())
        for j in range(len(rows[0]))
    ]


@st.composite
def _systems(draw):
    """An n x n matrix, n at most 9, of one of three kinds, with two
    right-hand sides: a left combination of its rows and a free row.

    * rational entries over mixed denominators;
    * integer entries of 20 to 80 digits;
    * half rank: the odd-numbered rows (1-based) have rational entries and
      every even-numbered one is a left combination of the rows above it,
      so that kept and dependent rows interleave.
    """
    kind = draw(st.sampled_from(("rational", "digits", "half rank")))
    n = draw(st.integers(min_value=1, max_value=9))
    if kind == "digits":
        entries = st.builds(Quaternion, *[_integers(draw(st.integers(20, 80)))] * 4)
    else:
        entries = _quaternions
    if kind == "half rank":
        rows = []
        for i in range(n):
            rows.append(_rows(draw, 1, n, entries)[0] if i % 2 == 0
                        else _combination(draw, rows[::2]))
    else:
        rows = _rows(draw, n, n, entries)
    a = Matrix(rows, cols=n)
    return a, Matrix.row(_combination(draw, rows)), Matrix.row(_rows(draw, 1, n, entries)[0])


def _system_example(kind, seed):
    """A 9 x 9 system of each kind, the largest the strategy draws."""
    rng = random.Random(seed)
    digits = 80 if kind == "digits" else None
    if kind == "half rank":
        a = _half_rank(rng, 9, digits)
    else:
        a = Matrix([[_entry(rng, digits) for _ in range(9)] for _ in range(9)], cols=9)
    return (a, Matrix.row(_left_combination(rng, a.cells)),
            Matrix.row([_entry(rng, digits) for _ in range(9)]))


def _threshold_system(pivot):
    """A 3 x 3 system on integral rows whose first two pivots are one and
    whose last is ``pivot``, so that ``D_3 = N(pivot)``, with a left
    combination of its rows and a free row as right-hand sides."""
    zero, one = Quaternion.zero(), Quaternion.one()
    rows = [[one, zero, zero],
            [Quaternion(1, 1), one, zero],
            [Quaternion(2, 0, -1), Quaternion(0, 0, 0, 3), pivot]]
    combination = [Quaternion(1, 0, 1) * rows[0][j] + Quaternion(Fraction(1, 2), 0, 0, -1)
                   * rows[1][j] + Quaternion(0, -2) * rows[2][j] for j in range(3)]
    free = [Quaternion(3, 1), Quaternion(0, Fraction(1, 3), 2), Quaternion(-1, 0, 0, 1)]
    return Matrix(rows, cols=3), Matrix.row(combination), Matrix.row(free)


# D_3 = N(_ROOT) = _WIDE, the largest D_n whose multipliers stay numerators,
# and N(_ROOT + i) = _WIDE + 1, the smallest stored as their right sums
_ROOT = 1 << _WIDE.bit_length() // 2
_AT_WIDE = _threshold_system(Quaternion(_ROOT))
_PAST_WIDE = _threshold_system(Quaternion(_ROOT, 1))


@given(_systems())
@example(_system_example("rational", 1))
@example(_system_example("digits", 2))
@example(_system_example("half rank", 3))
@example(_AT_WIDE)
@example(_PAST_WIDE)
@settings(max_examples=40)
def test_integer_back_substitution_matches_rational(system):
    a, consistent, free = system
    both = Matrix(list(consistent.cells) + list(free.cells), cols=a.cols)
    assert outcome(lib.rc_inverse, a) == outcome(rational_rc_inverse, a)
    assert outcome(lib.solve_nonsingular, a, both) == outcome(rational_solve_nonsingular, a, both)
    report = lib.rc_rank(a)
    for p in range(1, a.rows + 1):
        expected = outcome(rational_row_dependence, a, report, p)
        assert outcome(lib.row_dependence, a, report, p) == expected
    for b in (consistent, free):
        assert outcome(lib.solve_general, a, b) == outcome(rational_solve_general, a, b)


def test_back_substitution_examples_reach_their_cases():
    """The threshold examples above fall on the side their comment says:
    ``_factor`` keeps each multiplier as its four numerators up to ``D_n =
    _WIDE`` and as its eight right sums past it."""
    for (a, _, _), det, width in ((_AT_WIDE, _WIDE, 4), (_PAST_WIDE, _WIDE + 1, 8)):
        factor = _factor(_eliminate_rows(a), a)
        assert factor.dets[-1] == det
        assert {len(m) for column in factor.below for _, m in column} == {width}


@st.composite
def _straddling_systems(draw):
    """An n x n matrix of integer quaternions, n from 2 to 4, with entries
    of up to ``160 / n`` bits, and two right-hand sides as in ``_systems``.
    With ``_WIDE`` at 2^128, ``D_n`` passes it from about ``64 / n`` bits
    per entry and the echelon rows' pivot norms from 16 to 64 bits, so the
    draws fall on both sides of every fork that compares with ``_WIDE``."""
    n = draw(st.integers(min_value=2, max_value=4))
    bound = 1 << draw(st.integers(min_value=1, max_value=160 // n))
    entries = st.builds(Quaternion, *[st.integers(min_value=-bound, max_value=bound)] * 4)
    rows = _rows(draw, n, n, entries)
    free = _rows(draw, 1, n, entries)[0]
    return Matrix(rows, cols=n), Matrix.row(_combination(draw, rows)), Matrix.row(free)


@given(_straddling_systems())
@settings(max_examples=60)
def test_kernel_straddling_the_wide_threshold(system):
    a, consistent, free = system
    both = Matrix(list(consistent.cells) + list(free.cells), cols=a.cols)
    solved = outcome(lib.solve_nonsingular, a, both)
    assert solved == outcome(rational_solve_nonsingular, a, both)
    if solved[0] == "value":
        assert schoolbook_product(solved[1], a) == both
    assert outcome(lib.solve_general, a, consistent) == outcome(rational_solve_general, a, consistent)
