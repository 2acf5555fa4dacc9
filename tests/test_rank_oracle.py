"""The elimination-pass rank and solver against the literal definition.

``oracle_rc_rank`` and ``oracle_solve_general`` are the original brute-force
implementations, kept verbatim (apart from their names) as the definition:
the major minor is the first nonsingular minor in size-descending,
lexicographic order, and consistency is the rank criterion on the extended
matrix.  The library must report the same minor, the same rank under both
products and the same solution sets on every case.
"""

import random
from functools import lru_cache
from itertools import combinations

import pytest

import skewlin as lib
from skewlin import (
    IndexSelection,
    Matrix,
    Quaternion,
    RankReport,
    SingularMatrixError,
    SolutionSet,
    extended_matrix,
    is_rc_nonsingular,
    rc_product,
    row_dependence,
    solve_nonsingular,
)
from skewlin.sampling import (
    random_matrix,
    random_quaternion,
    random_rank_deficient_stack,
    random_row,
)

# -- the oracle ----------------------------------------------------------------


@lru_cache(maxsize=None)
def oracle_rc_rank(a):
    """Rank and major minor under the row-times-column product."""
    for k in range(min(a.rows, a.cols), 0, -1):
        for rows in combinations(range(1, a.rows + 1), k):
            for cols in combinations(range(1, a.cols + 1), k):
                if is_rc_nonsingular(a.minor(rows, cols)):
                    return RankReport(k, IndexSelection(rows, cols))
    return RankReport(0, None)


def oracle_cr_rank(a):
    report = oracle_rc_rank(a.transpose())
    if report.minor is None:
        return report
    return RankReport(report.rank, IndexSelection(report.minor.cols, report.minor.rows))


def oracle_solve_general(a, b):
    """Solve ``x * a = b`` for an arbitrary m x n matrix ``a`` and 1 x n row
    ``b``.  Consistency is decided by the rank criterion: the system has a
    solution iff ``a`` and the extended matrix have equal rank."""
    report = oracle_rc_rank(a)
    k = report.rank
    row_set = report.minor.rows if report.minor else ()
    col_set = report.minor.cols if report.minor else ()
    free = tuple(p for p in range(1, a.rows + 1) if p not in row_set)

    basis = []
    for p in free:
        coeffs = row_dependence(a, report, p)
        entries = [a.field.zero()] * a.rows
        entries[p - 1] = a.field.one()
        for idx, s in enumerate(row_set):
            entries[s - 1] = -coeffs[0, idx]
        basis.append(Matrix.row(entries, field=a.field))

    consistent = oracle_rc_rank(extended_matrix(a, b)).rank == k
    if not consistent:
        return SolutionSet(False, None, tuple(basis), free)

    if k == 0:
        particular = Matrix.zeros(1, a.rows, field=a.field)
    else:
        core = a.minor(row_set, col_set)
        rhs = Matrix.row([b[0, t - 1] for t in col_set], field=a.field)
        core_solution = solve_nonsingular(core, rhs)
        entries = [a.field.zero()] * a.rows
        for idx, s in enumerate(row_set):
            entries[s - 1] = core_solution[0, idx]
        particular = Matrix.row(entries, field=a.field)
    # Columns outside the core are satisfied automatically (they are right
    # combinations of the core columns of the extended matrix); guard anyway.
    if rc_product(particular, a) != b:
        raise SingularMatrixError("internal: core solution fails on a non-core column")
    return SolutionSet(True, particular, tuple(basis), free)


# -- cases -----------------------------------------------------------------------

SHAPES = [(m, n) for m in range(6) for n in range(6)]


def _sparse(rng, rows, cols):
    zero = Quaternion.zero()
    dense = random_matrix(rng, rows, cols, bound=3)
    return Matrix(
        [[e if rng.random() < 0.5 else zero for e in row] for row in dense.cells],
        cols=cols,
    )


def _cases(m, n):
    rng = random.Random(1000 * m + n)
    cases = [random_rank_deficient_stack(rng, m, n, r) for r in range(min(m, n) + 1)]
    cases += [_sparse(rng, m, n), _sparse(rng, m, n), Matrix.zeros(m, n)]
    return cases


def _family_cases():
    rng = random.Random(77)
    zero = Quaternion.zero()
    cases = []
    for family in (lib.rc_singular_family, lib.cr_singular_family):
        for _ in range(6):
            cases.append(family(*(random_quaternion(rng, bound=4) for _ in range(3))))
        cases.append(family(zero, zero, random_quaternion(rng, bound=4, nonzero=True)))
        cases.append(family(random_quaternion(rng, bound=4), zero, zero))
    return cases


def _right_hand_sides(rng, a, report):
    """One consistent row ``t * a`` and, when the rank is below the width,
    one inconsistent row: adding the unit row of a non-pivot column leaves
    the row span, whose members are fixed by their pivot entries."""
    consistent = rc_product(random_row(rng, a.rows, bound=3), a)
    pivots = report.minor.cols if report.minor else ()
    outside = [j for j in range(a.cols) if j + 1 not in pivots]
    if not outside:
        return [consistent]
    unit = [Quaternion.zero()] * a.cols
    unit[outside[0]] = Quaternion.one()
    return [consistent, consistent + Matrix.row(unit)]


def _check_against_oracle(a, rng):
    expected = oracle_rc_rank(a)
    report = lib.rc_rank(a)
    assert report == expected, a
    assert lib.cr_rank(a) == oracle_cr_rank(a), a
    assert lib.is_independent(a) == (expected.rank == a.rows)
    rows = expected.minor.rows if expected.minor else ()
    for p in range(1, a.rows + 1):
        if p not in rows:
            assert row_dependence(a, report, p) == row_dependence(a, expected, p)
    rhs = _right_hand_sides(rng, a, expected)
    for b in rhs:
        assert lib.solve_general(a, b) == oracle_solve_general(a, b), (a, b)
    if len(rhs) == 2:
        assert not oracle_solve_general(a, rhs[1]).consistent


@pytest.mark.parametrize("m,n", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
def test_rank_and_solver_match_oracle(m, n):
    rng = random.Random(7 * m + n)
    for a in _cases(m, n):
        _check_against_oracle(a, rng)
        _check_against_oracle(a.transpose(), rng)


def test_singular_families_match_oracle():
    rng = random.Random(5)
    for a in _family_cases():
        _check_against_oracle(a, rng)
        _check_against_oracle(a.transpose(), rng)


def test_large_rank_deficient_structure():
    # too large for the oracle: check what the report and solution promise
    rng = random.Random(2020)
    a = random_rank_deficient_stack(rng, 20, 20, 10)
    report = lib.rc_rank(a)
    assert report.rank == 10
    sel = report.minor
    assert is_rc_nonsingular(a.minor(sel.rows, sel.cols))
    core_rows = Matrix([a.row_entries(s) for s in sel.rows])
    for p in range(1, 21):
        if p in sel.rows:
            continue
        coeff = row_dependence(a, report, p)
        assert rc_product(coeff, core_rows) == Matrix.row(a.row_entries(p))
    consistent, inconsistent = _right_hand_sides(rng, a, report)
    solution = lib.solve_general(a, consistent)
    assert solution.consistent
    assert rc_product(solution.particular, a) == consistent
    assert len(solution.homogeneous_basis) == 10
    assert all(rc_product(h, a).is_zero() for h in solution.homogeneous_basis)
    assert not lib.solve_general(a, inconsistent).consistent
