from fractions import Fraction

import pytest

from skewlin import (
    I,
    IndexSelection,
    J,
    K,
    InvalidRowError,
    Matrix,
    Quaternion,
    RankReport,
    SingularMatrixError,
    cr_rank,
    cr_singular_family,
    extended_matrix,
    rc_product,
    rc_rank,
    rc_singular_family,
    row_dependence,
    solve_general,
    solve_nonsingular,
)
from skewlin.sampling import (
    random_matrix,
    random_nonsingular_matrix,
    random_quaternion,
    random_rank_deficient_stack,
    random_row,
    random_singular_matrix,
)


def test_rank_of_example(example_matrix):
    report = rc_rank(example_matrix)
    assert report.rank == 1
    assert report.minor.rows == (1,)
    assert report.minor.cols == (1,)


def test_rank_of_identity_and_zero():
    assert rc_rank(Matrix.identity(3)).rank == 3
    zero_report = rc_rank(Matrix.zeros(2, 2))
    assert zero_report.rank == 0
    assert zero_report.minor is None


def test_cr_rank_of_example(example_matrix):
    # the two singularity notions disagree on this matrix
    assert cr_rank(example_matrix).rank == 2
    assert rc_rank(example_matrix).rank == 1


def test_cr_rank_basics():
    assert cr_rank(Matrix.identity(2)).rank == 2
    assert cr_rank(Matrix.zeros(2, 3)).rank == 0


def test_rank_bounded_by_shape(rng):
    a = random_matrix(rng, 2, 4, bound=4)
    assert rc_rank(a).rank <= 2


def test_row_dependence_on_example(example_matrix):
    report = rc_rank(example_matrix)
    coeff = row_dependence(example_matrix, report, 2)
    assert coeff == Matrix.row([1 + K])
    rebuilt = rc_product(coeff, example_matrix.minor((1,), (1, 2)))
    assert rebuilt == Matrix.row(example_matrix.row_entries(2))


def test_row_dependence_duplicate_rows():
    row = [K, -I]
    a = Matrix([row, row])
    report = rc_rank(a)
    assert report.rank == 1
    coeff = row_dependence(a, report, 2)
    assert coeff == Matrix.row([Quaternion(1)])


def test_row_dependence_sum_of_rows():
    # two fixed left-independent rows: row 3 is their sum
    r1 = Matrix.row([Quaternion(1, 2), Quaternion(0, 0, 1, -1)])
    r2 = Matrix.row([Quaternion(0, 0, 3), Quaternion(Fraction(1, 2), 1)])
    a = Matrix([r1.cells[0], r2.cells[0], (r1 + r2).cells[0]])
    report = rc_rank(a)
    assert report == RankReport(2, IndexSelection((1, 2), (1, 2)))
    coeff = row_dependence(a, report, 3)
    assert coeff == Matrix.row([Quaternion(1), Quaternion(1)])


def test_row_dependence_rejects_minor_rows(example_matrix):
    report = rc_rank(example_matrix)
    with pytest.raises(InvalidRowError):
        row_dependence(example_matrix, report, 1)


@pytest.mark.parametrize("p", [0, 4])
def test_row_dependence_checks_the_row_index(p):
    # row 2 is twice row 1, so the major minor takes rows 1 and 3
    a = Matrix([[Quaternion(1), I], [Quaternion(2), 2 * I], [J, K]])
    report = rc_rank(a)
    assert report.minor.rows == (1, 3)
    with pytest.raises(IndexError, match=f"row index {p} out of range 1..3"):
        row_dependence(a, report, p)
    with pytest.raises(IndexError, match=f"row index {p} out of range 1..3"):
        row_dependence(Matrix.zeros(3, 2), rc_rank(Matrix.zeros(3, 2)), p)


@pytest.mark.parametrize(
    "rows,cols",
    [
        ((True,), (1,)),
        ((1,), (True,)),
        ((1.5,), (1,)),
        ((1, 2), (1, 2.0)),
        ((2, 1), (1, 2)),
    ],
)
def test_index_selection_takes_only_int_indices(rows, cols):
    with pytest.raises(ValueError, match="indices must be distinct 1-based naturals"):
        IndexSelection(rows, cols)


def test_index_selection_sets_have_equal_size():
    with pytest.raises(ValueError, match="row and column sets must have equal size"):
        IndexSelection((1, 2), (1,))


def test_row_reconstruction_spans_all_columns(rng):
    # reconstruction must hold on every column, not just those of the minor
    for _ in range(10):
        a = random_rank_deficient_stack(rng, rows=4, cols=3, seed_count=2)
        report = rc_rank(a)
        assert report.rank < 4
        rows = report.minor.rows if report.minor else ()
        core_rows = Matrix([a.row_entries(s) for s in rows], cols=a.cols)
        for p in range(1, 5):
            if p in rows:
                continue
            coeff = row_dependence(a, report, p)
            assert rc_product(coeff, core_rows) == Matrix.row(a.row_entries(p))


def test_dependence_corollary_nonzero_annihilator(rng):
    # rank below row count yields a nonzero left annihilator
    a = random_rank_deficient_stack(rng, rows=3, cols=3, seed_count=2)
    report = rc_rank(a)
    assert report.rank < 3
    p = next(i for i in range(1, 4) if report.minor is None or i not in report.minor.rows)
    coeff = row_dependence(a, report, p)
    entries = [Quaternion.zero()] * 3
    entries[p - 1] = Quaternion(-1)
    for idx, s in enumerate(report.minor.rows if report.minor else ()):
        entries[s - 1] = coeff[0, idx]
    annihilator = Matrix.row(entries)
    assert not annihilator.is_zero()
    assert rc_product(annihilator, a).is_zero()


def test_solve_nonsingular_identity(rng):
    b = random_row(rng, 3)
    assert solve_nonsingular(Matrix.identity(3), b) == b


def test_solve_nonsingular_1x1():
    x = solve_nonsingular(Matrix([[K]]), Matrix([[J]]))
    assert x == Matrix([[-I]])
    assert rc_product(x, Matrix([[K]])) == Matrix([[J]])


def test_solve_nonsingular_rejects_example(example_matrix):
    with pytest.raises(SingularMatrixError):
        solve_nonsingular(example_matrix, Matrix.row([K, -I]))


def test_solve_general_on_example(example_matrix):
    b = Matrix.row(example_matrix.row_entries(1))
    solution = solve_general(example_matrix, b)
    assert solution.consistent
    assert solution.particular == Matrix.row([Quaternion(1), Quaternion(0)])
    assert solution.free_variables == (2,)
    assert len(solution.homogeneous_basis) == 1
    h = solution.homogeneous_basis[0]
    assert h == Matrix.row([-1 - K, Quaternion(1)])
    assert rc_product(h, example_matrix).is_zero()


def test_solve_general_inconsistent(example_matrix):
    b = Matrix.row([Quaternion(1), Quaternion(0)])
    assert rc_rank(extended_matrix(example_matrix, b)).rank == 2
    solution = solve_general(example_matrix, b)
    assert not solution.consistent
    assert solution.particular is None
    assert len(solution.homogeneous_basis) == 1  # homogeneous part survives


def test_solve_general_nonsingular_system(rng):
    b = random_row(rng, 2)
    solution = solve_general(Matrix.identity(2), b)
    assert solution.consistent
    assert solution.particular == b
    assert solution.homogeneous_basis == ()
    assert solution.free_variables == ()


def test_solver_soundness_with_combinations(rng):
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(rng, m, n, bound=3)
        t = random_row(rng, m, bound=3)
        b = rc_product(t, a)  # consistent by construction
        solution = solve_general(a, b)
        assert solution.consistent
        assert rc_product(solution.particular, a) == b
        combo = solution.particular
        for h in solution.homogeneous_basis:
            combo = combo + h.scale_left(random_quaternion(rng, bound=3))
        assert rc_product(combo, a) == b
        assert len(solution.homogeneous_basis) == m - rc_rank(a).rank


def test_homogeneous_solutions_closed_under_left_action(rng):
    a = random_rank_deficient_stack(rng, rows=3, cols=2, seed_count=1)
    zero = Matrix.zeros(1, 2)
    solution = solve_general(a, zero)
    assert solution.consistent
    xs = solution.homogeneous_basis
    assert xs
    x, y = xs[0], xs[-1]
    s = random_quaternion(rng)
    assert rc_product(x + y, a).is_zero()
    assert rc_product(x.scale_left(s), a).is_zero()


def test_singular_family_reproduces_example(example_matrix):
    assert rc_singular_family(1 + K, J, K) == example_matrix


def test_singular_family_degenerate_parameters():
    d = 3 + K
    assert rc_singular_family(Quaternion.zero(), Quaternion.zero(), d) == Matrix(
        [[d, Quaternion.zero()], [Quaternion.zero(), Quaternion.zero()]]
    )


def test_singular_families_have_low_rank(rng):
    for _ in range(10):
        b, c, d = (random_quaternion(rng, bound=4) for _ in range(3))
        assert rc_rank(rc_singular_family(b, c, d)).rank <= 1
        assert cr_rank(cr_singular_family(b, c, d)).rank <= 1


def test_singular_product_biconditional(rng):
    for _ in range(20):
        n = rng.randint(2, 3)
        a = (
            random_nonsingular_matrix(rng, n, bound=3)
            if rng.random() < 0.5
            else random_singular_matrix(rng, n)
        )
        b = (
            random_nonsingular_matrix(rng, n, bound=3)
            if rng.random() < 0.5
            else random_singular_matrix(rng, n)
        )
        product_singular = rc_rank(rc_product(a, b)).rank < n
        either_singular = rc_rank(a).rank < n or rc_rank(b).rank < n
        assert product_singular == either_singular


def test_too_many_rows_are_dependent(rng):
    # more rows than the width permits can never be independent
    for n in (1, 2, 3):
        a = random_matrix(rng, n + 1, n, bound=3)
        assert rc_rank(a).rank <= n


def test_cr_rank_minor_sets_refer_to_original_grid():
    # on the transposed grid the minor is rows {3} x cols {1}; swapped back it
    # must name row 1 and column 3 of the matrix itself
    a = Matrix([[Quaternion.zero(), Quaternion.zero(), K],
                [Quaternion.zero(), Quaternion.zero(), J]])
    report = cr_rank(a)
    assert report.rank == 1
    assert report.minor.rows == (1,)
    assert report.minor.cols == (3,)
