import pytest

from skewlin import (
    DimensionMismatch,
    I,
    J,
    K,
    Matrix,
    Quaternion,
    SingularMatrixError,
    cr_inverse,
    cr_product,
    cr_quasideterminant,
    is_rc_nonsingular,
    parse_matrix,
    rc_inverse,
    rc_inverse_via_quasidet,
    rc_product,
    rc_quasideterminant,
)
from skewlin.sampling import (
    random_nonsingular_matrix,
    random_quaternion,
    random_singular_family_member,
)


def right_inverse_by_column_elimination(a):
    """Independent oracle: eliminate with column operations, i.e. elementary
    matrices multiplying from the right, producing Y with A*Y = identity."""
    n = a.rows
    work = [list(row) for row in a.cells]
    one, zero = Quaternion.one(), Quaternion.zero()
    aug = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for step in range(n):
        pivot = next((c for c in range(step, n) if not work[step][c].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("singular in column elimination")
        if pivot != step:
            for r in range(n):
                work[r][step], work[r][pivot] = work[r][pivot], work[r][step]
                aug[r][step], aug[r][pivot] = aug[r][pivot], aug[r][step]
        factor = work[step][step].inverse()
        for r in range(n):
            work[r][step] = work[r][step] * factor
            aug[r][step] = aug[r][step] * factor
        for c in range(n):
            if c == step or work[step][c].is_zero():
                continue
            lead = work[step][c]
            for r in range(n):
                work[r][c] = work[r][c] - work[r][step] * lead
                aug[r][c] = aug[r][c] - aug[r][step] * lead
    return Matrix(aug)


def test_inverse_of_identity():
    assert rc_inverse(Matrix.identity(3)) == Matrix.identity(3)


def test_example_matrix_is_singular(example_matrix):
    with pytest.raises(SingularMatrixError):
        rc_inverse(example_matrix)
    assert not is_rc_nonsingular(example_matrix)


def test_diagonal_inverse_roundtrip():
    a = parse_matrix("[k, 0; 0, j]")
    inv = rc_inverse(a)
    assert inv == parse_matrix("[-k, 0; 0, -j]")
    assert rc_product(a, inv) == Matrix.identity(2)
    assert rc_product(inv, a) == Matrix.identity(2)


def test_inverse_requires_square():
    with pytest.raises(DimensionMismatch):
        rc_inverse(Matrix.zeros(2, 3))


def test_left_and_right_elimination_agree(rng):
    for n in (1, 2, 3, 4):
        a = random_nonsingular_matrix(rng, n, bound=5)
        assert rc_inverse(a) == right_inverse_by_column_elimination(a)


def test_inverse_roundtrip_random(rng):
    for n in (1, 2, 3):
        a = random_nonsingular_matrix(rng, n, bound=5)
        inv = rc_inverse(a)
        assert rc_product(a, inv) == Matrix.identity(n)
        assert rc_product(inv, a) == Matrix.identity(n)


def test_quasideterminant_of_example(example_matrix):
    assert rc_quasideterminant(example_matrix, 2, 2) == Quaternion.zero()


def test_quasideterminant_base_case():
    a = Matrix([[1 + K]])
    assert rc_quasideterminant(a, 1, 1) == 1 + K


def test_quasideterminant_undefined_on_identity():
    # complementary entry is zero, so the correction term has no inverse
    assert rc_quasideterminant(Matrix.identity(2), 1, 2) is None


def test_quasideterminant_position_checked(example_matrix):
    with pytest.raises(IndexError):
        rc_quasideterminant(example_matrix, 3, 1)
    with pytest.raises(DimensionMismatch):
        rc_quasideterminant(Matrix.zeros(2, 3), 1, 1)


def test_undefined_is_not_singular():
    # invertible matrix with an undefined quasideterminant: the two states
    # are distinct
    swap = parse_matrix("[0, 1; 1, 0]")
    assert is_rc_nonsingular(swap)
    assert rc_quasideterminant(swap, 1, 1) is None


def test_cr_quasideterminant_of_example(example_matrix):
    assert cr_quasideterminant(example_matrix, 1, 1) == 1 + K
    assert cr_quasideterminant(Matrix([[J]]), 1, 1) == J


def test_cr_quasideterminant_against_direct_formula(example_matrix):
    # direct column-then-row evaluation at position (2,2); the value is what
    # exact arithmetic yields, not any transcribed constant
    a = example_matrix
    oracle = a[1, 1] - a[0, 1] * a[0, 0].inverse() * a[1, 0]
    assert cr_quasideterminant(a, 2, 2) == oracle
    assert oracle == Quaternion(0, 0, -2, 0)


def test_duality_on_random_squares(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        a = random_nonsingular_matrix(rng, n, bound=4)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cr_quasideterminant(a, i, j) == rc_quasideterminant(a.transpose(), i, j)


def test_inverse_via_quasidet_requires_square():
    with pytest.raises(DimensionMismatch, match=r"only square matrices invert, got \(2, 3\)"):
        rc_inverse_via_quasidet(Matrix.zeros(2, 3))


def test_inverse_via_quasidet_identity():
    assert rc_inverse_via_quasidet(Matrix.identity(2)) == Matrix.identity(2)


def test_inverse_via_quasidet_diagonal():
    a = parse_matrix("[k, 0; 0, j]")
    assert rc_inverse_via_quasidet(a) == rc_inverse(a)


def test_inverse_via_quasidet_rejects_example(example_matrix):
    with pytest.raises(SingularMatrixError):
        rc_inverse_via_quasidet(example_matrix)


def test_inverse_via_quasidet_rejects_zero_matrix():
    with pytest.raises(SingularMatrixError):
        rc_inverse_via_quasidet(Matrix.zeros(2, 2))


def test_inverse_via_quasidet_agrees_with_elimination(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            a = random_nonsingular_matrix(rng, n, bound=4)
            assert rc_inverse_via_quasidet(a) == rc_inverse(a)


def test_singularity_iff_zero_quasideterminant(rng):
    # over the parametric singular family: whenever the complementary minor
    # is invertible the quasideterminant is defined and must vanish
    for _ in range(20):
        member = random_singular_family_member(rng)
        value = rc_quasideterminant(member, 2, 2)
        if value is not None:
            assert value.is_zero()
    # and on a nonsingular matrix a defined quasideterminant never vanishes
    for _ in range(10):
        a = random_nonsingular_matrix(rng, 3, bound=4)
        for p in (1, 2, 3):
            for r in (1, 2, 3):
                value = rc_quasideterminant(a, p, r)
                if value is not None:
                    assert not value.is_zero()


def test_cr_inverse_roundtrip(rng):
    a = random_nonsingular_matrix(rng, 3, bound=4)
    inv = cr_inverse(a)
    assert cr_product(a, inv) == Matrix.identity(3)
    assert cr_product(inv, a) == Matrix.identity(3)


def test_quasideterminant_inverse_relation(rng):
    # defined quasideterminants are reciprocals of mirrored inverse entries
    a = random_nonsingular_matrix(rng, 3, bound=4)
    inv = rc_inverse(a)
    for p in (1, 2, 3):
        for r in (1, 2, 3):
            value = rc_quasideterminant(a, p, r)
            entry = inv[r - 1, p - 1]
            if value is None:
                assert entry.is_zero()
            else:
                assert entry == value.inverse()


def test_scalar_conjugation_sanity(rng):
    # q a q^{-1} has the same norm; a quick exactness spot check on sampling
    q = random_quaternion(rng, nonzero=True)
    a = random_quaternion(rng)
    assert (q * a * q.inverse()).norm() == a.norm()
