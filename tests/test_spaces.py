import pytest

from skewlin import (
    BasisModel,
    DimensionMismatch,
    I,
    J,
    K,
    Matrix,
    Quaternion,
    SingularMatrixError,
    cr_product,
    cr_quasideterminant,
    expand_in_basis,
    is_automorphism,
    is_independent,
    is_rc_nonsingular,
    rc_inverse,
    rc_product,
    rc_quasideterminant,
    transpose,
)
from skewlin.sampling import random_matrix, random_nonsingular_matrix, random_quaternion, random_row


def test_expand_in_standard_basis(rng):
    v = random_row(rng, 3)
    assert expand_in_basis(v, BasisModel(Matrix.identity(3))) == v


def test_expand_in_shifted_basis(example_matrix):
    basis = BasisModel(
        Matrix([example_matrix.row_entries(1), (Quaternion(0), Quaternion(1))])
    )
    assert is_independent(basis.matrix)
    v = Matrix.row(example_matrix.row_entries(1))
    coords = expand_in_basis(v, basis)
    assert coords == Matrix.row([Quaternion(1), Quaternion(0)])
    assert rc_product(coords, basis.matrix) == v


def test_dependent_rows_are_not_a_basis(example_matrix):
    with pytest.raises(SingularMatrixError):
        expand_in_basis(Matrix.row([K, -I]), BasisModel(example_matrix))
    assert not is_independent(BasisModel(example_matrix).matrix)


def test_non_square_rows_are_not_a_basis():
    # two independent rows in 3-space span a plane, not the space
    one, zero = Quaternion.one(), Quaternion.zero()
    plane = BasisModel(Matrix([[one, zero, zero], [zero, one, zero]]))
    assert is_independent(plane.matrix)
    with pytest.raises(DimensionMismatch, match=r"^only square matrices invert, got \(2, 3\)$"):
        expand_in_basis(Matrix.row([one, one, zero]), plane)


def test_expansion_needs_a_row_of_the_basis_width():
    message = r"^rc product needs \(1, 2\) x \(3, 3\) inner match$"
    with pytest.raises(DimensionMismatch, match=message):
        expand_in_basis(Matrix.row([I, J]), BasisModel(Matrix.identity(3)))


def test_expansion_uniqueness(rng):
    e = random_nonsingular_matrix(rng, 3, bound=3)
    v = random_row(rng, 3, bound=3)
    x = expand_in_basis(v, BasisModel(e))
    assert rc_product(x, e) == v
    # any solution equals x because e is invertible
    assert rc_product(v, rc_inverse(e)) == x


def test_coordinate_isomorphism(rng):
    basis = BasisModel(random_nonsingular_matrix(rng, 3, bound=3))
    u = random_row(rng, 3, bound=3)
    v = random_row(rng, 3, bound=3)
    s = random_quaternion(rng, bound=3)
    assert expand_in_basis(u + v, basis) == expand_in_basis(u, basis) + expand_in_basis(v, basis)
    assert expand_in_basis(u.scale_left(s), basis) == expand_in_basis(u, basis).scale_left(s)


def test_is_independent(example_matrix):
    assert is_independent(Matrix.identity(3))
    assert not is_independent(example_matrix)
    assert is_independent(Matrix.row([K, Quaternion.zero()]))


def test_apply_map_identity(rng):
    a = random_row(rng, 2)
    assert rc_product(a, Matrix.identity(2)) == a


def test_apply_map_chain():
    a = Matrix([[Quaternion(1)]])
    b = rc_product(rc_product(a, Matrix([[I]])), Matrix([[J]]))
    assert b == Matrix([[K]])


def test_left_scalar_compatibility(rng):
    for _ in range(10):
        s = random_quaternion(rng, bound=3)
        a = random_row(rng, 2, bound=3)
        h = random_matrix(rng, 2, 3, bound=3)
        assert rc_product(a.scale_left(s), h) == rc_product(a, h).scale_left(s)


def test_compose_maps(rng):
    b = random_matrix(rng, 2, 3)
    assert rc_product(Matrix.identity(2), b) == b
    assert rc_product(Matrix([[I]]), Matrix([[J]])) == Matrix([[K]])
    a = random_row(rng, 2, bound=3)
    f = random_matrix(rng, 2, 2, bound=3)
    g = random_matrix(rng, 2, 2, bound=3)
    assert rc_product(a, rc_product(f, g)) == rc_product(rc_product(a, f), g)


def test_composition_associative(rng):
    a = random_matrix(rng, 2, 2, bound=3)
    b = random_matrix(rng, 2, 2, bound=3)
    c = random_matrix(rng, 2, 2, bound=3)
    assert rc_product(rc_product(a, b), c) == rc_product(a, rc_product(b, c))


def test_is_automorphism(example_matrix):
    assert is_automorphism(Matrix.identity(2))
    assert not is_automorphism(example_matrix)
    assert is_automorphism(Matrix([[K, Quaternion.zero()], [Quaternion.zero(), J]]))
    assert not is_automorphism(Matrix.zeros(2, 3))


def test_automorphism_group_closure(rng):
    a = random_nonsingular_matrix(rng, 2, bound=3)
    b = random_nonsingular_matrix(rng, 2, bound=3)
    assert is_automorphism(rc_product(a, b))
    assert is_automorphism(rc_inverse(a))


def test_dualize_transports_identity_law(example_matrix):
    # the mirrored form of "A times the unit is A" holds under the other product
    dual = transpose(example_matrix)
    assert cr_product(dual, Matrix.identity(2)) == dual
    assert cr_product(Matrix.identity(2), dual) == dual


def test_dualize_matches_quasideterminants(example_matrix):
    assert cr_quasideterminant(example_matrix, 1, 1) == rc_quasideterminant(
        transpose(example_matrix), 1, 1
    )


def test_dualize_involution(rng):
    a = random_matrix(rng, 2, 3)
    assert transpose(transpose(a)) == a


def test_square_independent_set_is_nonsingular(rng):
    # a spanning independent set has full-rank square coordinate matrix
    e = random_nonsingular_matrix(rng, 3, bound=3)
    assert is_independent(e)
    assert is_rc_nonsingular(e)


def test_basis_size_invariance_desk_scale(rng):
    for n in (1, 2, 3, 4, 5):
        overfull = random_matrix(rng, n + 1, n, bound=2)
        assert not is_independent(overfull)
