from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewlin import (
    DimensionMismatch,
    I,
    J,
    K,
    Matrix,
    ParseError,
    Quaternion,
    cr_product,
    extended_matrix,
    format_matrix,
    parse_matrix,
    rc_product,
    rc_quasideterminant,
)
from skewlin.sampling import random_matrix

# Integer numerators over one shared denominator: every rational in [-4, 4]
# with denominator 1, 2, 3 or 4 is reachable, and drawing one integer keeps
# example generation inside Hypothesis's time budget (st.fractions made
# test_cr_associativity fail the too_slow health check intermittently).
rationals = st.integers(min_value=-48, max_value=48).map(lambda n: Fraction(n, 12))
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


def matrices(rows, cols):
    return st.lists(
        st.lists(quaternions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


def test_rc_product_1x1():
    assert rc_product(Matrix([[I]]), Matrix([[J]])) == Matrix([[K]])


def test_identity_is_two_sided_rc_unit(example_matrix):
    delta = Matrix.identity(2)
    assert rc_product(example_matrix, delta) == example_matrix
    assert rc_product(delta, example_matrix) == example_matrix
    assert rc_product(delta, delta) == delta


def test_left_dependent_row_annihilates(example_matrix):
    # second display row of the example equals (1+k) times the first
    row = Matrix.row([1 + K, Quaternion(-1)])
    assert rc_product(row, example_matrix) == Matrix.zeros(1, 2)


def test_cr_product_1x1():
    assert cr_product(Matrix([[I]]), Matrix([[J]])) == Matrix([[K]])


def test_cr_unit_selector_reads_display_column(example_matrix):
    selector = Matrix.column([Quaternion(1), Quaternion(0)])
    picked = cr_product(selector, example_matrix)
    assert picked == Matrix.column(example_matrix.column_entries(1))


def test_cr_identity_two_sided(example_matrix):
    delta = Matrix.identity(2)
    assert cr_product(example_matrix, delta) == example_matrix
    assert cr_product(delta, example_matrix) == example_matrix


def test_transpose_of_example(example_matrix):
    assert example_matrix.transpose() == parse_matrix("[k, -1+k; -i, -i-j]")


def test_extended_matrix_appends_rhs_row(example_matrix):
    zero_row = Matrix.zeros(1, 2)
    ext = extended_matrix(example_matrix, zero_row)
    assert ext.shape == (3, 2)
    assert ext.row_entries(3) == (Quaternion.zero(), Quaternion.zero())
    with pytest.raises(DimensionMismatch):
        extended_matrix(example_matrix, Matrix.zeros(1, 3))


def test_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        rc_product(Matrix.zeros(2, 3), Matrix.zeros(2, 3))
    with pytest.raises(DimensionMismatch):
        cr_product(Matrix.zeros(3, 1), Matrix.zeros(2, 2))
    with pytest.raises(DimensionMismatch):
        Matrix([[I], [J, K]])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Matrix([[I, J]], cols=3), "declared 3 columns, rows have 2"),
        (lambda: Matrix.zeros(2, 3) + Matrix.zeros(3, 2), r"cannot add \(2, 3\) and \(3, 2\)"),
        (lambda: Matrix.zeros(2, 3) - Matrix.zeros(2, 2), r"cannot add \(2, 3\) and \(2, 2\)"),
    ],
    ids=["declared-cols", "add", "sub"],
)
def test_shapes_must_agree(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Matrix([I, J]),
        lambda: Matrix.row(I),
        lambda: Matrix.column(I),
        lambda: Matrix([[1, 2]]),
        lambda: Matrix([[Fraction(1, 2)]]),
    ],
    ids=["flat-entries", "row-of-a-quaternion", "column-of-a-quaternion", "ints", "fraction"],
)
def test_entries_must_be_quaternions(build):
    # a quaternion is a tuple, so a flat list of them must not pass for rows
    with pytest.raises(TypeError, match="matrix entries must be quaternions"):
        build()


def test_empty_matrix_products():
    empty = Matrix([])
    assert rc_product(empty, empty) == empty
    wide = rc_product(Matrix.zeros(0, 3), Matrix.zeros(3, 2))
    assert wide.shape == (0, 2)
    # inner dimension zero contracts to a zero-filled matrix
    collapsed = rc_product(Matrix.zeros(2, 0), Matrix.zeros(0, 3))
    assert collapsed == Matrix.zeros(2, 3)
    # no columns on the right keeps the left factor's rows, each empty
    narrow = rc_product(Matrix.identity(2), Matrix.zeros(2, 0))
    assert narrow == Matrix.zeros(2, 0)


def test_minor_and_indexing(example_matrix):
    assert example_matrix.minor((2,), (1,)) == parse_matrix("[-1+k]")
    assert example_matrix.without(1, 1) == parse_matrix("[-i-j]")
    with pytest.raises(IndexError):
        example_matrix.minor((3,), (1,))
    with pytest.raises(IndexError):
        example_matrix.row_entries(0)


@pytest.mark.parametrize(
    "access",
    [
        lambda a: a.row_entries(True),
        lambda a: a.column_entries(True),
        lambda a: a.minor((True,), (1,)),
        lambda a: a.minor((1,), (2.0,)),
        lambda a: a.without(1, True),
        lambda a: rc_quasideterminant(a, True, True),
    ],
    ids=["row-bool", "column-bool", "minor-bool", "minor-float", "without-bool", "qdet-bool"],
)
def test_non_integer_indices_are_rejected(example_matrix, access):
    # bool is an int subclass, so True would otherwise pass for index 1
    with pytest.raises(IndexError, match="index (True|2.0) out of range"):
        access(example_matrix)


@pytest.mark.parametrize(
    "operation", [lambda m: m + 1, lambda m: m - 1], ids=["add-int", "sub-int"]
)
def test_matrix_arithmetic_takes_only_matrices(operation):
    with pytest.raises(TypeError):
        operation(Matrix.identity(1))


def test_repr_shows_the_text_form():
    assert repr(Matrix.identity(2)) == "Matrix('[1, 0; 0, 1]')"


def test_scalar_action_is_entrywise_left(example_matrix):
    scaled = example_matrix.scale_left(K)
    assert scaled[0, 0] == K * example_matrix[0, 0]
    assert scaled[1, 1] == K * example_matrix[1, 1]


@given(matrices(2, 2), matrices(2, 3), matrices(3, 2))
@settings(max_examples=40)
def test_rc_associativity(a, b, c):
    assert rc_product(rc_product(a, b), c) == rc_product(a, rc_product(b, c))


@given(matrices(2, 3), matrices(4, 2), matrices(2, 4))
@settings(max_examples=40)
def test_cr_associativity(a, b, c):
    assert cr_product(cr_product(a, b), c) == cr_product(a, cr_product(b, c))


@given(matrices(3, 2), matrices(4, 3))
@settings(max_examples=40)
def test_duality_functor_relates_products(a, b):
    assert cr_product(a, b) == rc_product(a.transpose(), b.transpose()).transpose()


@given(matrices(2, 3))
@settings(max_examples=40)
def test_transpose_involution(a):
    assert a.transpose().transpose() == a


def test_cr_entry_formula(rng):
    # elementwise oracle from the expanded star-rows display
    a = random_matrix(rng, 3, 2, bound=4)
    b = random_matrix(rng, 2, 3, bound=4)
    c = cr_product(a, b)
    for i in range(2):
        for j in range(2):
            total = Quaternion.zero()
            for k in range(3):
                total = total + a[k, j] * b[i, k]
            assert c[i, j] == total


def test_parse_format_roundtrip(rng):
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=5)
        assert parse_matrix(format_matrix(m)) == m
    assert parse_matrix("[]") == Matrix([])
    assert format_matrix(Matrix([])) == "[]"


@pytest.mark.parametrize("bad", ["", "k", "[k", "k]", "[k;;k]", "[k,;i]"])
def test_matrix_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_matrix(bad)


@pytest.mark.parametrize(
    "build,size",
    [
        (lambda: Matrix([], cols=-1), "column count must be nonnegative, got -1"),
        (lambda: Matrix.zeros(-2, 3), "row count must be nonnegative, got -2"),
        (lambda: Matrix.zeros(2, -3), "column count must be nonnegative, got -3"),
        (lambda: Matrix.identity(-1), "row count must be nonnegative, got -1"),
    ],
    ids=["cols", "zeros-rows", "zeros-cols", "identity"],
)
def test_negative_sizes_are_rejected(build, size):
    with pytest.raises(ValueError, match=size):
        build()


@pytest.mark.parametrize(
    "build,size",
    [
        (lambda: Matrix([], cols=2.0), "column count must be an integer, got 2.0"),
        (lambda: Matrix([], cols=True), "column count must be an integer, got True"),
        (lambda: Matrix.identity(2.5), "row count must be an integer, got 2.5"),
        (lambda: Matrix.zeros(True, 2), "row count must be an integer, got True"),
    ],
    ids=["cols-float", "cols-bool", "identity-float", "zeros-bool"],
)
def test_non_integer_sizes_are_rejected(build, size):
    with pytest.raises(TypeError, match=size):
        build()


@pytest.mark.parametrize(
    "build,shape",
    [
        (lambda: Matrix.zeros(0, 3) + Matrix.zeros(0, 3), (0, 3)),
        (lambda: Matrix.zeros(0, 3) - Matrix.zeros(0, 3), (0, 3)),
        (lambda: -Matrix.zeros(0, 3), (0, 3)),
        (lambda: Matrix.zeros(0, 3).scale_left(I), (0, 3)),
        (lambda: parse_matrix("[1, i, j]").without(1, 1), (0, 2)),
        (lambda: Matrix.column([]), (0, 1)),
    ],
    ids=["add", "sub", "neg", "scale_left", "without", "column"],
)
def test_zero_row_results_keep_their_width(build, shape):
    # with no rows the cell grid cannot carry the width, so each operation
    # must pass it on
    assert build().shape == shape
