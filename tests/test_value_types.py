"""The value types of the linear-algebra core: ``Matrix``, ``IndexSelection``,
``RankReport``, ``SolutionSet`` and ``BasisModel``.  They were frozen
dataclasses; these tests pin what that gave them: equality, hashing, the
repr, immutability with ``FrozenInstanceError``, and pickle and copy round
trips, besides ``IndexSelection``'s checks on every way to build one."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from skewlin import (
    BasisModel,
    IndexSelection,
    Matrix,
    RankReport,
    parse_matrix,
    rc_rank,
    solve_general,
)

DEPENDENT = parse_matrix("[1, i; 2, 2i]")


def examples():
    """Instances of each type, a 0 x 3 matrix among them, each with its
    repr as the dataclasses printed it.  Every call builds new objects."""
    solvable = solve_general(parse_matrix("[1, i; 2, 2i]"), parse_matrix("[3, 3i]"))
    return [
        (parse_matrix("[1, i; 2, 2i]"), "Matrix('[1, i; 2, 2i]')"),
        (Matrix([], cols=3), "Matrix('[]')"),
        (IndexSelection([1, 3], (2, 4)), "IndexSelection(rows=(1, 3), cols=(2, 4))"),
        (rc_rank(DEPENDENT),
         "RankReport(rank=1, minor=IndexSelection(rows=(1,), cols=(1,)))"),
        (rc_rank(parse_matrix("[0, 0]")), "RankReport(rank=0, minor=None)"),
        (solvable,
         "SolutionSet(consistent=True, particular=Matrix('[3, 0]'), "
         "homogeneous_basis=(Matrix('[-2, 1]'),), free_variables=(2,))"),
        (solve_general(DEPENDENT, parse_matrix("[1, 0]")),
         "SolutionSet(consistent=False, particular=None, "
         "homogeneous_basis=(Matrix('[-2, 1]'),), free_variables=(2,))"),
        (BasisModel(Matrix.identity(2)), "BasisModel(matrix=Matrix('[1, 0; 0, 1]'))"),
    ]


EXAMPLES = examples()
VALUES = [value for value, _ in EXAMPLES]
TWINS = [value for value, _ in examples()]


@pytest.mark.parametrize("value,text", EXAMPLES)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,twin", zip(VALUES, TWINS))
def test_equal_values_are_equal_and_hash_alike(value, twin):
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


def test_matrices_differ_by_entries_shape_and_type():
    assert Matrix([], cols=2) != Matrix([], cols=3)
    assert Matrix([], cols=0) != Matrix.zeros(2, 0)
    assert DEPENDENT != parse_matrix("[1, i; 2, 2j]")
    assert DEPENDENT != DEPENDENT.cells
    assert DEPENDENT != "[1, i; 2, 2i]"
    assert Matrix.__eq__(DEPENDENT, DEPENDENT.cells) is NotImplemented


def test_records_differ_by_any_field_and_from_other_types():
    selection = IndexSelection((1,), (1,))
    assert selection != IndexSelection((1,), (2,))
    assert RankReport(1, selection) != RankReport(2, selection)
    assert RankReport(1, selection) != RankReport(1, IndexSelection((2,), (1,)))
    basis = BasisModel(Matrix.identity(2))
    assert basis != BasisModel(Matrix.identity(3))
    assert basis != Matrix.identity(2)
    solution = solve_general(DEPENDENT, parse_matrix("[3, 3i]"))
    assert solution != solve_general(DEPENDENT, parse_matrix("[1, 0]"))
    for value in VALUES:
        assert value != object() and value != 1


@pytest.mark.parametrize("value", VALUES)
def test_values_are_frozen(value):
    before = repr(value)
    for attribute in ("cols", "rank", "matrix", "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{attribute}'"):
            setattr(value, attribute, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{attribute}'"):
            delattr(value, attribute)
    assert repr(value) == before


@pytest.mark.parametrize("value", VALUES)
def test_pickle_and_copy_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_zero_row_matrix_keeps_its_width_through_pickle_and_copy():
    empty = Matrix([], cols=3)
    for twin in (pickle.loads(pickle.dumps(empty)), copy.copy(empty), copy.deepcopy(empty)):
        assert twin.shape == (0, 3)


def test_index_selection_holds_tuples():
    selection = IndexSelection([1, 3], iter([2, 4]))
    assert selection.rows == (1, 3) and selection.cols == (2, 4)
    assert selection == IndexSelection(rows=(1, 3), cols=(2, 4))
    assert selection._replace(cols=[5, 6]).cols == (5, 6)
    assert IndexSelection._make([[2], [7]]) == IndexSelection((2,), (7,))


UNEQUAL = "row and column sets must have equal size"


def unordered(seq):
    return f"indices must be distinct 1-based naturals in increasing order: {seq}"


@pytest.mark.parametrize(
    "rows,cols,message",
    [
        ((1, 2), (1,), UNEQUAL),
        ((1, 1), (1, 2), unordered((1, 1))),
        ((1, 2), (3, 3), unordered((3, 3))),
        ((0,), (1,), unordered((0,))),
        ((2, 1), (1, 2), unordered((2, 1))),
        ((1.0,), (1,), unordered((1.0,))),
        ((True,), (1,), unordered((True,))),
    ],
)
def test_index_selection_rejects_bad_sets_however_built(rows, cols, message):
    builds = [
        lambda: IndexSelection(rows, cols),
        lambda: IndexSelection(rows=rows, cols=cols),
        lambda: IndexSelection._make([rows, cols]),
        lambda: IndexSelection((1,), (1,))._replace(rows=rows, cols=cols),
    ]
    for build in builds:
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message
