"""Rectangular matrices of quaternions and the two contraction products.

One storage grid serves both index conventions of the calculus: cell
``(i, j)`` of the display grid is the row-indexed entry of the row-times-
column (RC) reading and simultaneously the column-indexed entry of the
column-times-row (CR) reading.  The two products differ in which axis
contracts:

* ``rc_product(A, B)[i][j] = sum_k A[i][k] * B[k][j]`` (A-factor on the left),
* ``cr_product(A, B)[i][j] = sum_k A[k][j] * B[i][k]`` (A-factor on the left),

and they are exchanged by the transpose duality functor:
``cr_product(A, B) == transpose(rc_product(transpose(A), transpose(B)))``.
Each entry of either product is normalized once rather than once per term.
``rc_product`` reads its shape once: when every dimension is at least
``_SUMS_FROM`` it writes each row and each column once as Howell and
Lafon's sums over one denominator, and each entry is
:func:`skewlin.quaternion._dot_of_sums`; otherwise each entry is one
:func:`skewlin.quaternion._dot`, over the lcm of the term denominators.
The product-form policy is stated once, in the ``quasidet`` module
docstring.

Grid positions in named operations (``minor``, quasideterminant positions,
rank index sets) are 1-based, matching the index conventions of the
underlying calculus; raw ``matrix[i, j]`` access is plain 0-based Python.
"""

from itertools import chain, repeat

from .errors import DimensionMismatch, ParseError
from .quaternion import (
    Quaternion,
    _dot,
    _dot_of_sums,
    _left_sums,
    _right_sums,
    _sum_vectors,
    format_quaternion,
    parse_quaternion,
)

# rc_product's shape rule: a product whose every dimension is at least this
# takes Howell and Lafon's form on sums prepared once per row and column.
# On CPython 3.11 (x86-64), best of 11, the prepared sums took 1.23, 1.03,
# 0.92, 0.84 and 0.76 times _dot's time on n x n products of the benchmark's
# small rationals at n = 4 to 8, 0.71 on a 6 x 6 matrix times its inverse
# and 0.57 on 6 x 6 matrices of 300-digit integers.  A thin dimension loses
# even next to large ones: 1.12 on 1 x 16 times 16 x 16, 1.19 on 16 x 2
# times 2 x 16.
_SUMS_FROM = 6


class _Frozen:
    """Immutability as a frozen dataclass has it: assigning or deleting any
    attribute raises ``dataclasses.FrozenInstanceError`` with the dataclass's
    message.  ``dataclasses`` is imported only to raise it, so the value types
    of the core cost no import of it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Matrix(_Frozen):
    """Immutable rectangular matrix of :class:`Quaternion` entries.

    Any other entry type raises ``TypeError``.  Empty matrices (0 rows and/or
    0 columns) are permitted; they carry the recursion base cases.  Two
    matrices are equal when their cells and column counts are, so a 0 x 2
    matrix differs from a 0 x 3 one.
    """

    __slots__ = ("cells", "rows", "cols")
    __match_args__ = __slots__

    def __init__(self, cells, cols=None):
        """``cells`` is a sequence of rows, each a sequence of quaternions.
        ``cols`` pins the column count of a zero-row matrix, which the cell
        grid alone cannot express; with any rows present it must agree."""
        if cols is not None:
            _check_size(cols, "column")
        grid = tuple(tuple(row) for row in cells)
        if not all(map(isinstance, chain.from_iterable(grid), repeat(Quaternion))):
            raise TypeError("matrix entries must be quaternions")
        widths = {len(row) for row in grid}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows in matrix literal")
        rows = len(grid)
        grid_cols = widths.pop() if widths else 0
        if cols is None:
            cols = grid_cols
        elif rows and cols != grid_cols:
            raise DimensionMismatch(f"declared {cols} columns, rows have {grid_cols}")
        object.__setattr__(self, "cells", grid)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cells == other.cells and self.cols == other.cols

    def __hash__(self):
        return hash((self.cells, self.rows, self.cols))

    def __reduce__(self):
        return Matrix, (self.cells, self.cols)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n):
        _check_size(n, "row")
        one, zero = Quaternion.one(), Quaternion.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        _check_size(rows, "row")
        _check_size(cols, "column")
        return cls([[Quaternion.zero()] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def row(cls, entries):
        """1 x n matrix from a flat sequence."""
        return cls([list(entries)])

    @classmethod
    def column(cls, entries):
        """n x 1 matrix from a flat sequence."""
        return cls([[e] for e in entries], cols=1)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.cells[i][j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def row_entries(self, i):
        """Entries of 1-based row ``i`` as a tuple."""
        return self.cells[_check_index(i, self.rows, "row")]

    def column_entries(self, j):
        """Entries of 1-based column ``j`` as a tuple."""
        j = _check_index(j, self.cols, "column")
        return tuple(row[j] for row in self.cells)

    def __iter__(self):
        return iter(self.cells)

    # -- pointwise ring structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.cells, other.cells)],
            cols=self.cols,
        )

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.cells], cols=self.cols)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def scale_left(self, s):
        """Left scalar action: each entry ``a`` becomes ``s * a``."""
        return Matrix([[s * a for a in row] for row in self.cells], cols=self.cols)

    def is_zero(self):
        return all(a.is_zero() for row in self.cells for a in row)

    # -- reshaping ---------------------------------------------------------------

    def transpose(self):
        # zip of no rows is empty; the transpose of 0 x n has n empty rows
        columns = list(zip(*self.cells)) if self.rows else [()] * self.cols
        return Matrix(columns, cols=self.rows)

    def minor(self, row_set, col_set):
        """Submatrix picked by 1-based row and column index sequences."""
        ri = [_check_index(i, self.rows, "row") for i in row_set]
        cj = [_check_index(j, self.cols, "column") for j in col_set]
        return Matrix([[self.cells[i][j] for j in cj] for i in ri], cols=len(cj))

    def without(self, p, r):
        """Complementary submatrix: delete 1-based row ``p`` and column ``r``."""
        _check_index(p, self.rows, "row")
        _check_index(r, self.cols, "column")
        return self.minor(
            [i for i in range(1, self.rows + 1) if i != p],
            [j for j in range(1, self.cols + 1) if j != r],
        )

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        if self.rows and self.cols:
            return f"Matrix({format_matrix(self)!r})"
        # every empty matrix's text form is "[]", which drops the shape
        return f"Matrix.zeros({self.rows}, {self.cols})"


def _check_size(n, what):
    if type(n) is not int:
        raise TypeError(f"{what} count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{what} count must be nonnegative, got {n}")


def _check_index(i, bound, what):
    if type(i) is not int or not 1 <= i <= bound:
        raise IndexError(f"{what} index {i} out of range 1..{bound}")
    return i - 1


def rc_product(a, b):
    """Row-times-column product: contract the column index of ``a`` with the
    row index of ``b``, a-factor on the left of every scalar product.  The
    shape picks the form, ``_dot`` or the sums prepared once per row and
    column; both give the same value."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"rc product needs {a.shape} x {b.shape} inner match")
    # zip of no rows is empty; a 0 x n factor has n empty columns, and each
    # entry over an empty contraction is the empty sum, zero
    columns = list(zip(*b.cells)) if b.rows else [()] * b.cols
    if min(a.rows, a.cols, b.cols) < _SUMS_FROM:
        return Matrix([[_dot(row, col) for col in columns] for row in a.cells], cols=b.cols)
    rows = [_sum_vectors(row, _left_sums) for row in a.cells]
    columns = [_sum_vectors(col, _right_sums) for col in columns]
    return Matrix([[_dot_of_sums(row, col) for col in columns] for row in rows], cols=b.cols)


def cr_product(a, b):
    """Column-times-row product: for ``a`` of shape n x p and ``b`` of shape
    m x n, ``result[i][j] = sum_k a[k][j] * b[i][k]``.  Computed as its
    duality functor image ``transpose(rc_product(transpose(a), transpose(b)))``."""
    if a.rows != b.cols:
        raise DimensionMismatch(f"cr product needs {b.shape} x {a.shape} outer match")
    return rc_product(a.transpose(), b.transpose()).transpose()


transpose = Matrix.transpose


def extended_matrix(a, b):
    """Append the 1 x n right-hand-side row ``b`` below the m x n system
    matrix ``a``, giving the (m+1) x n extended matrix: ``x * a = b`` has a
    solution iff it has the rank of ``a``."""
    if b.rows != 1 or b.cols != a.cols:
        raise DimensionMismatch(
            f"right-hand side must be 1 x {a.cols}, got {b.shape}"
        )
    return Matrix(list(a.cells) + [b.cells[0]])


def format_matrix(a):
    """Canonical text form ``[e, e; e, e]`` with canonical entries."""
    if a.rows == 0 or a.cols == 0:
        return "[]"
    return (
        "["
        + "; ".join(", ".join(format_quaternion(e) for e in row) for row in a.cells)
        + "]"
    )


def parse_matrix(text):
    """Parse the ``[e, e; e, e]`` grammar, entries in the quaternion grammar.

    ``[]`` denotes the empty matrix.  Raises :class:`ParseError` on malformed
    input (positions refer to each entry substring).
    """
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ParseError("matrix text must be enclosed in [ ]", 0)
    body = stripped[1:-1].strip()
    if not body:
        return Matrix([])
    rows = []
    for row_text in body.split(";"):
        rows.append([parse_quaternion(entry) for entry in row_text.split(",")])
    return Matrix(rows)
