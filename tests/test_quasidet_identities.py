"""Quasideterminant identities as oracles past 5 x 5.

Gelfand, Gelfand, Retakh and Wilson (*Quasideterminants*) prove identities
between the quasideterminants of a matrix and those of matrices derived from
it.  Each side comes from a different elimination of a different matrix, so
a kernel error passes only if it agrees with itself across them.  Two are
checked here, under the library's Hamilton and rc conventions, on n x n
matrices with n from 6 to 12, past the brute-force oracles' 5 x 5:

* Cramer's rule, for ``x = solve_nonsingular(A, b)``:
  ``x_i * |A|_ij == |A with row i replaced by b|_ij``, one side undefined
  exactly when the other is.  :func:`rc_quasideterminant` never runs the
  integer back substitution, so this checks it by an independent route.
* The homological relation, row form:
  ``|A|_ij * |A^{il}|_kj^-1 == -|A|_il * |A^{ij}|_kl^-1``, where ``A^{pq}``
  is ``A`` without row ``p`` and column ``q``, indexed at ``A``'s own
  positions.

Entries are :func:`skewlin.sampling.random_quaternion` with components of
numerators in ``-bound..bound`` over ``1..bound``.  With ``bound`` 2 the
scaled rows' Study determinant ``D_n`` is at most ``(64 n)^n``, about
2^115 at n = 12 by Hadamard's bound, so the back substitution keeps its
multipliers as numerators; with ``bound`` 9 ``D_n`` passes ``_WIDE`` on
nearly every draw, and they are stored as their right sums.
"""

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from skewlin import Matrix, Quaternion, rc_quasideterminant, solve_nonsingular
from skewlin.sampling import random_matrix

# no shrinking: a smaller seed draws no simpler matrix
_SEEDED = settings(max_examples=18, phases=[Phase.explicit, Phase.reuse, Phase.generate])


def _without(a, p, q):
    """``A^{pq}``: ``a`` without row ``p`` and column ``q`` (1-based)."""
    return Matrix([row[:q - 1] + row[q:] for r, row in enumerate(a.cells, 1) if r != p],
                  cols=a.cols - 1)


def _at(index, removed):
    """The 1-based ``index`` of a row or column of ``A`` in ``A`` without
    the row or column ``removed``."""
    return index - (index > removed)


@pytest.mark.parametrize("bound", [2, 9])
@given(n=st.integers(6, 12), seed=st.integers(0, 2**32 - 1))
@_SEEDED
def test_cramers_rule(bound, n, seed):
    """Three positions per system.  Row ``k`` is made zero off column
    ``c``, so for every ``i`` other than ``k`` the complement of ``(i, c)``
    has a zero row and ``|A|_ic`` is undefined on both sides; the first
    position is one of these, the other two are drawn."""
    rng = random.Random(seed)
    a = random_matrix(rng, n, n, bound)
    k, c = rng.sample(range(1, n + 1), 2)
    cells = [list(row) for row in a.cells]
    cells[k - 1] = [e if j == c else Quaternion.zero() for j, e in enumerate(cells[k - 1], 1)]
    a = Matrix(cells, cols=n)
    b = random_matrix(rng, 1, n, bound)
    (x,) = solve_nonsingular(a, b).cells
    undefined = (rng.choice([i for i in range(1, n + 1) if i != k]), c)
    for i, j in (undefined, *[(rng.randint(1, n), rng.randint(1, n)) for _ in range(2)]):
        replaced = Matrix([b.cells[0] if r == i else row for r, row in enumerate(a.cells, 1)],
                          cols=n)
        left, right = rc_quasideterminant(a, i, j), rc_quasideterminant(replaced, i, j)
        assert (left is None) == (right is None)
        if (i, j) == undefined:
            assert left is None
        elif left is not None:
            assert x[i - 1] * left == right


@pytest.mark.parametrize("bound", [2, 9])
@given(n=st.integers(6, 12), seed=st.integers(0, 2**32 - 1))
@_SEEDED
def test_homological_relation(bound, n, seed):
    """Three positions ``i != k``, ``j != l`` per matrix.  A draw whose
    inverted side is undefined or zero, which needs a singular minor, is
    skipped; at most one in three may be."""
    rng = random.Random(seed)
    a = random_matrix(rng, n, n, bound)
    skipped = 0
    for _ in range(3):
        i, k = rng.sample(range(1, n + 1), 2)
        j, l = rng.sample(range(1, n + 1), 2)
        inner_l = rc_quasideterminant(_without(a, i, l), _at(k, i), _at(j, l))
        inner_j = rc_quasideterminant(_without(a, i, j), _at(k, i), _at(l, j))
        if inner_l is None or inner_j is None or inner_l.is_zero() or inner_j.is_zero():
            skipped += 1
            continue
        # both minors are invertible, so |A|_ij and |A|_il are defined
        left = rc_quasideterminant(a, i, j) * inner_l.inverse()
        assert left == -(rc_quasideterminant(a, i, l) * inner_j.inverse())
    assert skipped <= 1
