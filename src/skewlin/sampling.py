"""Seeded random generators for exact test data.

Entries are small exact rationals (numerators and denominators in a bounded
range), so identities asserted on the samples are checked bit for bit.
"""

from fractions import Fraction

from .matrix import Matrix
from .quasidet import is_rc_nonsingular
from .quaternion import Quaternion
from .rank import rc_singular_family


def random_rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_quaternion(rng, bound=9, nonzero=False):
    while True:
        q = Quaternion(*(random_rational(rng, bound) for _ in range(4)))
        if not (nonzero and q.is_zero()):
            return q


def random_matrix(rng, rows, cols, bound=9):
    return Matrix(
        [[random_quaternion(rng, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_row(rng, cols, bound=9):
    return random_matrix(rng, 1, cols, bound)


def random_nonsingular_matrix(rng, n, bound=9):
    """Rejection sampling; a random exact matrix is almost surely nonsingular,
    so this rarely loops."""
    while True:
        m = random_matrix(rng, n, n, bound)
        if is_rc_nonsingular(m):
            return m


def random_singular_matrix(rng, n, bound=4):
    """An n x n matrix of rank at most n-1: rows are left combinations of
    n-1 random seed rows (for n = 1, the 1 x 1 zero matrix)."""
    return random_rank_deficient_stack(rng, n, n, n - 1, bound)


def random_rank_deficient_stack(rng, rows, cols, seed_count, bound=4):
    """Stack ``rows`` left combinations of ``seed_count`` seed rows, giving a
    matrix of rank at most ``seed_count``."""
    seeds = [random_row(rng, cols, bound) for _ in range(seed_count)]
    stacked = []
    for _ in range(rows):
        combo = Matrix.zeros(1, cols)
        for seed in seeds:
            combo = combo + seed.scale_left(random_quaternion(rng, bound))
        stacked.append(combo.cells[0])
    return Matrix(stacked)


def random_singular_family_member(rng, bound=4):
    """A matrix from the parametric 2x2 singular family with random exact
    parameters."""
    return rc_singular_family(
        random_quaternion(rng, bound),
        random_quaternion(rng, bound),
        random_quaternion(rng, bound),
    )
