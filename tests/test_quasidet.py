import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
    parse_quaternion,
    rc_inverse,
    rc_inverse_via_quasidet,
    rc_product,
    rc_quasideterminant,
)
from skewlin import quasidet
from skewlin.quasidet import _WIDE
from skewlin.quaternion import _product
from skewlin.sampling import (
    random_nonsingular_matrix,
    random_quaternion,
    random_row,
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


# -- the exact divisions of the integer back substitution ------------------------
#
# Each division that the integer back substitution takes to be exact is
# checked.  Corrupting the factor it divides raises the internal error
# instead of returning a wrong value.

_PRIME = 1000003


def _raises_internal(what, call):
    returned = None
    with pytest.raises(SingularMatrixError, match=f"^internal: {what} is not integral$"):
        returned = call()
    assert returned is None


def _system(seed, n=3):
    """A nonsingular matrix with rational entries, its elimination, one row
    and that row's coordinates on the echelon rows and scale."""
    rng = random.Random(seed)
    a = random_nonsingular_matrix(rng, n, bound=4)
    elimination = quasidet._eliminate_rows(a)
    entries = random_row(rng, n, bound=4).cells[0]
    row, scale = quasidet._numerators(entries)
    z, _, _ = quasidet._reduce(row, scale, elimination.echelon)
    assert len(z) == n  # every unknown has a right-hand side
    return a, elimination, entries, z, scale


def _over_prime(value):
    """The numerators and denominator ``value`` of a quaternion, divided by
    ``_PRIME``."""
    w, x, y, z, d = value
    return w, x, y, z, d * _PRIME


def test_uncorrupted_factor_solves():
    a, elimination, entries, z, scale = _system(1)
    factor = quasidet._factor(elimination)
    x = Matrix.row(quasidet._back_substitute(z, scale, factor))
    assert rc_product(x, a) == Matrix.row(entries)


def test_prefix_determinant_division_is_checked():
    # D_2 = D_1 * r_1^2 * N(P) / den^2, with den a factor _PRIME too large
    a, elimination, _, _, _ = _system(2)
    pivots = elimination.pivots
    elimination = elimination._replace(pivots=pivots[:1] + [_over_prime(pivots[1])] + pivots[2:])
    _raises_internal("a prefix Study determinant",
                     lambda: quasidet._factor(elimination))


def test_pivot_inverse_division_is_checked():
    # P times 3 + 4i over 5 den keeps N(P) / den^2, so D_2 is still
    # integral, but P_1 = D_1 * r_1^2 * conj(P) / den is not
    _, elimination, _, _, _ = _system(2)
    pivots = elimination.pivots
    a, b, c, d, den = pivots[1]
    pivots = pivots[:1] + [(*_product(a, b, c, d, 3, 4, 0, 0), den * 5)] + pivots[2:]
    _raises_internal("a scaled pivot inverse",
                     lambda: quasidet._factor(elimination._replace(pivots=pivots)))


def test_multiplier_division_is_checked():
    a, elimination, _, _, _ = _system(3)
    leads = list(elimination.leads)
    second = elimination.kept[1]
    ((j, lead), *rest), scale = leads[second]
    leads[second] = ([(j, _over_prime(lead))] + rest, scale)
    _raises_internal("a scaled multiplier",
                     lambda: quasidet._factor(elimination._replace(leads=leads)))


def test_right_hand_side_division_is_checked():
    a, elimination, _, z, scale = _system(4)
    factor = quasidet._factor(elimination)
    (j, value), *rest = sorted(z, key=lambda pair: pair[0])
    assert j < a.rows - 1
    z = [(j, _over_prime(value))] + rest
    _raises_internal("a scaled right-hand side",
                     lambda: quasidet._back_substitute(z, scale, factor))


@pytest.mark.parametrize("corrupt", ["inner determinant", "last row scale"])
def test_unknown_division_is_checked(corrupt):
    a, elimination, _, z, scale = _system(5)
    factor = quasidet._factor(elimination)
    dets, row_scales = factor.dets, factor.row_scales
    if corrupt == "inner determinant":
        # the middle unknown's sum is divided by r_1 * (D_2 + 1)
        factor = factor._replace(dets=dets[:1] + [dets[1] + 1] + dets[2:])
    else:
        # the last unknown is W_2 / r_2
        factor = factor._replace(row_scales=row_scales[:2] + [row_scales[2] * _PRIME])
    _raises_internal("a back-substituted unknown",
                     lambda: quasidet._back_substitute(z, scale, factor))


# -- one row reduced against the echelon rows ------------------------------------
#
# ``_reduce`` keeps the row as integer numerators over one denominator and
# updates whole rows at a time.  Its definition is the per-entry reduction
# below, ``x - lambda * E_j`` in ``Quaternion`` arithmetic, with each echelon
# entry read as a quaternion.


def _quaternion(w, x, y, z, den):
    return Quaternion(Fraction(w, den), Fraction(x, den), Fraction(y, den), Fraction(z, den))


def per_entry_reduction(entries, echelon):
    entries = list(entries)
    leads = []
    for pivot, tail, t, den, _ in echelon:
        lead = entries[pivot]
        if lead.is_zero():
            continue
        entries[pivot] = Quaternion.zero()
        for j, w, x, y, z in tail:
            entries[j] = entries[j] - lead * _quaternion(w, x, y, z, den)
        leads.append((t, lead))
    return leads, entries


_entries = st.one_of(
    st.just(Quaternion.zero()),
    st.builds(
        Quaternion,
        *[st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))] * 4,
    ),
)


@st.composite
def _reductions(draw):
    """A matrix of at most 5 x 5 entries, zeros among them, and a row."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(_entries, min_size=n, max_size=n)
    return Matrix(draw(st.lists(row, min_size=m, max_size=m)), cols=n), draw(row)


def _parsed(matrix, row):
    return parse_matrix(matrix), [parse_quaternion(e) for e in row.split(",")]


_WIDE_PIVOT = Quaternion(2**200, 1, 0, 0)
_ROOT = 1 << _WIDE.bit_length() // 2  # N(_ROOT) == _WIDE


def _pivot_row(pivot):
    """A one-row matrix with the pivot ``pivot``, and a row to reduce."""
    return (Matrix([[pivot, Quaternion(1, 2, -1), Quaternion(3, 0, 0, -1)]]),
            [Quaternion(0, 0, 1), Quaternion(1), Quaternion(Fraction(1, 3))])


@given(_reductions())
# the echelon row's denominator is 1: its pivot is 1
@example(_parsed("[1, 2+i, j]", "3, k, 1/2"))
# the echelon row's pivot norm N(2^200 + i) exceeds _WIDE
@example(_pivot_row(_WIDE_PIVOT))
# the pivot norm N(_ROOT) is _WIDE, the largest whose row stays inline, and
# N(_ROOT + i) is _WIDE + 1, the smallest whose row stores its right sums
@example(_pivot_row(Quaternion(_ROOT)))
@example(_pivot_row(Quaternion(_ROOT, 1)))
# a zero lead: the first step clears the second pivot column too
@example(_parsed("[1, 1, 0; 0, i, 1]", "1, 1, 5"))
# the first echelon row's denominator 2 divides every numerator after the
# second step, so the row is over 2 * 3 / 2
@example(_parsed("[-1-j, i+j, 1+k; 1-j, -1-i-j, -1+j]", "1+k, i+k, 1+j-k"))
# the second step's numerators are not all divisible by the first echelon
# row's denominator 10, only by 5, so the row is over 10 * 13 / 5
@example(_parsed("[1-i+2j-2k, 2+2j-k, -2+2i+2j-k; -2i+2j-2k, 2-2i+2j-k, 1+2i+j]",
                 "1+2i+j, -i-j-k, -2+2i+2k"))
def test_reduce_matches_per_entry_reduction(reduction):
    a, entries = reduction
    echelon = quasidet._eliminate_rows(a).echelon
    row, scale = quasidet._numerators(entries)
    leads, rest, den = quasidet._reduce(row, scale, echelon)
    expected_leads, expected_rest = per_entry_reduction(entries, echelon)
    assert [(t, _quaternion(*lead)) for t, lead in leads] == expected_leads
    assert [_quaternion(*numerators, den) for numerators in rest] == expected_rest


def test_reduce_examples_reach_their_cases():
    """The explicit examples above meet what their comments say."""
    echelon = quasidet._eliminate_rows(parse_matrix("[1, 2+i, j]")).echelon
    assert echelon[0][3] == 1
    for pivot, norm in ((_WIDE_PIVOT, 2**400 + 1), (Quaternion(_ROOT), _WIDE),
                        (Quaternion(_ROOT, 1), _WIDE + 1)):
        elimination = quasidet._eliminate_rows(_pivot_row(pivot)[0])
        [(a, b, c, d, _)] = elimination.pivots
        assert a * a + b * b + c * c + d * d == norm
        assert (elimination.echelon[0][4] is None) == (norm <= _WIDE)
    a, entries = _parsed("[1, 1, 0; 0, i, 1]", "1, 1, 5")
    echelon = quasidet._eliminate_rows(a).echelon
    leads, _, _ = quasidet._reduce(*quasidet._numerators(entries), echelon)
    assert [t for t, _ in leads] == [0]
    a, entries = _parsed("[-1-j, i+j, 1+k; 1-j, -1-i-j, -1+j]", "1+k, i+k, 1+j-k")
    echelon = quasidet._eliminate_rows(a).echelon
    assert [e[3] for e in echelon] == [2, 3]
    assert quasidet._reduce(*quasidet._numerators(entries), echelon)[2] == 3
    a, entries = _parsed("[1-i+2j-2k, 2+2j-k, -2+2i+2j-k; -2i+2j-2k, 2-2i+2j-k, 1+2i+j]",
                         "1+2i+j, -i-j-k, -2+2i+2k")
    echelon = quasidet._eliminate_rows(a).echelon
    assert [e[3] for e in echelon] == [10, 13]
    assert quasidet._reduce(*quasidet._numerators(entries), echelon)[2] == 26
