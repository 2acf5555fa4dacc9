"""Quasideterminants, inversion and the elimination kernel.

One forward elimination pass with left row operations decides every
singular/nonsingular question in the library.  :func:`_eliminate_rows` reduces
each row, in order, against the echelon rows kept so far and keeps it when a
nonzero remains; it stops once every column holds a pivot, since every later
row is then dependent.  It records the multipliers it applied and the inverse
of each new pivot, so the kept rows factor as ``L * E``: ``E`` holds the echelon
rows, scaled to a one at their pivots, and ``L`` is lower triangular with the
multipliers below its diagonal and the pivots on it.  These are the
multipliers and pivots of Gauss (LDU) elimination, which over a skew field
are quasideterminants (Gelfand, Gelfand, Retakh and Wilson,
*Quasideterminants*).

The pass works on one integer row form.  :func:`_numerators` writes a row as
the integer numerators of its entries over one denominator, the lcm of
theirs, which is also the row's scale ``r`` that the solve below needs.
:func:`_reduce` updates the whole row against an echelon row ``T / d_E`` at
once, ``X * d_E - L * T`` on the integers with ``L`` the lead's numerators.
It then divides the row by the previous step's ``d_E``, which Sylvester's
identity makes exact on most rows; the division is never assumed, and where
a remainder shows the row is divided by the part of that ``d_E`` that
divides it, one gcd.  An echelon row is stored the same way: with ``P`` the
numerators of the pivot, ``E = conj(P) * row / N(P)``, in which the row's
own denominator cancels, divided by its content so that it is primitive.
That content gcd, one per kept row, and the gcd after a remainder are all
the gcds the pass takes, where a quaternion per entry would pay a five-way
gcd for every update.

:func:`_solve_row` finds the left coefficients ``x`` on the kept rows with
``x * (kept rows) == b``, for one row ``b``, in two steps: reducing ``b``
against the echelon rows writes it as ``z * E`` (or leaves a nonzero
remainder, when ``b`` is outside the row span), and back substitution solves
``x * L == z``.  It runs over the integers.  Scaled by its scale ``r_t``,
kept row ``t`` is integral, and the prefix Study determinants of the scaled
rows on the pivot columns,

    D_0 = 1,   D_{t+1} = D_t * r_t^2 * N(pi_t) = D_t * N(r_t * pi_t),

are integers.  By Sylvester's identity in quasideterminant form (Gelfand,
Gelfand, Retakh and Wilson), ``D_{t+1}`` clears the denominators of
``pi_t^-1``, of the scaled multipliers ``r_k * lambda_kt * pi_t^-1 / r_t``
and, for an integral ``b``, of ``z_t * pi_t^-1``, and ``D_n`` those of the
solution.  The pass records each pivot as it found it, the numerators ``P``
of ``pi_t = P / den`` over the reduced row's denominator, and
:func:`_factor` takes ``D_{t+1}`` and ``D_{t+1} * pi_t^-1`` from them by
exact divisions, with no gcd to put ``pi_t^-1`` in lowest terms.  It scales
these quantities to integers once per matrix; :func:`_back_substitute` then
solves with one sum of integer products over ``D_{j+1}`` and one exact
division per unknown, and normalises each entry of the result with one gcd,
where rational sums would pay a gcd per term and a last one at over twice
the result's size.  Every exact division is checked: a remainder raises an
``internal:`` :class:`SingularMatrixError`, never a wrong value.  A square
matrix is invertible exactly when the pass keeps every row.
:func:`solve_nonsingular` is the one nonsingular solve: it checks that,
factors ``a`` once and solves ``x * a == b`` for each row ``b``.
:func:`rc_inverse` is its solution for the identity, automatically
two-sided because one-sided inverses coincide in a matrix ring over a
division ring.  ``rank`` builds rank, row dependence and the general solver
on the same pass.

The quasideterminant at position ``(p, r)`` is the noncommutative analogue of
a determinant cofactor ratio:

    qdet(A, p, r) = A[p][r] - row_p(A without col r)
                    * inverse(A without row p, col r)
                    * col_r(A without row p)

It is computed as the last pivot of elimination (Gelfand, Gelfand, Retakh and
Wilson, *Quasideterminants*): eliminate ``A`` without row ``p``, with column
``r`` moved last; when the pivots fill every other column, reducing row ``p``
(reordered the same way) leaves exactly the value above in its last entry.
It is *undefined* (returned as ``None``) whenever the complementary submatrix
is singular; undefined is distinct from the matrix itself being singular and
the two states are never conflated.

:func:`rc_inverse_via_quasidet` assembles the inverse from quasideterminants,
entry ``(r, p)`` being ``inverse(qdet(A, p, r))``, with one elimination per
row ``p`` rather than one per position.  Left row operations keep the right
kernel, so when ``A`` without row ``p`` has rank ``n - 1`` its echelon rows
give the column ``c`` spanning that kernel by back substitution, and

    qdet(A, p, r) = (row_p(A) * c) * inverse(c_r)

wherever ``c_r`` is nonzero, which is exactly where the complement at
``(p, r)`` is invertible.  That is ``n`` eliminations and ``O(n^4)`` work in
place of the ``n^2`` eliminations and ``O(n^5)`` work of one
:func:`rc_quasideterminant` call per position.

The product-form policy of the library is stated here, once.  There are two
forms: the Hamilton formula's sixteen multiplications inline, and Howell and
Lafon's eight (``quaternion._product``) on eight sums of each factor, which
a factor that many products share forms once.  ``*`` and the dot products of
``quaternion._dot`` take the sixteen at every width.  One shape rule and
two width rules take the eight, each read once per matrix product, echelon
row or factorization, never per scalar product:

* the shape rule, in ``matrix.rc_product``: when every dimension of the
  product is at least ``matrix._SUMS_FROM`` (6), each row of the left
  factor and each column of the right one is written once as integer
  numerators over the lcm of its denominators and as eight vectors of sums
  (``quaternion._sum_vectors``), and each entry is eight integer dot
  products summed in C (``quaternion._dot_of_sums``).  Smaller products,
  among them every product with a dimension of 1, take ``_dot``.
  ``cr_product`` and everything built on ``rc_product`` inherit the rule.
* the width rules, in this module's kernel, each comparing a number it
  already holds with the one constant ``_WIDE``; past it

  * the pivot norm ``N(P)``, once per echelon row: :func:`_eliminate_rows`
    takes ``conj(P) * row`` by ``_product`` and stores the right sums of
    the tail, and each :func:`_reduce` step against the row forms its
    lead's left sums once;
  * ``D_n``, once per factorization, in :func:`_factor`, whose record
    keeps the decision as ``wide``: each scaled multiplier is stored as its
    right sums, :func:`_back_substitute` forms each unknown's left sums
    once, and :func:`_integral_product` takes ``_product``.

  At or below it they take the sixteen.

Both constants come from crossover measurements, in their comments.
"""

from collections import namedtuple
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatch, SingularMatrixError
from .matrix import Matrix, rc_product
from .quaternion import (
    Quaternion,
    _build,
    _dot,
    _left_sums,
    _product,
    _right_sums,
)

_NIL = (0, 0, 0, 0)  # the numerators of a zero entry

# The threshold of the kernel's two width rules, in the module docstring.
# On CPython 3.11 (x86-64), over 200 random operand pairs, best of 7,
# _product took 1.52, 1.17, 1.13, 0.88 and 0.71 times the inline form's time
# at 32, 64, 128, 256 and 512 bits, and the eight multiplications on sums
# formed beforehand 0.73, 0.65, 0.64, 0.61 and 0.57.  Stored sums thus win
# at any width once formed, but forming and storing them is paid per reused
# factor, which small matrices do not earn back: with the sums stored at
# every width the benchmark's rank and solve rounds on matrices up to 7 x 7
# took 3% longer (and its inverses 2% less), and with _WIDE at 2^64 for both
# rules 5% longer.  At 2^128 the echelon rows and D_n of an 8 x 8 inverse of
# small rationals (D_n about 226 bits) take the stored sums.  Wide lone
# products, such as the dot products of _kernel_column, stay on the sixteen.
_WIDE = 1 << 128

_Elimination = namedtuple("_Elimination", "kept echelon pivots leads")
_Factorization = namedtuple("_Factorization", "echelon row_scales dets inverses below wide")


def _numerators(entries):
    """The quaternions ``entries`` as one row of integer numerators: the
    list of their ``(w, x, y, z)`` numerators over the lcm of their
    denominators, and that lcm."""
    den = lcm(*[e[4] for e in entries])
    return [
        (w, x, y, z) if d == den else (w * (s := den // d), x * s, y * s, z * s)
        for w, x, y, z, d in entries
    ], den


def _eliminate_rows(matrix):
    """One forward elimination pass over the rows of ``matrix``, in order,
    with left row operations, stopping once every column holds a pivot.

    Returns an ``_Elimination`` record of four lists.  ``kept`` holds the
    0-based rows that stayed independent of the rows before them; a kept
    row's position in ``kept`` is its kept index.  ``echelon`` holds one
    plain tuple ``(pivot, tail, t, den, right)`` per kept row, sorted by
    pivot column: the row ``E_t`` of kept index ``t`` reduced against the
    earlier kept rows and scaled to a one at its pivot.  It is stored as
    integer numerators over ``den``, and ``tail`` holds one ``(column, w, x,
    y, z)`` for every column right of the pivot.  With ``P`` the numerators
    of the reduced row's pivot ``pi_t``, ``E_t = conj(P) * row / N(P)``: the
    row's own denominator cancels, and dividing by the content (the gcd of
    ``N(P)`` and every numerator) leaves the stored row primitive.  When
    ``N(P)`` exceeds ``_WIDE``, ``right`` holds one ``(column, *sums)`` per
    tail entry, its eight ``_right_sums``, for :func:`_reduce`; otherwise
    it is None.  ``pivots[t]`` is ``(a, b, c, d, den)``: ``P`` over the
    reduced row's denominator, so ``pi_t = P / den``, not in lowest terms;
    :func:`_factor` reads its inverse off it.  ``leads[p]`` is the pair of
    the multipliers ``(t, lambda)`` the reduction of row ``p`` applied, one
    per echelon row it met with a nonzero lead, and the row's scale, the
    lcm of its denominators.  Each ``lambda`` is the tuple ``(w, x, y, z,
    d)`` of its numerators over ``d``, not necessarily in lowest terms.  Row
    ``p`` is therefore ``sum(lambda * E_t) + pi * E_p`` (no last term when it
    was not kept): the kept rows are ``L * E`` with ``L`` lower triangular
    in kept order.  ``leads`` covers only the rows the pass reached;
    :func:`_complete` extends it to the rest.
    """
    kept, echelon, pivots, leads = [], [], [], []
    cols = matrix.cols
    for p, cells in enumerate(matrix.cells):
        if len(echelon) == cols:
            break
        row, scale = _numerators(cells)
        multipliers, row, den = _reduce(row, scale, echelon)
        leads.append((multipliers, scale))
        for pivot, (a, b, c, d) in enumerate(row):
            if a or b or c or d:
                break
        else:
            continue
        norm = a * a + b * b + c * c + d * d
        wide = norm > _WIDE
        tail = []
        content = norm
        for j in range(pivot + 1, cols):
            e, f, g, h = row[j]
            if wide:
                w, x, y, z = _product(a, -b, -c, -d, e, f, g, h)
            else:
                w = a * e + b * f + c * g + d * h
                x = a * f - b * e - c * h + d * g
                y = a * g + b * h - c * e - d * f
                z = a * h - b * g + c * f - d * e
            tail.append((j, w, x, y, z))
            content = gcd(content, w, x, y, z)
        if content > 1:
            tail = [(j, w // content, x // content, y // content, z // content)
                    for j, w, x, y, z in tail]
        right = [(j, *_right_sums(e, f, g, h)) for j, e, f, g, h in tail] if wide else None
        echelon.append((pivot, tail, len(kept), norm // content, right))
        echelon.sort(key=lambda row: row[0])
        kept.append(p)
        pivots.append((a, b, c, d, den))
    return _Elimination(kept, echelon, pivots, leads)


def _reduce(row, den, echelon):
    """Subtract left multiples of the echelon rows from the row of integer
    numerators ``row`` over ``den`` (changed in place) until it is zero on
    every pivot column.  Returns the multipliers as ``(t, lead)`` pairs,
    skipping zero leads, each lead the numerators of the row's entry over
    the row's denominator at that step; the remainder, ``row`` itself; and
    the remainder's denominator.  Going by increasing pivot never disturbs a
    column already cleared, since each echelon row is zero left of its
    pivot.

    Against an echelon row ``T / d_E`` and with the lead's numerators
    ``L``, a step is ``X * d_E - L * T`` on the integers, over ``den *
    d_E``, in the product form the echelon row chose.  By Sylvester's
    identity, as in Bareiss's fraction-free elimination, the denominator of
    the previous step's echelon row usually divides every numerator after
    this one: the row is then divided by it once, the quotients checked by
    their remainders.  Where a remainder shows, the row is divided instead
    by the gcd of that denominator and its numerators."""
    leads = []
    previous = 1
    for pivot, tail, t, scale, right in echelon:
        a, b, c, d = row[pivot]
        if not (a or b or c or d):
            continue
        leads.append((t, (a, b, c, d, den)))
        row[pivot] = _NIL
        den *= scale
        # left of the pivot, only columns without a pivot can be nonzero
        for j in range(pivot):
            w, x, y, z = row[j]
            if w or x or y or z:
                row[j] = (w * scale, x * scale, y * scale, z * scale)
        if right is None:
            for j, e, f, g, h in tail:
                w, x, y, z = row[j]
                pw = a * e - b * f - c * g - d * h
                px = a * f + b * e + c * h - d * g
                py = a * g - b * h + c * e + d * f
                pz = a * h + b * g - c * f + d * e
                row[j] = (w * scale - pw, x * scale - px, y * scale - py, z * scale - pz)
        else:
            l0, l1, l2, l3, lw, lx, ly, lz = _left_sums(a, b, c, d)
            for j, r0, r1, r2, r3, rw, rx, ry, rz in right:
                w, x, y, z = row[j]
                m1 = l1 * r1
                m2 = l2 * r2
                m3 = l3 * r3
                m123 = m1 + m2 + m3
                half = (l0 * r0 + m123) >> 1
                row[j] = (w * scale - half + m1 - lw * rw,
                          x * scale - half + m123 - lx * rx,
                          y * scale - half + m3 - ly * ry,
                          z * scale - half + m2 - lz * rz)
        if previous > 1:
            quotients = []
            for w, x, y, z in row:
                if not (w or x or y or z):
                    quotients.append(_NIL)
                    continue
                qw, rw = divmod(w, previous)
                qx, rx = divmod(x, previous)
                qy, ry = divmod(y, previous)
                qz, rz = divmod(z, previous)
                if rw or rx or ry or rz:
                    common = gcd(previous, *chain.from_iterable(row))
                    if common > 1:
                        row[:] = [(w // common, x // common, y // common, z // common)
                                  for w, x, y, z in row]
                        den //= common
                    break
                quotients.append((qw, qx, qy, qz))
            else:
                row[:] = quotients
                den //= previous
        previous = scale
    return leads, row, den


def _quotient(nw, nx, ny, nz, den, what):
    """The four integers ``n / den``.  A division with a remainder raises
    an internal :class:`SingularMatrixError` naming ``what``; no value is
    returned."""
    qw, rw = divmod(nw, den)
    qx, rx = divmod(nx, den)
    qy, ry = divmod(ny, den)
    qz, rz = divmod(nz, den)
    if rw or rx or ry or rz:
        raise SingularMatrixError(f"internal: {what} is not integral")
    return qw, qx, qy, qz


def _integral_product(scale, q, p, divisor, wide, what):
    """The four integers ``scale * q * p / divisor``, for integers ``scale``
    and ``divisor``, a quaternion ``q`` given as its numerators over a
    denominator, in lowest terms or not, and the numerators ``p`` of an
    integral quaternion, by ``_product`` where the factorization is
    ``wide``.  Each numerator of ``scale`` times the product is divided by
    the denominator of ``q`` times ``divisor`` in :func:`_quotient`."""
    a, b, c, d, den = q
    e, f, g, h = p
    den *= divisor
    if wide:
        w, x, y, z = _product(a, b, c, d, e, f, g, h)
    else:
        w = a * e - b * f - c * g - d * h
        x = a * f + b * e + c * h - d * g
        y = a * g - b * h + c * e + d * f
        z = a * h + b * g - c * f + d * e
    return _quotient(scale * w, scale * x, scale * y, scale * z, den, what)


def _complete(elimination, matrix):
    """Extend ``elimination.leads``, in place, to every row of ``matrix``, the
    pass's matrix: each row after the pass's stop is dependent, and reducing
    it against the final echelon rows gives its multipliers."""
    for cells in matrix.cells[len(elimination.leads):]:
        row, scale = _numerators(cells)
        elimination.leads.append((_reduce(row, scale, elimination.echelon)[0], scale))


def _factor(elimination):
    """The integral factors ``L * E`` of the kept rows of ``elimination``
    that :func:`_back_substitute` solves with, as a ``_Factorization``
    record: ``echelon`` is the pass's ``E``, and ``row_scales``, ``dets``,
    ``inverses`` and ``below`` give ``L``.  It reads ``leads`` only for the
    kept rows, which the pass reaches before any stop, and changes nothing
    in ``elimination``.

    ``row_scales[t]`` is ``r_t``, the scale :func:`_eliminate_rows` recorded
    for kept row ``t``, the lcm of its denominators, so the rows ``r_t *
    (kept row t)`` are integral; on the pivot columns they factor as ``(R
    L) E`` with the pivots ``r_t pi_t`` and the multipliers ``r_k
    lambda_kt``.
    ``dets[t]`` is ``D_{t+1}``, the Study determinant of the first ``t + 1``
    of them on the pivot columns:

        D_0 = 1,  D_{t+1} = D_t * r_t^2 * N(pi_t).

    By Sylvester's identity in quasideterminant form, ``D_{t+1}`` clears the
    denominators of ``pi_t^-1`` and of ``r_k * mu_kt / r_t``, where ``mu_kt
    = lambda_kt * pi_t^-1``.  With ``pivots[t]`` the numerators ``P`` of
    ``pi_t`` over ``den``, ``N(pi_t) = N(P) / den^2`` and ``pi_t^-1 = den *
    conj(P) / N(P)``, so

        D_{t+1} = D_t * r_t^2 * N(P) / den^2,
        P_t = D_{t+1} * pi_t^-1 = D_t * r_t^2 * conj(P) / den,

    each an exact division.  ``inverses[t]`` holds the numerators of ``P_t``
    as ``s * conj(P) + rest * conj(P) / den``, with ``D_t * r_t^2 = s * den +
    rest``: one division of ``D_t * r_t^2``, plus the checked division
    (:func:`_quotient`) of a remainder term that is usually zero, costs less
    than dividing the four longer numerators of ``D_t * r_t^2 * conj(P)``.
    ``below[j]`` lists ``(k, M_kj)`` with

        M_kj = -r_k * lambda_kj * P_j = -r_k * D_{j+1} * mu_kj,

    for the kept rows ``k`` whose reduction met echelon row ``j`` with the
    lead ``lambda_kj``: column ``j`` of ``L`` below its diagonal, divided on
    the right by the diagonal entry and scaled to an integral quaternion
    once here rather than once per solve.  ``wide``, the one width decision
    ``D_n > _WIDE``, stores each ``M_kj`` as its eight ``_right_sums``.
    Every division is exact, and checked."""
    kept, leads = elimination.kept, elimination.leads
    det = 1
    row_scales, dets, inverses = [], [], []
    for p, (a, b, c, d, den) in zip(kept, elimination.pivots):
        r = leads[p][1]
        scaled = det * r * r
        det, rest = divmod(scaled * (a * a + b * b + c * c + d * d), den * den)
        if rest:
            raise SingularMatrixError("internal: a prefix Study determinant is not integral")
        s, rest = divmod(scaled, den)
        w, x, y, z = _quotient(rest * a, -rest * b, -rest * c, -rest * d, den,
                               "a scaled pivot inverse")
        inverses.append((s * a + w, x - s * b, y - s * c, z - s * d))
        row_scales.append(r)
        dets.append(det)
    wide = det > _WIDE
    below = [[] for _ in dets]
    for k, p in enumerate(kept):
        multipliers, r = leads[p]
        for j, lead in multipliers:
            m = _integral_product(-r, lead, inverses[j], 1, wide, "a scaled multiplier")
            below[j].append((k, _right_sums(*m) if wide else m))
    return _Factorization(elimination.echelon, row_scales, dets, inverses, below, wide)


def _back_substitute(z, scale, factor):
    """The row ``y`` (a list in kept order) with ``y * L == z``, for ``z``
    given as ``(t, value)`` pairs of its nonzero entries: the coordinates on
    the echelon rows, as :func:`_reduce` returns them, of a row whose scale
    (the lcm of its denominators) is ``scale``.  ``L`` is lower triangular, so
    going backwards each unknown is

        y_j = z_j * pi_j^-1 - sum over k > j of y_k * mu_kj.

    This runs on the integral factors of :func:`_factor`.  With ``d`` the
    row's scale and ``D = D_n``, the right-hand side enters as the integral
    ``W_j = d * z_j * P_j`` and the unknowns as the integers ``Y_j = D * d *
    y_j / r_j``:

        Y_j = (D * W_j + sum over k > j of Y_k * M_kj) / (r_j * D_{j+1}),

    one sum of integer products over ``D_{j+1}`` and one exact division per
    unknown (for the last, a lone one included, ``Y_j = W_j / r_j``).
    ``D * d`` is a common denominator of the solution, so each entry ``y_j =
    r_j * Y_j / (D * d)`` is normalised with one gcd; the first unknown's
    sum, which no other unknown needs, goes to that gcd undivided, over
    ``D_1 * D * d``.  Where the factorization is ``wide``, each ``Y_k`` is
    kept as its left sums.  Every division is exact and checked."""
    row_scales, dets, inverses = factor.row_scales, factor.dets, factor.inverses
    below, wide = factor.below, factor.wide
    last = len(row_scales) - 1
    if last < 0:
        return []
    top = dets[last]
    den = top * scale
    zero = Quaternion.zero()
    y = [zero] * (last + 1)
    # Y_j, or its left sums when wide, which the earlier unknowns' sums need
    integral = [None] * (last + 1)
    sums = [None] * (last + 1)
    for j, value in z:
        if j < last:
            w = _integral_product(scale, value, inverses[j], 1, wide, "a scaled right-hand side")
            sums[j] = (top * w[0], top * w[1], top * w[2], top * w[3])
        else:
            r = row_scales[j]
            yw, yx, yy, yz = _integral_product(
                scale, value, inverses[j], r, wide, "a back-substituted unknown")
            y[j] = _build(r * yw, r * yx, r * yy, r * yz, den)
            integral[j] = _left_sums(yw, yx, yy, yz) if wide else (yw, yx, yy, yz)
    for j in reversed(range(last)):
        sw, sx, sy, sz = sums[j] or _NIL
        if wide:
            for k, (r0, r1, r2, r3, rw, rx, ry, rz) in below[j]:
                if integral[k] is None:
                    continue
                l0, l1, l2, l3, lw, lx, ly, lz = integral[k]
                m1 = l1 * r1
                m2 = l2 * r2
                m3 = l3 * r3
                m123 = m1 + m2 + m3
                half = (l0 * r0 + m123) >> 1
                sw += half - m1 + lw * rw
                sx += half - m123 + lx * rx
                sy += half - m3 + ly * ry
                sz += half - m2 + lz * rz
        else:
            for k, (e, f, g, h) in below[j]:
                if integral[k] is None:
                    continue
                a, b, c, d = integral[k]
                sw += a * e - b * f - c * g - d * h
                sx += a * f + b * e + c * h - d * g
                sy += a * g - b * h + c * e + d * f
                sz += a * h + b * g - c * f + d * e
        if not (sw or sx or sy or sz):
            continue
        if j:
            r = row_scales[j]
            yw, yx, yy, yz = _quotient(sw, sx, sy, sz, r * dets[j], "a back-substituted unknown")
            y[j] = _build(r * yw, r * yx, r * yy, r * yz, den)
            integral[j] = _left_sums(yw, yx, yy, yz) if wide else (yw, yx, yy, yz)
        else:
            y[j] = _build(sw, sx, sy, sz, dets[0] * den)
    return y


def _solve_row(entries, factor):
    """Left coefficients ``y``, one per kept row in kept order, with
    ``y * (kept rows) == entries``; None when ``entries`` is outside their
    left row span.  Reducing ``entries`` against the echelon rows ``E``
    writes it as ``z * E``, and ``y`` solves ``y * L == z``."""
    row, scale = _numerators(entries)
    z, rest, _ = _reduce(row, scale, factor.echelon)
    if any(map(any, rest)):
        return None
    return _back_substitute(z, scale, factor)


def solve_nonsingular(a, b):
    """Unique solution of ``x * a = b`` for square nonsingular ``a``, one
    :func:`_solve_row` per row of ``b`` on the factors of one pass over
    ``a``.  Raises, in this order, :class:`DimensionMismatch` for non-square
    ``a``, :class:`SingularMatrixError` and :class:`DimensionMismatch` for a
    ``b`` without ``a.rows`` columns."""
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    elimination = _eliminate_rows(a)
    if len(elimination.kept) < a.rows:
        raise SingularMatrixError(f"matrix {a} is singular")
    factor = _factor(elimination)
    if b.cols != a.rows:
        raise DimensionMismatch(f"rc product needs {b.shape} x {a.shape} inner match")
    return Matrix([_solve_row(row, factor) for row in b.cells], cols=a.rows)


def rc_inverse(a):
    """Two-sided inverse under the row-times-column product: the solution of
    ``x * a = 1``.

    Raises :class:`SingularMatrixError` when no inverse exists and
    :class:`DimensionMismatch` for non-square input.
    """
    return solve_nonsingular(a, Matrix.identity(a.rows))


def is_rc_nonsingular(a):
    """True when ``a`` is square and has a two-sided inverse."""
    if not a.is_square:
        return False
    return len(_eliminate_rows(a).kept) == a.rows


def rc_quasideterminant(a, p, r):
    """Quasideterminant of square ``a`` at 1-based position ``(p, r)``.

    Returns the quaternion value, or ``None`` when it is undefined because
    the complementary submatrix has no inverse.  For a 1x1 matrix the value
    is the entry itself (the correction term vanishes with the empty
    complementary minor).
    """
    if not a.is_square:
        raise DimensionMismatch(f"quasideterminant needs a square matrix, got {a.shape}")
    a.row_entries(p)  # range checks
    a.column_entries(r)
    n = a.rows
    # column r moved last: the complement fills the first n - 1 columns
    cells = [row[:r - 1] + row[r:] + (row[r - 1],) for row in a.cells]
    target = cells.pop(p - 1)
    echelon = _eliminate_rows(Matrix(cells, cols=n)).echelon
    if [pivot for pivot, *_ in echelon] != list(range(n - 1)):
        return None
    _, rest, den = _reduce(*_numerators(target), echelon)
    return _build(*rest[-1], den)


def cr_quasideterminant(a, i, j):
    """Column-times-row quasideterminant; the duality functor image of
    :func:`rc_quasideterminant`, evaluated on the transposed grid."""
    return rc_quasideterminant(a.transpose(), i, j)


def _kernel_column(complement):
    """The column ``c`` spanning the right kernel of the ``(n - 1) x n``
    matrix ``complement`` when it has rank ``n - 1``, else None.  Its echelon
    rows then leave one free column ``f``; ``c_f`` is one and, going
    backwards over the echelon rows, each pivot column's entry is one sum

        c_q = -(sum over j > q of E_qj * c_j)

    normalised once by :func:`_dot`, which takes each ``E_qj`` as its
    numerators over the echelon row's denominator."""
    n = complement.cols
    echelon = _eliminate_rows(complement).echelon
    if len(echelon) < n - 1:
        return None
    pivots = {pivot for pivot, *_ in echelon}
    c = [Quaternion.zero()] * n
    c[next(j for j in range(n) if j not in pivots)] = Quaternion.one()
    for pivot, tail, _, den, _ in reversed(echelon):
        terms = [((w, x, y, z, den), c[j]) for j, w, x, y, z in tail if not c[j].is_zero()]
        if terms:
            c[pivot] = -_dot(*zip(*terms))
    return c


def rc_inverse_via_quasidet(a):
    """Inverse assembled entrywise from quasideterminants.

    Entry ``(r, p)`` of the inverse is ``inverse(qdet(a, p, r))``; positions
    whose quasideterminant is undefined correspond exactly to zero entries of
    the inverse.  A quasideterminant that is defined but zero certifies the
    matrix singular.

    All the quasideterminants of row ``p`` come from one elimination of
    ``a`` without row ``p``: when it has rank ``n - 1``, its right kernel is
    spanned by a column ``c`` (:func:`_kernel_column`), ``qdet(a, p, r)`` is
    ``s * inverse(c_r)`` with ``s = row_p(a) * c`` wherever ``c_r`` is
    nonzero and undefined elsewhere, and entry ``(r, p)`` of the inverse is
    ``c_r * inverse(s)``.  When ``s`` is zero the first such ``r`` is
    reported, the position a loop over ``(p, r)`` in order would meet
    first.

    The assembled candidate is verified by a product round-trip.  This route
    never calls :func:`rc_inverse` nor its solves, only the forward pass they
    share, so it stays an independent check of them.
    """
    if not a.is_square:
        raise DimensionMismatch(f"only square matrices invert, got {a.shape}")
    n = a.rows
    zero = Quaternion.zero()
    cells = [[zero] * n for _ in range(n)]
    for p, row in enumerate(a.cells):
        c = _kernel_column(Matrix(a.cells[:p] + a.cells[p + 1:], cols=n))
        if c is None:
            continue
        support = [r for r, e in enumerate(c) if not e.is_zero()]
        s = _dot([row[r] for r in support], [c[r] for r in support])
        if s.is_zero():
            raise SingularMatrixError(
                f"quasideterminant at ({p + 1}, {support[0] + 1}) is zero, matrix is singular"
            )
        s_inverse = s.inverse()
        for r in support:
            cells[r][p] = c[r] * s_inverse
    candidate = Matrix(cells, cols=n)
    if rc_product(a, candidate) != Matrix.identity(n):
        raise SingularMatrixError("no inverse: quasideterminant candidate fails round-trip")
    return candidate


def cr_inverse(a):
    """Two-sided inverse under the column-times-row product, obtained through
    the duality functor: transpose, invert, transpose back."""
    return rc_inverse(a.transpose()).transpose()
