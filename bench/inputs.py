"""Seeded input generators for the four benchmark workloads.

Inputs are built from the standard library's ``random`` and the public
``Quaternion``, ``Matrix`` and ``parse_matrix`` constructors only, never from
``skewlin.sampling``, so that a change to the library's sampling helpers
cannot change what the benchmark runs.  The same seed gives the same inputs;
:func:`digest` fingerprints them so two commits can be shown to have run
identical inputs.

Nonsingularity and rank are certified here without the library's own
elimination.  Modulo a prime ``p = 1 (mod 4)`` the quaternions map into 2x2
matrices over ``GF(p)`` by a ring homomorphism, so a quaternion matrix ``M``
of rank ``r`` (a product through an inner dimension ``r``) maps to a matrix
of rank at most ``2r``.  Half the modular rank, rounded up, is therefore a
lower bound on the rank of ``M``: full modular rank proves nonsingularity,
and together with a factorisation through an inner dimension ``r`` it proves
rank exactly ``r``.
"""

import hashlib
import json
from fractions import Fraction
from math import comb

_PRIME = 2**64 - 59  # prime, and 1 mod 4
_IOTA = pow(2, (_PRIME - 1) // 4, _PRIME)  # a square root of -1 mod _PRIME

# Problem classes.  The classes are the ones the workload definitions name;
# no traffic measurement gives their weights, so every class runs equally
# often: once a round, or ``CLI_PER_CLASS`` times for the CLI classes.  This
# equal weighting is an assumption, not a measured mix, and ``run.py``
# reports figures per class so that no single percentile stands for the mix.
DENSE_SIZES = (4, 6, 8, 12, 16)


def minors_above(m, n, r):
    """Minors the rank search tests before it reaches order ``r``."""
    return sum(comb(m, k) * comb(n, k) for k in range(r + 1, min(m, n) + 1))


# (rows, cols, rank) per problem; rank 0 is the zero matrix.  Half rank
# (``min // 2``) on every shape 3 <= m, n <= 7 whose rank search tests no
# more minors than the 6x6 one (262): the 7x7 half-rank solve alone costs
# over two seconds, more than a whole round of the others.  Then the
# rank min - 1 squares, the zero matrix and full-rank rectangular shapes.
RANK_SHAPES = tuple(
    (m, n, min(m, n) // 2)
    for m in range(3, 8) for n in range(3, 8)
    if minors_above(m, n, min(m, n) // 2) <= minors_above(6, 6, 3)
) + (
    (4, 4, 3), (5, 5, 4), (6, 6, 5), (7, 7, 6),
    (3, 3, 0), (4, 5, 0),
    (3, 5, 3), (6, 4, 4), (7, 3, 3),
)

# (size, digits) per problem.  A 6x6 problem at 300 digits costs over two
# seconds, longer than a whole round of the others, so it is left out.
GROWTH_CLASSES = tuple(
    (n, digits) for digits in (30, 100, 300) for n in (4, 5, 6) if (n, digits) != (6, 300)
)

# Request classes of a cli round, each ``CLI_PER_CLASS`` times, and one
# over-limit ``inv``: 1 request in 12 * 17 + 1 = 205.
CLI_CLASSES = (
    "qdet", "inv", "rank", "mul", "solve", "demo", "repr",
    "singular", "undefined", "inconsistent", "malformed", "mismatch",
)
CLI_PER_CLASS = 17
LARGE_DIGITS = 900


# -- certification by rank modulo a prime --------------------------------------


def _mod(c):
    return c.numerator * pow(c.denominator, -1, _PRIME) % _PRIME


def _modular_rows(m):
    """Image of ``m`` under ``w + x i + y j + z k -> [[w + x t, y + z t],
    [-y + z t, w - x t]]`` with ``t*t = -1``, a ring homomorphism for the
    library's Hamilton product (``i*j = k``)."""
    rows = []
    for row in m.cells:
        top, bottom = [], []
        for q in row:
            w, x, y, z = (_mod(c) for c in (q.w, q.x, q.y, q.z))
            top += [(w + x * _IOTA) % _PRIME, (y + z * _IOTA) % _PRIME]
            bottom += [(-y + z * _IOTA) % _PRIME, (w - x * _IOTA) % _PRIME]
        rows += [top, bottom]
    return rows


def rank_mod_p(m):
    """A lower bound on the rank of the quaternion matrix ``m``, equal to it
    except with negligible probability."""
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _modular_rows(m)
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _PRIME - 2, _PRIME)
        prow = [v * inv % _PRIME for v in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % _PRIME for a, b in zip(rows[r], prow)]
        rank += 1
    return (rank + 1) // 2


def is_certainly_nonsingular(m):
    return m.rows == m.cols and rank_mod_p(m) == m.rows


# -- the benchmark's own reference arithmetic ---------------------------------------


def rc_product(S, a, b):
    """Schoolbook ``sum_k a[i][k] * b[k][j]``, independent of the library's
    product routines."""
    zero = S.Quaternion(0)
    return S.Matrix(
        [[sum((a.cells[i][k] * b.cells[k][j] for k in range(a.cols)), zero)
          for j in range(b.cols)] for i in range(a.rows)],
        cols=b.cols,
    )


def cr_product(S, a, b):
    """Schoolbook ``result[i][j] = sum_k a[k][j] * b[i][k]``."""
    zero = S.Quaternion(0)
    return S.Matrix(
        [[sum((a.cells[k][j] * b.cells[i][k] for k in range(a.rows)), zero)
          for j in range(a.cols)] for i in range(b.rows)],
        cols=a.cols,
    )


def stack(S, a, row):
    """``a`` with the 1 x n matrix ``row`` appended below it."""
    return S.Matrix(list(a.cells) + [row.cells[0]], cols=a.cols)


def text(m):
    """Matrix text in the library grammar, written without the library's
    formatter so the inputs do not depend on it."""
    return "[" + "; ".join(", ".join(_quaternion_text(q) for q in row) for row in m.cells) + "]"


def _quaternion_text(q):
    terms = [
        f"{'-' if c < 0 else '+'}{abs(c)}{unit}"
        for c, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k"))
        if c
    ]
    return "".join(terms) or "0"


# -- entries -----------------------------------------------------------------------


def small_quaternion(S, rng, num=9, den=9):
    return S.Quaternion(
        *(Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(4))
    )


def big_quaternion(S, rng, digits):
    def component():
        value = rng.randrange(10 ** (digits - 1), 10**digits)
        return -value if rng.random() < 0.5 else value

    return S.Quaternion(*(component() for _ in range(4)))


def matrix(S, m, n, entry):
    return S.Matrix([[entry() for _ in range(n)] for _ in range(m)], cols=n)


def nonsingular(S, n, entry, complements=()):
    """A certified nonsingular n x n matrix.  ``complements`` lists
    ``(p, r, transposed)`` positions whose complementary minor must be
    nonsingular too, so the quasideterminant there is defined."""
    while True:
        a = matrix(S, n, n, entry)
        if is_certainly_nonsingular(a) and all(
            is_certainly_nonsingular((a.transpose() if t else a).without(p, r))
            for p, r, t in complements
        ):
            return a


def of_rank(S, m, n, r, entry):
    """An m x n matrix of rank exactly ``r``, built as a product through an
    inner dimension ``r``.  When ``m > r`` the first row is a left multiple
    of the second, so the lexicographically first row set is dependent and
    the minor search has to move past it; fixing this by shape rather than
    by coin keeps the search length, and so the cost, the same on every
    seed."""
    if r == 0:
        return S.Matrix.zeros(m, n)
    while True:
        left = [[entry() for _ in range(r)] for _ in range(m)]
        if m > r:
            scale = entry()
            left[0] = [scale * e for e in left[1]]
        a = rc_product(S, S.Matrix(left), matrix(S, r, n, entry))
        if rank_mod_p(a) == r:
            return a


# -- workloads -----------------------------------------------------------------------


def dense_inverse(S, rng, sizes=DENSE_SIZES):
    entry = lambda: small_quaternion(S, rng)  # noqa: E731
    problems = []
    for n in sizes:
        problems.append({
            "n": n,
            "a": nonsingular(S, n, entry, ((1, 1, False), (n, n, False), (1, 1, True))),
            "b": matrix(S, n, n, entry),
            "section": [matrix(S, 1, n, entry) for _ in range(4)],
            "fibers": [matrix(S, n, n, entry) for _ in range(4)],
        })
    return problems


def rank_deficient(S, rng, shapes=RANK_SHAPES):
    entry = lambda: small_quaternion(S, rng, 3, 3)  # noqa: E731
    problems = []
    for m, n, r in shapes:
        a = of_rank(S, m, n, r, entry)
        consistent_rhs = rc_product(S, matrix(S, 1, m, entry), a)
        inconsistent_rhs = None
        if r < n:
            while inconsistent_rhs is None:
                b = matrix(S, 1, n, entry)
                if rank_mod_p(stack(S, a, b)) == r + 1:
                    inconsistent_rhs = b
        basis = nonsingular(S, n, entry)
        coords = matrix(S, 1, n, entry)
        problems.append({
            "m": m, "n": n, "rank": r, "a": a,
            "consistent_rhs": consistent_rhs,
            "inconsistent_rhs": inconsistent_rhs,
            "basis": basis, "coords": coords,
            "vector": rc_product(S, coords, basis),
        })
    return problems


def coefficient_growth(S, rng, classes=GROWTH_CLASSES):
    problems = []
    for n, digits in classes:
        entry = lambda: big_quaternion(S, rng, digits)  # noqa: E731
        problems.append({
            "n": n, "digits": digits,
            "a": nonsingular(S, n, entry, ((n, n, False),)),
            "rhs": matrix(S, 1, n, entry),
        })
    return problems


REPR_ORDER = 60
# The quotient orders d, taken in turn so that every round, on every seed,
# has the same mix of instance sizes.
REPR_QUOTIENTS = tuple(d for d in range(1, REPR_ORDER) if REPR_ORDER % d == 0)


def cyclic_instance(d, n=REPR_ORDER):
    """A morphism from Z_n acting on itself by rotation onto Z_d acting on
    itself (d a proper divisor of n): a carrier of a few dozen points, and a
    monoid large enough that validating its table dominates the request."""
    return {
        "f": {"algebra": {"size": n, "table": _cyclic_table(n), "unit": 0},
              "carrier": n, "action": _cyclic_table(n)},
        "g": {"algebra": {"size": d, "table": _cyclic_table(d), "unit": 0},
              "carrier": d, "action": _cyclic_table(d)},
        "morphism": {"r": [a % d for a in range(n)], "R": [m % d for m in range(n)]},
    }


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def cli_requests(S, rng, per_class=CLI_PER_CLASS):
    """One round of CLI requests: ``{"argv", "stdin", "kind", "expect"}``
    where ``expect`` is the exit status a correct program gives."""
    entry = lambda: small_quaternion(S, rng)  # noqa: E731
    requests = []

    def fmt():
        return "json" if len(requests) % 2 else "text"

    def kind():
        return rng.choice(("rc", "cr"))

    for cls in CLI_CLASSES:
        for i in range(per_class):
            n = rng.randint(2, 4)
            argv, stdin, expect = None, None, 0
            if cls == "qdet":
                while True:
                    a = matrix(S, n, n, entry)
                    k, p, r = kind(), rng.randint(1, n), rng.randint(1, n)
                    grid = a if k == "rc" else a.transpose()
                    if is_certainly_nonsingular(grid.without(p, r)):
                        break
                argv = ["qdet", "--kind", k, "--pos", f"{p},{r}", text(a)]
            elif cls == "inv":
                argv = ["inv", "--kind", kind(), text(nonsingular(S, n, entry))]
            elif cls == "rank":
                cols = rng.randint(2, 4)
                a = of_rank(S, n, cols, rng.randint(1, min(n, cols) - 1), entry)
                argv = ["rank", "--kind", kind(), text(a)]
            elif cls == "mul":
                p, q = rng.randint(1, 4), rng.randint(1, 4)
                k = kind()
                left = matrix(S, p, n, entry) if k == "rc" else matrix(S, n, p, entry)
                right = matrix(S, n, q, entry) if k == "rc" else matrix(S, q, n, entry)
                argv = ["mul", "--kind", k, text(left), text(right)]
            elif cls == "solve":
                cols = rng.randint(2, 4)
                a = of_rank(S, n, cols, rng.randint(1, min(n, cols)), entry)
                rhs = rc_product(S, matrix(S, 1, n, entry), a)
                argv = ["solve", text(a), "--rhs", text(rhs)]
            elif cls == "demo":
                argv = ["demo", "paper-example"]
            elif cls == "repr":
                argv, stdin = ["repr-decompose"], json.dumps(
                    cyclic_instance(REPR_QUOTIENTS[i % len(REPR_QUOTIENTS)]))
            elif cls == "singular":
                a = of_rank(S, n, n, n - 1, entry)
                argv, expect = ["inv", text(a)], 1
            elif cls == "undefined":
                # row 2 = s * row 1 off column 1 makes the (1,1) complement
                # singular while the matrix itself stays generic
                rows = [[entry() for _ in range(3)] for _ in range(3)]
                s = entry()
                rows[2][1:] = [s * e for e in rows[1][1:]]
                argv, expect = ["qdet", "--pos", "1,1", text(S.Matrix(rows))], 1
            elif cls == "inconsistent":
                a = of_rank(S, n, n, n - 1, entry)
                while True:
                    rhs = matrix(S, 1, n, entry)
                    if rank_mod_p(stack(S, a, rhs)) == n:
                        break
                argv, expect = ["solve", text(a), "--rhs", text(rhs)], 1
            elif cls == "malformed":
                body = text(matrix(S, n, n, entry))
                cut = rng.randint(1, len(body) - 2)
                argv, expect = ["rank", body[:cut] + "+*" + body[cut:]], 2
            elif cls == "mismatch":
                argv, expect = ["mul", text(matrix(S, n, n, entry)),
                                text(matrix(S, n + 1, n, entry))], 2
            if cls not in ("demo", "repr", "malformed", "mismatch"):
                argv[1:1] = ["--format", fmt()]
            requests.append({"argv": argv, "stdin": stdin, "kind": cls, "expect": expect})
    requests.append(large_request(S, rng))
    rng.shuffle(requests)
    return requests


def large_request(S, rng):
    """``inv`` of a 3x3 matrix with 900-digit entries: a valid request whose
    result has integers longer than Python's default 4300-digit str limit."""
    big = lambda: big_quaternion(S, rng, LARGE_DIGITS)  # noqa: E731
    return {"argv": ["inv", text(nonsingular(S, 3, big))], "stdin": None,
            "kind": "large", "expect": 0}


def digest(problems):
    """SHA-256 over a canonical text form of the generated inputs (keys
    starting with ``_`` hold library objects prepared from them)."""
    h = hashlib.sha256()
    for problem in problems:
        for key in sorted(k for k in problem if not k.startswith("_")):
            h.update(f"{key}={_canonical(problem[key])};".encode())
        h.update(b"\n")
    return h.hexdigest()


def _canonical(value):
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if hasattr(value, "cells"):
        return repr(tuple(tuple((q.w, q.x, q.y, q.z) for q in row) for row in value.cells))
    return repr(value)
