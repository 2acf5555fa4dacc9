"""Exact rational quaternions, the skew field every matrix here is over.

Every operation is exact: identities such as ``a * a.inverse() == one`` hold
bit for bit, never up to a tolerance.  Multiplication follows the Hamilton
convention

    i*j = k,   j*k = i,   k*i = j

which makes the two reference quasideterminant values of this library
(``0`` and ``1+k`` on the built-in 2x2 example) come out right; the mirror
convention does not.

The matrices and the elimination kernel rely on exactly this much: ``+``,
``-`` and ``*`` are exact, ``*`` is associative but not commutative, every
nonzero value has a two-sided ``inverse()`` (zero raises
``ZeroDivisionError``), ``zero()`` and ``one()`` build the identities, and
``is_zero()`` tests equality with ``zero()``.

A value is the tuple of its four integer numerators over one shared positive
denominator, kept coprime, so every result is normalized by a 5-way gcd.  The
matrix products normalize once per entry, not once per operation:
:func:`_dot` forms a sum of products on raw integer numerators over the lcm
of its term denominators before a single gcd, and :func:`_dot_of_sums` over
the product of its two sequences' denominators.  The elimination kernel in
``quasidet`` goes further: it keeps each row as integer numerators over one
denominator and takes one content gcd per echelon row it keeps.  The tuple
layout is private: the components are exposed as :class:`fractions.Fraction`
values.

``*`` and each term of :func:`_dot` take the Hamilton formula's sixteen
multiplications, written out inline.  :func:`_product` is the same four
numerators from eight multiplications (Howell and Lafon), which multiply
eight sums of each factor (:func:`_left_sums`, :func:`_right_sums`); a
caller that multiplies by one factor many times can form that factor's sums
once, leaving eight multiplications and eleven additions per product.
:func:`_sum_vectors` does so for a whole sequence of quaternions, and
:func:`_dot_of_sums` then takes a dot product of two prepared sequences as
eight dot products of integer vectors.  Which form a caller takes is stated
once, in the ``quasidet`` module docstring.

Text and JSON read and write the tuple directly.  The parser matches one
compiled pattern per signed term (``_TERM``), tells every malformed input
apart by the groups the match left empty, sums the terms over the lcm of their
denominators and normalizes once; decimal text becomes integers only there.
The formatter and the CLI's JSON reduce each component with one gcd
(:func:`_lowest_terms`).
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ParseError

_SLOTS = {"": 0, "i": 1, "j": 2, "k": 3}


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"quaternion components must be exact rationals, got {value!r}")


_new = tuple.__new__


class Quaternion(tuple):
    """A quaternion ``w + x*i + y*j + z*k`` with exact rational components.

    The value is the tuple ``(nw, nx, ny, nz, den)`` itself: four integer
    numerators over a positive denominator, in lowest terms, so equal
    quaternions are equal tuples and hash alike, and one with no imaginary
    part hashes like the int or Fraction it equals.  The layout is private; use
    ``w``/``x``/``y``/``z``.  Immutable; instances may be shared and used
    concurrently.
    """

    __slots__ = ()

    def __new__(cls, w=0, x=0, y=0, z=0):
        fw, fx, fy, fz = (_as_fraction(v) for v in (w, x, y, z))
        den = lcm(fw.denominator, fx.denominator, fy.denominator, fz.denominator)
        return _new(cls, (
            fw.numerator * (den // fw.denominator),
            fx.numerator * (den // fx.denominator),
            fy.numerator * (den // fy.denominator),
            fz.numerator * (den // fz.denominator),
            den,
        ))

    def __reduce__(self):
        return (type(self), (self.w, self.x, self.y, self.z))

    # -- components ----------------------------------------------------------

    @property
    def w(self):
        return Fraction(self[0], self[4])

    @property
    def x(self):
        return Fraction(self[1], self[4])

    @property
    def y(self):
        return Fraction(self[2], self[4])

    @property
    def z(self):
        return Fraction(self[3], self[4])

    # -- constants -------------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    # -- ring structure ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, d1 = self
        e, f, g, h, d2 = o
        return _build(a * d2 + e * d1, b * d2 + f * d1, c * d2 + g * d1, d * d2 + h * d1,
                      d1 * d2)

    def __radd__(self, other):
        # tuple's own + would otherwise concatenate the private layout
        if isinstance(other, tuple):
            raise TypeError(f"cannot add {type(other).__name__} and Quaternion")
        return self.__add__(other)

    def __neg__(self):
        # a sign change keeps the gcd at 1, so no normalizing is needed
        nw, nx, ny, nz, den = self
        return _new(Quaternion, (-nw, -nx, -ny, -nz, den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, d1 = self
        e, f, g, h, d2 = o
        return _build(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
            d1 * d2,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    # -- division-ring structure -----------------------------------------------

    def _squares(self):
        nw, nx, ny, nz, _ = self
        return nw * nw + nx * nx + ny * ny + nz * nz

    def norm(self):
        """Squared Euclidean norm ``w**2 + x**2 + y**2 + z**2`` as a Fraction."""
        return Fraction(self._squares(), self[4] * self[4])

    def inverse(self):
        squares = self._squares()
        if squares == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        nw, nx, ny, nz, d = self
        return _build(nw * d, -nx * d, -ny * d, -nz * d, squares)

    def is_zero(self):
        return self[0] == 0 and self[1] == 0 and self[2] == 0 and self[3] == 0

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            # a plain tuple would otherwise answer by comparing components
            return False if isinstance(other, tuple) else NotImplemented
        return tuple.__eq__(self, o)

    # object's __ne__ negates __eq__; tuple's would compare components
    __ne__ = object.__ne__

    def __hash__(self):
        nw, nx, ny, nz, den = self
        if nx or ny or nz:
            return tuple.__hash__(self)
        return hash(Fraction(nw, den))

    def _unordered(self, other):
        raise TypeError("quaternions are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    # -- text form --------------------------------------------------------------------

    def __str__(self):
        return format_quaternion(self)

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _product(a, b, c, d, e, f, g, h):
    """The four numerators of the Hamilton product ``(a + b i + c j + d k)
    * (e + f i + g j + h k)`` from eight multiplications instead of sixteen
    (Howell and Lafon, *The complexity of the quaternion product*, 1975)."""
    t5 = (d - b) * (f - g)
    t6 = (d + b) * (f + g)
    t7 = (a + c) * (e - h)
    t8 = (a - c) * (e + h)
    t678 = t6 + t7 + t8
    # exact: t5 + t6 = 2 (d f + b g) and t7 + t8 = 2 (a e - c h)
    half = (t5 + t678) >> 1
    return (
        half - t6 + (d - c) * (g - h),
        half - t678 + (a + b) * (e + f),
        half - t8 + (a - b) * (g + h),
        half - t7 + (c + d) * (e - f),
    )


def _left_sums(a, b, c, d):
    """The eight sums of the left factor ``a + b i + c j + d k`` that
    :func:`_product` multiplies, in the order of :func:`_right_sums`."""
    return d - b, d + b, a + c, a - c, d - c, a + b, a - b, c + d


def _right_sums(e, f, g, h):
    """The eight sums of the right factor ``e + f i + g j + h k`` that
    :func:`_product` multiplies.  With ``l`` and ``r`` the sums of the two
    factors and ``m_i = l_i * r_i``, ``t678 = m_1 + m_2 + m_3`` and ``half =
    (m_0 + t678) / 2`` (exact), the product's numerators are ``half - m_1 +
    m_4``, ``half - t678 + m_5``, ``half - m_3 + m_6`` and ``half - m_2 +
    m_7``: a caller that reuses a factor forms its sums once."""
    return f - g, f + g, e - h, e + h, g - h, e + f, g + h, e - f


def _sum_vectors(entries, sums):
    """The quaternions ``entries`` as integer numerators over the lcm of
    their denominators, each replaced by its eight ``sums``
    (:func:`_left_sums` or :func:`_right_sums`).  Returns eight vectors,
    the first sum of every entry, then the second and so on, and that
    lcm."""
    den = lcm(*[e[4] for e in entries])
    return list(zip(*[
        sums(w, x, y, z) if d == den else sums(w * (s := den // d), x * s, y * s, z * s)
        for w, x, y, z, d in entries
    ])), den


def _dot_of_sums(left, right):
    """:func:`_dot` of two equally long sequences of quaternions given by
    :func:`_sum_vectors`, the left one by its left sums and the right one by
    its right sums.  Each of the eight products of :func:`_right_sums`'
    combine is one dot product of integer vectors, summed in C; the combine
    then runs once per entry, and its halving is exact because it is exact
    for every term.  The result is normalized once, over the product of the
    two denominators."""
    (l0, l1, l2, l3, lw, lx, ly, lz), left_den = left
    (r0, r1, r2, r3, rw, rx, ry, rz), right_den = right
    m1 = sum(map(mul, l1, r1))
    m2 = sum(map(mul, l2, r2))
    m3 = sum(map(mul, l3, r3))
    m123 = m1 + m2 + m3
    half = (sum(map(mul, l0, r0)) + m123) >> 1
    return _build(
        half - m1 + sum(map(mul, lw, rw)),
        half - m123 + sum(map(mul, lx, rx)),
        half - m3 + sum(map(mul, ly, ry)),
        half - m2 + sum(map(mul, lz, rz)),
        left_den * right_den,
    )


def _build(nw, nx, ny, nz, den):
    """A quaternion from raw integer numerators over ``den``, normalized."""
    g = gcd(nw, nx, ny, nz, den)
    if g > 1:
        return _new(Quaternion, (nw // g, nx // g, ny // g, nz // g, den // g))
    return _new(Quaternion, (nw, nx, ny, nz, den))


def _dot(left, right):
    """``sum(l * r for l, r in zip(left, right))``, each left factor on the
    left, normalized once: the numerators accumulate over a running
    denominator, the lcm of the term denominators so far.  Each term takes
    the inline sixteen-multiplication product, and the sum and the term are
    scaled by their cofactors over ``gcd(den, term_den)`` before adding."""
    sw = sx = sy = sz = 0
    den = 1
    for (a, b, c, d, d1), (e, f, g, h, d2) in zip(left, right):
        term_den = d1 * d2
        common = gcd(den, term_den)
        up = term_den // common
        across = den // common
        sw = sw * up + (a * e - b * f - c * g - d * h) * across
        sx = sx * up + (a * f + b * e + c * h - d * g) * across
        sy = sy * up + (a * g - b * h + c * e + d * f) * across
        sz = sz * up + (a * h + b * g - c * f + d * e) * across
        den *= up
    return _build(sw, sx, sy, sz, den)


_ZERO = Quaternion(0, 0, 0, 0)
_ONE = Quaternion(1, 0, 0, 0)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def _lowest_terms(q):
    """The components ``w, x, y, z`` of ``q`` as ``(numerator, denominator)``
    pairs in lowest terms, each denominator positive."""
    den = q[4]
    return [(n // (g := gcd(n, den)), den // g) for n in q[:4]]


def format_quaternion(q):
    """Canonical text form: lowest terms, components in w,x,y,z order, zero
    terms omitted, ``0`` for the zero quaternion."""
    text = ""
    for (num, den), unit in zip(_lowest_terms(q), ("", "i", "j", "k")):
        if num:
            body = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
            if unit and body == "1":
                body = ""  # a unit's coefficient 1 is implied
            text += ("-" if num < 0 else "+") + body + unit
    return text.removeprefix("+") or "0"


# One signed term.  Every group is optional, so a match never fails: a
# malformed term is told apart by the groups it leaves empty.  ``[0-9]``, not
# ``\d``, keeps other scripts' digits out; ``\s`` is ``str.isspace``.
_TERM = re.compile(r"([+-]?)\s*(?:([0-9]+)\s*(?:(/)\s*([0-9]*)\s*)?)?([ijk]?)\s*")


def parse_quaternion(text):
    """Parse the quaternion grammar ``sign? term (sign term)*``.

    A term is a rational (``3``, ``1/2``) with an optional unit suffix, or a
    bare unit ``i``/``j``/``k``.  ``parse_quaternion(str(q)) == q`` for every
    quaternion ``q``.  Raises :class:`ParseError` with the offending position
    on malformed input.
    """
    end = len(text)
    pos = start = end - len(text.lstrip())
    if pos == end:
        raise ParseError("empty quaternion", pos)
    # the four numerators over the lcm of the term denominators so far
    numerators = [0, 0, 0, 0]
    den = 1
    while pos < end:
        m = _TERM.match(text, pos)
        sign, digits, slash, den_digits, unit = m.groups()
        if not sign and pos != start:
            raise ParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
        pos = m.end()
        num = term_den = 1
        if digits is not None:
            # converted first: an over-limit numerator raises the int/str
            # limit's ValueError before any denominator error
            num = int(digits)
            if slash:
                if not den_digits:
                    raise ParseError("expected digits", m.start(4))
                term_den = int(den_digits)
                if not term_den:
                    raise ParseError("denominator must be positive", m.start(3) + 1)
        elif not unit:
            raise ParseError(f"expected term, got {text[pos]!r}" if pos < end
                             else "expected term", pos)
        if den % term_den:
            up = term_den // gcd(den, term_den)
            numerators = [n * up for n in numerators]
            den *= up
        numerators[_SLOTS[unit]] += (den // term_den) * (-num if sign == "-" else num)
    return _build(*numerators, den)
