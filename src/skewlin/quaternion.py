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
elimination kernel and the matrix products normalize once per result, not
once per operation: :func:`_sub_mul` forms the update ``x - l*y`` and
:func:`_dot` a sum of products on raw integer numerators before a single
gcd.  Since the gcd's cost grows with the size of its arguments, both put
their numerators over the smallest denominator they can find cheaply:
:func:`_dot` over the lcm of its term denominators, and :func:`_sub_mul`
over the denominator of ``l*y`` whenever that of ``x`` divides it, or over
the denominator of ``y`` alone when ``x`` and ``l`` share a denominator that
divides out exactly.  The tuple layout is private: the components are
exposed as :class:`fractions.Fraction` values.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

_UNITS = ("i", "j", "k")


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
    quaternions are equal tuples and hash alike.  The layout is private; use
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

    __radd__ = __add__

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

    def conjugate(self):
        nw, nx, ny, nz, den = self
        return _new(Quaternion, (nw, -nx, -ny, -nz, den))

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
    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError("quaternions are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    # -- text form --------------------------------------------------------------------

    def __str__(self):
        return format_quaternion(self)

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _build(nw, nx, ny, nz, den):
    """A quaternion from raw integer numerators over ``den``, normalized."""
    g = gcd(nw, nx, ny, nz, den)
    if g > 1:
        return _new(Quaternion, (nw // g, nx // g, ny // g, nz // g, den // g))
    return _new(Quaternion, (nw, nx, ny, nz, den))


def _sub_mul(x, l, y):
    """``x - l * y``, normalized once instead of once for the product and
    once for the difference.

    The product ``l * y`` has the denominator ``dl * dy``; the difference is
    put over the smallest denominator at hand before the gcd:

    * ``dx == dl`` (the lead is an entry of ``x``'s own row): over
      ``dl * dy``, then over ``dy`` when ``dl`` divides all four
      numerators.  By Sylvester's identity, as in Bareiss's fraction-free
      elimination, the previous pivot's denominator usually cancels here,
      and one exact division by ``dl`` is cheaper than leaving those bits
      to the gcd; the ``divmod`` chain stops at the first remainder.
    * ``dx`` divides ``dl * dy``: over ``dl * dy``, with ``x`` scaled by the
      exact quotient.
    * otherwise over ``dx * dl * dy``.
    """
    a, b, c, d, dl = l
    e, f, g, h, dy = y
    pw = a * e - b * f - c * g - d * h
    px = a * f + b * e + c * h - d * g
    py = a * g - b * h + c * e + d * f
    pz = a * h + b * g - c * f + d * e
    den = dl * dy
    xw, xx, xy, xz, dx = x
    if dx == dl:
        nw, nx, ny, nz = xw * dy - pw, xx * dy - px, xy * dy - py, xz * dy - pz
        if dl > 1:
            qw, r = divmod(nw, dl)
            if not r:
                qx, r = divmod(nx, dl)
                if not r:
                    qy, r = divmod(ny, dl)
                    if not r:
                        qz, r = divmod(nz, dl)
                        if not r:
                            return _build(qw, qx, qy, qz, dy)
        return _build(nw, nx, ny, nz, den)
    scale, r = divmod(den, dx)
    if not r:
        return _build(xw * scale - pw, xx * scale - px, xy * scale - py, xz * scale - pz, den)
    return _build(xw * den - pw * dx, xx * den - px * dx, xy * den - py * dx,
                  xz * den - pz * dx, den * dx)


def _dot(left, right):
    """``sum(l * r for l, r in zip(left, right))``, each left factor on the
    left, normalized once: the numerators accumulate over a running
    denominator, the lcm of the term denominators so far.  A term over the
    same denominator is added directly; otherwise both sides are scaled by
    their cofactors over ``gcd(den, term_den)``."""
    sw = sx = sy = sz = 0
    den = 1
    for (a, b, c, d, d1), (e, f, g, h, d2) in zip(left, right):
        pw = a * e - b * f - c * g - d * h
        px = a * f + b * e + c * h - d * g
        py = a * g - b * h + c * e + d * f
        pz = a * h + b * g - c * f + d * e
        term_den = d1 * d2
        if term_den == den:
            sw += pw
            sx += px
            sy += py
            sz += pz
        else:
            common = gcd(den, term_den)
            up = term_den // common
            across = den // common
            sw = sw * up + pw * across
            sx = sx * up + px * across
            sy = sy * up + py * across
            sz = sz * up + pz * across
            den *= up
    return _build(sw, sx, sy, sz, den)


_ZERO = Quaternion(0, 0, 0, 0)
_ONE = Quaternion(1, 0, 0, 0)

ONE = _ONE
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def format_quaternion(q):
    """Canonical text form: lowest terms, components in w,x,y,z order, zero
    terms omitted, ``0`` for the zero quaternion."""
    parts = []
    for coeff, unit in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if coeff == 0:
            continue
        magnitude = -coeff if coeff < 0 else coeff
        if unit and magnitude == 1:
            body = unit
        else:
            body = f"{magnitude}{unit}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text


class _Scanner:
    """Single-pass scanner for the quaternion grammar; whitespace ignored."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._skip_ws()

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self):
        return self.pos >= len(self.text)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.text[self.pos]
        self.pos += 1
        self._skip_ws()
        return ch

    def take_integer(self):
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        digits = self.text[start:self.pos]
        self._skip_ws()
        return int(digits)


def parse_quaternion(text):
    """Parse the quaternion grammar ``sign? term (sign term)*``.

    A term is a rational (``3``, ``1/2``) with an optional unit suffix, or a
    bare unit ``i``/``j``/``k``.  ``parse_quaternion(str(q)) == q`` for every
    quaternion ``q``.  Raises :class:`ParseError` with the offending position
    on malformed input.
    """
    s = _Scanner(text)
    if s.done():
        raise ParseError("empty quaternion", s.pos)
    total = Quaternion.zero()
    first = True
    while True:
        negative = False
        if s.peek() in "+-":
            negative = s.take() == "-"
        elif not first:
            raise ParseError(f"expected '+' or '-', got {s.peek()!r}", s.pos)
        total = total + _parse_term(s, negative)
        first = False
        if s.done():
            return total


def _parse_term(s, negative):
    if s.done():
        raise ParseError("expected term", s.pos)
    ch = s.peek()
    if ch in _UNITS:
        s.take()
        coeff = Fraction(1)
        unit = ch
    elif "0" <= ch <= "9":
        numerator = s.take_integer()
        denominator = 1
        if s.peek() == "/":
            slash_pos = s.pos
            s.take()
            denominator = s.take_integer()
            if denominator == 0:
                raise ParseError("denominator must be positive", slash_pos + 1)
        coeff = Fraction(numerator, denominator)
        unit = ""
        if s.peek() in _UNITS:
            unit = s.take()
    else:
        raise ParseError(f"expected term, got {ch!r}", s.pos)
    if negative:
        coeff = -coeff
    if unit == "i":
        return Quaternion(0, coeff, 0, 0)
    if unit == "j":
        return Quaternion(0, 0, coeff, 0)
    if unit == "k":
        return Quaternion(0, 0, 0, coeff)
    return Quaternion(coeff, 0, 0, 0)
