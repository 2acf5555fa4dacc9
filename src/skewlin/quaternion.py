"""Exact rational quaternions, the reference skew field.

Every operation is exact: identities such as ``a * a.inverse() == one`` hold
bit for bit, never up to a tolerance.  Multiplication follows the Hamilton
convention

    i*j = k,   j*k = i,   k*i = j

which makes the two reference quasideterminant values of this library
(``0`` and ``1+k`` on the built-in 2x2 example) come out right; the mirror
convention does not.

Internally a value is four integer numerators over one shared positive
denominator, kept coprime as a 5-tuple; products and sums then cost integer
work plus a single gcd, which keeps exact elimination on matrices fast.  The
components are exposed as :class:`fractions.Fraction` values.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError
from .field import SkewFieldElement

_UNITS = ("i", "j", "k")


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"quaternion components must be exact rationals, got {value!r}")


class Quaternion(SkewFieldElement):
    """A quaternion ``w + x*i + y*j + z*k`` with exact rational components.

    Immutable; instances may be shared and used concurrently.
    """

    __slots__ = ("_nw", "_nx", "_ny", "_nz", "_den")

    def __init__(self, w=0, x=0, y=0, z=0):
        fw, fx, fy, fz = (_as_fraction(v) for v in (w, x, y, z))
        den = lcm(fw.denominator, fx.denominator, fy.denominator, fz.denominator)
        object.__setattr__(self, "_nw", fw.numerator * (den // fw.denominator))
        object.__setattr__(self, "_nx", fx.numerator * (den // fx.denominator))
        object.__setattr__(self, "_ny", fy.numerator * (den // fy.denominator))
        object.__setattr__(self, "_nz", fz.numerator * (den // fz.denominator))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    @classmethod
    def _build(cls, nw, nx, ny, nz, den):
        """Construct from raw integer numerators over ``den``, normalizing."""
        g = gcd(nw, nx, ny, nz, den)
        if g > 1:
            nw //= g
            nx //= g
            ny //= g
            nz //= g
            den //= g
        q = object.__new__(cls)
        object.__setattr__(q, "_nw", nw)
        object.__setattr__(q, "_nx", nx)
        object.__setattr__(q, "_ny", ny)
        object.__setattr__(q, "_nz", nz)
        object.__setattr__(q, "_den", den)
        return q

    # -- components ----------------------------------------------------------

    @property
    def w(self):
        return Fraction(self._nw, self._den)

    @property
    def x(self):
        return Fraction(self._nx, self._den)

    @property
    def y(self):
        return Fraction(self._ny, self._den)

    @property
    def z(self):
        return Fraction(self._nz, self._den)

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
        d1, d2 = self._den, o._den
        return Quaternion._build(
            self._nw * d2 + o._nw * d1,
            self._nx * d2 + o._nx * d1,
            self._ny * d2 + o._ny * d1,
            self._nz * d2 + o._nz * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __neg__(self):
        return Quaternion._build(-self._nw, -self._nx, -self._ny, -self._nz, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        return Quaternion._build(
            self._nw * d2 - o._nw * d1,
            self._nx * d2 - o._nx * d1,
            self._ny * d2 - o._ny * d1,
            self._nz * d2 - o._nz * d1,
            d1 * d2,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._nw, self._nx, self._ny, self._nz
        e, f, g, h = o._nw, o._nx, o._ny, o._nz
        return Quaternion._build(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
            self._den * o._den,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    # -- division-ring structure -----------------------------------------------

    def conjugate(self):
        return Quaternion._build(self._nw, -self._nx, -self._ny, -self._nz, self._den)

    def norm(self):
        """Squared Euclidean norm ``w**2 + x**2 + y**2 + z**2`` as a Fraction."""
        squares = (
            self._nw * self._nw
            + self._nx * self._nx
            + self._ny * self._ny
            + self._nz * self._nz
        )
        return Fraction(squares, self._den * self._den)

    def inverse(self):
        squares = (
            self._nw * self._nw
            + self._nx * self._nx
            + self._ny * self._ny
            + self._nz * self._nz
        )
        if squares == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        d = self._den
        return Quaternion._build(
            self._nw * d, -self._nx * d, -self._ny * d, -self._nz * d, squares
        )

    def is_zero(self):
        return self._nw == 0 and self._nx == 0 and self._ny == 0 and self._nz == 0

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self._den == o._den
            and self._nw == o._nw
            and self._nx == o._nx
            and self._ny == o._ny
            and self._nz == o._nz
        )

    def __hash__(self):
        return hash((self._nw, self._nx, self._ny, self._nz, self._den))

    # -- text form --------------------------------------------------------------------

    def __str__(self):
        return format_quaternion(self)

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
    elif ch.isdigit():
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
