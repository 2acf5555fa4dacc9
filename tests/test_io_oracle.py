"""Quaternion text and JSON against the definitions they replaced.

The library parses and formats the normalized tuple ``(nw, nx, ny, nz,
den)`` directly.  The oracles below are the earlier implementations, which
went through :class:`fractions.Fraction` for every term and component: the
parser built one ``Quaternion`` per term and added them, the formatter and
the JSON form read the ``w``/``x``/``y``/``z`` properties.  The properties
check that the two agree on the value or on the exact error, and on the
exact text and JSON.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from skewlin import ParseError, Quaternion, format_quaternion, parse_quaternion
from skewlin.cli import quaternion_json

_UNITS = ("i", "j", "k")


class _OracleScanner:
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


def oracle_parse(text):
    s = _OracleScanner(text)
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
        total = total + _oracle_term(s, negative)
        first = False
        if s.done():
            return total


def _oracle_term(s, negative):
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


def oracle_format(q):
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


def oracle_json(q):
    return {c: {"num": f.numerator, "den": f.denominator}
            for c, f in (("w", q.w), ("x", q.x), ("y", q.y), ("z", q.z))}


def _outcome(parse, text):
    try:
        return "value", tuple(parse(text))
    except ParseError as exc:
        return type(exc), str(exc), exc.position
    except ValueError as exc:  # the int/str digit limit
        return type(exc), str(exc)


# a numerator past the int/str conversion limit of 4,300 digits
_OVER_LIMIT = "7" * 4400


# The grammar's alphabet, whitespace the parser skips (every kind that
# ``str.isspace`` accepts: ASCII, Latin-1, an information separator, the line
# separator and the ideographic space), and characters that look like it but
# are not in it: other scripts' digits, a superscript, a letter and a dot.
_ALPHABET = "0123456789/ijk+-" + " \t\n\xa0\x1c\x85\u2028\u3000" + "٢²x."

_term = st.one_of(
    st.sampled_from(["i", "j", "k"]),
    st.builds(
        lambda n, d, unit: f"{n}{d}{unit}",
        st.integers(0, 10**30),
        st.one_of(st.just(""), st.integers(0, 10**12).map(lambda d: f"/{d}")),
        st.sampled_from(["", "i", "j", "k"]),
    ),
)
_signed_terms = st.lists(st.tuples(st.sampled_from(["", "+", "-", " + ", "- "]), _term),
                         min_size=1, max_size=8)
_grammar_text = _signed_terms.map(lambda terms: "".join(s + t for s, t in terms))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(_ALPHABET, max_size=24), _grammar_text,
                 st.tuples(_grammar_text, st.text(_ALPHABET, max_size=3),
                           st.integers(0, 60)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])))
@example("")
@example(" \t")
@example("1/0")
@example("2/4 + 1/4 - 3/4")
@example("i + -j")
@example("٢")
@example("1 2")
@example("+ ")
@example(_OVER_LIMIT + "/")
@example(_OVER_LIMIT + "/0")
def test_parse_matches_oracle(text):
    assert _outcome(parse_quaternion, text) == _outcome(oracle_parse, text)


_digits = st.integers(1, 4000)
_big = _digits.flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
_numerators = st.one_of(st.integers(-3, 3), _big, _big.map(lambda v: -v))
_denominators = st.one_of(st.integers(1, 4), _big)
_components = st.builds(Fraction, _numerators, _denominators)
_quaternions = st.builds(Quaternion, _components, _components, _components, _components)


@settings(max_examples=150, deadline=None)
@given(_quaternions)
@example(Quaternion(0, 0, 0, 0))
@example(Quaternion(1, -1, 1, -1))
@example(Quaternion(Fraction(-1, 2), 0, Fraction(1, 1), Fraction(-6, 4)))
def test_text_and_json_match_oracle(q):
    assert format_quaternion(q) == oracle_format(q)
    assert quaternion_json(q) == oracle_json(q)
    assert json.dumps(quaternion_json(q), sort_keys=True) == json.dumps(
        oracle_json(q), sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(_quaternions)
@example(Quaternion(0, 0, 0, 0))
@example(Quaternion(Fraction(-1, 2), 0, Fraction(1, 1), Fraction(-6, 4)))
def test_parse_inverts_format(q):
    text = format_quaternion(q)
    assert parse_quaternion(text) == q
    assert _outcome(parse_quaternion, text) == _outcome(oracle_parse, text)
