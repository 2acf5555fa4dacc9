from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewlin import I, J, K, ONE, ParseError, Quaternion, parse_quaternion

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
nonzero_quaternions = quaternions.filter(lambda q: not q.is_zero())


def test_unit_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_noncommutativity_witness():
    assert I * J == K
    assert J * I == -K
    assert I * J != J * I


def test_products_from_singular_family_parameters():
    # the two matrix entries of the worked 2x2 example
    assert (ONE + K) * K == parse_quaternion("-1+k")
    assert K * J == -I


def test_inverse_of_unit():
    assert K.inverse() == -K


def test_inverse_by_conjugate_over_norm():
    value = parse_quaternion("-1+k")
    expected = Quaternion(Fraction(-1, 2), 0, 0, Fraction(-1, 2))
    assert value.inverse() == expected
    assert value * value.inverse() == ONE
    assert value.inverse() * value == ONE


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Quaternion.zero().inverse()


def test_scalar_coercion():
    assert 1 + K == Quaternion(1, 0, 0, 1)
    assert 2 * J == Quaternion(0, 0, 2, 0)
    assert K - 1 == parse_quaternion("-1+k")
    assert Fraction(1, 2) * I == Quaternion(0, Fraction(1, 2), 0, 0)


@given(quaternions, quaternions, quaternions)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(quaternions, quaternions, quaternions)
def test_distributive_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(nonzero_quaternions)
def test_inverse_roundtrip(a):
    assert a * a.inverse() == ONE
    assert a.inverse() * a == ONE


@given(quaternions)
def test_parse_print_roundtrip(q):
    assert parse_quaternion(str(q)) == q


@pytest.mark.parametrize(
    "text,expected",
    [
        ("k", Quaternion(0, 0, 0, 1)),
        ("-i-j", Quaternion(0, -1, -1, 0)),
        ("1/2+3/2k", Quaternion(Fraction(1, 2), 0, 0, Fraction(3, 2))),
        ("0", Quaternion()),
        ("k-1", Quaternion(-1, 0, 0, 1)),
        ("+2j", Quaternion(0, 0, 2, 0)),
        (" 1 / 2 - 3 i ", Quaternion(Fraction(1, 2), -3, 0, 0)),
        ("2/4", Quaternion(Fraction(1, 2))),
        ("1+1", Quaternion(2)),
    ],
)
def test_parse_examples(text, expected):
    assert parse_quaternion(text) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (Quaternion(), "0"),
        (Quaternion(0, -1, -1, 0), "-i-j"),
        (Quaternion(Fraction(1, 2), 0, 0, Fraction(3, 2)), "1/2+3/2k"),
        (Quaternion(-1, 0, 0, 1), "-1+k"),
        (Quaternion(0, 1, 0, 0), "i"),
        (Quaternion(3), "3"),
    ],
)
def test_canonical_printing(value, expected):
    assert str(value) == expected


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "-", "1+", "1//2", "q", "1/0", "3k/2", "1 2", "i+", "[k]", "\u0661\u0662", "\u00b2",
     "1/\u00b2"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_quaternion(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse_quaternion("1+q")
    assert exc_info.value.position == 2


def test_value_is_the_normalized_tuple():
    q = Quaternion(Fraction(1, 2), -1, 0, Fraction(3, 4))
    assert hash(q) == hash((2, -4, 0, 3, 4))
    assert q != (2, -4, 0, 3, 4) and not q == (2, -4, 0, 3, 4)
    assert (2, -4, 0, 3, 4) != q
    for one, two in ((1, 2), (Fraction(1), Fraction(2))):
        assert Quaternion(1) == one and one == Quaternion(1)
        assert Quaternion(1) != two
        assert not Quaternion(1) != one
    with pytest.raises(TypeError):
        q < K
    with pytest.raises(TypeError):
        q >= (0,)
    with pytest.raises(AttributeError):
        q.w = 1
    with pytest.raises(AttributeError):
        q.foo = 1
    assert repr(q) == "Quaternion(Fraction(1, 2), Fraction(-1, 1), Fraction(0, 1), Fraction(3, 4))"
    assert str(q) == "1/2-i+3/4k"


def test_quaternion_satisfies_element_contract():
    assert Quaternion.zero().is_zero()
    assert Quaternion.one() * K == K
