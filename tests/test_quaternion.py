from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from skewlin import I, J, K, ParseError, Quaternion, parse_quaternion
from skewlin.quaternion import _dot, _sub_mul

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
nonzero_quaternions = quaternions.filter(lambda q: not q.is_zero())


def test_unit_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -Quaternion.one()
    assert J * J == -Quaternion.one()
    assert K * K == -Quaternion.one()


def test_noncommutativity_witness():
    assert I * J == K
    assert J * I == -K
    assert I * J != J * I


def test_products_from_singular_family_parameters():
    # the two matrix entries of the worked 2x2 example
    assert (Quaternion.one() + K) * K == parse_quaternion("-1+k")
    assert K * J == -I


def test_inverse_of_unit():
    assert K.inverse() == -K


def test_inverse_by_conjugate_over_norm():
    value = parse_quaternion("-1+k")
    expected = Quaternion(Fraction(-1, 2), 0, 0, Fraction(-1, 2))
    assert value.inverse() == expected
    assert value * value.inverse() == Quaternion.one()
    assert value.inverse() * value == Quaternion.one()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Quaternion.zero().inverse()


def test_scalar_coercion():
    assert 1 + K == Quaternion(1, 0, 0, 1)
    assert 2 * J == Quaternion(0, 0, 2, 0)
    assert K - 1 == parse_quaternion("-1+k")
    assert Fraction(1, 2) * I == Quaternion(0, Fraction(1, 2), 0, 0)


@pytest.mark.parametrize("component", [0.5, "1", None])
def test_components_must_be_exact_rationals(component):
    with pytest.raises(TypeError, match="quaternion components must be exact rationals"):
        Quaternion(1, component)


@given(quaternions, quaternions, quaternions)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(quaternions, quaternions, quaternions)
def test_distributive_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(nonzero_quaternions)
def test_inverse_roundtrip(a):
    assert a * a.inverse() == Quaternion.one()
    assert a.inverse() * a == Quaternion.one()


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


# Operands for the fused helpers: zero, small and 300-digit components of
# either sign, over denominators drawn from a small set (so that equal
# denominators are common) or of 300 digits (so that they almost never are).
_big = st.integers(min_value=10**300, max_value=10**320)
_numerators = st.one_of(st.integers(min_value=-9, max_value=9), _big, _big.map(lambda n: -n))
_denominators = st.one_of(st.sampled_from([1, 2, 6]), _big)
exact_quaternions = st.one_of(
    st.just(Quaternion.zero()),
    st.builds(
        lambda nums, den: Quaternion(*(Fraction(n, den) for n in nums)),
        st.tuples(_numerators, _numerators, _numerators, _numerators),
        _denominators,
    ),
)
HALVES = Quaternion(Fraction(1, 2), 0, Fraction(-3, 2), 1)
SIXTHS = Quaternion(Fraction(13, 6), Fraction(1, 6), 0, 0)
SIXTH = Quaternion(Fraction(1, 6))


# One example per denominator case of _sub_mul, with dx, dl, dy the
# denominators of x, l, y:
@given(exact_quaternions, exact_quaternions, exact_quaternions)
# dx == dl == 6, and 6 divides every numerator of x*dy - l*y: (60, -6, 0, 0)
@example(SIXTHS, SIXTH, Quaternion(1, Fraction(11, 5), 0, 0))
# dx == dl == 6, and 6 divides the first numerator (60) but not the second (3)
@example(SIXTHS, SIXTH, Quaternion(1, Fraction(2, 5), 0, 0))
# dx == dl == 2, and 2 divides no numerator
@example(HALVES, HALVES, Quaternion(0, Fraction(1, 3), 0, 0))
# dx == dl == 1
@example(Quaternion.zero(), Quaternion.one(), Quaternion.zero())
# dx = 1 and dx = 2 dividing dl * dy = 6
@example(Quaternion(3, -1, 0, 2), HALVES, K)
@example(HALVES, Quaternion(Fraction(1, 3), Fraction(1, 6), 0, 0), J)
# dx = 5 dividing neither dl = 2 nor dl * dy = 6
@example(Quaternion(Fraction(1, 5), 0, Fraction(2, 5), 0), HALVES,
         Quaternion(0, Fraction(1, 3), 0, 0))
def test_sub_mul_is_difference_of_product(x, l, y):
    fused = _sub_mul(x, l, y)
    assert type(fused) is Quaternion
    assert tuple(fused) == tuple(x - l * y)


@given(st.lists(st.tuples(exact_quaternions, exact_quaternions), min_size=1, max_size=8))
@example([(HALVES, I), (J, HALVES), (Quaternion.one(), K)])
@example([(I, J), (K, Quaternion.one()), (HALVES, HALVES), (Quaternion.zero(), HALVES)])
# term denominators 2, 4, 2, 3, 18 against running denominators 1, 2, 4, 4,
# 12: a multiple of the running one, again, a divisor of it, coprime to it,
# and sharing the factor 6 with it
@example([
    (HALVES, I),
    (HALVES, HALVES),
    (Quaternion.one(), HALVES),
    (Quaternion(Fraction(1, 3)), K),
    (Quaternion(0, Fraction(1, 9)), HALVES),
])
def test_dot_is_left_fold_of_products(pairs):
    left, right = zip(*pairs)
    total = left[0] * right[0]
    for u, v in pairs[1:]:
        total = total + u * v
    fused = _dot(left, right)
    assert type(fused) is Quaternion
    assert tuple(fused) == tuple(total)
