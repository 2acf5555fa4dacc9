import copy
import json
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from skewlin import (
    Base,
    BaseMismatchError,
    Bijection,
    DimensionMismatch,
    FiberedLinearMap,
    FiberOperation,
    I,
    J,
    K,
    Matrix,
    Quaternion,
    Section,
    add_sections,
    apply_fibered_map,
    check_transition,
    compose_fibered_maps,
    lift_operation,
    rc_product,
    scalar_action,
    section_from_json,
    section_to_json,
    solve_nonsingular,
)
from skewlin.sampling import (
    random_nonsingular_matrix,
    random_matrix,
    random_quaternion,
    random_row,
)

BASE3 = Base(("p", "q", "r"))


def constant_section(base, value):
    return Section(base, [value] * len(base.points))


def random_scalar_section(rng, base):
    return Section(base, [random_quaternion(rng, bound=4) for _ in base.points])


def random_row_section(rng, base, width):
    return Section(base, [random_row(rng, width, bound=4) for _ in base.points])


def test_base_rejects_duplicates():
    with pytest.raises(ValueError):
        Base(("p", "p"))
    with pytest.raises(ValueError):
        Base(())


def test_section_must_be_total():
    with pytest.raises(ValueError):
        Section(BASE3, {"p": K, "q": J})
    with pytest.raises(ValueError):
        Section(BASE3, [K, J])
    section = Section(BASE3, {"p": K, "q": J, "r": I})
    assert section["q"] == J


def test_label_outside_the_base_is_a_key_error():
    section = Section(BASE3, [K, J, I])
    fibered = FiberedLinearMap(BASE3, [Matrix.identity(1)] * 3)
    for lookup in (section, fibered):
        with pytest.raises(KeyError) as raised:
            lookup["s"]
        assert raised.value.args == ("s",)


def test_section_repr_lists_each_point():
    assert repr(Section(Base(("p",)), [Quaternion(1)])) == "Section({p: 1})"


def test_lift_addition_of_constants():
    u = constant_section(BASE3, K)
    v = constant_section(BASE3, 1 + J)
    total = add_sections(u, v)
    assert total == constant_section(BASE3, 1 + J + K)


def test_lift_requires_shared_base():
    other = Base(("p", "q"))
    with pytest.raises(BaseMismatchError):
        add_sections(constant_section(BASE3, K), constant_section(other, K))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: lift_operation(lambda: K), ValueError, "need at least one section"),
        (
            lambda: check_transition(
                Section(BASE3, [{0: 0, 1: 0}] * 3), Section(BASE3, [{0: 0, 1: 1}] * 3), []
            ),
            ValueError,
            "fiber map is not a bijection",
        ),
        (
            lambda: check_transition(
                constant_section(BASE3, Bijection(abs, abs)),
                constant_section(BASE3, Bijection(abs, abs)),
                [],
            ),
            ValueError,
            "exhaustive check needs dict-valued fiber maps",
        ),
        (
            lambda: section_to_json(constant_section(BASE3, 1)),
            TypeError,
            "cannot serialize fiber value 1",
        ),
        (
            # json.dumps would write the key 1 as "1", which names no point
            lambda: section_to_json(Section(Base((1, 2)), [I, J])),
            TypeError,
            "cannot serialize base label 1",
        ),
        (
            lambda: FiberedLinearMap(BASE3, Section(Base(("p", "q")), [Matrix.identity(2)] * 2)),
            BaseMismatchError,
            "matrix section lives over a different base",
        ),
        (
            lambda: apply_fibered_map(
                Section(Base(("p", "q")), [Matrix.row([I, J])] * 2),
                FiberedLinearMap(BASE3, [Matrix.identity(2)] * 3),
            ),
            BaseMismatchError,
            "sections live over different bases",
        ),
        (
            lambda: compose_fibered_maps(
                FiberedLinearMap(Base(("p", "q")), [Matrix.identity(2)] * 2),
                FiberedLinearMap(BASE3, [Matrix.identity(2)] * 3),
            ),
            BaseMismatchError,
            "sections live over different bases",
        ),
    ],
    ids=["lift-nothing", "non-bijective-fiber-map", "exhaustive-needs-dicts", "json-int",
         "json-int-label", "map-of-section", "apply-across-bases", "compose-across-bases"],
)
def test_fiber_operations_reject_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_lifted_operations_match_pointwise(rng):
    u = random_scalar_section(rng, BASE3)
    v = random_scalar_section(rng, BASE3)
    total = lift_operation(lambda a, b: a + b, u, v)
    product = lift_operation(lambda a, b: a * b, u, v)
    for point in BASE3.points:
        assert total[point] == u[point] + v[point]
        assert product[point] == u[point] * v[point]


def test_scalar_action_of_constants():
    scalars = constant_section(BASE3, K)
    vectors = constant_section(BASE3, Matrix.row([I, J]))
    acted = scalar_action(scalars, vectors)
    assert acted == constant_section(BASE3, Matrix.row([K * I, K * J]))


def test_vector_field_laws(rng):
    base = Base(("w", "x", "y", "z"))
    a = random_scalar_section(rng, base)
    b = random_scalar_section(rng, base)
    m = random_row_section(rng, base, 3)
    n = random_row_section(rng, base, 3)
    unit = constant_section(base, Quaternion.one())
    product = lift_operation(lambda s, t: s * t, a, b)
    # associative: (ab)m = a(bm)
    assert scalar_action(product, m) == scalar_action(a, scalar_action(b, m))
    # distributive over vectors: a(m+n) = am + an
    assert scalar_action(a, add_sections(m, n)) == add_sections(
        scalar_action(a, m), scalar_action(a, n)
    )
    # distributive over scalars: (a+b)m = am + bm
    total = lift_operation(lambda s, t: s + t, a, b)
    assert scalar_action(total, m) == add_sections(
        scalar_action(a, m), scalar_action(b, m)
    )
    # unitarity: 1m = m
    assert scalar_action(unit, m) == m


def test_fibered_map_shapes_must_agree():
    with pytest.raises(DimensionMismatch):
        FiberedLinearMap(BASE3, [Matrix.identity(2), Matrix.identity(2), Matrix.identity(3)])


def test_apply_identity_fibered_map(rng):
    vectors = random_row_section(rng, BASE3, 2)
    h = FiberedLinearMap(BASE3, [Matrix.identity(2)] * 3)
    assert apply_fibered_map(vectors, h) == vectors


def test_fibered_composition_is_pointwise_product(rng):
    vectors = random_row_section(rng, BASE3, 2)
    f = FiberedLinearMap(BASE3, [random_matrix(rng, 2, 2, bound=3) for _ in range(3)])
    g = FiberedLinearMap(BASE3, [random_matrix(rng, 2, 3, bound=3) for _ in range(3)])
    chained = apply_fibered_map(apply_fibered_map(vectors, f), g)
    fused = apply_fibered_map(vectors, compose_fibered_maps(f, g))
    assert chained == fused
    for point in BASE3.points:
        assert fused[point] == rc_product(vectors[point], rc_product(f[point], g[point]))


def test_per_fiber_expansion_unique(rng):
    # per-point bases may differ; expansion solves fiber by fiber
    bases = FiberedLinearMap(
        BASE3, [random_nonsingular_matrix(rng, 2, bound=3) for _ in range(3)]
    )
    vectors = random_row_section(rng, BASE3, 2)
    coords = lift_operation(
        lambda v, e: solve_nonsingular(e, v), vectors, bases.matrices()
    )
    assert apply_fibered_map(coords, bases) == vectors


def test_transition_identity_is_homomorphism():
    fiber = {0: 0, 1: 1, 2: 2}
    phi = Section(BASE3, [dict(fiber)] * 3)
    addition = FiberOperation(2, lambda a, b: (a + b) % 3)
    assert check_transition(phi, phi, [addition])


def test_transition_doubling_mod3_is_homomorphism():
    phi_a = Section(BASE3, [{0: 0, 1: 1, 2: 2}] * 3)
    phi_b = Section(BASE3, [{0: 0, 1: 2, 2: 1}] * 3)  # x -> 2x mod 3
    addition = FiberOperation(2, lambda a, b: (a + b) % 3)
    assert check_transition(phi_a, phi_b, [addition])


def test_transition_shift_breaks_multiplication():
    phi_a = Section(BASE3, [{0: 0, 1: 1, 2: 2}] * 3)
    phi_b = Section(BASE3, [{0: 1, 1: 2, 2: 0}] * 3)  # x -> x+1 mod 3
    product = FiberOperation(2, lambda a, b: (a * b) % 3)
    assert not check_transition(phi_a, phi_b, [product])


def test_transition_conjugation_preserves_multiplication(rng):
    mirrors = [random_quaternion(rng, bound=3, nonzero=True) for _ in BASE3.points]
    identity_map = Bijection(lambda v: v, lambda v: v)
    phi_a = Section(BASE3, [identity_map] * 3)
    phi_b = Section(
        BASE3,
        [
            Bijection(
                (lambda q: (lambda v: q * v * q.inverse()))(q),
                (lambda q: (lambda v: q.inverse() * v * q))(q),
            )
            for q in mirrors
        ],
    )
    multiply = FiberOperation(2, lambda a, b: a * b)
    samples = [random_quaternion(rng, bound=3) for _ in range(4)]
    assert check_transition(phi_a, phi_b, [multiply], samples=samples)


def test_transition_shift_breaks_quaternion_multiplication(rng):
    identity_map = Bijection(lambda v: v, lambda v: v)
    shift = Bijection(lambda v: v + K, lambda v: v - K)
    phi_a = Section(BASE3, [identity_map] * 3)
    phi_b = Section(BASE3, [shift] * 3)
    multiply = FiberOperation(2, lambda a, b: a * b)
    samples = [random_quaternion(rng, bound=3) for _ in range(4)]
    assert not check_transition(phi_a, phi_b, [multiply], samples=samples)


# On Z/3: x -> 2x, which is its own inverse, as a dict and as a Bijection, and
# x -> x + 1 as a Bijection
_DOUBLING = {0: 0, 1: 2, 2: 1}
_DOUBLING_MAP = Bijection(lambda v: 2 * v % 3, lambda v: 2 * v % 3)
_SHIFT_MAP = Bijection(lambda v: (v + 1) % 3, lambda v: (v - 1) % 3)
_ADDITION_MOD3 = FiberOperation(2, lambda a, b: (a + b) % 3)


@pytest.mark.parametrize("samples", [None, (0, 1, 2)])
def test_transition_from_a_dict_to_a_bijection(samples):
    phi_a = Section(BASE3, [dict(_DOUBLING)] * 3)
    # x -> 2 * 2x is the identity; x -> 2x + 1 breaks addition
    assert check_transition(phi_a, constant_section(BASE3, _DOUBLING_MAP), [_ADDITION_MOD3],
                            samples=samples)
    assert not check_transition(phi_a, constant_section(BASE3, _SHIFT_MAP), [_ADDITION_MOD3],
                                samples=samples)


def test_transition_from_a_bijection_to_a_dict():
    phi_b = Section(BASE3, [dict(_DOUBLING)] * 3)
    samples = (0, 1, 2)
    # x -> 2 * 2x is the identity; x -> 2(x - 1) breaks addition
    assert check_transition(constant_section(BASE3, _DOUBLING_MAP), phi_b, [_ADDITION_MOD3],
                            samples=samples)
    assert not check_transition(constant_section(BASE3, _SHIFT_MAP), phi_b, [_ADDITION_MOD3],
                                samples=samples)
    # a Bijection's domain cannot be enumerated
    with pytest.raises(ValueError, match="exhaustive check needs dict-valued fiber maps"):
        check_transition(constant_section(BASE3, _DOUBLING_MAP), phi_b, [_ADDITION_MOD3])

def test_section_json_roundtrip(rng):
    scalars = random_scalar_section(rng, BASE3)
    assert section_from_json(section_to_json(scalars)) == scalars
    rows = random_row_section(rng, BASE3, 2)
    assert section_from_json(section_to_json(rows)) == rows
    data = section_to_json(rows)
    assert set(data) == {"base", "values"}
    assert all(text.startswith("[") for text in data["values"].values())
    for section in (scalars, rows):
        assert section_from_json(json.loads(json.dumps(section_to_json(section)))) == section


@pytest.mark.parametrize(
    "data,error",
    [
        ([], ValueError),
        ({"base": "p", "values": {"p": "1"}}, ValueError),
        ({"base": [1], "values": {"1": "1"}}, ValueError),
        ({"base": [["p"]], "values": {}}, ValueError),
        ({"base": ["p"], "values": [1]}, ValueError),
        ({"base": ["p"], "values": {"p": 3}}, ValueError),
        ({"base": ["p"], "values": {"p": None}}, ValueError),
        ({"values": {"p": "1"}}, KeyError),
        ({"base": ["p"]}, KeyError),
    ],
    ids=["not-object", "base-string", "label-int", "label-list", "values-list",
         "value-int", "value-null", "no-base", "no-values"],
)
def test_section_from_json_rejects_wrong_types(data, error):
    with pytest.raises(error):
        section_from_json(data)


FIBERS = [Matrix([[K, I], [J, 1 + K]]), Matrix.zeros(2, 2)]


@pytest.mark.parametrize(
    "value,state",
    [
        (Quaternion(1, -2, 0, Fraction(3, 4)), lambda q: q),
        (Matrix.zeros(0, 3), lambda m: m),
        (FIBERS[0], lambda m: m),
        (Section(Base(("p", "q")), [K, FIBERS[1]]), lambda s: s),
        (FiberedLinearMap(Base(("p", "q")), FIBERS), lambda f: (f.base, f.matrices())),
    ],
    ids=["quaternion", "empty-matrix", "matrix", "section", "fibered-map"],
)
@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_value_types_copy_and_pickle(value, state, roundtrip):
    result = roundtrip(value)
    assert type(result) is type(value)
    assert state(result) == state(value)


def test_value_types_are_frozen_and_keep_their_equality():
    base = Base(("p", "q"))
    matrix, section = FIBERS[0], Section(base, [K, FIBERS[1]])
    fibered = FiberedLinearMap(base, FIBERS)
    for value, field in ((matrix, "cells"), (section, "base"), (fibered, "base")):
        for name in (field, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
    assert hash(matrix) == hash(Matrix([[K, I], [J, 1 + K]]))
    with pytest.raises(TypeError, match="unhashable"):
        hash(section)
    twin = FiberedLinearMap(base, FIBERS)
    assert fibered == fibered and fibered != twin and len({fibered, twin}) == 2


def test_fibered_coordinate_isomorphism(rng):
    # coordinates of pointwise sums/scalings equal pointwise sums/scalings
    # of coordinates, relative to a per-point basis
    bases = FiberedLinearMap(
        BASE3, [random_nonsingular_matrix(rng, 2, bound=3) for _ in range(3)]
    )
    coords = lambda section: lift_operation(
        lambda v, e: solve_nonsingular(e, v), section, bases.matrices()
    )
    u = random_row_section(rng, BASE3, 2)
    v = random_row_section(rng, BASE3, 2)
    s = random_scalar_section(rng, BASE3)
    assert coords(add_sections(u, v)) == add_sections(coords(u), coords(v))
    assert coords(scalar_action(s, u)) == scalar_action(s, coords(u))
