import pytest

from skewlin import (
    FiniteMonoid,
    FiniteRepresentation,
    InvalidMorphismError,
    InvalidRepresentationError,
    RepMorphism,
    check_morphism,
    classify,
    compose_morphisms,
    cyclic_monoid,
    decompose_morphism,
    identity_morphism,
    morphism_from_base_points,
    morphism_from_json,
    morphism_to_json,
    reduced_action,
    representation_from_json,
    representation_to_json,
    rotation_representation,
    validate_representation,
)

C2_SWAP = FiniteRepresentation(cyclic_monoid(2), 2, ((0, 1), (1, 0)))
TRIVIAL_ON_TWO = FiniteRepresentation(cyclic_monoid(2), 2, ((0, 1), (0, 1)))


def cyclic_morphism(n, m, t, s):
    """Rotation-to-rotation morphism a -> t*a, x -> t*x + s (mod m)."""
    return RepMorphism(
        rotation_representation(n),
        rotation_representation(m),
        tuple((t * a) % m for a in range(n)),
        tuple((t * x + s) % m for x in range(n)),
    )


def apply_chain(*maps):
    def chase(x, chain):
        for step in chain:
            x = step[x]
        return x

    return chase


def test_monoid_validation():
    cyclic_monoid(4)  # fine
    with pytest.raises(ValueError):
        FiniteMonoid(((0, 1), (1, 0)), 1)  # unit law broken at (1, e)
    with pytest.raises(ValueError):
        # unit laws hold but (1*1)*2 != 1*(1*2)
        FiniteMonoid(((0, 1, 2), (1, 2, 1), (2, 1, 1)), 0)


def test_monoid_opposite_reverses_products():
    m = cyclic_monoid(5)
    op = m.opposite()
    for a in range(5):
        for b in range(5):
            assert op.op(a, b) == m.op(b, a)


def test_validate_swap_representation():
    assert validate_representation(C2_SWAP)


def test_validate_rejects_broken_table():
    broken = FiniteRepresentation(cyclic_monoid(2), 2, ((0, 1), (0, 0)))
    assert not validate_representation(broken)


def test_validate_trivial_action():
    assert validate_representation(TRIVIAL_ON_TWO)


def test_classify_swap():
    traits = classify(C2_SWAP)
    assert traits.effective and traits.transitive and traits.single_transitive


def test_classify_trivial():
    traits = classify(TRIVIAL_ON_TWO)
    assert not traits.effective
    assert not traits.transitive
    assert not traits.single_transitive


def test_classify_rotation():
    traits = classify(rotation_representation(4))
    assert traits.effective and traits.transitive and traits.single_transitive


def test_identity_morphism_checks():
    assert check_morphism(identity_morphism(C2_SWAP))


def test_mod2_morphism_checks():
    assert check_morphism(cyclic_morphism(4, 2, 1, 0))


def test_constant_carrier_map_fails_against_swap():
    bad = RepMorphism(C2_SWAP, C2_SWAP, (0, 1), (0, 0))
    assert not check_morphism(bad)


def test_non_homomorphic_algebra_map_fails():
    bad = RepMorphism(
        rotation_representation(4),
        rotation_representation(2),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    )
    assert not check_morphism(bad)


def test_compose_with_identity():
    m = cyclic_morphism(4, 2, 1, 0)
    composed = compose_morphisms(identity_morphism(m.source), m)
    assert composed.algebra_map == m.algebra_map
    assert composed.carrier_map == m.carrier_map


def test_compose_rotation_chain():
    first = cyclic_morphism(8, 4, 1, 0)
    second = cyclic_morphism(4, 2, 1, 0)
    composed = compose_morphisms(first, second)
    assert check_morphism(composed)
    assert composed.algebra_map == tuple(a % 2 for a in range(8))


def test_compose_rejects_invalid_factor():
    bad = RepMorphism(C2_SWAP, C2_SWAP, (0, 1), (0, 0))
    with pytest.raises(InvalidMorphismError):
        compose_morphisms(bad, identity_morphism(C2_SWAP))
    with pytest.raises(InvalidMorphismError):
        compose_morphisms(cyclic_morphism(4, 2, 1, 0), cyclic_morphism(4, 2, 1, 0))


def test_composition_associative():
    f = cyclic_morphism(8, 4, 1, 1)
    g = cyclic_morphism(4, 2, 1, 1)
    h = cyclic_morphism(2, 2, 1, 0)
    left = compose_morphisms(compose_morphisms(f, g), h)
    right = compose_morphisms(f, compose_morphisms(g, h))
    assert left.algebra_map == right.algebra_map
    assert left.carrier_map == right.carrier_map


def _assert_factorization(morphism):
    decomposition = decompose_morphism(morphism)
    to_quotient, across, into_target = decomposition.factor_morphisms(morphism)
    for piece in (to_quotient, across, into_target):
        assert check_morphism(piece)
    composed = compose_morphisms(compose_morphisms(to_quotient, across), into_target)
    assert composed.algebra_map == morphism.algebra_map
    assert composed.carrier_map == morphism.carrier_map
    # bijective middle
    assert sorted(decomposition.algebra_bijection) == list(
        range(decomposition.image.algebra.size)
    )
    assert sorted(decomposition.carrier_bijection) == list(
        range(decomposition.image.carrier)
    )
    return decomposition


def test_decompose_identity_morphism():
    d = _assert_factorization(identity_morphism(C2_SWAP))
    assert all(len(c) == 1 for c in d.algebra_classes)
    assert all(len(c) == 1 for c in d.carrier_classes)
    assert d.quotient.algebra.size == 2
    assert d.image.carrier == 2


def test_decompose_mod2_morphism():
    d = _assert_factorization(cyclic_morphism(4, 2, 1, 0))
    assert d.quotient.algebra.size == 2
    assert d.quotient.carrier == 2
    assert d.image.carrier == 2
    assert d.algebra_classes == ((0, 2), (1, 3))
    assert d.carrier_classes == ((0, 2), (1, 3))


def test_decompose_collapsing_algebra_injective_carrier():
    # everything in the source algebra acts trivially and collapses to the
    # unit, while the carrier map stays injective
    target = FiniteRepresentation(cyclic_monoid(1), 2, ((0, 1),))
    morphism = RepMorphism(TRIVIAL_ON_TWO, target, (0, 0), (0, 1))
    d = _assert_factorization(morphism)
    assert d.algebra_classes == ((0, 1),)  # kernel congruence is nontrivial
    assert all(len(c) == 1 for c in d.carrier_classes)  # kernel equivalence trivial


def test_decompose_rejects_invalid_morphism():
    bad = RepMorphism(C2_SWAP, C2_SWAP, (0, 1), (0, 0))
    with pytest.raises(InvalidMorphismError):
        decompose_morphism(bad)


def test_morphism_of_non_representations_is_rejected():
    # the unit acts as the identity, but the generator's action [0, 0] does
    # not square to it; r and R are identities, so only the ends are wrong
    broken = FiniteRepresentation(cyclic_monoid(2), 2, ((0, 1), (0, 0)))
    for source, target in ((broken, broken), (broken, C2_SWAP), (C2_SWAP, broken)):
        morphism = RepMorphism(source, target, (0, 1), (0, 1))
        assert not check_morphism(morphism)
        with pytest.raises(InvalidRepresentationError):
            decompose_morphism(morphism)


def test_reduced_action_has_same_transformations():
    morphism = cyclic_morphism(6, 3, 1, 0)
    d = decompose_morphism(morphism)
    reduced = reduced_action(d, morphism)
    assert validate_representation(reduced)
    assert set(reduced.action) == set(d.quotient.action)


def test_morphism_from_base_points():
    f = rotation_representation(4)
    g = rotation_representation(2)
    built = morphism_from_base_points(f, g, tuple(a % 2 for a in range(4)), 0, 0)
    assert check_morphism(built)
    built_shifted = morphism_from_base_points(f, g, tuple(a % 2 for a in range(4)), 0, 1)
    assert check_morphism(built_shifted)


@pytest.mark.parametrize(
    "target,message",
    [(C2_SWAP, "orbit transport is ambiguous"),
     (TRIVIAL_ON_TWO, "source representation is not transitive")],
    ids=["ambiguous", "not-transitive"],
)
def test_morphism_from_base_points_needs_a_single_orbit(target, message):
    # acting trivially, every element sends base point 0 to itself: point 1
    # is never reached, and with the swap as target point 0 goes to 0 and 1
    with pytest.raises(InvalidMorphismError, match=message):
        morphism_from_base_points(TRIVIAL_ON_TWO, target, (0, 1), 0, 0)


def test_json_roundtrip():
    rep = rotation_representation(3)
    assert representation_from_json(representation_to_json(rep)) == rep
    m = cyclic_morphism(4, 2, 1, 1)
    data = morphism_to_json(m)
    assert data == {"r": [0, 1, 0, 1], "R": [1, 0, 1, 0]}
    rebuilt = morphism_from_json(data, m.source, m.target)
    assert rebuilt == m


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("algebra", "table", 1, 0), True, "algebra table entry must be an integer, got True"),
        (("algebra", "table", 0, 1), 1.0, "algebra table entry must be an integer, got 1.0"),
        (("algebra", "table", 1), 5, "algebra table must be a list of integers"),
        (("algebra", "table"), {}, "algebra table must be a list of lists of integers"),
        (("action", 0, 1), False, "action entry must be an integer, got False"),
        (("action", 1, 0), None, "action entry must be an integer, got None"),
        (("action", 1), "ab", "action must be a list of integers"),
    ],
    ids=["bool", "float", "row-not-list", "table-not-list", "action-bool", "action-null",
         "action-row-not-list"],
)
def test_json_index_rows_name_the_bad_entry(path, value, message):
    data = representation_to_json(C2_SWAP)
    *keys, last = path
    node = data
    for key in keys:
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError) as raised:
        representation_from_json(data)
    assert str(raised.value) == message
