"""The generator-set checks of the representation layer against the
exhaustive definitions.

``FiniteMonoid`` decides associativity by Light's test on a generating set,
and ``validate_representation`` and ``check_morphism`` test their laws on
the generators only; ``classify`` reads each point's images once, and the
quotient check of ``decompose_morphism`` one projected row per algebra
class.  ``_reader`` composes transformations in one call.  The oracles
here scan every triple, pair and point, and read one point at a time; the
properties draw small tables, valid and with one corrupted entry,
including transformation monoids that need several generators.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlin import (
    FiniteMonoid,
    FiniteRepresentation,
    IllDefinedQuotientError,
    InvalidMorphismError,
    InvalidRepresentationError,
    RepMorphism,
    RepresentationTraits,
    check_morphism,
    classify,
    cyclic_monoid,
    decompose_morphism,
    validate_representation,
)
from skewlin.representations import _check_quotient, _partition_by_image, _reader


# -- oracles --------------------------------------------------------------------


def first_nonassociative_triple(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def is_representation(rep):
    n, size = rep.algebra.size, rep.carrier
    if rep.action[rep.algebra.unit] != tuple(range(size)):
        return False
    for a in range(n):
        for b in range(n):
            composed = tuple(rep.action[a][rep.action[b][m]] for m in range(size))
            if rep.action[rep.algebra.table[a][b]] != composed:
                return False
    return True


def is_morphism(morphism):
    f, g = morphism.source, morphism.target
    r, big_r = morphism.algebra_map, morphism.carrier_map
    if not (is_representation(f) and is_representation(g)):
        return False
    if r[f.algebra.unit] != g.algebra.unit:
        return False
    for a in range(f.algebra.size):
        for b in range(f.algebra.size):
            if r[f.algebra.table[a][b]] != g.algebra.table[r[a]][r[b]]:
                return False
    for a in range(f.algebra.size):
        for m in range(f.carrier):
            if big_r[f.action[a][m]] != g.action[r[a]][big_r[m]]:
                return False
    return True


def traits_by_pairs(rep):
    """Each trait from its definition: distinct elements act distinctly, and
    the number of elements taking each source point to each target point."""
    n, size = rep.algebra.size, rep.carrier
    effective = all(rep.action[a] != rep.action[b] for a in range(n) for b in range(a))
    witnesses = [
        sum(1 for a in range(n) if rep.action[a][source] == target)
        for source in range(size)
        for target in range(size)
    ]
    transitive = all(count > 0 for count in witnesses)
    unique = all(count == 1 for count in witnesses)
    return RepresentationTraits(effective, transitive, effective and transitive and unique)


def scattering_pair(action, algebra_classes, carrier_classes, projection):
    """The message for the first pair of an algebra class and a carrier class
    whose projected images are not one class, scanning every pair in order,
    or None when the quotient action is well defined."""
    for members_a in algebra_classes:
        for members_m in carrier_classes:
            images = {projection[action[a][m]] for a in members_a for m in members_m}
            if len(images) != 1:
                return f"classes {members_a} x {members_m} scatter across {sorted(images)}"
    return None


def closure_of_unit(monoid):
    """Everything reached from the unit by right multiplication with the
    monoid's generators."""
    reached, pending = {monoid.unit}, [monoid.unit]
    while pending:
        a = pending.pop()
        for g in monoid.generators:
            b = monoid.table[a][g]
            if b not in reached:
                reached.add(b)
                pending.append(b)
    return reached


# -- strategies -----------------------------------------------------------------


@st.composite
def transformation_monoids(draw):
    """The monoid of maps of ``range(points)`` generated by a few random maps,
    with ``(a*b)(x) = a(b(x))`` and shuffled labels; returns the table, the
    unit and each element's map."""
    points = draw(st.integers(1, 3))
    maps = st.lists(st.integers(0, points - 1), min_size=points, max_size=points)
    seeds = [tuple(m) for m in draw(st.lists(maps, min_size=1, max_size=3))]
    elements, pending = [tuple(range(points))], [tuple(range(points))]
    while pending:
        a = pending.pop()
        for s in seeds:
            b = tuple(a[s[x]] for x in range(points))
            if b not in elements:
                elements.append(b)
                pending.append(b)
    order = draw(st.permutations(range(len(elements))))
    elements = [elements[i] for i in order]
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[tuple(a[b[x]] for x in range(points))] for b in elements]
             for a in elements]
    return table, index[tuple(range(points))], elements


@st.composite
def unit_tables(draw):
    """A table whose unit laws hold: a transformation monoid or random
    entries, optionally with one entry off the unit's row and column
    changed."""
    if draw(st.booleans()):
        table, unit, _ = draw(transformation_monoids())
    else:
        n = draw(st.integers(1, 5))
        unit = draw(st.integers(0, n - 1))
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        for a in range(n):
            table[unit][a] = table[a][unit] = a
    n = len(table)
    others = [a for a in range(n) if a != unit]
    if others and draw(st.booleans()):
        a, b = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        table[a][b] = draw(st.integers(0, n - 1))
    return table, unit


def corrupt(rows, draw, bound):
    """``rows`` with, half the time, one entry replaced by one below ``bound``."""
    rows = [list(row) for row in rows]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.integers(0, bound - 1))
    return rows


@st.composite
def representations(draw):
    """The natural action of a transformation monoid on its points, or its
    left-regular action on itself, or either with one entry changed."""
    table, unit, elements = draw(transformation_monoids())
    monoid = FiniteMonoid(table, unit)
    if draw(st.booleans()):
        carrier, action = len(elements[0]), elements
    else:
        carrier, action = len(table), table
    return FiniteRepresentation(monoid, carrier, corrupt(action, draw, carrier))


@st.composite
def morphisms(draw):
    """Between actions of one transformation monoid: the orbit map of a point
    from the left-regular action to the natural one, the identity of either,
    or the map of the natural action onto the trivial action on one point,
    where only the algebra map can fail; each end and each map may have one
    entry changed."""
    table, unit, elements = draw(transformation_monoids())
    monoid = FiniteMonoid(table, unit)
    points = len(elements[0])
    natural = FiniteRepresentation(monoid, points, corrupt(elements, draw, points))
    regular = FiniteRepresentation(monoid, len(table), corrupt(table, draw, len(table)))
    kind = draw(st.sampled_from(("orbit", "identity-natural", "identity-regular", "trivial")))
    if kind == "orbit":
        x = draw(st.integers(0, points - 1))
        source, target, carrier_map = regular, natural, [e[x] for e in elements]
    elif kind == "trivial":
        source, target = natural, FiniteRepresentation(monoid, 1, [[0]] * len(table))
        carrier_map = [0] * points
    else:
        source = target = natural if kind == "identity-natural" else regular
        carrier_map = list(range(source.carrier))
    (r,) = corrupt([range(len(table))], draw, len(table))
    (big_r,) = corrupt([carrier_map], draw, target.carrier)
    return RepMorphism(source, target, r, big_r)


@st.composite
def quotient_cases(draw):
    """An action of ``range(n)`` on ``range(size)`` with a partition of each,
    with no monoid or morphism behind them: half the time random images,
    otherwise each image a random member of the class that a random action
    on the classes names, so that the quotient is well defined, with one
    entry changed half of those times.  Returns the arguments of
    ``_check_quotient``."""
    n, size = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    algebra_classes, j = _partition_by_image(
        draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)), n)
    carrier_classes, big_j = _partition_by_image(
        draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=size, max_size=size)), size)
    on_classes = [
        [draw(st.integers(0, len(carrier_classes) - 1)) for _ in carrier_classes]
        for _ in algebra_classes
    ]
    if draw(st.booleans()):
        action = [[draw(st.integers(0, size - 1)) for _ in range(size)] for _ in range(n)]
    else:
        action = [
            [draw(st.sampled_from(carrier_classes[on_classes[j[a]][big_j[m]]]))
             for m in range(size)]
            for a in range(n)
        ]
        if size:
            action = corrupt(action, draw, size)
    return action, algebra_classes, carrier_classes, big_j


# -- properties -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(unit_tables())
def test_light_test_decides_associativity_like_the_full_scan(case):
    table, unit = case
    triple = first_nonassociative_triple(table)
    if triple is None:
        monoid = FiniteMonoid(table, unit)
        assert closure_of_unit(monoid) == set(range(len(table)))
    else:
        with pytest.raises(ValueError) as raised:
            FiniteMonoid(table, unit)
        assert str(raised.value) == "associativity fails at ({}, {}, {})".format(*triple)


@settings(max_examples=200, deadline=None)
@given(representations())
def test_generator_check_of_a_representation_matches_all_pairs(rep):
    assert validate_representation(rep) == is_representation(rep)


@settings(max_examples=200, deadline=None)
@given(representations())
# the one-element monoid on no points: every trait holds vacuously
@example(FiniteRepresentation(FiniteMonoid([[0]], 0), 0, [[]]))
def test_classify_matches_the_pairwise_definitions(rep):
    assert classify(rep) == traits_by_pairs(rep)


@settings(max_examples=200, deadline=None)
@given(morphisms())
def test_generator_check_of_a_morphism_matches_all_pairs(morphism):
    valid = is_morphism(morphism)
    assert check_morphism(morphism) == valid
    ends_valid = is_representation(morphism.source) and is_representation(morphism.target)
    if valid:
        decompose_morphism(morphism)
    elif not ends_valid:
        with pytest.raises(InvalidRepresentationError):
            decompose_morphism(morphism)
    else:
        with pytest.raises(InvalidMorphismError) as raised:
            decompose_morphism(morphism)
        assert type(raised.value) is InvalidMorphismError


@settings(max_examples=300, deadline=None)
@given(quotient_cases())
# two projected rows in one class, each constant on the carrier classes
@example(([[0, 1], [1, 0]], ((0, 1),), ((0,), (1,)), (0, 1)))
# one projected row that splits a carrier class
@example(([[0, 2, 2]], ((0,),), ((0, 1), (2,)), (0, 0, 1)))
def test_quotient_check_raises_exactly_where_the_pairwise_scan_scatters(case):
    expected = scattering_pair(*case)
    if expected is None:
        _check_quotient(*case)
    else:
        with pytest.raises(IllDefinedQuotientError) as raised:
            _check_quotient(*case)
        assert str(raised.value) == expected


@pytest.mark.parametrize("points", [(), (2,), (3, 0, 3, 1)], ids=["none", "one", "many"])
def test_reader_reads_a_tuple_at_each_point(points):
    # itemgetter returns a bare item for one point and rejects none
    row = (10, 11, 12, 13)
    labels = {p: f"label {p}" for p in range(4)}
    assert _reader(points)(row) == tuple(row[p] for p in points)
    assert _reader(points)(labels) == tuple(labels[p] for p in points)


def test_monoids_that_need_several_generators():
    # the Klein four-group: no element reaches the other two
    klein = FiniteMonoid([[a ^ b for b in range(4)] for a in range(4)], 0)
    assert klein.generators == (1, 2)
    assert cyclic_monoid(12).generators == (1,)
    assert FiniteMonoid([[0]], 0).generators == ()
