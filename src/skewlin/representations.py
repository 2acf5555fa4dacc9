"""Finite monoid actions and the factorization of their morphisms.

A representation here is a homomorphism from a finite monoid into the
left transformations of a finite set; everything is small enough that the
defining laws, effectiveness, transitivity and the morphism condition are
checked exhaustively.

The central result implemented is the factorization of a morphism
``(r, R)`` into surjection, bijection and inclusion parts

    (r, R) = (i, I) o (t, T) o (j, J)

through the quotient action on ``M/ker R`` and the image action on ``R(M)``.
Quotient carriers are ordered by smallest original element, which makes the
decomposition deterministic.

The richer general-algebra notion (arbitrary operation signature) is
restricted to monoids: one binary operation and a unit suffice for every
statement exercised here, and finite tables keep all checks exhaustive.
"""

from dataclasses import dataclass

from .errors import IllDefinedQuotientError, InvalidMorphismError


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table of a finite monoid.

    ``table[a][b]`` is the product ``a*b``; associativity and the unit laws
    are verified exhaustively at construction.
    """

    table: tuple
    unit: int

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(not 0 <= v < n for row in table for v in row):
            raise ValueError("table entries must index elements")
        if not 0 <= self.unit < n:
            raise ValueError("unit must index an element")
        e = self.unit
        for a in range(n):
            if table[e][a] != a or table[a][e] != a:
                raise ValueError(f"unit laws fail at element {a}")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")

    @property
    def size(self):
        return len(self.table)

    def op(self, a, b):
        return self.table[a][b]

    def opposite(self):
        """Same elements with reversed multiplication; right-side actions of
        this monoid are plain left actions of the opposite one."""
        n = self.size
        return FiniteMonoid(
            tuple(tuple(self.table[b][a] for b in range(n)) for a in range(n)),
            self.unit,
        )


def cyclic_monoid(n):
    """The cyclic group of order ``n`` as a monoid table."""
    return FiniteMonoid(
        tuple(tuple((a + b) % n for b in range(n)) for a in range(n)), 0
    )


@dataclass(frozen=True)
class FiniteRepresentation:
    """An assignment of a total transformation of ``range(carrier)`` to every
    monoid element.  Construction checks shapes only; whether the assignment
    is actually a homomorphism is the job of :func:`validate_representation`,
    so deliberately broken tables can be built and rejected."""

    algebra: FiniteMonoid
    carrier: int
    action: tuple

    def __post_init__(self):
        action = tuple(tuple(m) for m in self.action)
        object.__setattr__(self, "action", action)
        if len(action) != self.algebra.size:
            raise ValueError("need one transformation per algebra element")
        for m in action:
            if len(m) != self.carrier or any(not 0 <= v < self.carrier for v in m):
                raise ValueError("transformations must be total maps of the carrier")

    def transform(self, a, m):
        return self.action[a][m]


def rotation_representation(n):
    """The cyclic group of order ``n`` acting on ``n`` points by rotation."""
    return FiniteRepresentation(
        cyclic_monoid(n),
        n,
        tuple(tuple((a + m) % n for m in range(n)) for a in range(n)),
    )


def validate_representation(rep):
    """True iff the unit acts as the identity and the action of a product is
    the composition of the actions (checked over all pairs and points)."""
    n, size = rep.algebra.size, rep.carrier
    identity = tuple(range(size))
    if rep.action[rep.algebra.unit] != identity:
        return False
    for a in range(n):
        for b in range(n):
            composed = tuple(rep.action[a][rep.action[b][m]] for m in range(size))
            if rep.action[rep.algebra.op(a, b)] != composed:
                return False
    return True


@dataclass(frozen=True)
class RepresentationTraits:
    effective: bool
    transitive: bool
    single_transitive: bool


def classify(rep):
    """Effectiveness (distinct elements act distinctly), transitivity (every
    ordered point pair is connected), and single transitivity (both, with the
    connecting element unique for every pair)."""
    n, size = rep.algebra.size, rep.carrier
    effective = len(set(rep.action)) == n
    transitive = True
    unique_witness = True
    for target in range(size):
        for source in range(size):
            witnesses = sum(1 for g in range(n) if rep.action[g][source] == target)
            if witnesses == 0:
                transitive = False
            if witnesses != 1:
                unique_witness = False
    return RepresentationTraits(
        effective, transitive, effective and transitive and unique_witness
    )


@dataclass(frozen=True)
class RepMorphism:
    """A pair of maps between representations: ``algebra_map`` between the
    monoids and ``carrier_map`` between the point sets."""

    source: FiniteRepresentation
    target: FiniteRepresentation
    algebra_map: tuple
    carrier_map: tuple

    def __post_init__(self):
        r = tuple(self.algebra_map)
        big_r = tuple(self.carrier_map)
        object.__setattr__(self, "algebra_map", r)
        object.__setattr__(self, "carrier_map", big_r)
        if len(r) != self.source.algebra.size or any(
            not 0 <= v < self.target.algebra.size for v in r
        ):
            raise ValueError("algebra map must be total into the target algebra")
        if len(big_r) != self.source.carrier or any(
            not 0 <= v < self.target.carrier for v in big_r
        ):
            raise ValueError("carrier map must be total into the target carrier")


def check_morphism(morphism):
    """True iff the algebra map is a monoid homomorphism and the carrier map
    intertwines the actions: ``R(f(a)m) == g(r(a))(R(m))`` for all a, m."""
    f, g = morphism.source, morphism.target
    r, big_r = morphism.algebra_map, morphism.carrier_map
    if r[f.algebra.unit] != g.algebra.unit:
        return False
    for a in range(f.algebra.size):
        for b in range(f.algebra.size):
            if r[f.algebra.op(a, b)] != g.algebra.op(r[a], r[b]):
                return False
    for a in range(f.algebra.size):
        for m in range(f.carrier):
            if big_r[f.transform(a, m)] != g.transform(r[a], big_r[m]):
                return False
    return True


def compose_morphisms(first, second):
    """Composite ``second after first``; both factors must validate and the
    middle representations must coincide."""
    if first.target != second.source:
        raise InvalidMorphismError("middle representations do not match")
    if not check_morphism(first) or not check_morphism(second):
        raise InvalidMorphismError("can only compose valid morphisms")
    return RepMorphism(
        first.source,
        second.target,
        tuple(second.algebra_map[v] for v in first.algebra_map),
        tuple(second.carrier_map[v] for v in first.carrier_map),
    )


def identity_morphism(rep):
    return RepMorphism(
        rep, rep, tuple(range(rep.algebra.size)), tuple(range(rep.carrier))
    )


def morphism_from_base_points(f, g, algebra_map, base_m, base_n):
    """Construct the carrier map of a morphism between single transitive
    representations by orbit transport: the point ``a . base_m`` is sent to
    ``r(a) . base_n``.  ``algebra_map`` must be a monoid homomorphism."""
    carrier_map = [None] * f.carrier
    for a in range(f.algebra.size):
        m = f.transform(a, base_m)
        value = g.transform(algebra_map[a], base_n)
        if carrier_map[m] not in (None, value):
            raise InvalidMorphismError("orbit transport is ambiguous")
        carrier_map[m] = value
    if None in carrier_map:
        raise InvalidMorphismError("source representation is not transitive")
    return RepMorphism(f, g, tuple(algebra_map), tuple(carrier_map))


def _partition_by_image(values, size):
    """Group ``range(size)`` by equal entry of ``values``; classes ordered by
    least member, members ascending."""
    first_seen = {}
    for x in range(size):
        first_seen.setdefault(values[x], []).append(x)
    classes = sorted(first_seen.values(), key=lambda members: members[0])
    index_of = [None] * size
    for ci, members in enumerate(classes):
        for x in members:
            index_of[x] = ci
    return tuple(tuple(m) for m in classes), tuple(index_of)


@dataclass(frozen=True)
class MorphismDecomposition:
    """The three-factor form of a morphism.

    ``algebra_projection``/``carrier_projection`` are the natural surjections
    onto the quotient representation, ``algebra_bijection``/``carrier_bijection``
    identify the quotient with the image representation, and
    ``algebra_inclusion``/``carrier_inclusion`` embed the image into the
    target.  Composing the three morphisms reproduces the original maps.
    """

    quotient: FiniteRepresentation
    image: FiniteRepresentation
    algebra_projection: tuple   # j : A -> A/s
    carrier_projection: tuple   # J : M -> M/S
    algebra_bijection: tuple    # t : A/s -> image algebra
    carrier_bijection: tuple    # T : M/S -> image carrier
    algebra_inclusion: tuple    # i : image algebra -> B
    carrier_inclusion: tuple    # I : image carrier -> N
    algebra_classes: tuple
    carrier_classes: tuple

    def factor_morphisms(self, morphism):
        """The three morphisms whose composite is ``morphism``."""
        to_quotient = RepMorphism(
            morphism.source, self.quotient,
            self.algebra_projection, self.carrier_projection,
        )
        across = RepMorphism(
            self.quotient, self.image,
            self.algebra_bijection, self.carrier_bijection,
        )
        into_target = RepMorphism(
            self.image, morphism.target,
            self.algebra_inclusion, self.carrier_inclusion,
        )
        return to_quotient, across, into_target


def decompose_morphism(morphism):
    """Factor a valid morphism through its kernel congruence and image.

    The quotient action ``F(j(a))(J(m)) = J(f(a)m)`` is checked to be well
    defined over entire classes before it is built
    (:class:`IllDefinedQuotientError` guards the impossible failure).
    """
    if not check_morphism(morphism):
        raise InvalidMorphismError("cannot decompose an invalid morphism")
    f, g = morphism.source, morphism.target
    r, big_r = morphism.algebra_map, morphism.carrier_map

    algebra_classes, j = _partition_by_image(r, f.algebra.size)
    carrier_classes, big_j = _partition_by_image(big_r, f.carrier)

    # The action must be constant on classes in both arguments at once.
    for members_a in algebra_classes:
        for members_m in carrier_classes:
            images = {big_j[f.transform(a, m)] for a in members_a for m in members_m}
            if len(images) != 1:
                raise IllDefinedQuotientError(
                    f"classes {members_a} x {members_m} scatter across {sorted(images)}"
                )

    quotient_algebra = FiniteMonoid(
        tuple(
            tuple(j[f.algebra.op(ca[0], cb[0])] for cb in algebra_classes)
            for ca in algebra_classes
        ),
        j[f.algebra.unit],
    )
    quotient = FiniteRepresentation(
        quotient_algebra,
        len(carrier_classes),
        tuple(
            tuple(big_j[f.transform(ca[0], cm[0])] for cm in carrier_classes)
            for ca in algebra_classes
        ),
    )

    algebra_inclusion = tuple(sorted(set(r)))
    carrier_inclusion = tuple(sorted(set(big_r)))
    algebra_index = {b: idx for idx, b in enumerate(algebra_inclusion)}
    carrier_index = {v: idx for idx, v in enumerate(carrier_inclusion)}
    image_algebra = FiniteMonoid(
        tuple(
            tuple(algebra_index[g.algebra.op(x, y)] for y in algebra_inclusion)
            for x in algebra_inclusion
        ),
        algebra_index[g.algebra.unit],
    )
    image = FiniteRepresentation(
        image_algebra,
        len(carrier_inclusion),
        tuple(
            tuple(carrier_index[g.transform(x, v)] for v in carrier_inclusion)
            for x in algebra_inclusion
        ),
    )

    algebra_bijection = tuple(algebra_index[r[ca[0]]] for ca in algebra_classes)
    carrier_bijection = tuple(carrier_index[big_r[cm[0]]] for cm in carrier_classes)

    return MorphismDecomposition(
        quotient=quotient,
        image=image,
        algebra_projection=j,
        carrier_projection=big_j,
        algebra_bijection=algebra_bijection,
        carrier_bijection=carrier_bijection,
        algebra_inclusion=algebra_inclusion,
        carrier_inclusion=carrier_inclusion,
        algebra_classes=algebra_classes,
        carrier_classes=carrier_classes,
    )


def reduced_action(decomposition, morphism):
    """The original algebra acting on the quotient carrier through
    ``a -> F(j(a))``; its set of transformations equals that of the quotient
    representation."""
    quotient = decomposition.quotient
    j = decomposition.algebra_projection
    return FiniteRepresentation(
        morphism.source.algebra,
        quotient.carrier,
        tuple(quotient.action[j[a]] for a in range(morphism.source.algebra.size)),
    )


# -- JSON wire format ---------------------------------------------------------
#
# {"algebra": {"size": n, "table": [[...]], "unit": u}, "carrier": m,
#  "action": [[...]]}   with 0-based integer indices throughout;
# morphisms travel as {"r": [...], "R": [...]}.


def representation_to_json(rep):
    return {
        "algebra": {
            "size": rep.algebra.size,
            "table": [list(row) for row in rep.algebra.table],
            "unit": rep.algebra.unit,
        },
        "carrier": rep.carrier,
        "action": [list(row) for row in rep.action],
    }


def representation_from_json(data):
    """Decode the wire format; raises ValueError when a field has the wrong
    JSON type, so that malformed input is reported, never a TypeError."""
    data = _json_object(data, "representation")
    algebra = _json_object(data["algebra"], "algebra")
    monoid = FiniteMonoid(
        _json_index_rows(algebra["table"], "algebra table"),
        _json_index(algebra["unit"], "algebra unit"),
    )
    if monoid.size != _json_index(algebra["size"], "algebra size"):
        raise ValueError("declared algebra size does not match the table")
    return FiniteRepresentation(
        monoid,
        _json_index(data["carrier"], "carrier"),
        _json_index_rows(data["action"], "action"),
    )


def morphism_to_json(morphism):
    return {"r": list(morphism.algebra_map), "R": list(morphism.carrier_map)}


def morphism_from_json(data, source, target):
    data = _json_object(data, "morphism")
    return RepMorphism(
        source,
        target,
        _json_index_list(data["r"], "morphism r"),
        _json_index_list(data["R"], "morphism R"),
    )


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _json_index(value, what):
    # bool is an int subclass, but true/false are not indices
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_index_list(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(_json_index(v, f"{what} entry") for v in value)


def _json_index_rows(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of lists of integers")
    return tuple(_json_index_list(row, what) for row in value)
