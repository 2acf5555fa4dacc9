"""Finite monoid actions and the factorization of their morphisms.

A representation here is a homomorphism from a finite monoid into the
left transformations of a finite set.  Associativity, the representation
laws and the morphism laws are checked on a generating set (Light's test);
effectiveness and transitivity are checked exhaustively.

The central result implemented is the factorization of a morphism
``(r, R)`` into surjection, bijection and inclusion parts

    (r, R) = (i, I) o (t, T) o (j, J)

through the quotient action on ``M/ker R`` and the image action on ``R(M)``.
Quotient carriers are ordered by smallest original element, which makes the
decomposition deterministic.

The richer general-algebra notion (arbitrary operation signature) is
restricted to monoids: one binary operation and a unit suffice for every
statement exercised here, and finite tables keep all checks decidable.

Rows are built as ``tuple([...])``, at their exact size.  CPython allocates
a tuple built from a generator at ten entries and resizes it, so a row of 11
to 19 entries is freed onto the tuple free list of its final size, which
such builds never draw from again; the lists grow until a full collection.
"""

from dataclasses import dataclass, field

from .errors import IllDefinedQuotientError, InvalidMorphismError, InvalidRepresentationError


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table of a finite monoid.

    ``table[a][b]`` is the product ``a*b``; the unit laws and associativity
    are verified at construction.  ``generators`` reach every element from
    the unit by right multiplication, so a law that holds for each generator
    and is preserved by products holds for every element.
    """

    table: tuple
    unit: int
    generators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = tuple([tuple(row) for row in self.table])
        object.__setattr__(self, "table", table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if n and (min(map(min, table)) < 0 or max(map(max, table)) >= n):
            raise ValueError("table entries must index elements")
        if not 0 <= self.unit < n:
            raise ValueError("unit must index an element")
        e = self.unit
        for a in range(n):
            if table[e][a] != a or table[a][e] != a:
                raise ValueError(f"unit laws fail at element {a}")
        generators = _generators(table, e)
        object.__setattr__(self, "generators", generators)
        # Light's test: the elements b with (a*b)*c == a*(b*c) for every a
        # and c are closed under the product and hold the unit, so they are
        # all elements once they hold the generators
        if not all(_associates_through(table, b) for b in generators):
            a, b, c = _first_nonassociative_triple(table)
            raise ValueError(f"associativity fails at ({a}, {b}, {c})")

    @property
    def size(self):
        return len(self.table)


def _generators(table, unit):
    """Greedy generating set: each element that the generators so far do not
    reach from ``unit`` by right multiplication becomes the next generator."""
    reached = {unit}
    generators = []
    for x in range(len(table)):
        if x in reached:
            continue
        generators.append(x)
        pending = [table[a][x] for a in reached]
        while pending:
            a = pending.pop()
            if a not in reached:
                reached.add(a)
                row = table[a]
                pending.extend([row[g] for g in generators])
    return tuple(generators)


def _associates_through(table, b):
    """True iff ``(a*b)*c == a*(b*c)`` for every ``a`` and ``c``."""
    row_b = table[b]
    return all(table[row_a[b]] == tuple([row_a[v] for v in row_b]) for row_a in table)


def _first_nonassociative_triple(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c


def cyclic_monoid(n):
    """The cyclic group of order ``n`` as a monoid table."""
    return FiniteMonoid([[(a + b) % n for b in range(n)] for a in range(n)], 0)


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
        action = tuple([tuple(m) for m in self.action])
        object.__setattr__(self, "action", action)
        if len(action) != self.algebra.size:
            raise ValueError("need one transformation per algebra element")
        for m in action:
            if len(m) != self.carrier or (m and (min(m) < 0 or max(m) >= self.carrier)):
                raise ValueError("transformations must be total maps of the carrier")


def rotation_representation(n):
    """The cyclic group of order ``n`` acting on ``n`` points by rotation."""
    return FiniteRepresentation(
        cyclic_monoid(n),
        n,
        [[(a + m) % n for m in range(n)] for a in range(n)],
    )


def validate_representation(rep):
    """True iff the unit acts as the identity and the action of a product is
    the composition of the actions.  Checking ``phi(a*g) == phi(a) o phi(g)``
    for every ``a`` and every generator ``g`` suffices: the monoid is
    associative, so the law then extends from ``b`` to ``b*g``."""
    action, table = rep.action, rep.algebra.table
    if action[rep.algebra.unit] != tuple(range(rep.carrier)):
        return False
    for g in rep.algebra.generators:
        phi_g = action[g]
        for a, phi_a in enumerate(action):
            if action[table[a][g]] != tuple([phi_a[m] for m in phi_g]):
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
    """True iff source and target are representations, the algebra map is a
    monoid homomorphism and the carrier map intertwines the actions:
    ``R(f(a)m) == g(r(a))(R(m))`` for all a, m.

    Returns False when the source or the target is not a representation:
    the laws are checked on the source's generators, which decides them only
    between representations."""
    return (
        validate_representation(morphism.source)
        and validate_representation(morphism.target)
        and _preserves_structure(morphism)
    )


def _preserves_structure(morphism):
    """The morphism laws between representations, on the generators ``x`` of
    the source monoid: ``r(e) == e'``, ``r(a*x) == r(a)*r(x)`` for every
    ``a``, and ``R o f(x) == g(r(x)) o R``.  By induction on products each
    extends to every element."""
    f, g = morphism.source, morphism.target
    r, big_r = morphism.algebra_map, morphism.carrier_map
    source, target = f.algebra.table, g.algebra.table
    if r[f.algebra.unit] != g.algebra.unit:
        return False
    for x in f.algebra.generators:
        rx = r[x]
        if any(r[row[x]] != target[r[a]][rx] for a, row in enumerate(source)):
            return False
        psi = g.action[rx]
        if [big_r[m] for m in f.action[x]] != [psi[v] for v in big_r]:
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
        tuple([second.algebra_map[v] for v in first.algebra_map]),
        tuple([second.carrier_map[v] for v in first.carrier_map]),
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
        m = f.action[a][base_m]
        value = g.action[algebra_map[a]][base_n]
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
    return tuple([tuple(m) for m in classes]), tuple(index_of)


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


def _induced(rep, algebra_points, carrier_points, algebra_label, carrier_label):
    """``rep`` restricted to ``algebra_points`` acting on ``carrier_points``,
    each resulting element and point replaced by its label.  The quotient
    takes one representative per class labelled by its class, the image the
    image points labelled by their position."""
    table, action = rep.algebra.table, rep.action
    return FiniteRepresentation(
        FiniteMonoid(
            [[algebra_label[table[a][b]] for b in algebra_points] for a in algebra_points],
            algebra_label[rep.algebra.unit],
        ),
        len(carrier_points),
        [[carrier_label[action[a][m]] for m in carrier_points] for a in algebra_points],
    )


def decompose_morphism(morphism):
    """Factor a valid morphism through its kernel congruence and image.

    Raises :class:`InvalidRepresentationError` when the source or the target
    is not a representation and :class:`InvalidMorphismError` when the maps
    break the morphism laws.  The quotient action ``F(j(a))(J(m)) = J(f(a)m)``
    is checked to be well defined over entire classes before it is built
    (:class:`IllDefinedQuotientError` guards the impossible failure).
    """
    f, g = morphism.source, morphism.target
    if not (validate_representation(f) and validate_representation(g)):
        raise InvalidRepresentationError("cannot decompose a morphism of non-representations")
    if not _preserves_structure(morphism):
        raise InvalidMorphismError("cannot decompose an invalid morphism")
    r, big_r = morphism.algebra_map, morphism.carrier_map

    algebra_classes, j = _partition_by_image(r, f.algebra.size)
    carrier_classes, big_j = _partition_by_image(big_r, f.carrier)

    # The action must be constant on classes in both arguments at once.  Each
    # row is projected onto the carrier classes once, and the equal projected
    # rows of an algebra class are read once.
    projected = [tuple(map(big_j.__getitem__, row)) for row in f.action]
    for members_a in algebra_classes:
        rows = {projected[a] for a in members_a}
        for members_m in carrier_classes:
            images = {row[m] for row in rows for m in members_m}
            if len(images) != 1:
                raise IllDefinedQuotientError(
                    f"classes {members_a} x {members_m} scatter across {sorted(images)}"
                )

    quotient = _induced(
        f, [ca[0] for ca in algebra_classes], [cm[0] for cm in carrier_classes], j, big_j
    )
    algebra_inclusion = tuple(sorted(set(r)))
    carrier_inclusion = tuple(sorted(set(big_r)))
    algebra_index = {b: idx for idx, b in enumerate(algebra_inclusion)}
    carrier_index = {v: idx for idx, v in enumerate(carrier_inclusion)}
    image = _induced(g, algebra_inclusion, carrier_inclusion, algebra_index, carrier_index)

    algebra_bijection = tuple([algebra_index[r[ca[0]]] for ca in algebra_classes])
    carrier_bijection = tuple([carrier_index[big_r[cm[0]]] for cm in carrier_classes])

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
        [quotient.action[j[a]] for a in range(morphism.source.algebra.size)],
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
    if {int}.issuperset(map(type, value)):
        return tuple(value)
    # the entry-by-entry check names the first bad entry
    return tuple([_json_index(v, f"{what} entry") for v in value])


def _json_index_rows(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of lists of integers")
    return tuple([_json_index_list(row, what) for row in value])
