"""Sections over a finite base and pointwise (fiberwise) algebra.

The base is a finite, discrete set of labelled points; a section assigns a
fiber value (scalar, coordinate row, or matrix) to every point.  Every
operation on fibers lifts to sections pointwise, and all the vector-space
laws hold section-wise because they hold in each fiber.  Per-point matrices
of a fibered linear map may differ from point to point: the fibers are
independent of each other.
"""

from dataclasses import dataclass
from itertools import product

from .errors import BaseMismatchError, DimensionMismatch
from .matrix import Matrix, format_matrix, parse_matrix, rc_product
from .quaternion import Quaternion, format_quaternion, parse_quaternion


@dataclass(frozen=True)
class Base:
    """Ordered finite set of distinct point labels."""

    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ValueError("base must be nonempty")
        if len(set(points)) != len(points):
            raise ValueError("base labels must be distinct")


@dataclass(frozen=True, init=False)
class Section:
    """A total assignment of one fiber value per base point."""

    base: Base
    _values: tuple

    # fiber values may be unhashable (dict-valued trivializations), so
    # sections do not hash at all
    __hash__ = None

    def __init__(self, base, values):
        if isinstance(values, dict):
            missing = [p for p in base.points if p not in values]
            extra = [p for p in values if p not in base.points]
            if missing or extra:
                raise ValueError(f"section not total: missing {missing}, extra {extra}")
            ordered = tuple(values[p] for p in base.points)
        else:
            ordered = tuple(values)
            if len(ordered) != len(base.points):
                raise ValueError("need exactly one value per base point")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_values", ordered)

    def __getitem__(self, label):
        try:
            return self._values[self.base.points.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def values(self):
        return self._values

    def items(self):
        return tuple(zip(self.base.points, self._values))

    def __repr__(self):
        body = ", ".join(f"{p}: {v}" for p, v in self.items())
        return f"Section({{{body}}})"


def _require_shared_base(sections):
    bases = {s.base for s in sections}
    if len(bases) != 1:
        raise BaseMismatchError("sections live over different bases")
    return bases.pop()


def lift_operation(op, *sections):
    """Apply an n-ary fiber operation pointwise, producing a section:
    ``result(x) = op(s1(x), ..., sn(x))``."""
    if not sections:
        raise ValueError("need at least one section")
    base = _require_shared_base(sections)
    return Section(
        base, [op(*vals) for vals in zip(*(s.values() for s in sections))]
    )


def add_sections(u, v):
    return lift_operation(lambda a, b: a + b, u, v)


def scalar_action(scalars, vectors):
    """Pointwise left scalar multiplication of a field of coordinate rows by
    a field of scalars."""
    return lift_operation(lambda s, m: m.scale_left(s), scalars, vectors)


@dataclass(frozen=True, init=False, eq=False)
class FiberedLinearMap:
    """One presentation matrix per point, all of the same shape.  Compares by
    identity."""

    base: Base
    _matrices: Section

    def __init__(self, base, matrices):
        section = matrices if isinstance(matrices, Section) else Section(base, matrices)
        if section.base != base:
            raise BaseMismatchError("matrix section lives over a different base")
        shapes = {m.shape for m in section.values()}
        if len(shapes) > 1:
            raise DimensionMismatch(f"fiber matrices differ in shape: {sorted(shapes)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_matrices", section)

    def __getitem__(self, label):
        return self._matrices[label]

    def matrices(self):
        return self._matrices


def apply_fibered_map(vectors, fibered_map):
    """Pointwise image ``result(x) = v(x) * H(x)`` of a section of rows."""
    return lift_operation(rc_product, vectors, fibered_map.matrices())


def compose_fibered_maps(first, second):
    """Pointwise product of presentation matrices; applying the composite
    equals applying ``first`` then ``second``."""
    return FiberedLinearMap(
        first.base, lift_operation(rc_product, first.matrices(), second.matrices())
    )


@dataclass(frozen=True)
class Bijection:
    """An invertible fiber map given by explicit forward and inverse callables;
    used for infinite fibers where a dict cannot enumerate the graph."""

    forward: object
    inverse: object

    def __call__(self, value):
        return self.forward(value)


@dataclass(frozen=True)
class FiberOperation:
    """An n-ary operation on fiber values."""

    arity: int
    apply: object


def _transition_map(phi_a, phi_b):
    """Per-point change of trivialization ``phi_b after inverse(phi_a)``."""
    if isinstance(phi_a, dict):
        inverse = {v: k for k, v in phi_a.items()}
        if len(inverse) != len(phi_a):
            raise ValueError("fiber map is not a bijection")
        return lambda value: phi_b[inverse[value]]
    return lambda value: phi_b(phi_a.inverse(value))


def check_transition(phi_a, phi_b, operations, samples=None):
    """Verify the per-point transition maps are homomorphisms of the fiber
    operations: ``f(op(e1, ..., en)) == op(f(e1), ..., f(en))``.

    With dict-valued trivializations the check is exhaustive over the finite
    fibers; otherwise ``samples`` must supply fiber elements and all tuples
    drawn from them are checked.  Returns False at the first violation.
    """
    base = _require_shared_base([phi_a, phi_b])
    for point in base.points:
        fa, fb = phi_a[point], phi_b[point]
        transition = _transition_map(fa, fb)
        if samples is None:
            if not isinstance(fa, dict):
                raise ValueError("exhaustive check needs dict-valued fiber maps")
            elements = tuple(fa.keys())
        else:
            elements = tuple(samples)
        for op in operations:
            for args in product(elements, repeat=op.arity):
                if transition(op.apply(*args)) != op.apply(*(transition(e) for e in args)):
                    return False
    return True


# -- JSON wire format -----------------------------------------------------------
#
# {"base": [labels], "values": {label: entity}} with string labels, since
# JSON object keys are strings, and entities in the quaternion / matrix text
# grammars (matrix iff the text starts with "[").


def section_to_json(section):
    values = {}
    for point, value in section.items():
        if not isinstance(point, str):
            raise TypeError(f"cannot serialize base label {point!r}: labels must be str")
        if isinstance(value, Matrix):
            values[point] = format_matrix(value)
        elif isinstance(value, Quaternion):
            values[point] = format_quaternion(value)
        else:
            raise TypeError(f"cannot serialize fiber value {value!r}")
    return {"base": list(section.base.points), "values": values}


def section_from_json(data):
    """Decode the wire format; raises ValueError when a field has the wrong
    JSON type and KeyError when one is missing."""
    if not isinstance(data, dict):
        raise ValueError("section must be a JSON object")
    labels, texts = data["base"], data["values"]
    if not isinstance(labels, list) or not all(isinstance(p, str) for p in labels):
        raise ValueError("section base must be a JSON array of strings")
    if not isinstance(texts, dict) or not all(isinstance(t, str) for t in texts.values()):
        raise ValueError("section values must be a JSON object of strings")
    base = Base(tuple(labels))
    values = {
        point: parse_matrix(text) if text.lstrip().startswith("[") else parse_quaternion(text)
        for point, text in texts.items()
    }
    return Section(base, values)
