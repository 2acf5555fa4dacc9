#!/usr/bin/env python3
"""Sections over a finite base: pointwise algebra and fibered linear maps.

The base is a plain set of labels; every fiber carries its own exact
quaternion algebra and the operations lift pointwise.
"""

import random

from skewlin import (
    Base,
    Bijection,
    Matrix,
    Quaternion,
    FiberedLinearMap,
    FiberOperation,
    Section,
    add_sections,
    apply_fibered_map,
    check_transition,
    compose_fibered_maps,
    scalar_action,
    section_to_json,
)
from skewlin.sampling import random_matrix, random_quaternion, random_row

rng = random.Random(11)
base = Base(("north", "east", "south", "west"))

scalars = Section(base, [random_quaternion(rng, bound=3) for _ in base.points])
vectors = Section(base, [random_row(rng, 2, bound=3) for _ in base.points])
print("scalar field:", scalars)
print("vector field:", vectors)

# Scalar action and addition are pointwise; the vector-space laws hold in
# every fiber, hence for whole sections.
acted = scalar_action(scalars, vectors)
print("\nscalars acting on vectors:", acted)
doubled = add_sections(vectors, vectors)
assert doubled == scalar_action(Section(base, [Quaternion(2)] * 4), vectors)

# A fibered linear map keeps one matrix per point; matrices may differ
# between fibers because the fibers are independent.
h = FiberedLinearMap(base, [random_matrix(rng, 2, 2, bound=3) for _ in base.points])
image = apply_fibered_map(vectors, h)
print("\nimage under a fibered map:", image)

unit_map = FiberedLinearMap(base, [Matrix.identity(2)] * 4)
assert apply_fibered_map(vectors, unit_map) == vectors

g = FiberedLinearMap(base, [random_matrix(rng, 2, 2, bound=3) for _ in base.points])
assert apply_fibered_map(image, g) == apply_fibered_map(
    vectors, compose_fibered_maps(h, g)
)
print("composition of fibered maps is the pointwise matrix product")

# Changing trivialization must respect the fiber operations.  Conjugation by
# a fixed nonzero quaternion preserves multiplication at every point...
mirrors = [random_quaternion(rng, bound=3, nonzero=True) for _ in base.points]
identity_map = Bijection(lambda v: v, lambda v: v)
phi_a = Section(base, [identity_map] * 4)
phi_b = Section(
    base,
    [
        Bijection(
            (lambda q: (lambda v: q * v * q.inverse()))(q),
            (lambda q: (lambda v: q.inverse() * v * q))(q),
        )
        for q in mirrors
    ],
)
multiply = FiberOperation(2, lambda a, b: a * b)
samples = [random_quaternion(rng, bound=3) for _ in range(5)]
print(
    "conjugation transition respects multiplication:",
    check_transition(phi_a, phi_b, [multiply], samples=samples),
)

# ...while shifting by a constant does not.
shift = Bijection(lambda v: v + mirrors[0], lambda v: v - mirrors[0])
phi_shift = Section(base, [shift] * 4)
print(
    "constant-shift transition respects multiplication:",
    check_transition(phi_a, phi_shift, [multiply], samples=samples),
)

print("\nJSON form of the vector field:")
print(section_to_json(vectors))
