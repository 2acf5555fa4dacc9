"""Acceptance suite: one test per criterion, exact tolerances, timed where a
budget is stated.  Each test prints a single pass/fail line (visible with
``pytest -s`` or in captured output)."""

import io
import random
import time
from contextlib import contextmanager
from pathlib import Path

from skewlin import (
    Matrix,
    Quaternion,
    SingularMatrixError,
    check_morphism,
    compose_morphisms,
    cr_product,
    cr_quasideterminant,
    cr_rank,
    decompose_morphism,
    extended_matrix,
    parse_matrix,
    parse_quaternion,
    rc_inverse,
    rc_inverse_via_quasidet,
    rc_product,
    rc_quasideterminant,
    rc_rank,
    reduced_action,
    rotation_representation,
    solve_general,
    transpose,
    validate_representation,
    RepMorphism,
)
from skewlin.bundles import (
    Base,
    FiberedLinearMap,
    Section,
    add_sections,
    apply_fibered_map,
    compose_fibered_maps,
    lift_operation,
    scalar_action,
)
from skewlin.cli import run
from skewlin.sampling import (
    random_matrix,
    random_nonsingular_matrix,
    random_quaternion,
    random_rank_deficient_stack,
    random_row,
    random_singular_family_member,
    random_singular_matrix,
)

EXAMPLE = parse_matrix("[k, -i; k-1, -i-j]")
GOLDEN = Path(__file__).parent / "data" / "demo_paper_example.golden"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def test_criterion_01_example_rc_side():
    with criterion(1, "example matrix, rc side, exact, <1ms"):
        # warm-up, then measure the three calls
        rc_quasideterminant(EXAMPLE, 2, 2)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            value = rc_quasideterminant(EXAMPLE, 2, 2)
            try:
                rc_inverse(EXAMPLE)
                singular = False
            except SingularMatrixError:
                singular = True
            rank = rc_rank(EXAMPLE).rank
            best = min(best, time.perf_counter() - start)
        assert value == Quaternion.zero()
        assert singular
        assert rank == 1
        assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def test_criterion_02_example_cr_side():
    with criterion(2, "example matrix, cr side, exact"):
        assert cr_quasideterminant(EXAMPLE, 1, 1) == parse_quaternion("1+k")
        assert cr_rank(EXAMPLE).rank == 2


def test_criterion_03_documented_discrepancy():
    with criterion(3, "cr quasideterminant at (2,2) equals the direct-formula oracle"):
        a = EXAMPLE
        oracle = a[1, 1] - a[0, 1] * a[0, 0].inverse() * a[1, 0]
        value = cr_quasideterminant(a, 2, 2)
        assert value == oracle
        # the transcription this guards against: the value is not -2i
        assert value != parse_quaternion("-2i")


def test_criterion_04_inverse_roundtrip_500():
    with criterion(4, "500 random inverse roundtrips, n in 1..5, <10s"):
        rng = random.Random(9401)
        start = time.perf_counter()
        inverted = 0
        for trial in range(500):
            n = trial % 5 + 1
            a = (
                random_matrix(rng, n, n)
                if trial % 7
                else random_singular_matrix(rng, n)
            )
            try:
                inv = rc_inverse(a)
            except SingularMatrixError:
                try:
                    rc_inverse_via_quasidet(a)
                    raise AssertionError("quasideterminant route inverted a singular matrix")
                except SingularMatrixError:
                    continue
            inverted += 1
            delta = Matrix.identity(n)
            assert rc_product(a, inv) == delta
            assert rc_product(inv, a) == delta
            assert rc_inverse_via_quasidet(a) == inv
        elapsed = time.perf_counter() - start
        assert inverted > 300  # random exact matrices are rarely singular
        assert elapsed < 10, f"took {elapsed:.2f} s"


def test_criterion_05_singular_product_biconditional_300():
    with criterion(5, "300 pairs: product singular iff a factor is"):
        rng = random.Random(9402)
        for trial in range(300):
            n = rng.choice((2, 3))
            a = (
                random_nonsingular_matrix(rng, n, bound=4)
                if rng.random() < 0.5
                else random_singular_matrix(rng, n)
            )
            b = (
                random_nonsingular_matrix(rng, n, bound=4)
                if rng.random() < 0.5
                else random_singular_matrix(rng, n)
            )
            product_singular = rc_rank(rc_product(a, b)).rank < n
            factor_singular = rc_rank(a).rank < n or rc_rank(b).rank < n
            assert product_singular == factor_singular


def test_criterion_06_solver_suite_300():
    with criterion(6, "300 random systems: flag, residuals, basis size"):
        rng = random.Random(9403)
        for trial in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = (
                random_matrix(rng, m, n, bound=4)
                if rng.random() < 0.5
                else random_rank_deficient_stack(rng, m, n, rng.randint(1, m))
            )
            if trial % 2 == 0:
                b = rc_product(random_row(rng, m, bound=4), a)
            else:
                b = random_row(rng, n, bound=4)
            solution = solve_general(a, b)
            k = rc_rank(a).rank
            assert solution.consistent == (
                rc_rank(extended_matrix(a, b)).rank == k
            )
            assert len(solution.homogeneous_basis) == m - k
            if trial % 2 == 0:
                assert solution.consistent
            if solution.consistent:
                assert rc_product(solution.particular, a) == b
                combo = solution.particular
                for h in solution.homogeneous_basis:
                    assert rc_product(h, a).is_zero()
                    combo = combo + h.scale_left(random_quaternion(rng, bound=4))
                assert rc_product(combo, a) == b


def test_criterion_07_row_reconstruction_200():
    with criterion(7, "200 rank-deficient matrices: outside rows reconstructed"):
        rng = random.Random(9404)
        from skewlin import row_dependence

        for trial in range(200):
            if trial % 2 == 0:
                a = random_singular_family_member(rng)
            else:
                m = rng.randint(2, 4)
                a = random_rank_deficient_stack(
                    rng, m, rng.randint(2, 4), rng.randint(1, m - 1)
                )
            report = rc_rank(a)
            assert report.rank < a.rows
            rows = report.minor.rows if report.minor else ()
            core = Matrix([a.row_entries(s) for s in rows], cols=a.cols)
            for p in range(1, a.rows + 1):
                if p in rows:
                    continue
                coeff = row_dependence(a, report, p)
                assert rc_product(coeff, core) == Matrix.row(a.row_entries(p))


def test_criterion_08_duality_200():
    with criterion(8, "duality: quasideterminants, products, involution"):
        rng = random.Random(9405)
        for trial in range(200):
            n = trial % 4 + 1
            a = random_matrix(rng, n, n, bound=4)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert cr_quasideterminant(a, i, j) == rc_quasideterminant(
                        a.transpose(), i, j
                    )
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            left = random_matrix(rng, n, p, bound=4)
            right = random_matrix(rng, q, n, bound=4)
            dual = rc_product(left.transpose(), right.transpose())
            assert cr_product(left, right) == dual.transpose()
            rect = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=4)
            assert transpose(transpose(rect)) == rect


def test_criterion_09_representation_decomposition():
    with criterion(9, "exhaustive cyclic morphism family, sizes up to 6, <5s"):
        start = time.perf_counter()
        checked = 0
        for n in range(1, 7):
            f = rotation_representation(n)
            assert validate_representation(f)
            for m in range(1, 7):
                g = rotation_representation(m)
                for t in range(m):
                    if (t * n) % m:
                        continue
                    for s in range(m):
                        morphism = RepMorphism(
                            f,
                            g,
                            tuple((t * a) % m for a in range(n)),
                            tuple((t * x + s) % m for x in range(n)),
                        )
                        assert check_morphism(morphism)
                        d = decompose_morphism(morphism)
                        to_q, across, into = d.factor_morphisms(morphism)
                        for piece in (to_q, across, into):
                            assert check_morphism(piece)
                        composed = compose_morphisms(
                            compose_morphisms(to_q, across), into
                        )
                        assert composed.algebra_map == morphism.algebra_map
                        assert composed.carrier_map == morphism.carrier_map
                        reduced = reduced_action(d, morphism)
                        assert validate_representation(reduced)
                        assert set(reduced.action) == set(d.quotient.action)
                        checked += 1
        elapsed = time.perf_counter() - start
        assert checked == sum(
            sum(m for t in range(m) if (t * n) % m == 0)
            for n in range(1, 7)
            for m in range(1, 7)
        )
        assert elapsed < 5, f"took {elapsed:.2f} s"


def test_criterion_10_fibered_laws():
    with criterion(10, "vector-field laws and fibered composition on 4-point bases"):
        rng = random.Random(9406)
        for trial in range(25):
            base = Base(tuple(f"pt{trial}_{idx}" for idx in range(4)))
            a = Section(base, [random_quaternion(rng, bound=4) for _ in range(4)])
            b = Section(base, [random_quaternion(rng, bound=4) for _ in range(4)])
            m = Section(base, [random_row(rng, 2, bound=4) for _ in range(4)])
            n = Section(base, [random_row(rng, 2, bound=4) for _ in range(4)])
            ab = lift_operation(lambda s, t: s * t, a, b)
            assert scalar_action(ab, m) == scalar_action(a, scalar_action(b, m))
            assert scalar_action(a, add_sections(m, n)) == add_sections(
                scalar_action(a, m), scalar_action(a, n)
            )
            a_plus_b = lift_operation(lambda s, t: s + t, a, b)
            assert scalar_action(a_plus_b, m) == add_sections(
                scalar_action(a, m), scalar_action(b, m)
            )
            unit = Section(base, [Quaternion.one()] * 4)
            assert scalar_action(unit, m) == m
            f = FiberedLinearMap(
                base, [random_matrix(rng, 2, 2, bound=4) for _ in range(4)]
            )
            g = FiberedLinearMap(
                base, [random_matrix(rng, 2, 2, bound=4) for _ in range(4)]
            )
            assert apply_fibered_map(apply_fibered_map(m, f), g) == apply_fibered_map(
                m, compose_fibered_maps(f, g)
            )


def test_criterion_11_cli_golden():
    with criterion(11, "demo output matches the golden file byte for byte"):
        out, err = io.StringIO(), io.StringIO()
        status = run(["demo", "paper-example"], out=out, err=err)
        assert status == 0 and err.getvalue() == ""
        assert out.getvalue() == GOLDEN.read_text()
