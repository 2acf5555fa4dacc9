"""Mutation gate: every mutant in ``MUTANTS`` must fail one of its tests.

Run from anywhere with ``python tests/mutation_gate.py``.  Each entry of
``MUTANTS`` is ``(file, old text, new text, test node ids)``.  For each
entry the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
fresh temporary directory, replaces the one occurrence of the old text in
the copied file, and runs the named tests there with pytest, the copied
``src/`` first on the path.  It exits 1 when a mutant survives (its tests
pass), when an old text no longer occurs exactly once, when the tests fail
on an unmutated copy, or when a run imports ``skewlin`` from anywhere but
its own copy (an editable install would otherwise test the real tree).

Every mutant changes a value or drops a check that a test triggers, but
one: a mutant that only forces one side of a size-selected fork leaves every
value correct, so only a test that asserts which form a call takes can kill
it.  ``rc_product``'s shape rule has such a test, and its mutant here.  Only the standard
library is used, apart from pytest in the child processes; pytest does not
collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INIT = "src/skewlin/__init__.py"
QUATERNION = "src/skewlin/quaternion.py"
MATRIX = "src/skewlin/matrix.py"
QUASIDET = "src/skewlin/quasidet.py"
RANK = "src/skewlin/rank.py"
REPRESENTATIONS = "src/skewlin/representations.py"

TEST_QUATERNION = "tests/test_quaternion.py::"
TEST_MATRIX = "tests/test_matrix.py::"
TEST_ORACLE = "tests/test_elimination_oracle.py::"
TEST_QUASIDET = "tests/test_quasidet.py::"
TEST_CHI = "tests/test_chi_oracle.py::"
TEST_VALUES = "tests/test_value_types.py::"

MUTANTS = [
    # _product: one sign in the w numerator
    (QUATERNION,
     "        half - t6 + (d - c) * (g - h),",
     "        half + t6 + (d - c) * (g - h),",
     [TEST_QUATERNION + "test_product_matches_schoolbook"]),
    # _product: one factor of t7
    (QUATERNION,
     "    t7 = (a + c) * (e - h)",
     "    t7 = (a + c) * (e + h)",
     [TEST_QUATERNION + "test_product_matches_schoolbook"]),
    # Quaternion.__mul__: one sign in the y numerator
    (QUATERNION,
     "            a * g - b * h + c * e + d * f,\n",
     "            a * g - b * h + c * e - d * f,\n",
     [TEST_QUATERNION + "test_unit_relations"]),
    # _dot: the sum's and the term's cofactors swapped
    (QUATERNION,
     "        sw = sw * up + (a * e - b * f - c * g - d * h) * across",
     "        sw = sw * across + (a * e - b * f - c * g - d * h) * up",
     [TEST_QUATERNION + "test_dot_is_left_fold_of_products"]),
    # _dot: the running denominator grown by the wrong cofactor
    (QUATERNION,
     "        den *= up\n    return _build(sw, sx, sy, sz, den)",
     "        den *= across\n    return _build(sw, sx, sy, sz, den)",
     [TEST_QUATERNION + "test_dot_is_left_fold_of_products"]),
    # _sum_vectors: the cofactors of the lcm dropped, so entries over a
    # smaller denominator enter unscaled
    (QUATERNION,
     "        sums(w, x, y, z) if d == den else",
     "        sums(w, x, y, z) if d <= den else",
     [TEST_ORACLE + "test_products_straddling_the_shape_rule_match_schoolbook"]),
    # _dot_of_sums: one sign in the combine
    (QUATERNION,
     "        half - m3 + sum(map(mul, ly, ry)),",
     "        half + m3 + sum(map(mul, ly, ry)),",
     [TEST_ORACLE + "test_products_straddling_the_shape_rule_match_schoolbook"]),
    # rc_product, below the shape rule: the factors of each scalar product
    # exchanged
    (MATRIX,
     "        return Matrix([[_dot(row, col) for col in columns] for row in a.cells], cols=b.cols)",
     "        return Matrix([[_dot(col, row) for col in columns] for row in a.cells], cols=b.cols)",
     [TEST_MATRIX + "test_rc_product_1x1", TEST_ORACLE + "test_products_match_schoolbook_product"]),
    # rc_product: the shape rule one size off, so an n x n product at the
    # rule keeps _dot
    (MATRIX,
     "    if min(a.rows, a.cols, b.cols) < _SUMS_FROM:",
     "    if min(a.rows, a.cols, b.cols) <= _SUMS_FROM:",
     [TEST_ORACLE + "test_pinned_products_take_their_forms"]),
    # rc_product, past the shape rule: the rows' left sums and the columns'
    # right sums exchanged
    (MATRIX,
     "    rows = [_sum_vectors(row, _left_sums) for row in a.cells]\n"
     "    columns = [_sum_vectors(col, _right_sums) for col in columns]\n",
     "    rows = [_sum_vectors(row, _right_sums) for row in a.cells]\n"
     "    columns = [_sum_vectors(col, _left_sums) for col in columns]\n",
     [TEST_ORACLE + "test_products_straddling_the_shape_rule_match_schoolbook"]),
    # rc_product: an empty contraction given the left factor's row count
    (MATRIX,
     "    columns = list(zip(*b.cells)) if b.rows else [()] * b.cols",
     "    columns = list(zip(*b.cells)) if b.rows else [()] * a.rows",
     [TEST_MATRIX + "test_empty_matrix_products"]),
    # _eliminate_rows: one sign of conj(pi) flipped in the echelon row
    (QUASIDET,
     "                x = a * f - b * e - c * h + d * g\n",
     "                x = a * f + b * e - c * h + d * g\n",
     [TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _eliminate_rows: the echelon sort dropped
    (QUASIDET,
     "        echelon.sort(key=lambda row: row[0])",
     "        echelon.sort(key=lambda row: 0)",
     [TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _eliminate_rows: the content divides the numerators but not N(P)
    (QUASIDET,
     "        echelon.append((pivot, tail, len(kept), norm // content, right))",
     "        echelon.append((pivot, tail, len(kept), norm, right))",
     [TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _right_sums: one stored right-operand sum of a wide echelon row or
    # multiplier
    (QUATERNION,
     "    return f - g, f + g, e - h, e + h, g - h, e + f, g + h, e - f",
     "    return f - g, f + g, e - h, e + h, h - g, e + f, g + h, e - f",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction"]),
    # _reduce: a nonzero lead with a zero component skipped
    (QUASIDET,
     "        if not (a or b or c or d):\n            continue",
     "        if not (a and b and c and d):\n            continue",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction",
      TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _reduce: the tail product taken on the wrong side, T * L
    (QUASIDET,
     "                px = a * f + b * e + c * h - d * g\n"
     "                py = a * g - b * h + c * e + d * f\n"
     "                pz = a * h + b * g - c * f + d * e\n",
     "                px = a * f + b * e - c * h + d * g\n"
     "                py = a * g + b * h + c * e - d * f\n"
     "                pz = a * h - b * g + c * f + d * e\n",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction",
      TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _reduce: one output of the hoisted loop on a wide echelon row
    (QUASIDET,
     "                          x * scale - half + m123 - lx * rx,",
     "                          x * scale - half - m123 - lx * rx,",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction"]),
    # _reduce: the row divided by the previous echelon denominator, its
    # denominator not
    (QUASIDET,
     "                den //= previous\n",
     "                den //= 1\n",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction",
      TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _reduce: after a remainder, the row divided by the gcd, its denominator
    # not
    (QUASIDET,
     "                        den //= common\n",
     "                        den //= 1\n",
     [TEST_QUASIDET + "test_reduce_matches_per_entry_reduction",
      TEST_CHI + "test_kernel_matches_chi_oracle"]),
    # _quotient: two quotients exchanged
    (QUASIDET,
     "    return qw, qx, qy, qz\n",
     "    return qw, qx, qz, qy\n",
     [TEST_ORACLE + "test_integer_back_substitution_matches_rational"]),
    # _quotient: a remainder no longer raises
    (QUASIDET,
     "    if rw or rx or ry or rz:\n        raise",
     "    if False:\n        raise",
     [TEST_QUASIDET + "test_unknown_division_is_checked"]),
    # _integral_product: the short path drops a sign
    (QUASIDET,
     "        return s * w, s * x, s * y, s * z",
     "        return s * w, s * x, s * y, -s * z",
     [TEST_ORACLE + "test_integer_back_substitution_matches_rational"]),
    # _complete: a row past the pass's stop loses its scale
    (QUASIDET,
     "        elimination.leads.append((_reduce(row, scale, elimination.echelon)[0], scale))",
     "        elimination.leads.append((_reduce(row, scale, elimination.echelon)[0], 1))",
     [TEST_ORACLE + "test_back_substitution_above_oracle_sizes[7]"]),
    # _factor: the prefix Study determinant's division is no longer checked
    (QUASIDET,
     "        if rest:\n"
     '            raise SingularMatrixError("internal: a prefix Study determinant is not integral")',
     "        if False:\n"
     '            raise SingularMatrixError("internal: a prefix Study determinant is not integral")',
     [TEST_QUASIDET + "test_prefix_determinant_division_is_checked"]),
    # _factor: the prefix Study determinant divided by den, not den^2
    (QUASIDET,
     "        det, rest = divmod(scaled * (a * a + b * b + c * c + d * d), den * den)",
     "        det, rest = divmod(scaled * (a * a + b * b + c * c + d * d), den)",
     [TEST_QUASIDET + "test_uncorrupted_factor_solves",
      TEST_CHI + "test_prefix_study_determinants_match_chi_oracle"]),
    # _factor: one sign of conj(P) in P_t
    (QUASIDET,
     "            inverses.append((s * a, -s * b, -s * c, -s * d))",
     "            inverses.append((s * a, -s * b, s * c, -s * d))",
     [TEST_QUASIDET + "test_uncorrupted_factor_solves"]),
    # _factor: P_t's division no longer checked, its quotient floored
    (QUASIDET,
     "        if rest:\n            inverses.append(_quotient(",
     "        if False:\n            inverses.append(_quotient(",
     [TEST_QUASIDET + "test_pivot_inverse_division_is_checked"]),
    # _back_substitute: one sign in the narrow sum
    (QUASIDET,
     "                sz += a * h + b * g - c * f + d * e",
     "                sz += a * h + b * g + c * f + d * e",
     [TEST_ORACLE + "test_integer_back_substitution_matches_rational"]),
    # _back_substitute: one output of the hoisted loop, for D_n past _WIDE
    (QUASIDET,
     "                sy += half - m3 + ly * ry\n",
     "                sy += half + m3 + ly * ry\n",
     [TEST_ORACLE + "test_back_substitution_above_oracle_sizes_on_big_entries"]),
    # _back_substitute: the last unknown's shortcut loses its row scale
    (QUASIDET,
     'inverses[j], r, "a back-substituted unknown")\n'
     "            y[j] = _build(r * yw, r * yx, r * yy, r * yz, den)",
     'inverses[j], r, "a back-substituted unknown")\n'
     "            y[j] = _build(yw, r * yx, r * yy, r * yz, den)",
     [TEST_ORACLE + "test_back_substitution_above_oracle_sizes"]),
    # rc_quasideterminant: the value's sign
    (QUASIDET,
     "    return _build(*rest[-1], den)\n",
     "    return -_build(*rest[-1], den)\n",
     [TEST_ORACLE + "test_kernel_matches_oracle[2]"]),
    # _kernel_column: each pivot entry's sign
    (QUASIDET,
     "            c[pivot] = -_dot(*zip(*terms))",
     "            c[pivot] = _dot(*zip(*terms))",
     [TEST_ORACLE + "test_inverse_via_quasidet_matches_per_position_oracle[3]"]),
    # rc_inverse_via_quasidet: an entry's factors exchanged
    (QUASIDET,
     "            cells[r][p] = c[r] * s_inverse",
     "            cells[r][p] = s_inverse * c[r]",
     [TEST_ORACLE + "test_inverse_via_quasidet_matches_per_position_oracle[3]"]),
    # parse_quaternion: the signs of the terms reversed
    (QUATERNION,
     '(-num if sign == "-" else num)',
     '(-num if sign == "+" else num)',
     [TEST_QUATERNION + "test_parse_examples"]),
    # _lowest_terms: a component's denominator left unreduced
    (QUATERNION,
     "    return [(n // (g := gcd(n, den)), den // g) for n in q[:4]]",
     "    return [(n // (g := gcd(n, den)), den) for n in q[:4]]",
     [TEST_QUATERNION + "test_canonical_printing"]),
    # _obeys_product_law: the composition taken in the other order
    (REPRESENTATIONS,
     "            if action[row[g]] != tuple([phi_a[m] for m in phi_g]):",
     "            if action[row[g]] != tuple([phi_g[m] for m in phi_a]):",
     ["tests/test_representation_oracle.py::test_generator_check_of_a_representation_matches_all_pairs"]),
    # solve_general: the particular solution is no longer checked
    (RANK,
     "    if rc_product(particular, a) != b:\n",
     "    if False:\n",
     ["tests/test_cli.py::test_particular_solution_self_check_failure_is_internal"]),
    # Matrix.__eq__: the column count no longer compared
    (MATRIX,
     "        return self.cells == other.cells and self.cols == other.cols",
     "        return self.cells == other.cells",
     [TEST_VALUES + "test_matrices_differ_by_entries_shape_and_type"]),
    # Matrix.__reduce__: the column count dropped
    (MATRIX,
     "        return Matrix, (self.cells, self.cols)",
     "        return Matrix, (self.cells,)",
     [TEST_VALUES + "test_zero_row_matrix_keeps_its_width_through_pickle_and_copy"]),
    # _Frozen.__delattr__: a deletion no longer raises
    (MATRIX,
     '        raise FrozenInstanceError(f"cannot delete field {name!r}")',
     "        return",
     [TEST_VALUES + "test_values_are_frozen"]),
    # IndexSelection: a repeated index accepted
    (RANK,
     "                i < j for i, j in zip((0,) + seq, seq)",
     "                i <= j for i, j in zip((0,) + seq, seq)",
     [TEST_VALUES + "test_index_selection_rejects_bad_sets_however_built"]),
    # the lazy-name table: one name mapped to the other feature module
    (INIT,
     '    "Section": "bundles",',
     '    "Section": "representations",',
     ["tests/test_public_api.py::test_lazy_names_are_what_their_module_defines"]),
]

# Runs pytest in the child, then exits 99 unless skewlin came from the copy
# named by the first argument.
RUNNER = """
import sys
import pytest
status = pytest.main(sys.argv[2:])
module = sys.modules.get("skewlin")
if module is None or not module.__file__.startswith(sys.argv[1]):
    print(f"skewlin imported from {module and module.__file__}, not {sys.argv[1]}")
    sys.exit(99)
sys.exit(status)
"""
PYTEST_TESTS_FAILED = 1


def run_tests(file, old, new, tests):
    """Run ``tests`` on a copy of the tree with ``old`` replaced by ``new``
    in ``file``; returns the child's exit status and output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp).resolve()
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if file is not None:
            target = copy / file
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run(
            [sys.executable, "-c", RUNNER, str(copy / "src"),
             "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        return child.returncode, child.stdout + child.stderr


def main():
    failures = []
    for number, (file, old, _, _) in enumerate(MUTANTS, 1):
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            failures.append(f"mutant {number}: old text occurs {count} times in {file}")
    if failures:
        print("\n".join(failures))
        return 1

    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    status, output = run_tests(None, None, None, every_test)
    if status != 0:
        print(f"the unmutated tree fails its tests (exit {status}):\n{output}")
        return 1

    for number, (file, old, new, tests) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        status, output = run_tests(file, old, new, tests)
        changed = next(n for o, n in zip(old.splitlines(), new.splitlines()) if o != n)
        label = f"mutant {number} in {file}: {changed.strip()}"
        seconds = time.perf_counter() - start
        if status == PYTEST_TESTS_FAILED:
            print(f"killed    {label} ({seconds:.1f} s)")
            continue
        verdict = "survived" if status == 0 else f"error {status}"
        print(f"{verdict:<9} {label} ({seconds:.1f} s)\n{output}")
        failures.append(label)
    if failures:
        print(f"{len(failures)} of {len(MUTANTS)} mutants not killed")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
