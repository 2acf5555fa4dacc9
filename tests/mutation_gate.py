"""Mutation gate: every mutant in ``MUTANTS`` must fail one of its tests,
and every side in ``FORCED_SIDES`` must keep every value.

Run from anywhere with ``python tests/mutation_gate.py``.  Each entry of
either table is ``(file, old text, new text, test node ids)``.  For each
entry the script copies ``src/``, ``tests/``, ``demos/`` and
``pyproject.toml`` into a fresh temporary directory, replaces the one
occurrence of the old text in the copied file, and runs pytest there, the
copied ``src/`` first on the path.

A mutant changes a value or drops a check that a test triggers, and one of
its named tests must fail.  A forced side patches one fork that the input
selects, by the size of its numbers or shapes or, in the CLI, by the first
word of argv, to one of its sides, which gives the same values as the other:
on the copy the oracles, the CLI transcript and the demo goldens of
``FORCED_RUN`` must pass, the entry's named tests left out, and each named
test, which pins the path that its examples take, must fail.  A side that no
test pins names none.  A kept side is the proof that the fork can go: a
change that deletes the fork keeps that side's path, drops both entries, and
moves the mutants of the deleted text to the path that remains.
``_back_substitute``'s first- and last-unknown shortcuts are not forced: the
last unknown must still fill ``integral``, which the earlier unknowns read,
so no single patch takes them off.

The script exits 1 when a mutant survives (its tests pass), when a forced
side fails a test of ``FORCED_RUN`` or passes a named test, when an old
text no longer occurs exactly once, when the tests fail on an unmutated
copy, or when a run imports ``skewlin`` from anywhere but its own copy (an
editable install would otherwise test the real tree).  Only the standard
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
CLI = "src/skewlin/cli.py"
BUNDLES = "src/skewlin/bundles.py"

TEST_QUATERNION = "tests/test_quaternion.py::"
TEST_MATRIX = "tests/test_matrix.py::"
TEST_ORACLE = "tests/test_elimination_oracle.py::"
TEST_QUASIDET = "tests/test_quasidet.py::"
TEST_CHI = "tests/test_chi_oracle.py::"
TEST_VALUES = "tests/test_value_types.py::"
TEST_REPRESENTATION_ORACLE = "tests/test_representation_oracle.py::"

# the tests that pin which form their examples take
REDUCE_CASES = TEST_QUASIDET + "test_reduce_examples_reach_their_cases"
BACK_SUBSTITUTION_CASES = TEST_ORACLE + "test_back_substitution_examples_reach_their_cases"
PINNED_PRODUCTS = TEST_ORACLE + "test_pinned_products_take_their_forms"

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
     [PINNED_PRODUCTS]),
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
    # _eliminate_rows: the pivot-norm rule one off, so a row whose pivot
    # norm is _WIDE stores its right sums
    (QUASIDET,
     "wide = norm > _WIDE",
     "wide = norm >= _WIDE",
     [REDUCE_CASES]),
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
    # _integral_product: one sign of the scaled product
    (QUASIDET,
     "    return _quotient(scale * w, scale * x, scale * y, scale * z, den, what)",
     "    return _quotient(scale * w, scale * x, scale * y, -scale * z, den, what)",
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
    # _factor: the D_n rule one off, so a factorization with D_n at _WIDE
    # stores its multipliers' right sums
    (QUASIDET,
     "wide = det > _WIDE",
     "wide = det >= _WIDE",
     [BACK_SUBSTITUTION_CASES]),
    # _factor: one sign of conj(P) in P_t's quotient term
    (QUASIDET,
     "        inverses.append((s * a + w, x - s * b, y - s * c, z - s * d))",
     "        inverses.append((s * a + w, x - s * b, y + s * c, z - s * d))",
     [TEST_QUASIDET + "test_uncorrupted_factor_solves"]),
    # _factor: one sign of conj(P) in P_t's remainder term, which is nonzero
    # on few pivots
    (QUASIDET,
     "        w, x, y, z = _quotient(rest * a, -rest * b, -rest * c, -rest * d, den,",
     "        w, x, y, z = _quotient(rest * a, -rest * b, rest * c, -rest * d, den,",
     [TEST_ORACLE + "test_back_substitution_above_oracle_sizes[11]"]),
    # _factor: P_t's division no longer checked, its quotients floored
    (QUASIDET,
     "        w, x, y, z = _quotient(rest * a,",
     "        w, x, y, z = (lambda *n: [v // n[4] for v in n[:4]])(rest * a,",
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
     'inverses[j], r, wide, "a back-substituted unknown")\n'
     "            y[j] = _build(r * yw, r * yx, r * yy, r * yz, den)",
     'inverses[j], r, wide, "a back-substituted unknown")\n'
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
     "            if action[row[g]] != after_g(phi_a):",
     "            if action[row[g]] != _reader(phi_a)(action[g]):",
     [TEST_REPRESENTATION_ORACLE + "test_generator_check_of_a_representation_matches_all_pairs"]),
    # _reader: one point read as the bare item, not a 1-tuple
    (REPRESENTATIONS,
     "        return lambda seq: (seq[point],)",
     "        return lambda seq: seq[point]",
     [TEST_REPRESENTATION_ORACLE + "test_reader_reads_a_tuple_at_each_point[one]"]),
    # _check_quotient: an algebra class with two projected rows accepted
    (REPRESENTATIONS,
     "        if len(rows) == 1 and at_least(row) == row:",
     "        if len(rows) >= 1 and at_least(row) == row:",
     [TEST_REPRESENTATION_ORACLE
      + "test_quotient_check_raises_exactly_where_the_pairwise_scan_scatters"]),
    # _indices_below: an entry equal to the bound accepted, so a
    # transformation may send a point to the carrier's size
    (REPRESENTATIONS,
     "    return not values or (min(values) >= 0 and max(values) < bound)",
     "    return not values or (min(values) >= 0 and max(values) <= bound)",
     ["tests/test_cli.py::test_repr_decompose_out_of_range_is_input_error[action-entry]"]),
    # solve_general: the rows after the pass's stop left without their
    # multipliers
    (RANK,
     "    _complete(elimination, a)\n",
     "    pass\n",
     [TEST_ORACLE + "test_back_substitution_above_oracle_sizes[7]",
      TEST_CHI + "test_solve_general_matches_chi_oracle"]),
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
    # _execute: a singular matrix reported with the status of a usage error
    (CLI,
     '        return 1, detail if detail.startswith("internal:") else "singular"',
     '        return 2, detail if detail.startswith("internal:") else "singular"',
     ["tests/test_cli.py::test_inv_singular_diagnostic"]),
    # _execute: a failed write reported as an input error
    (CLI,
     '        return 1, f"output: {exc}"',
     '        return 2, f"input: {exc}"',
     ["tests/test_cli.py::test_failed_write_is_an_output_error"]),
    # _require_shared_base: sections over two different bases accepted
    (BUNDLES,
     "    if len(bases) != 1:\n",
     "    if len(bases) > 2:\n",
     ["tests/test_bundles.py::test_lift_requires_shared_base"]),
]

# What every forced side must pass: the oracles of the kernel and of the
# products, the CLI transcript and the demo goldens.
FORCED_RUN = [
    "tests/test_chi_oracle.py",
    "tests/test_elimination_oracle.py",
    "tests/test_quasidet.py",
    "tests/test_quasidet_identities.py",
    "tests/test_rank_oracle.py",
    "tests/test_matrix.py",
    "tests/test_rank_solve.py",
    "tests/test_cli_transcript.py",
    "tests/test_demos.py",
]

FORCED_SIDES = [
    # the pivot-norm rule: every echelon row stores its right sums
    (QUASIDET,
     "        wide = norm > _WIDE\n",
     "        wide = True\n",
     [REDUCE_CASES]),
    # the pivot-norm rule: no echelon row stores its right sums
    (QUASIDET,
     "        wide = norm > _WIDE\n",
     "        wide = False\n",
     [REDUCE_CASES]),
    # _reduce: the inline loop on every echelon row, stored sums or not
    (QUASIDET,
     "        if right is None:\n",
     "        if True:\n",
     []),
    # the D_n rule: every factorization wide
    (QUASIDET,
     "    wide = det > _WIDE\n",
     "    wide = True\n",
     [BACK_SUBSTITUTION_CASES]),
    # the D_n rule: no factorization wide
    (QUASIDET,
     "    wide = det > _WIDE\n",
     "    wide = False\n",
     [BACK_SUBSTITUTION_CASES]),
    # the shape rule: _dot at every shape
    (MATRIX,
     "    if min(a.rows, a.cols, b.cols) < _SUMS_FROM:\n",
     "    if True:\n",
     [PINNED_PRODUCTS]),
    # the shape rule: the sums form at every shape with a nonempty
    # contraction, which the sums form needs
    (MATRIX,
     "    if min(a.rows, a.cols, b.cols) < _SUMS_FROM:\n",
     "    if not a.cols:\n",
     [PINNED_PRODUCTS]),
    # _reduce: the division by the previous echelon denominator always takes
    # the gcd path
    (QUASIDET,
     "                if rw or rx or ry or rz:\n                    common",
     "                if True:\n                    common",
     []),
    # _execute: every argv parsed by the top-level parser, a leading command
    # included
    (CLI,
     "    command = commands.get(argv[0]) if argv else None\n",
     "    command = None\n",
     ["tests/test_cli.py::test_known_command_skips_the_top_level_parser"]),
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
        for tree in ("src", "tests", "demos"):
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


def run_mutant(file, old, new, tests):
    """Run a mutant; returns its verdict, "killed" when its ``tests`` fail,
    and the run's output."""
    status, output = run_tests(file, old, new, tests)
    if status == PYTEST_TESTS_FAILED:
        return "killed", output
    return "survived" if status == 0 else f"error {status}", output


def run_forced(file, old, new, pinned):
    """Run a forced side; returns its verdict, "kept" when ``FORCED_RUN``
    passes without the ``pinned`` tests and each of them fails, and the
    output of the run that decided otherwise."""
    deselected = [arg for test in pinned for arg in ("--deselect", test)]
    status, output = run_tests(file, old, new, FORCED_RUN + deselected)
    if status != 0:
        return "changed" if status == PYTEST_TESTS_FAILED else f"error {status}", output
    for test in pinned:
        status, output = run_tests(file, old, new, [test])
        if status != PYTEST_TESTS_FAILED:
            return "unpinned" if status == 0 else f"error {status}", output
    return "kept", ""


def label(kind, number, file, old, new):
    was, now = next((o, n) for o, n in zip(old.splitlines(), new.splitlines()) if o != n)
    return f"{kind} {number} in {file}: {was.strip()} -> {now.strip()}"


def main():
    failures = []
    for kind, table in (("mutant", MUTANTS), ("forced side", FORCED_SIDES)):
        for number, (file, old, _, _) in enumerate(table, 1):
            count = (ROOT / file).read_text().count(old)
            if count != 1:
                failures.append(f"{kind} {number}: old text occurs {count} times in {file}")
    if failures:
        print("\n".join(failures))
        return 1

    every_test = {test for *_, tests in MUTANTS + FORCED_SIDES for test in tests}
    status, output = run_tests(None, None, None, sorted(every_test.union(FORCED_RUN)))
    if status != 0:
        print(f"the unmutated tree fails its tests (exit {status}):\n{output}")
        return 1

    for kind, table, run, passed in (("mutant", MUTANTS, run_mutant, "killed"),
                                     ("forced side", FORCED_SIDES, run_forced, "kept")):
        for number, (file, old, new, tests) in enumerate(table, 1):
            start = time.perf_counter()
            verdict, output = run(file, old, new, tests)
            name = label(kind, number, file, old, new)
            seconds = time.perf_counter() - start
            if verdict == passed:
                print(f"{verdict:<9} {name} ({seconds:.1f} s)")
                continue
            print(f"{verdict:<9} {name} ({seconds:.1f} s)\n{output}")
            failures.append(name)

    if failures:
        print(f"{len(failures)} of {len(MUTANTS) + len(FORCED_SIDES)} entries failed the gate")
        return 1
    print(f"all {len(MUTANTS)} mutants killed, all {len(FORCED_SIDES)} forced sides kept "
          "every value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
