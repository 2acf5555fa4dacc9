"""What one operation of each workload does, how its result is checked, and
which sub-steps the traced run replays.

Every operation reaches the library through ``call(span_name, fn, *args)``
(see ``tracing.py``), so the same code runs with tracing off and on.  Span
names are ``<module>.<public function>``.  Checks run outside the timed
operation and use the benchmark's own schoolbook products and modular rank
certificates (``inputs.py``) wherever the library result can be checked
without the library.
"""

import io
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import inputs
from tracing import DIRECT


def lib(S, call, name, *args):
    """Call the public function ``S.<name after the dot>`` as span ``name``."""
    return call(name, getattr(S, name.partition(".")[2]), *args)


# -- rank helpers --------------------------------------------------------------------


def minor_position(m, n, rank, rows, cols):
    """Minors tested before the reported one, in the enumeration order of the
    rank definition: size descending, rows then columns lexicographic."""
    above = sum(comb(m, k) * comb(n, k) for k in range(rank + 1, min(m, n) + 1))
    if rank == 0:
        return above
    return above + _lex_rank(rows, m) * comb(n, rank) + _lex_rank(cols, n)


def _lex_rank(combo, n):
    k, rank, previous = len(combo), 0, 0
    for i, c in enumerate(combo):
        rank += sum(comb(n - v, k - i - 1) for v in range(previous + 1, c))
        previous = c
    return rank


def _count_rc(counts, args, report):
    a = args[0]
    rows, cols = (report.minor.rows, report.minor.cols) if report.minor else ((), ())
    _add(counts, minor_position(a.rows, a.cols, report.rank, rows, cols))


def _count_cr(counts, args, report):
    a = args[0]
    rows, cols = (report.minor.cols, report.minor.rows) if report.minor else ((), ())
    _add(counts, minor_position(a.cols, a.rows, report.rank, rows, cols))


def _add(counts, k):
    counts["rank.minors_before_major"] = counts.get("rank.minors_before_major", 0) + k


TRACE_HOOKS = {"rank.rc_rank": _count_rc, "rank.cr_rank": _count_cr}


def is_major(m, minor_rows, minor_cols):
    """The minor is nonsingular and is the first nonsingular minor of its
    order in the rank definition's enumeration order: every minor of the
    same order before it is singular (by modular rank, once per problem)."""
    order = len(minor_rows)
    if not inputs.is_certainly_nonsingular(m.minor(minor_rows, minor_cols)):
        return False
    for rows in combinations(range(1, m.rows + 1), order):
        for cols in combinations(range(1, m.cols + 1), order):
            if (rows, cols) == (minor_rows, minor_cols):
                return True
            if inputs.rank_mod_p(m.minor(rows, cols)) == order:
                return False
    return False


def check_rank(S, a, rc, cr, expected):
    """The rc rank is the known one and its minor is the major minor; the
    cr report agrees with ``rc_rank`` of the transpose, and its minor is the
    major minor of the transpose."""
    bad = []
    if rc.rank != expected or (rc.minor is None) != (expected == 0):
        bad.append("rc_rank_value")
    elif rc.minor and not is_major(a, rc.minor.rows, rc.minor.cols):
        bad.append("rc_rank_minor")
    t = a.transpose()
    dual = S.rc_rank(t)
    swapped = (dual.rank, dual.minor and (dual.minor.cols, dual.minor.rows))
    if (cr.rank, cr.minor and (cr.minor.rows, cr.minor.cols)) != swapped:
        bad.append("cr_rank_duality")
    elif cr.rank != inputs.rank_mod_p(t) or (
        cr.minor and not is_major(t, cr.minor.cols, cr.minor.rows)
    ):
        bad.append("cr_rank_minor")
    return bad


def check_qdet(q, inverse, p, r):
    """A defined quasideterminant at (p, r) inverts to entry (r, p) of the
    inverse; an undefined one sits over a zero entry."""
    entry = inverse[r - 1, p - 1]
    if q is None:
        return entry.is_zero()
    return not q.is_zero() and q.inverse() == entry


def check_two_sided(S, a, x, product):
    eye = S.Matrix.identity(a.rows)
    return product(S, a, x) == eye and product(S, x, a) == eye


def check_solution(S, a, b, solution, consistent, minor_rows):
    bad = []
    free = tuple(q for q in range(1, a.rows + 1) if q not in minor_rows)
    if solution.consistent != consistent:
        return ["solve_consistency"]
    if consistent != (solution.particular is not None) or (
        consistent and inputs.rc_product(S, solution.particular, a) != b
    ):
        bad.append("solve_particular")
    zero = S.Matrix.zeros(1, a.cols)
    basis = solution.homogeneous_basis
    if (
        solution.free_variables != free
        or len(basis) != len(free)
        or any(inputs.rc_product(S, row, a) != zero for row in basis)
        or any(row[0, f - 1] != (1 if i == j else 0)
               for i, row in enumerate(basis) for j, f in enumerate(free))
    ):
        bad.append("solve_basis")
    return bad


# -- replays: the sub-steps of composite calls, each as its own span ------------------


def replay_rc_rank(S, a, call):
    for k in range(min(a.rows, a.cols), 0, -1):
        for rows in combinations(range(1, a.rows + 1), k):
            for cols in combinations(range(1, a.cols + 1), k):
                if lib(S, call, "quasidet.is_rc_nonsingular", a.minor(rows, cols)):
                    return


def replay_cr_rank(S, a, call):
    replay_rc_rank(S, lib(S, call, "matrix.transpose", a), call)


def replay_cr_inverse(S, a, call):
    t = lib(S, call, "matrix.transpose", a)
    lib(S, call, "matrix.transpose", lib(S, call, "quasidet.rc_inverse", t))


def replay_qdet(S, a, p, r, call):
    inverse = lib(S, call, "quasidet.rc_inverse", a.without(p, r))
    n = a.rows
    row = S.Matrix.row([a[p - 1, t] for t in range(n) if t != r - 1])
    col = S.Matrix.column([a[s, r - 1] for s in range(n) if s != p - 1])
    lib(S, call, "matrix.rc_product", lib(S, call, "matrix.rc_product", row, inverse), col)


def replay_solve_nonsingular(S, a, b, call):
    lib(S, call, "matrix.rc_product", b, lib(S, call, "quasidet.rc_inverse", a))


def replay_row_dependence(S, a, report, p, call):
    sel = report.minor
    outside = S.Matrix.row([a[p - 1, t - 1] for t in sel.cols])
    core = lib(S, call, "quasidet.rc_inverse", a.minor(sel.rows, sel.cols))
    lib(S, call, "matrix.rc_product", outside, core)


def replay_solve_general(S, a, b, solution, call):
    report = lib(S, call, "rank.rc_rank", a)
    for p in solution.free_variables:
        lib(S, call, "rank.row_dependence", a, report, p)
    lib(S, call, "rank.rc_rank", S.extended_matrix(a, b))
    if solution.consistent and report.minor:
        sel = report.minor
        rhs = S.Matrix.row([b[0, t - 1] for t in sel.cols])
        lib(S, call, "rank.solve_nonsingular", a.minor(sel.rows, sel.cols), rhs)


# -- dense_inverse ---------------------------------------------------------------------


class DenseInverse:
    """Full-rank square matrices: scalar arithmetic, elimination and products
    do nearly all the work, and rank needs one elimination per call."""

    name = "dense_inverse"

    @staticmethod
    def label(p):
        return f"{p['n']}x{p['n']}"

    def generate(self, S, rng, smoke):
        problems = inputs.dense_inverse(S, rng, (2, 3, 4) if smoke else inputs.DENSE_SIZES)
        base = S.Base(("p", "q", "r", "s"))
        for p in problems:
            p["_section"] = S.Section(base, p["section"])
            p["_map"] = S.FiberedLinearMap(base, p["fibers"])
        return problems

    def op(self, S, p, call):
        a, b, n = p["a"], p["b"], p["n"]
        out = {
            "rc_inverse": lib(S, call, "quasidet.rc_inverse", a),
            "cr_inverse": lib(S, call, "quasidet.cr_inverse", a),
            "rc_rank": lib(S, call, "rank.rc_rank", a),
            "cr_rank": lib(S, call, "rank.cr_rank", a),
            "qdet_11": lib(S, call, "quasidet.rc_quasideterminant", a, 1, 1),
            "qdet_nn": lib(S, call, "quasidet.rc_quasideterminant", a, n, n),
            "cr_qdet_11": lib(S, call, "quasidet.cr_quasideterminant", a, 1, 1),
            "rc_product": lib(S, call, "matrix.rc_product", a, b),
            "cr_product": lib(S, call, "matrix.cr_product", a, b),
            "automorphism": lib(S, call, "spaces.is_automorphism", a),
            "fibered": lib(S, call, "bundles.apply_fibered_map", p["_section"], p["_map"]),
        }
        if n <= 6:
            out["via_quasidet"] = lib(S, call, "quasidet.rc_inverse_via_quasidet", a)
        return out

    def verify(self, S, p, r):
        a, n = p["a"], p["n"]
        x, y = r["rc_inverse"], r["cr_inverse"]
        x_dual = S.rc_inverse(a.transpose())
        checks = {
            "rc_inverse": check_two_sided(S, a, x, inputs.rc_product),
            "cr_inverse": check_two_sided(S, a, y, inputs.cr_product),
            "cr_inverse_duality": y == x_dual.transpose(),
            "qdet": check_qdet(r["qdet_11"], x, 1, 1) and check_qdet(r["qdet_nn"], x, n, n),
            "cr_qdet": check_qdet(r["cr_qdet_11"], x_dual, 1, 1),
            "rc_product": r["rc_product"] == inputs.rc_product(S, a, p["b"]),
            "cr_product": r["cr_product"] == inputs.cr_product(S, a, p["b"]),
            "automorphism": r["automorphism"] is True,
            "fibered": r["fibered"].values() == tuple(
                inputs.rc_product(S, v, h) for v, h in zip(p["section"], p["fibers"])
            ),
            "via_quasidet": r.get("via_quasidet", x) == x,
        }
        return [k for k, ok in checks.items() if not ok] + check_rank(
            S, a, r["rc_rank"], r["cr_rank"], n
        )

    def replay(self, S, p, r, call):
        a, n = p["a"], p["n"]
        replay_cr_inverse(S, a, call)
        replay_rc_rank(S, a, call)
        replay_cr_rank(S, a, call)
        replay_qdet(S, a, 1, 1, call)
        replay_qdet(S, a, n, n, call)
        replay_qdet(S, lib(S, call, "matrix.transpose", a), 1, 1, call)
        lib(S, call, "quasidet.is_rc_nonsingular", a)
        for v, h in zip(p["section"], p["fibers"]):
            lib(S, call, "matrix.rc_product", v, h)
        if n <= 6:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lib(S, call, "quasidet.rc_quasideterminant", a, i, j)
            lib(S, call, "matrix.rc_product", a, r["via_quasidet"])

    def pool(self, S, problems):
        return [p["a"] for p in problems], [p["a"] for p in problems]


# -- rank_deficient ------------------------------------------------------------------


class RankDeficient:
    """Rectangular matrices of known rank, mostly about half: minor
    enumeration dominates, so rank and solving cost grow steeply with size."""

    name = "rank_deficient"

    @staticmethod
    def label(p):
        return f"{p['m']}x{p['n']} rank {p['rank']}"

    def generate(self, S, rng, smoke):
        shapes = ((3, 3, 1), (3, 4, 0), (4, 3, 3)) if smoke else inputs.RANK_SHAPES
        problems = inputs.rank_deficient(S, rng, shapes)
        for p in problems:
            p["_basis"] = S.BasisModel(p["basis"])
        return problems

    def op(self, S, p, call):
        a = p["a"]
        rc = lib(S, call, "rank.rc_rank", a)
        in_minor = rc.minor.rows if rc.minor else ()
        outside = [q for q in range(1, a.rows + 1) if q not in in_minor]
        out = {
            "rc_rank": rc,
            "cr_rank": lib(S, call, "rank.cr_rank", a),
            "dependence": tuple(lib(S, call, "rank.row_dependence", a, rc, q) for q in outside),
            "consistent": lib(S, call, "rank.solve_general", a, p["consistent_rhs"]),
            "inconsistent": None,
            "independent": lib(S, call, "spaces.is_independent", a),
            "coords": lib(S, call, "spaces.expand_in_basis", p["vector"], p["_basis"]),
        }
        if p["inconsistent_rhs"] is not None:
            out["inconsistent"] = lib(S, call, "rank.solve_general", a, p["inconsistent_rhs"])
        return out

    def verify(self, S, p, r):
        a, rank = p["a"], p["rank"]
        bad = check_rank(S, a, r["rc_rank"], r["cr_rank"], rank)
        if bad:
            return bad
        rows = r["rc_rank"].minor.rows if rank else ()
        outside = [q for q in range(1, a.rows + 1) if q not in rows]
        core = a.minor(rows, range(1, a.cols + 1))
        if len(r["dependence"]) != len(outside) or any(
            inputs.rc_product(S, c, core) != S.Matrix.row(a.row_entries(q))
            for q, c in zip(outside, r["dependence"])
        ):
            bad.append("row_dependence")
        bad += check_solution(S, a, p["consistent_rhs"], r["consistent"], True, rows)
        if p["inconsistent_rhs"] is not None:
            bad += check_solution(S, a, p["inconsistent_rhs"], r["inconsistent"], False, rows)
        if r["independent"] != (rank == a.rows):
            bad.append("is_independent")
        if r["coords"] != p["coords"]:
            bad.append("expand_in_basis")
        return bad

    def replay(self, S, p, r, call):
        a = p["a"]
        replay_rc_rank(S, a, call)
        replay_cr_rank(S, a, call)
        report = r["rc_rank"]
        if report.minor:
            for q in r["consistent"].free_variables:
                replay_row_dependence(S, a, report, q, call)
        replay_solve_general(S, a, p["consistent_rhs"], r["consistent"], call)
        if r["inconsistent"] is not None:
            replay_solve_general(S, a, p["inconsistent_rhs"], r["inconsistent"], call)
        lib(S, call, "rank.rc_rank", a)
        replay_solve_nonsingular(S, p["basis"], p["vector"], call)

    def pool(self, S, problems):
        return [p["basis"] for p in problems], [p["a"] for p in problems]


# -- coefficient_growth ------------------------------------------------------------------


class CoefficientGrowth:
    """Integer quaternions of 30 to 300 digits: big-integer multiplication
    and gcd dominate, and entries of the results grow to thousands of bits."""

    name = "coefficient_growth"

    @staticmethod
    def label(p):
        return f"{p['n']}x{p['n']} {p['digits']} digits"

    def generate(self, S, rng, smoke):
        classes = ((2, 10), (3, 20)) if smoke else inputs.GROWTH_CLASSES
        return inputs.coefficient_growth(S, rng, classes)

    def op(self, S, p, call):
        a, n = p["a"], p["n"]
        return {
            "rc_inverse": lib(S, call, "quasidet.rc_inverse", a),
            "solution": lib(S, call, "rank.solve_nonsingular", a, p["rhs"]),
            "qdet_nn": lib(S, call, "quasidet.rc_quasideterminant", a, n, n),
        }

    def verify(self, S, p, r):
        a, n, x = p["a"], p["n"], r["rc_inverse"]
        checks = {
            "rc_inverse": check_two_sided(S, a, x, inputs.rc_product),
            "solve_nonsingular": inputs.rc_product(S, r["solution"], a) == p["rhs"],
            "qdet": check_qdet(r["qdet_nn"], x, n, n),
        }
        return [k for k, ok in checks.items() if not ok]

    def replay(self, S, p, r, call):
        replay_solve_nonsingular(S, p["a"], p["rhs"], call)
        replay_qdet(S, p["a"], p["n"], p["n"], call)

    def pool(self, S, problems):
        return [p["a"] for p in problems], [p["a"] for p in problems]


# -- cli_requests ------------------------------------------------------------------------

_ERROR_LINES = {
    "singular": "error: singular",
    "undefined": "error: undefined",
    "inconsistent": "error: inconsistent",
    "malformed": "error: parse:",
    "mismatch": "error: dimension:",
}


@contextmanager
def lifted_int_limit():
    """Lift the int/str digit limit for the benchmark's own checks only."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def invoke(S, request):
    """``skewlin.cli.run`` in process; returns (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if request["stdin"] is not None:
        sys.stdin = io.StringIO(request["stdin"])
    try:
        status = S.cli.run(request["argv"], out, err)
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def split_argv(argv):
    options, positional = {}, []
    it = iter(argv[1:])
    for token in it:
        if token.startswith("--"):
            options[token[2:]] = next(it)
        else:
            positional.append(token)
    return argv[0], options, positional


def _quaternion_from_json(S, d):
    return S.Quaternion(*(Fraction(d[c]["num"], d[c]["den"]) for c in "wxyz"))


def _matrix_from_json(S, d):
    cells = [[_quaternion_from_json(S, e) for e in row] for row in d["cells"]]
    return S.Matrix(cells, cols=d["cols"])


def _minor_fields(report):
    minor = report.minor
    return report.rank, minor and tuple(minor.rows), minor and tuple(minor.cols)


def _ints(text):
    return tuple(int(v) for v in text.split(",")) if text != "-" else ()


def expected_result(S, request):
    """The library's own answer to a successful request, in the normal form
    :func:`parse_output` produces."""
    command, opt, mats = split_argv(request["argv"])
    if command == "demo":
        a = S.cli.REFERENCE_EXAMPLE
        return (a, S.rc_quasideterminant(a, 2, 2), S.cr_quasideterminant(a, 1, 1),
                S.rc_rank(a).rank, S.cr_rank(a).rank)
    if command == "repr-decompose":
        return _decompose(S, _parse_instance(S, request["stdin"], DIRECT), DIRECT)
    texts = mats + ([opt["rhs"]] if "rhs" in opt else [])
    value = _compute(S, command, opt, _parse_texts(S, texts, DIRECT), DIRECT)
    if command == "rank":
        return _minor_fields(value)
    if command == "solve":
        return (value.consistent, value.particular, value.free_variables,
                value.homogeneous_basis)
    return value


def parse_output(S, request, out):
    """Read a request's stdout back into library values."""
    command, opt, _ = split_argv(request["argv"])
    as_json = opt.get("format") == "json"
    if command == "repr-decompose":
        return json.loads(out)
    if command == "demo":
        values = dict(line.split(": ", 1) for line in out.splitlines())
        return (S.parse_matrix(values["matrix"]),
                S.parse_quaternion(values["rc quasideterminant at (2,2)"]),
                S.parse_quaternion(values["cr quasideterminant at (1,1)"]),
                int(values["rc rank"]), int(values["cr rank"]))
    if command == "qdet":
        return _quaternion_from_json(S, json.loads(out)) if as_json else S.parse_quaternion(out)
    if command in ("inv", "mul"):
        return _matrix_from_json(S, json.loads(out)) if as_json else S.parse_matrix(out)
    if command == "rank":
        if as_json:
            d = json.loads(out)
            return d["rank"], d["rows"] and tuple(d["rows"]), d["cols"] and tuple(d["cols"])
        values = dict(line.split(": ", 1) for line in out.splitlines())
        if "minor" in values:
            return int(values["rank"]), None, None
        return int(values["rank"]), _ints(values["minor rows"]), _ints(values["minor cols"])
    if as_json:
        d = json.loads(out)
        return (d["consistent"], d["particular"] and _matrix_from_json(S, d["particular"]),
                tuple(d["free_variables"]),
                tuple(_matrix_from_json(S, row) for row in d["basis"]))
    lines = out.splitlines()
    values = dict(line.split(": ", 1) for line in lines if not line.startswith("basis"))
    return (values["consistent"] == "yes",
            S.parse_matrix(values["particular"]) if "particular" in values else None,
            _ints(values["free variables"]),
            tuple(S.parse_matrix(line.split(": ", 1)[1])
                  for line in lines if line.startswith("basis")))


class CliRequests:
    """In-process ``skewlin.cli.run`` on a seeded request stream: compute is
    small, so argument handling, parsing and formatting dominate."""

    name = "cli_requests"

    @staticmethod
    def label(request):
        return request["kind"]

    def generate(self, S, rng, smoke):
        return inputs.cli_requests(S, rng, 1 if smoke else inputs.CLI_PER_CLASS)

    @staticmethod
    def is_large(request):
        return request["kind"] == "large"

    def op(self, S, request, call):
        name = "cli.large_request" if self.is_large(request) else "cli.run"
        result = call(name, invoke, S, request)
        if result[0] != request["expect"]:
            call.fail_last(f"exit {result[0]}")
        return result

    def verify(self, S, request, result):
        status, out, err = result
        kind = request["kind"]
        if kind == "large" and status == 2 and "Exceeds the limit" in err:
            return ["large:int_str_limit"]
        if status != request["expect"]:
            return [f"{kind}:status"]
        lines = err.splitlines()
        if request["expect"]:
            ok = len(lines) == 1 and lines[0].startswith(_ERROR_LINES[kind])
            return [] if ok and "Traceback" not in err else [f"{kind}:stderr"]
        if err:
            return [f"{kind}:stderr"]
        with lifted_int_limit():
            same = parse_output(S, request, out) == expected_result(S, request)
        return [] if same else [f"{kind}:output"]

    def replay(self, S, request, result, call):
        """Parse, compute and format stages of a successful request, each
        replayed through the library functions ``run`` uses."""
        if request["expect"] or self.is_large(request):
            return
        command, opt, mats = split_argv(request["argv"])
        if command == "repr-decompose":
            instance = call("cli.parse", _parse_instance, S, request["stdin"], call)
            payload = call("cli.compute", _decompose, S, instance, call)
            call("cli.format", json.dumps, payload)
            return
        if command == "demo":
            values = call("cli.compute", expected_result, S, request)
            call("cli.format", _format_demo, S, values, call)
            return
        texts = mats + ([opt["rhs"]] if "rhs" in opt else [])
        parsed = call("cli.parse", _parse_texts, S, texts, call)
        value = call("cli.compute", _compute, S, command, opt, parsed, call)
        call("cli.format", _format_value, S, value, opt.get("format") == "json", call)

    def pool(self, S, requests):
        """Matrices of the ``inv`` requests (square, nonsingular) and of the
        ``rank`` and ``solve`` requests (rectangular)."""
        square, rect = [], []
        for request in requests:
            kind, matrix_text = request["kind"], split_argv(request["argv"])[2][:1]
            if kind == "inv":
                square.append(S.parse_matrix(matrix_text[0]))
            elif kind in ("rank", "solve"):
                rect.append(S.parse_matrix(matrix_text[0]))
        return square, rect


def _parse_texts(S, texts, call):
    return [lib(S, call, "matrix.parse_matrix", t) for t in texts]


def _parse_instance(S, text, call):
    instance = json.loads(text)
    source = lib(S, call, "representations.representation_from_json", instance["f"])
    target = lib(S, call, "representations.representation_from_json", instance["g"])
    return S.morphism_from_json(instance["morphism"], source, target)


def _decompose(S, morphism, call):
    lib(S, call, "representations.check_morphism", morphism)
    dec = lib(S, call, "representations.decompose_morphism", morphism)
    factors = dec.factor_morphisms(morphism)
    return {
        "quotient": S.representation_to_json(dec.quotient),
        "image": S.representation_to_json(dec.image),
        **{k: S.morphism_to_json(m)
           for k, m in zip(("projection", "bijection", "inclusion"), factors)},
    }


def _compute(S, command, opt, parsed, call):
    kind = opt.get("kind", "rc")
    if command == "qdet":
        p, r = _ints(opt["pos"])
        return lib(S, call, f"quasidet.{kind}_quasideterminant", parsed[0], p, r)
    if command == "inv":
        return lib(S, call, f"quasidet.{kind}_inverse", parsed[0])
    if command == "mul":
        return lib(S, call, f"matrix.{kind}_product", *parsed)
    if command == "rank":
        return lib(S, call, f"rank.{kind}_rank", parsed[0])
    return lib(S, call, "rank.solve_general", *parsed)


def _format_value(S, value, as_json, call):
    """The formatting ``run`` does for each result type, text or JSON."""
    if isinstance(value, S.Quaternion):
        if as_json:
            return json.dumps(S.cli.quaternion_json(value), sort_keys=True)
        return lib(S, call, "quaternion.format_quaternion", value)
    if isinstance(value, S.Matrix):
        if as_json:
            return json.dumps(S.cli.matrix_json(value), sort_keys=True)
        return lib(S, call, "matrix.format_matrix", value)
    if isinstance(value, S.RankReport):
        return json.dumps(_minor_fields(value)) if as_json else str(_minor_fields(value))
    matrices = ([value.particular] if value.particular is not None else []) + list(
        value.homogeneous_basis
    )
    if as_json:
        return json.dumps([S.cli.matrix_json(m) for m in matrices], sort_keys=True)
    return [lib(S, call, "matrix.format_matrix", m) for m in matrices]


def _format_demo(S, values, call):
    a, rc_q, cr_q, rc_rank, cr_rank = values
    return (lib(S, call, "matrix.format_matrix", a),
            lib(S, call, "quaternion.format_quaternion", rc_q),
            lib(S, call, "quaternion.format_quaternion", cr_q), str(rc_rank), str(cr_rank))


WORKLOADS = {w.name: w for w in (DenseInverse(), RankDeficient(), CoefficientGrowth(), CliRequests())}


def quaternions(value, out):
    """Collect every quaternion inside a result or input structure."""
    if hasattr(value, "cells"):
        out.extend(q for row in value.cells for q in row)
    elif hasattr(value, "inverse") and hasattr(value, "norm"):
        out.append(value)
    elif isinstance(value, dict):
        for v in value.values():
            quaternions(v, out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            quaternions(v, out)
    elif is_dataclass(value):
        for f in fields(value):
            quaternions(getattr(value, f.name), out)
    return out
