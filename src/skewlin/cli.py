"""Command-line front end.

Every computation is exposed on text or JSON input; exit status separates
mathematical outcomes from usage problems so shell pipelines can tell a
singular matrix from a typo:

* 0 success,
* 1 mathematical error (singular / undefined / inconsistent),
* 2 input error (parse failure, bad flags, incompatible shapes),

with a one-line ``error: <code>[: detail]`` diagnostic on stderr.
"""

import argparse
import contextlib
import json
import sys

from .errors import (
    DimensionMismatch,
    InvalidMorphismError,
    ParseError,
    SingularMatrixError,
)
from .matrix import Matrix, cr_product, format_matrix, parse_matrix, rc_product
from .quasidet import (
    cr_inverse,
    cr_quasideterminant,
    rc_inverse,
    rc_quasideterminant,
)
from .quaternion import format_quaternion
from .rank import cr_rank, rc_rank, solve_general
from .representations import (
    check_morphism,
    decompose_morphism,
    morphism_from_json,
    morphism_to_json,
    representation_from_json,
    representation_to_json,
)

REFERENCE_EXAMPLE = parse_matrix("[k, -i; -1+k, -i-j]")


class MathError(Exception):
    """Mathematical failure; carries the one-word diagnostic code."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


class _UsageError(Exception):
    """Command-line usage problem reported by the argument parser."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage to the real stderr and exits; raise instead so
    # run() reports one error line on its own ``err`` stream
    def error(self, message):
        raise _UsageError(message)


def _fraction_json(f):
    return {"num": f.numerator, "den": f.denominator}


def quaternion_json(q):
    return {
        "w": _fraction_json(q.w),
        "x": _fraction_json(q.x),
        "y": _fraction_json(q.y),
        "z": _fraction_json(q.z),
    }


def matrix_json(m):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "cells": [[quaternion_json(e) for e in row] for row in m.cells],
    }


def _build_parser():
    parser = _Parser(
        prog="skewlin",
        description="Exact skew-field linear algebra on quaternion matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_command(name, help_text, arity, runner):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrices", nargs="*", metavar="MATRIX",
                       help="matrix text like '[k, -i; -1+k, -i-j]'")
        p.add_argument("--file", action="append", default=[],
                       help="read a matrix from a file (repeatable)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(arity=arity, run=runner)
        return p

    p = matrix_command("qdet", "quasideterminant at a position", 1, _run_qdet)
    p.add_argument("--kind", choices=("rc", "cr"), default="rc")
    p.add_argument("--pos", required=True, metavar="P,R",
                   help="1-based position, e.g. 2,2")

    p = matrix_command("inv", "two-sided inverse", 1, _run_inv)
    p.add_argument("--kind", choices=("rc", "cr"), default="rc")

    p = matrix_command("rank", "rank and major minor", 1, _run_rank)
    p.add_argument("--kind", choices=("rc", "cr"), default="rc")

    p = matrix_command("mul", "product of two matrices", 2, _run_mul)
    p.add_argument("--kind", choices=("rc", "cr"), default="rc")

    p = matrix_command("solve", "general solver for x*A = b", 1, _run_solve)
    p.add_argument("--rhs", required=True, metavar="ROW",
                   help="right-hand side row, e.g. '[k, -i]'")

    p = sub.add_parser("repr-decompose",
                       help="factor a representation morphism (JSON in/out)")
    p.add_argument("--file", action="append", default=[],
                   help="read the JSON instance from a file")
    p.set_defaults(run=_run_repr_decompose)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("topic", choices=("paper-example",))
    p.set_defaults(run=_run_demo)

    return parser


def _gather_matrices(args):
    texts = list(args.matrices)
    for path in args.file:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    if not texts:
        texts.append(sys.stdin.read())
    if len(texts) != args.arity:
        raise ValueError(f"expected {args.arity} matrix input(s), got {len(texts)}")
    return [parse_matrix(t) for t in texts]


def _parse_position(text):
    parts = [part.strip() for part in text.split(",")]
    # ASCII digits only, as in the matrix grammar; int() alone would also take
    # other scripts' digits, underscores and a sign
    if len(parts) != 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"--pos wants P,R with 1-based indices, got {text!r}")
    return int(parts[0]), int(parts[1])


def _emit(out, args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True), file=out)
    else:
        print(text_value, file=out)


def _run_qdet(args, out):
    (matrix,) = _gather_matrices(args)
    p, r = _parse_position(args.pos)
    qdet = rc_quasideterminant if args.kind == "rc" else cr_quasideterminant
    value = qdet(matrix, p, r)
    if value is None:
        raise MathError("undefined")
    _emit(out, args, format_quaternion(value), quaternion_json(value))


def _run_inv(args, out):
    (matrix,) = _gather_matrices(args)
    invert = rc_inverse if args.kind == "rc" else cr_inverse
    result = invert(matrix)
    _emit(out, args, format_matrix(result), matrix_json(result))


def _rank_json(report):
    return {
        "rank": report.rank,
        "rows": list(report.minor.rows) if report.minor else None,
        "cols": list(report.minor.cols) if report.minor else None,
    }


def _run_rank(args, out):
    (matrix,) = _gather_matrices(args)
    report = (rc_rank if args.kind == "rc" else cr_rank)(matrix)
    if report.minor is None:
        text = f"rank: {report.rank}\nminor: absent"
    else:
        rows = ",".join(str(i) for i in report.minor.rows)
        cols = ",".join(str(j) for j in report.minor.cols)
        text = f"rank: {report.rank}\nminor rows: {rows}\nminor cols: {cols}"
    _emit(out, args, text, _rank_json(report))


def _run_mul(args, out):
    a, b = _gather_matrices(args)
    product = rc_product if args.kind == "rc" else cr_product
    result = product(a, b)
    _emit(out, args, format_matrix(result), matrix_json(result))


def _run_solve(args, out):
    (matrix,) = _gather_matrices(args)
    rhs = parse_matrix(args.rhs)
    solution = solve_general(matrix, rhs)
    lines = [f"consistent: {'yes' if solution.consistent else 'no'}"]
    if solution.particular is not None:
        lines.append(f"particular: {format_matrix(solution.particular)}")
    free = ",".join(str(i) for i in solution.free_variables) or "-"
    lines.append(f"free variables: {free}")
    for row in solution.homogeneous_basis:
        lines.append(f"basis: {format_matrix(row)}")
    payload = {
        "consistent": solution.consistent,
        "particular": matrix_json(solution.particular)
        if solution.particular is not None
        else None,
        "free_variables": list(solution.free_variables),
        "basis": [matrix_json(row) for row in solution.homogeneous_basis],
    }
    _emit(out, args, "\n".join(lines), payload)
    if not solution.consistent:
        raise MathError("inconsistent")


def _run_repr_decompose(args, out):
    if len(args.file) > 1:
        raise ValueError(f"expected 1 JSON input, got {len(args.file)}")
    try:
        if args.file:
            with open(args.file[0], encoding="utf-8") as handle:
                instance = json.load(handle)
        else:
            instance = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(instance, dict):
        raise ValueError("repr-decompose input must be a JSON object")
    source = representation_from_json(instance["f"])
    target = representation_from_json(instance["g"])
    morphism = morphism_from_json(instance["morphism"], source, target)
    if not check_morphism(morphism):
        raise MathError("invalid-morphism")
    decomposition = decompose_morphism(morphism)
    to_quotient, across, into_target = decomposition.factor_morphisms(morphism)
    payload = {
        "quotient": representation_to_json(decomposition.quotient),
        "image": representation_to_json(decomposition.image),
        "projection": morphism_to_json(to_quotient),
        "bijection": morphism_to_json(across),
        "inclusion": morphism_to_json(into_target),
    }
    print(json.dumps(payload, sort_keys=True), file=out)


def _run_demo(args, out):
    a = REFERENCE_EXAMPLE
    print(f"matrix: {format_matrix(a)}", file=out)
    print(f"rc quasideterminant at (2,2): {format_quaternion(rc_quasideterminant(a, 2, 2))}",
          file=out)
    print(f"cr quasideterminant at (1,1): {format_quaternion(cr_quasideterminant(a, 1, 1))}",
          file=out)
    print(f"rc rank: {rc_rank(a).rank}", file=out)
    print(f"cr rank: {cr_rank(a).rank}", file=out)


def run(argv, out=None, err=None):
    """Parse ``argv`` (no program name) and execute; returns the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # --help prints through sys.stdout; keep it on ``out``
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(err, 2, f"usage: {exc}")
    except SystemExit as exc:
        # --help prints and exits with status 0
        return exc.code
    try:
        args.run(args, out)
    except MathError as exc:
        return _fail(err, 1, exc.code)
    except SingularMatrixError:
        return _fail(err, 1, "singular")
    except ParseError as exc:
        return _fail(err, 2, f"parse: {exc}")
    except DimensionMismatch as exc:
        return _fail(err, 2, f"dimension: {exc}")
    except InvalidMorphismError as exc:
        return _fail(err, 2, f"invalid-morphism: {exc}")
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return _fail(err, 2, f"input: {exc}")
    return 0


def _fail(err, status, detail):
    """Print the one ``error:`` line; line breaks that the detail may echo
    from the input become spaces."""
    print("error: " + " ".join(detail.splitlines()), file=err)
    return status


def main():
    # Exact results outgrow Python's int/str conversion limit (absent before
    # 3.10.7); lift it for the CLI's own process only, never inside run(),
    # which may execute in a caller's process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
