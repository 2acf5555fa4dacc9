"""Command-line front end.

Every computation is exposed on text or JSON input; exit status separates
mathematical outcomes from usage problems so shell pipelines can tell a
singular matrix from a typo:

* 0 success,
* 1 mathematical error (singular / undefined / inconsistent),
* 2 input error (parse failure, bad flags, incompatible shapes),

with a one-line ``error: <code>[: detail]`` diagnostic on stderr.  Two
failures that are not the input's fault also exit 1: a failed self-check of
the exact kernel, which no input should cause, reports ``error: internal:
<detail>``, and a failed write of the output, such as to a closed pipe,
``error: output: <detail>``.  A failed read of a ``--file`` or of standard
input is the input's, ``error: input: <detail>``.

Parsing enters the argparse tree one level down when it can: a request whose
first word names a command goes straight to that command's parser, which is
where the top-level parser would hand the rest of the words anyway.  Every
other request, help and usage errors included, goes to the top-level parser.

Importing this module loads the linear-algebra core and ``argparse`` only:
``json`` is imported where a JSON form is read or written, and the
representations module inside ``repr-decompose``, its one user, so a text
request never loads either.
"""

import argparse
import functools
import os
import sys
from collections import namedtuple

from .errors import (
    DimensionMismatch,
    InvalidMorphismError,
    InvalidRepresentationError,
    ParseError,
    SingularMatrixError,
)
from .matrix import cr_product, format_matrix, parse_matrix, rc_product
from .quasidet import (
    cr_inverse,
    cr_quasideterminant,
    rc_inverse,
    rc_quasideterminant,
)
from .quaternion import _lowest_terms, format_quaternion
from .rank import cr_rank, rc_rank, solve_general

REFERENCE_EXAMPLE = parse_matrix("[k, -i; -1+k, -i-j]")


class MathError(Exception):
    """Mathematical failure; carries the one-word diagnostic code."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


class _UsageError(Exception):
    """Command-line usage problem reported by the argument parser."""


class _HelpText(Exception):
    """Text the argument parser would print for ``--help``."""


class _Parser(argparse.ArgumentParser):
    # argparse prints to the process's own streams and exits; raise instead
    # so run() writes to its ``out`` and ``err`` and leaves sys.stdout alone
    def error(self, message):
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        raise _HelpText(message)


def quaternion_json(q):
    return {c: {"num": n, "den": d} for c, (n, d) in zip("wxyz", _lowest_terms(q))}


def matrix_json(m):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "cells": [[quaternion_json(e) for e in row] for row in m.cells],
    }


@functools.cache
def _parser():
    """The top-level argument parser and its map from command name to that
    command's parser (argparse's own ``choices`` of the subparsers), built on
    first use and shared by every run(): parsing reads them and never
    changes them."""
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

    for name, command in _KIND_COMMANDS.items():
        p = matrix_command(name, command.help, command.arity, _run_kind_command)
        p.add_argument("--kind", choices=("rc", "cr"), default="rc")
        if command.takes_position:
            p.add_argument("--pos", required=True, metavar="P,R",
                           help="1-based position, e.g. 2,2")
        p.set_defaults(command_spec=command)

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

    return parser, sub.choices


def _read(path=None):
    """The text of the file at ``path``, or of standard input.  A failed read
    is the input's fault: it raises ValueError with the OSError's message, so
    that run() reports only a failed write as an output error."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _gather_matrices(args):
    texts = list(args.matrices)
    texts.extend(map(_read, args.file))
    if not texts:
        texts.append(_read())
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


def _emit(out, args, value, to_text, to_json):
    """Print ``value`` in the requested form, building only that form."""
    if args.format == "json":
        import json

        print(json.dumps(to_json(value), sort_keys=True), file=out)
    else:
        print(to_text(value), file=out)


def _rank_text(report):
    if report.minor is None:
        return f"rank: {report.rank}\nminor: absent"
    rows = ",".join(map(str, report.minor.rows))
    cols = ",".join(map(str, report.minor.cols))
    return f"rank: {report.rank}\nminor rows: {rows}\nminor cols: {cols}"


def _rank_json(report):
    return {
        "rank": report.rank,
        "rows": list(report.minor.rows) if report.minor else None,
        "cols": list(report.minor.cols) if report.minor else None,
    }


# A subcommand with an rc and a cr form; its operands are ``arity`` matrices,
# then the ``--pos`` position when ``takes_position``.
_KindCommand = namedtuple("_KindCommand", "help arity rc cr to_text to_json takes_position")

_KIND_COMMANDS = {
    "qdet": _KindCommand("quasideterminant at a position", 1, rc_quasideterminant,
                         cr_quasideterminant, format_quaternion, quaternion_json, True),
    "inv": _KindCommand("two-sided inverse", 1, rc_inverse, cr_inverse,
                        format_matrix, matrix_json, False),
    "rank": _KindCommand("rank and major minor", 1, rc_rank, cr_rank,
                         _rank_text, _rank_json, False),
    "mul": _KindCommand("product of two matrices", 2, rc_product, cr_product,
                        format_matrix, matrix_json, False),
}


def _run_kind_command(args, out):
    command = args.command_spec
    operands = _gather_matrices(args)
    if command.takes_position:
        operands.extend(_parse_position(args.pos))
    result = (command.rc if args.kind == "rc" else command.cr)(*operands)
    if result is None:  # an undefined quasideterminant
        raise MathError("undefined")
    _emit(out, args, result, command.to_text, command.to_json)


def _solution_text(solution):
    lines = [f"consistent: {'yes' if solution.consistent else 'no'}"]
    if solution.particular is not None:
        lines.append(f"particular: {format_matrix(solution.particular)}")
    lines.append(f"free variables: {','.join(map(str, solution.free_variables)) or '-'}")
    lines.extend(f"basis: {format_matrix(row)}" for row in solution.homogeneous_basis)
    return "\n".join(lines)


def _solution_json(solution):
    particular = solution.particular
    return {
        "consistent": solution.consistent,
        "particular": None if particular is None else matrix_json(particular),
        "free_variables": list(solution.free_variables),
        "basis": [matrix_json(row) for row in solution.homogeneous_basis],
    }


def _run_solve(args, out):
    (matrix,) = _gather_matrices(args)
    solution = solve_general(matrix, parse_matrix(args.rhs))
    _emit(out, args, solution, _solution_text, _solution_json)
    if not solution.consistent:
        raise MathError("inconsistent")


def _run_repr_decompose(args, out):
    import json

    from .representations import (
        decompose_morphism,
        morphism_from_json,
        morphism_to_json,
        representation_from_json,
        representation_to_json,
    )

    if len(args.file) > 1:
        raise ValueError(f"expected 1 JSON input, got {len(args.file)}")
    try:
        instance = json.loads(_read(*args.file))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(instance, dict):
        raise ValueError("repr-decompose input must be a JSON object")
    source = representation_from_json(instance["f"])
    target = representation_from_json(instance["g"])
    morphism = morphism_from_json(instance["morphism"], source, target)
    try:
        decomposition = decompose_morphism(morphism)
    except InvalidRepresentationError:
        raise MathError("invalid-representation") from None
    except InvalidMorphismError:
        raise MathError("invalid-morphism") from None
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
    """Parse ``argv`` (no program name; any iterable of strings) and
    execute; returns the exit status.

    Output and help text go to ``out``, which run() flushes before it
    returns, so that a write the stream buffered fails here and is reported
    as an output error; the one ``error:`` line of a failure goes to
    ``err``."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if out is None:
        # Python sets sys.stdout to None in a process started without it
        status, detail = 1, "output: standard output is closed"
    else:
        status, detail = _execute(list(argv), out)
        try:
            out.flush()
        except (OSError, ValueError) as exc:  # ValueError: a closed file
            status, detail = 1, f"output: {exc}"
    if status:
        # line breaks that the detail may echo from the input become spaces
        print("error: " + " ".join(detail.splitlines()), file=err)
    return status


def _execute(argv, out):
    """Parse and run one request, its output or help text on ``out``;
    returns the exit status and, for a failure, the detail of its ``error:``
    line."""
    parser, commands = _parser()
    # the top-level parser hands every word after a leading command to that
    # command's parser, so such a request starts there; any other argv (none,
    # help, an unknown word, an option first) needs the top-level parser
    command = commands.get(argv[0]) if argv else None
    try:
        try:
            args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        except _HelpText as exc:
            out.write(exc.args[0])
        else:
            args.run(args, out)
    except _UsageError as exc:
        return 2, f"usage: {exc}"
    except MathError as exc:
        return 1, exc.code
    except SingularMatrixError as exc:
        # a kernel self-check that failed is a fault of the program, not
        # a property of the matrix, and says so
        detail = str(exc)
        return 1, detail if detail.startswith("internal:") else "singular"
    except ParseError as exc:
        return 2, f"parse: {exc}"
    except DimensionMismatch as exc:
        return 2, f"dimension: {exc}"
    except (ValueError, IndexError, KeyError) as exc:
        return 2, f"input: {exc}"
    except OSError as exc:
        # _read turns a failed read into ValueError, so this is a failed write
        return 1, f"output: {exc}"
    return 0, None


def main():
    # Exact results outgrow Python's int/str conversion limit (absent before
    # 3.10.7); lift it for the CLI's own process only, never inside run(),
    # which may execute in a caller's process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    status = run(sys.argv[1:])
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # run() has reported the failed write.  Python flushes stdout
            # again at exit, and what stays buffered would fail a second
            # time, so send it to the null device (the Python docs' note on
            # SIGPIPE).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
