"""The CLI's exact bytes on a fixed set of requests: exit status, stdout and
stderr of ``run()`` for every command in text and JSON, and for each class
of error, compared against ``tests/data/cli_transcript.golden``.

The module needs neither pytest nor Hypothesis, so any interpreter can check
the transcript:

    PYTHONPATH=src python tests/test_cli_transcript.py          # print it
    PYTHONPATH=src python tests/test_cli_transcript.py --check  # compare

``--check`` prints a diff and exits with status 1 on any difference.
"""

import difflib
import io
import shlex
import sys
from pathlib import Path

from skewlin.cli import run

GOLDEN = Path(__file__).parent / "data" / "cli_transcript.golden"

SQUARE = "[1, 2; 3, 4]"
EXAMPLE = "[k, -i; -1+k, -i-j]"
FRACTIONS = "[1/2, i - 2/3j, 3k; -j, 5/7 + 1/3i, 0; 2 - k, 4/6j, -1]"
BIG = ("[123456789012345678901234567890/7 + 9i, -k; "
       "j - 98765432109876543210/11k, 31415926535897932384626433832795]")
REPEATED = "[1 + 1 + i - i + 2/4 + 1/4, j + j - 3/9k; 0k + 0, -1/1 + 1i + 1/2j]"
RECTANGLE = "[1, i, j; 2, 2i, 2j]"
DEPENDENT = "[1, i; 2, 2i]"

CASES = [
    ["demo", "paper-example"],
    # every command, in both readings where it has them, in text and JSON
    *(
        [command, *kind, *fmt, *rest]
        for command, rest in (
            ("qdet", ["--pos", "2,2", EXAMPLE]),
            ("qdet", ["--pos", "1,3", FRACTIONS]),
            ("qdet", ["--pos", "2,1", BIG]),
            ("inv", [SQUARE]),
            ("inv", [FRACTIONS]),
            ("inv", [BIG]),
            ("inv", [REPEATED]),
            ("rank", [EXAMPLE]),
            ("rank", [RECTANGLE]),
            ("rank", ["[0, 0; 0, 0]"]),
            ("mul", ["[1, i; j, k]", "[1/2, -k; 2, 3/4i]"]),
            ("mul", [FRACTIONS, FRACTIONS]),
        )
        for kind in (["--kind", "rc"], ["--kind", "cr"])
        for fmt in ([], ["--format", "json"])
    ),
    *(
        ["solve", *fmt, matrix, "--rhs", rhs]
        for matrix, rhs in (
            (SQUARE, "[5, 6]"),
            (DEPENDENT, "[3, 3i]"),
            (EXAMPLE, "[k, -i]"),
            (FRACTIONS, "[1, j, 1/3k]"),
            ("[0, 0; 0, 0]", "[0, 0]"),
        )
        for fmt in ([], ["--format", "json"])
    ),
    # mathematical errors
    ["inv", DEPENDENT],
    ["inv", "--kind", "cr", "--format", "json", EXAMPLE],
    ["qdet", "--pos", "1,1", "[1, 2; 3, 0]"],
    ["qdet", "--kind", "cr", "--format", "json", "--pos", "1,2", "[1, 0; 0, 1]"],
    ["solve", DEPENDENT, "--rhs", "[1, 0]"],
    ["solve", "--format", "json", EXAMPLE, "--rhs", "[1, 0]"],
    # parse errors
    ["rank", "[1, 2; 3, *]"],
    ["rank", "[1 2]"],
    ["rank", "[1/0]"],
    ["rank", "[٢]"],
    ["rank", "1, 2"],
    ["rank", "[i j]"],
    ["rank", "[1, ; 2]"],
    ["inv", "[1 + +i]"],
    ["rank", "[1/ ]"],
    ["rank", "[1 -]"],
    ["solve", SQUARE, "--rhs", "[1, 2"],
    # whitespace around "/" and before a unit, and non-ASCII whitespace
    ["mul", "[1]", "[ 1 / 2 i - 3 / 4 ]"],
    ["mul", "[1]", "[1\u3000+\u3000i]"],  # ideographic spaces
    # dimension errors
    ["rank", "[1, 2; 3]"],
    ["mul", "[i, j]", "[i, j]"],
    ["mul", "--kind", "cr", SQUARE, RECTANGLE],
    ["solve", "[1, 2]", "--rhs", "[1]"],
    ["inv", RECTANGLE],
    # other input errors
    ["mul", "[i]"],
    ["qdet", "--pos", "5,5", EXAMPLE],
    ["qdet", "--pos", "1;2", SQUARE],
    # usage errors
    [],
    ["qdet", SQUARE],
    ["inv", "--bogus", SQUARE],
    ["solve", SQUARE],
]


def transcript():
    """The transcript text: per request its command line, then the exit
    status, stdout and stderr exactly as ``run()`` wrote them."""
    blocks = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        status = run(argv, out=out, err=err)
        blocks.append(f"$ skewlin {shlex.join(argv)}\nstatus: {status}\n"
                      f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}")
    return "\n".join(blocks)


def test_cli_matches_golden_transcript():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    text = transcript()
    if sys.argv[1:] != ["--check"]:
        sys.stdout.write(text)
    elif text != (golden := GOLDEN.read_text(encoding="utf-8")):
        sys.stderr.writelines(difflib.unified_diff(
            golden.splitlines(True), text.splitlines(True), str(GOLDEN), "run()"))
        sys.exit(1)
