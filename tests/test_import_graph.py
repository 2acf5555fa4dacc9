"""What ``import skewlin, skewlin.cli`` loads: the linear-algebra core, and
neither ``dataclasses``, ``json`` nor the two feature modules until a first
use asks for them.  Each check runs in a fresh interpreter and asserts which
modules are present, never how long anything took.

The module needs neither pytest nor Hypothesis, so any interpreter can run
it against whichever ``skewlin`` it imports, installed or from a checkout:

    python tests/test_import_graph.py                  # installed package
    PYTHONPATH=src python tests/test_import_graph.py   # this checkout

It prints one line per check and exits with status 1 if any fails.
"""

import subprocess
import sys

# Modules that the core does not use
DEFERRED = ("dataclasses", "json", "skewlin.bundles", "skewlin.representations")

DECOMPOSE_INSTANCE = (
    '{"f": {"algebra": {"size": 1, "table": [[0]], "unit": 0}, "carrier": 1, "action": [[0]]},'
    ' "g": {"algebra": {"size": 1, "table": [[0]], "unit": 0}, "carrier": 1, "action": [[0]]},'
    ' "morphism": {"r": [0], "R": [0]}}'
)


def loaded_after(statements=""):
    """The modules of ``DEFERRED`` that a fresh interpreter holds after
    ``import skewlin, skewlin.cli`` and then ``statements``.  The child
    inherits this process's environment and working directory, so it
    imports the ``skewlin`` that this process would."""
    code = "\n".join([
        "import io, sys",
        "import skewlin, skewlin.cli",
        statements,
        f"print(*[name for name in {DEFERRED!r} if name in sys.modules])",
    ])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


def expect_loaded(statements, expected):
    loaded = loaded_after(statements)
    assert loaded == expected, f"expected {sorted(expected)} loaded, found {sorted(loaded)}"


def run_cli(argv, stdin=""):
    """A statement running ``skewlin.cli.run(argv)`` on ``stdin`` that fails
    unless the run exits 0."""
    return (f"sys.stdin = io.StringIO({stdin!r})\n"
            f"assert skewlin.cli.run({argv!r}, out=io.StringIO()) == 0")


def test_import_defers_dataclasses_json_and_the_feature_modules():
    expect_loaded("", set())


def test_text_request_defers_them_too():
    expect_loaded(run_cli(["rank", "[1, i; 2, 2i]"]), set())


def test_json_request_loads_json():
    expect_loaded(run_cli(["rank", "--format", "json", "[1, i; 2, 2i]"]), {"json"})


def test_first_bundles_name_loads_bundles():
    expect_loaded("skewlin.Section", {"dataclasses", "skewlin.bundles"})


def test_first_representations_name_loads_representations():
    expect_loaded("skewlin.classify", {"dataclasses", "skewlin.representations"})


def test_repr_decompose_loads_representations_and_json():
    expect_loaded(run_cli(["repr-decompose"], DECOMPOSE_INSTANCE),
                  {"dataclasses", "json", "skewlin.representations"})


if __name__ == "__main__":
    failed = 0
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            try:
                check()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
