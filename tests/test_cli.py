import contextlib
import io
import json
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import skewlin.quasidet
import skewlin.rank
from skewlin import (
    Matrix,
    Quaternion,
    SingularMatrixError,
    check_morphism,
    cr_product,
    morphism_from_json,
    parse_matrix,
    rc_inverse,
    rc_product,
    representation_from_json,
    representation_to_json,
    rotation_representation,
    solve_general,
)
from skewlin.cli import run

from conftest import EXAMPLE_TEXT

GOLDEN = Path(__file__).parent / "data" / "demo_paper_example.golden"


def invoke(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    status = run(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def test_demo_matches_golden_file():
    status, out, err = invoke(["demo", "paper-example"])
    assert status == 0 and err == ""
    assert out == GOLDEN.read_text()


def test_demo_is_byte_stable():
    first = invoke(["demo", "paper-example"])
    second = invoke(["demo", "paper-example"])
    assert first == second


def test_qdet_rc_value():
    status, out, err = invoke(["qdet", "--kind", "rc", "--pos", "2,2", EXAMPLE_TEXT])
    assert (status, out.strip(), err) == (0, "0", "")


def test_qdet_cr_value():
    status, out, _ = invoke(["qdet", "--kind", "cr", "--pos", "1,1", EXAMPLE_TEXT])
    assert status == 0
    assert out.strip() == "1+k"


def test_qdet_undefined_exit_code():
    status, out, err = invoke(["qdet", "--pos", "1,2", "[1, 0; 0, 1]"])
    assert status == 1
    assert err.strip() == "error: undefined"
    assert out == ""


def test_qdet_bad_position_is_input_error():
    status, _, err = invoke(["qdet", "--pos", "5,5", EXAMPLE_TEXT])
    assert status == 2
    assert err.startswith("error: input")


@pytest.mark.parametrize("pos", ["\u0662,1", "1,\u0661", "1_0,1", "+1,1", ",1", "1,", " , ",
                                 "1,2,3", "1;2", ""])
def test_qdet_position_takes_ascii_digits_only(pos):
    status, out, err = invoke(["qdet", "--pos", pos, "[1, 2; 3, 4]"])
    assert (status, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input: --pos wants P,R")


@pytest.mark.parametrize("pos", ["2,1", " 2 , 1 ", "02,01"])
def test_qdet_position_allows_surrounding_whitespace(pos):
    assert invoke(["qdet", "--pos", pos, "[1, 2; 3, 4]"]) == (0, "1\n", "")


def test_inv_singular_diagnostic():
    status, out, err = invoke(["inv", "--kind", "rc", EXAMPLE_TEXT])
    assert status == 1
    assert err.strip() == "error: singular"
    assert out == ""


def test_kernel_self_check_failure_is_not_reported_as_singular(monkeypatch):
    def failing_quotient(nw, nx, ny, nz, den, what):
        raise SingularMatrixError(f"internal: {what} is not integral")

    monkeypatch.setattr(skewlin.quasidet, "_quotient", failing_quotient)
    status, out, err = invoke(["inv", "[1, i, 0; j, 2, k; 1/2, 1, 3]"])
    assert (status, out) == (1, "")
    assert err == "error: internal: a back-substituted unknown is not integral\n"


def test_particular_solution_self_check_failure_is_internal(monkeypatch):
    solve_row = skewlin.rank._solve_row

    def wrong_solve_row(entries, factor):
        x = solve_row(entries, factor)
        return [x[0] + Quaternion.one()] + x[1:]

    monkeypatch.setattr(skewlin.rank, "_solve_row", wrong_solve_row)
    # consistent: x = [1, 0] solves it, as test_solve_consistent shows
    a, b = parse_matrix(EXAMPLE_TEXT), parse_matrix("[k, -i]")
    with pytest.raises(SingularMatrixError) as excinfo:
        solve_general(a, b)
    assert str(excinfo.value) == "internal: particular solution fails x * a == b"
    status, out, err = invoke(["solve", EXAMPLE_TEXT, "--rhs", "[k, -i]"])
    assert (status, out) == (1, "")
    assert err == "error: internal: particular solution fails x * a == b\n"


def test_inv_text_output_roundtrips():
    status, out, _ = invoke(["inv", "[k, 0; 0, j]"])
    assert status == 0
    assert parse_matrix(out.strip()) == parse_matrix("[-k, 0; 0, -j]")


def test_inv_cr_kind():
    status, out, _ = invoke(["inv", "--kind", "cr", "[k, 0; 0, j]"])
    assert status == 0
    inverse = parse_matrix(out.strip())
    assert cr_product(parse_matrix("[k, 0; 0, j]"), inverse) == Matrix.identity(2)


def test_inv_json_format():
    status, out, _ = invoke(["inv", "--format", "json", "[k]"])
    assert status == 0
    payload = json.loads(out)
    assert payload["rows"] == payload["cols"] == 1
    assert payload["cells"][0][0]["z"] == {"num": -1, "den": 1}


def test_rank_text_and_json():
    status, out, _ = invoke(["rank", EXAMPLE_TEXT])
    assert status == 0
    assert out == "rank: 1\nminor rows: 1\nminor cols: 1\n"
    status, out, _ = invoke(["rank", "--kind", "cr", "--format", "json", EXAMPLE_TEXT])
    assert status == 0
    assert json.loads(out) == {"rank": 2, "rows": [1, 2], "cols": [1, 2]}
    status, out, _ = invoke(["rank", "[0]"])
    assert out == "rank: 0\nminor: absent\n"


def test_mul_rc_and_cr():
    status, out, _ = invoke(["mul", "[i]", "[j]"])
    assert (status, out.strip()) == (0, "[k]")
    status, out, _ = invoke(["mul", "--kind", "cr", "[i]", "[j]"])
    assert (status, out.strip()) == (0, "[k]")


def test_mul_shape_mismatch_is_input_error():
    status, _, err = invoke(["mul", "[i, j]", "[i, j]"])
    assert status == 2
    assert err.startswith("error: dimension")


def test_solve_rhs_width_mismatch_is_input_error():
    status, out, err = invoke(["solve", "[1, 2]", "--rhs", "[1]"])
    assert (status, out) == (2, "")
    assert err == "error: dimension: right-hand side must be 1 x 2, got (1, 1)\n"


def test_parse_failure_is_input_error():
    status, _, err = invoke(["rank", "[q]"])
    assert status == 2
    assert err.startswith("error: parse")


def test_wrong_input_count():
    status, _, err = invoke(["mul", "[i]"])
    assert status == 2
    assert err.startswith("error: input")


def test_solve_consistent():
    status, out, err = invoke(["solve", EXAMPLE_TEXT, "--rhs", "[k, -i]"])
    assert status == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "consistent: yes"
    assert parse_matrix(lines[1].split(": ", 1)[1]) == parse_matrix("[1, 0]")
    assert lines[2] == "free variables: 2"
    basis = parse_matrix(lines[3].split(": ", 1)[1])
    assert rc_product(basis, parse_matrix(EXAMPLE_TEXT)).is_zero()


def test_solve_inconsistent_reports_and_fails():
    status, out, err = invoke(["solve", EXAMPLE_TEXT, "--rhs", "[1, 0]"])
    assert status == 1
    assert err.strip() == "error: inconsistent"
    assert out.splitlines()[0] == "consistent: no"


def test_matrix_from_file(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_TEXT, encoding="utf-8")
    status, out, _ = invoke(["rank", "--file", str(path)])
    assert status == 0
    assert out.startswith("rank: 1")


def test_matrix_from_stdin(monkeypatch):
    status, out, _ = invoke(["rank"], stdin_text=EXAMPLE_TEXT, monkeypatch=monkeypatch)
    assert status == 0
    assert out.startswith("rank: 1")


def _decompose_instance():
    f = rotation_representation(4)
    g = rotation_representation(2)
    return {
        "f": representation_to_json(f),
        "g": representation_to_json(g),
        "morphism": {"r": [0, 1, 0, 1], "R": [0, 1, 0, 1]},
    }


def test_repr_decompose_stdin(monkeypatch):
    instance = _decompose_instance()
    status, out, err = invoke(
        ["repr-decompose"], stdin_text=json.dumps(instance), monkeypatch=monkeypatch
    )
    assert status == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"quotient", "image", "projection", "bijection", "inclusion"}
    quotient = representation_from_json(payload["quotient"])
    image = representation_from_json(payload["image"])
    source = representation_from_json(instance["f"])
    target = representation_from_json(instance["g"])
    assert check_morphism(morphism_from_json(payload["projection"], source, quotient))
    assert check_morphism(morphism_from_json(payload["bijection"], quotient, image))
    assert check_morphism(morphism_from_json(payload["inclusion"], image, target))
    # composing the three factor maps reproduces the input morphism
    r = [payload["inclusion"]["r"][payload["bijection"]["r"][v]]
         for v in payload["projection"]["r"]]
    big_r = [payload["inclusion"]["R"][payload["bijection"]["R"][v]]
             for v in payload["projection"]["R"]]
    assert r == instance["morphism"]["r"]
    assert big_r == instance["morphism"]["R"]


def test_repr_decompose_reads_one_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_decompose_instance()), encoding="utf-8")
    status, out, err = invoke(["repr-decompose", "--file", str(path)])
    assert status == 0 and err == "" and set(json.loads(out)) >= {"quotient", "image"}
    status, out, err = invoke(["repr-decompose", "--file", str(path), "--file", str(path)])
    assert (status, out, err) == (2, "", "error: input: expected 1 JSON input, got 2\n")


def test_repr_decompose_has_no_format_option():
    status, out, err = invoke(["repr-decompose", "--format", "json"])
    assert (status, out) == (2, "")
    assert err.startswith("error: usage: unrecognized arguments: --format")


def test_repr_decompose_rejects_invalid(monkeypatch):
    instance = _decompose_instance()
    instance["morphism"]["R"] = [0, 0, 0, 0]
    status, _, err = invoke(
        ["repr-decompose"], stdin_text=json.dumps(instance), monkeypatch=monkeypatch
    )
    assert status == 1
    assert err.strip() == "error: invalid-morphism"


def test_repr_decompose_rejects_a_non_representation(monkeypatch):
    # the swap group of order 2 acting by [[0, 1], [0, 0]]: the generator
    # squares to the unit but its action does not compose to the identity
    rep = {"algebra": {"size": 2, "table": [[0, 1], [1, 0]], "unit": 0},
           "carrier": 2, "action": [[0, 1], [0, 0]]}
    instance = {"f": rep, "g": rep, "morphism": {"r": [0, 1], "R": [0, 1]}}
    status, out, err = invoke(
        ["repr-decompose"], stdin_text=json.dumps(instance), monkeypatch=monkeypatch
    )
    assert (status, out, err) == (1, "", "error: invalid-representation\n")


@pytest.mark.parametrize(
    "text",
    [
        '{"f":{"algebra":{"table":5,"unit":0,"size":1},"carrier":1,"action":[]},'
        '"g":{},"morphism":{}}',
        "[1]",
        '"f"',
        '{"f":[],"g":{},"morphism":{}}',
        '{"f":{"algebra":{"table":[["a"]],"unit":0,"size":1},"carrier":1,'
        '"action":[[0]]},"g":{},"morphism":{}}',
        '{"f":{"algebra":{"table":[[0]],"unit":"0","size":1},"carrier":1,'
        '"action":[[0]]},"g":{},"morphism":{}}',
        '{"f":{"algebra":{"table":[[0]],"unit":0,"size":1},"carrier":null,'
        '"action":[[0]]},"g":{},"morphism":{}}',
        pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deeply"),
    ],
)
def test_repr_decompose_mistyped_json_is_input_error(monkeypatch, text):
    status, out, err = invoke(["repr-decompose"], stdin_text=text, monkeypatch=monkeypatch)
    assert status == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input: ")


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("f", "algebra", "size"), 5, "declared algebra size does not match the table"),
        (("f", "algebra", "table"), [[0, 1]] * 4, "multiplication table must be square"),
        (("f", "algebra", "table", 0, 0), 4, "table entries must index elements"),
        (("f", "algebra", "table", 0, 0), -1, "table entries must index elements"),
        (("f", "algebra", "table", 3, 2), -1, "table entries must index elements"),
        (("f", "algebra", "unit"), 4, "unit must index an element"),
        (("f", "action"), [[0, 1, 2, 3]] * 3, "need one transformation per algebra element"),
        (("f", "action", 0, 0), 4, "transformations must be total maps of the carrier"),
        (("f", "action", 0, 0), -1, "transformations must be total maps of the carrier"),
        (("f", "action", 3, 1), -1, "transformations must be total maps of the carrier"),
        (("morphism", "r", 3), 2, "algebra map must be total into the target algebra"),
        (("morphism", "R", 3), 2, "carrier map must be total into the target carrier"),
    ],
    ids=["algebra-size", "table-square", "table-entry", "table-entry-negative",
         "table-entry-negative-last-row", "unit", "action-count", "action-entry",
         "action-entry-negative", "action-entry-negative-last-row", "algebra-map",
         "carrier-map"],
)
def test_repr_decompose_out_of_range_is_input_error(monkeypatch, path, value, message):
    instance = _decompose_instance()
    *keys, last = path
    node = instance
    for key in keys:
        node = node[key]
    node[last] = value
    status, out, err = invoke(
        ["repr-decompose"], stdin_text=json.dumps(instance), monkeypatch=monkeypatch
    )
    assert (status, out, err) == (2, "", f"error: input: {message}\n")


def test_repr_decompose_mistyped_morphism_is_input_error(monkeypatch):
    instance = _decompose_instance()
    for bad in (5, {"r": 5, "R": [0, 1, 0, 1]}, {"r": [0, 1, 0, 1], "R": [0, "1", 0, 1]}):
        instance["morphism"] = bad
        status, _, err = invoke(
            ["repr-decompose"], stdin_text=json.dumps(instance), monkeypatch=monkeypatch
        )
        assert status == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: input: ")


@pytest.mark.parametrize("argv", [[], ["qdet"], ["nonsense"], ["rank", "--kind", "x"],
                                  ["demo", "paper-example", "extra\nline"]])
def test_usage_error_is_one_line_on_err(capsys, argv):
    status, out, err = invoke(argv)
    assert status == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage: ")
    assert capsys.readouterr().err == ""


def test_help_exits_zero(capsys):
    status, out, err = invoke(["--help"])
    assert (status, err) == (0, "")
    assert out.startswith("usage: skewlin")
    assert capsys.readouterr() == ("", "")


class _WatchedOut(io.StringIO):
    """Records whether ``sys.stdout`` was this stream at any write."""

    def __init__(self):
        super().__init__()
        self.was_stdout = False

    def write(self, text):
        self.was_stdout |= sys.stdout is self
        return super().write(text)


@pytest.mark.parametrize("argv,status", [(["--help"], 0), (["rank", "--help"], 0),
                                         (["rank", EXAMPLE_TEXT], 0), (["nonsense"], 2)])
def test_run_leaves_sys_stdout_alone(argv, status):
    before = sys.stdout
    out = _WatchedOut()
    assert run(argv, out=out, err=io.StringIO()) == status
    assert sys.stdout is before
    assert not out.was_stdout


def test_file_lists_are_not_shared_between_calls(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("[1, 0; 0, 1]", encoding="utf-8")
    second.write_text("[1, 1; 1, 1]", encoding="utf-8")
    assert invoke(["rank", "--file", str(first)]) == (
        0, "rank: 2\nminor rows: 1,2\nminor cols: 1,2\n", "")
    assert invoke(["rank", "--file", str(second)]) == (
        0, "rank: 1\nminor rows: 1\nminor cols: 1\n", "")
    assert invoke(["mul", "--file", str(first), "--file", str(second)]) == (
        0, "[1, 1; 1, 1]\n", "")
    assert invoke(["rank", "--file", str(first)])[0] == 0


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_runs_match_serial_runs(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_decompose_instance()), encoding="utf-8")
    requests = [
        ["rank", EXAMPLE_TEXT], ["rank", "--kind", "cr", "--format", "json", EXAMPLE_TEXT],
        ["inv", "[k, 0; 0, j]"], ["inv", EXAMPLE_TEXT], ["qdet", "--pos", "1,1", EXAMPLE_TEXT],
        ["mul", "[i]", "[j]"], ["solve", EXAMPLE_TEXT, "--rhs", "[1, 0]"],
        ["repr-decompose", "--file", str(path)], ["--help"], ["rank", "--help"],
        ["rank", "--kind", "x"], ["nonsense"], ["demo", "paper-example"],
    ]
    expected = [invoke(argv) for argv in requests]
    results = {}

    def client(index):
        for round_ in range(10):
            for k in range(len(requests)):
                position = (k + index + round_) % len(requests)
                results[index, round_, position] = invoke(requests[position])

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        _join_all(threads)
    finally:
        sys.setswitchinterval(saved)
    assert len(results) == 6 * 10 * len(requests)
    for (_, _, position), result in results.items():
        assert result == expected[position]


def test_printing_thread_never_reaches_out():
    marker = "printed by another thread"
    stop = threading.Event()
    printed = []

    def printer():
        while not stop.is_set():
            print(marker)
            printed.append(1)

    captured = io.StringIO()
    outputs = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.redirect_stdout(captured):
            thread = threading.Thread(target=printer)
            thread.start()
            try:
                for argv in [["rank", EXAMPLE_TEXT], ["--help"]] * 150:
                    outputs.append(invoke(argv)[1])
            finally:
                stop.set()
                _join_all([thread])
    finally:
        sys.setswitchinterval(saved)
    assert printed
    assert not any(marker in out for out in outputs)
    assert captured.getvalue() == f"{marker}\n" * len(printed)


VOCABULARY = [
    "qdet", "inv", "rank", "mul", "solve", "repr-decompose", "demo", "paper-example",
    "--kind", "rc", "cr", "--format", "text", "json", "--pos", "1,1", "2,1", "--rhs",
    "--file", "--help", EXAMPLE_TEXT, "[k]", "[1, 0]", "[]", "-",
]


@given(
    argv=st.lists(st.one_of(st.sampled_from(VOCABULARY), st.text(max_size=12)), max_size=8),
    stdin=st.one_of(st.sampled_from([EXAMPLE_TEXT, json.dumps(_decompose_instance())]),
                    st.text(max_size=40)),
)
def test_cli_contract_holds_for_any_input(argv, stdin):
    out, err, real_out, real_err = (io.StringIO() for _ in range(4))
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(real_out), contextlib.redirect_stderr(real_err):
            status = run(argv, out=out, err=err)
    finally:
        sys.stdin = saved_stdin
    assert status in (0, 1, 2)
    if status == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert real_out.getvalue() == ""
    assert real_err.getvalue() == ""


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "skewlin.cli", "demo", "paper-example"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == GOLDEN.read_text()


def test_console_script_inverts_past_the_int_str_digit_limit():
    # 900-digit entries give an inverse whose numerators and denominators
    # pass Python's default 4300-digit limit on int/str conversion
    rng = random.Random(900)
    entries = [
        [f"{rng.randrange(10**899, 10**900)}+{rng.randrange(10**899, 10**900)}j"
         for _ in range(3)]
        for _ in range(3)
    ]
    text = "[" + "; ".join(", ".join(row) for row in entries) + "]"
    result = subprocess.run(
        [sys.executable, "-m", "skewlin.cli", "inv", text],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        printed = parse_matrix(result.stdout)
        longest = max(len(str(e.w.denominator)) for row in printed for e in row)
    finally:
        sys.set_int_max_str_digits(limit)
    assert longest > limit
    assert printed == rc_inverse(parse_matrix(text))
