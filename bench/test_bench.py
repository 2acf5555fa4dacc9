"""The benchmark's own tests, on its smoke mode (tiny inputs, one set-up).

    python3 -m pytest bench

They check that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that every result is verified correct, that counts and input digests
repeat on a fixed seed, that the rank check rejects a minor other than the
major one, and that the benchmark refuses to run without the library's
sources.
"""

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import skewlin as S  # noqa: E402
import workloads  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, seed=5, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, key):
    details, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["failure_reasons"]
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_only_the_known_defect_fails():
    details, result = smoke("cli_requests", 0)
    assert result["failed"] == details["large_request_samples"]
    assert details["failure_reasons"] == {"large:int_str_limit": result["failed"]}


def test_counts_repeat_on_a_seed():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    runs = [smoke("rank_deficient", 1, seed=11) for _ in range(2)]
    (d1, r1), (d2, r2) = runs
    assert d1["input_digest"] == d2["input_digest"]
    assert {k: r1["metrics"][k] for k in counted} == {k: r2["metrics"][k] for k in counted}
    assert r1["metrics"]["rank.minors_before_major"]["value"] > 0


def test_rank_check_wants_the_major_minor():
    rng = random.Random(3)
    a = inputs.of_rank(S, 4, 4, 2, lambda: inputs.small_quaternion(S, rng, 3, 3))
    rc, cr = S.rc_rank(a), S.cr_rank(a)
    assert workloads.check_rank(S, a, rc, cr, 2) == []
    later = next(
        (rows, cols)
        for rows in combinations(range(1, 5), 2) for cols in combinations(range(1, 5), 2)
        if (rows, cols) > (rc.minor.rows, rc.minor.cols)
        and inputs.is_certainly_nonsingular(a.minor(rows, cols))
    )
    wrong = S.RankReport(2, S.IndexSelection(*later))
    assert workloads.check_rank(S, a, wrong, cr, 2) == ["rc_rank_minor"]


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
