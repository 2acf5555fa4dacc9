"""Layered benchmark for skewlin.

    python3 bench/run.py --workload dense_inverse --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 24      # every workload, both modes
    python3 bench/run.py --workload cli_requests --smoke --seconds 0.2 --trace 1

One workload per run, closed loop: one client in one process and thread
issues the next operation when the previous one returns, pinned to the
least contended CPU (``cpu.py``).  The run imports ``skewlin`` from
``src/`` of the checkout it lives in, without installing.

Set-up (import of ``skewlin`` in a fresh interpreter, input generation,
warm-up) is repeated and its median reported as ``setup_s``.  With
``--trace 0`` the measured phase then runs whole rounds of the workload's
seeded problems until ``--seconds`` have passed; every result is checked
outside its timed span.  With ``--trace 1`` untraced and traced rounds
alternate for ``--seconds`` instead, giving the cost of tracing, and one
more traced round replays composite calls sub-step by sub-step and yields
the per-layer metrics; spans go to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (interpreter, nproc, seed, input digest, sample counts, failure
reasons, span file).
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import inputs
import layers
from cpu import QuietCpu
from tracing import DIRECT, Tracer
from workloads import TRACE_HOOKS, WORKLOADS, quaternions

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUPS = 5
MIN_ROUNDS = 11
MIN_PAIRS = 3
SUBPROCESS_RUNS = 8
SCALAR_PAIRS = 64
TAIL_BEYOND = 10
# The one known defect: a valid result longer than Python's int/str digit
# limit is reported as an input error.  It is counted as failed, and only it
# leaves ``correct`` true.
KNOWN_DEFECTS = {"large:int_str_limit"}


IMPORT_TIMER = (
    "from time import perf_counter; start = perf_counter(); "
    "import skewlin, skewlin.cli; print(perf_counter() - start)"
)


def import_fresh():
    """Import ``skewlin`` and its CLI afresh, so every set-up starts from
    newly initialised modules."""
    for name in [n for n in sys.modules if n == "skewlin" or n.startswith("skewlin.")]:
        del sys.modules[name]
    S = importlib.import_module("skewlin")
    importlib.import_module("skewlin.cli")
    return S


def child_import_s():
    """Seconds a new interpreter spends on ``import skewlin, skewlin.cli``
    from ``src/``: the import a user's process pays, with none of the
    standard-library modules it pulls in loaded beforehand."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def setup(workload, seed, smoke):
    """One set-up; returns the import and the generation (with warm-up)
    seconds, the library and the problems."""
    import_s = child_import_s()
    S = import_fresh()
    start = perf_counter()
    problems = workload.generate(S, random.Random(seed), smoke)
    workload.op(S, problems[0], DIRECT)
    return import_s, perf_counter() - start, S, problems


class Checker:
    """Checks results, remembering each problem's verified result so later
    rounds compare against it instead of re-deriving it."""

    def __init__(self, S, workload, cpu):
        self.S, self.workload, self.cpu = S, workload, cpu
        self.verified = {}
        self.reasons = Counter()
        self.attempted = self.failed = 0

    def run(self, index, problem, op):
        """Time ``op()``, one operation on ``problem``, then check its result;
        returns the duration in ns and the result."""
        self.cpu.settle()
        start = perf_counter_ns()
        try:
            result, bad = op(), None
        except Exception as exc:
            result, bad = None, [f"exception:{type(exc).__name__}"]
        elapsed = perf_counter_ns() - start
        if bad is None and self.verified.get(index, self) != result:
            bad = self.workload.verify(self.S, problem, result)
            if not bad:
                self.verified[index] = result
        self.attempted += 1
        if bad:
            self.failed += 1
            self.reasons.update(bad)
        return elapsed, result


def measure(workload, S, problems, cpu, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds``
    have run; returns the checker and each problem's durations (ns), one per
    round."""
    checker = Checker(S, workload, cpu)
    times = [[] for _ in problems]
    start = perf_counter()
    while True:
        for i, problem in enumerate(problems):
            elapsed, _ = checker.run(i, problem, lambda: workload.op(S, problem, DIRECT))
            times[i].append(elapsed)
        if perf_counter() - start >= seconds and len(times[0]) >= min_rounds:
            return checker, times


def alternate(workload, S, problems, checker, seconds, min_pairs):
    """Untraced and traced rounds in turn until ``seconds`` have passed and
    at least ``min_pairs`` pairs have run; returns the cost of tracing,
    1 - untraced / traced summed fastest operation times, and the pairs."""
    plain, traced = [[] for _ in problems], [[] for _ in problems]
    start = perf_counter()
    while True:
        tracer = Tracer(TRACE_HOOKS)
        for i, problem in enumerate(problems):
            plain[i].append(checker.run(i, problem, lambda: workload.op(S, problem, DIRECT))[0])
        for i, problem in enumerate(problems):
            traced[i].append(checker.run(
                i, problem, lambda: tracer.group("op", i, workload.op, S, problem, tracer)
            )[0])
        if perf_counter() - start >= seconds and len(plain[0]) >= min_pairs:
            return 1 - sum(map(min, plain)) / sum(map(min, traced)), len(plain[0])


def tail(samples):
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, i.e. the (TAIL_BEYOND + 1)-th slowest sample; returns the sample,
    the percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[-1 - beyond], 100 * (len(ordered) - beyond) / len(ordered), beyond


def end_to_end(workload, problems, checker, times, setups):
    """Throughput and median from each problem's fastest round: on a shared
    machine noise only ever adds time, and the slow spells last seconds, so
    the fastest of a problem's rounds is its repeatable cost.  The tail is
    taken over each problem's ``MIN_ROUNDS`` fastest rounds, so it has the
    same number of samples, and the same percentile, however many rounds a
    run fits.  Over-limit CLI requests count toward throughput but are kept
    out of the latency percentiles."""
    is_large = getattr(workload, "is_large", lambda p: False)
    typical = [min(t) for t in times]
    kept = [i for i, p in enumerate(problems) if not is_large(p)]
    tail_ns, pct, beyond = tail([t for i in kept for t in sorted(times[i])[:MIN_ROUNDS]])
    metrics = {
        "ops_per_s": len(problems) / (sum(typical) / 1e9),
        "latency_p50_ms": median(typical[i] for i in kept) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        "setup_s": median(i + g for i, g in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    large = [t for i, p in enumerate(problems) if is_large(p) for t in times[i]]
    info = {
        "rounds": len(times[0]), "latency_samples": len(kept) * len(times[0]),
        "tail_samples": len(kept) * min(len(times[0]), MIN_ROUNDS),
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "large_request_samples": len(large),
        "large_request_ms": median(large) / 1e6 if large else None,
        "classes": by_class(workload, problems, typical),
    }
    return metrics, info


def by_class(workload, problems, typical):
    """Per problem class: operations a round, the median and the slowest of
    their fastest times, and the class's share of a round's time."""
    groups = {}
    for problem, ns in zip(problems, typical):
        groups.setdefault(workload.label(problem), []).append(ns)
    total = sum(typical)
    return {
        label: {"ops": len(ns), "p50_ms": median(ns) / 1e6, "slowest_ms": max(ns) / 1e6,
                "time_frac": sum(ns) / total}
        for label, ns in groups.items()
    }


def traced(workload, S, problems, checker, seed, smoke, overhead_frac):
    tracer = Tracer(TRACE_HOOKS)
    results = []
    for i, problem in enumerate(problems):
        _, result = checker.run(
            i, problem, lambda: tracer.group("op", i, workload.op, S, problem, tracer)
        )
        if result is not None:
            tracer.group("replay", i, workload.replay, S, problem, result, tracer)
            results.append(result)
    rng = random.Random(seed)
    square, rect = workload.pool(S, problems)
    scalars = quaternions([square, rect, results], [])
    layers.sample(S, tracer, rng, scalars, square + rect, 8 if smoke else SCALAR_PAIRS)
    layers.probe(S, tracer, rng, square, rect)
    layers.subprocess_latency(S, tracer, str(ROOT), 1 if smoke else SUBPROCESS_RUNS)
    return tracer, layers.metrics(tracer, overhead_frac)


def run(name, seed, seconds, trace, smoke):
    workload = WORKLOADS[name]
    cpu = QuietCpu()
    setups = []
    for _ in range(1 if smoke else SETUPS):
        cpu.settle()
        import_s, generate_s, S, problems = setup(workload, seed, smoke)
        setups.append((import_s, generate_s))
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "input_digest": inputs.digest(problems), "problems_per_round": len(problems),
        "setup_import_s": [i for i, _ in setups], "setup_generate_s": [g for _, g in setups],
    }
    if trace:
        checker = Checker(S, workload, cpu)
        overhead_frac, pairs = alternate(
            workload, S, problems, checker, seconds, 1 if smoke else MIN_PAIRS
        )
        tracer, per_layer = traced(workload, S, problems, checker, seed, smoke, overhead_frac)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        details.update(overhead_pairs=pairs, span_file=str(span_file.relative_to(ROOT)),
                       spans=len(tracer.spans))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        checker, times = measure(workload, S, problems, cpu, seconds, 1 if smoke else MIN_ROUNDS)
        e2e, info = end_to_end(workload, problems, checker, times, setups)
        details.update(info, end_to_end=e2e)
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}
    details["cpu_choices"] = dict(cpu.choices)
    details["failure_reasons"] = dict(checker.reasons)
    return {
        "correct": set(checker.reasons) <= KNOWN_DEFECTS,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }, details


def summary(args):
    """Run every workload untraced and traced; print one row per workload."""
    report = {}
    for name in WORKLOADS:
        row = {}
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
            row.setdefault("details", details)
            row.setdefault("correct", True)
            row["correct"] &= result["correct"]
            row.setdefault("failure_reasons", details["failure_reasons"])
            row.setdefault("metrics", {}).update(result["metrics"])
        report[name] = row
        cells = "  ".join(f"{k}={_fmt(m['value'])} {m['unit']}" for k, m in row["metrics"].items())
        d = row["details"]
        print(f"{name}: correct={row['correct']} reasons={row['failure_reasons']} "
              f"samples={d['latency_samples']} tail=p{d['tail_percentile']:.2f} "
              f"digest={d['input_digest'][:16]}  {cells}")
        for label, c in d["classes"].items():
            print(f"  {label}: ops={c['ops']} p50={c['p50_ms']:.4g} ms "
                  f"slowest={c['slowest_ms']:.4g} ms time_frac={c['time_frac']:.3f}")
    first = next(iter(report.values()))["details"]
    print(f"python={first['python']} nproc={first['nproc']} seed={args.seed} "
          f"seconds={args.seconds}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(row["correct"] for row in report.values()) else 1


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the benchmark's own tests")
    parser.add_argument("--out", help="with --all: write the full report as JSON")
    args = parser.parse_args(argv)
    if args.all:
        return summary(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_fresh()
    except ImportError as exc:
        print(f"error: cannot import skewlin from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
