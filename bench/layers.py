"""Per-layer metrics of the traced run.

Layers are the library's modules.  Per-call times are medians over the
spans of one public function; scalar and text-form timings use operands
drawn from the workload's own inputs and results.  A public function that
the workload never reaches is *probed*: called on a few of the workload's
smallest matrices, so every metric exists on every workload while the
``<layer>.calls`` counts show how much of a layer the workload itself used.
"""

import operator
import os
import subprocess
import sys
from statistics import median

import inputs
from tracing import DIRECT
from workloads import CliRequests, lib

LAYERS = ("quaternion", "matrix", "quasidet", "rank", "spaces", "representations",
          "bundles", "cli")

# (metric, span name, unit) for every per-call timing.
CALL_METRICS = (
    ("quaternion.mul_ns", "quaternion.mul", "ns"),
    ("quaternion.sub_ns", "quaternion.sub", "ns"),
    ("quaternion.inverse_ns", "quaternion.inverse", "ns"),
    ("quaternion.parse_us", "quaternion.parse_quaternion", "us"),
    ("quaternion.format_us", "quaternion.format_quaternion", "us"),
    ("matrix.parse_ms", "matrix.parse_matrix", "ms"),
    ("matrix.format_ms", "matrix.format_matrix", "ms"),
    ("matrix.rc_product_ms", "matrix.rc_product", "ms"),
    ("matrix.cr_product_ms", "matrix.cr_product", "ms"),
    ("matrix.transpose_ms", "matrix.transpose", "ms"),
    ("quasidet.rc_inverse_ms", "quasidet.rc_inverse", "ms"),
    ("quasidet.rc_quasideterminant_ms", "quasidet.rc_quasideterminant", "ms"),
    ("quasidet.rc_inverse_via_quasidet_ms", "quasidet.rc_inverse_via_quasidet", "ms"),
    ("quasidet.is_rc_nonsingular_ms", "quasidet.is_rc_nonsingular", "ms"),
    ("rank.rc_rank_ms", "rank.rc_rank", "ms"),
    ("rank.cr_rank_ms", "rank.cr_rank", "ms"),
    ("rank.row_dependence_ms", "rank.row_dependence", "ms"),
    ("rank.solve_general_ms", "rank.solve_general", "ms"),
    ("spaces.is_independent_ms", "spaces.is_independent", "ms"),
    ("spaces.expand_in_basis_ms", "spaces.expand_in_basis", "ms"),
    ("representations.from_json_ms", "representations.representation_from_json", "ms"),
    ("representations.decompose_morphism_ms", "representations.decompose_morphism", "ms"),
    ("bundles.apply_fibered_map_ms", "bundles.apply_fibered_map", "ms"),
    ("cli.run_ms", "cli.run", "ms"),
    ("cli.parse_ms", "cli.parse", "ms"),
    ("cli.compute_ms", "cli.compute", "ms"),
    ("cli.format_ms", "cli.format", "ms"),
    ("cli.large_request_ms", "cli.large_request", "ms"),
    ("cli.subprocess_ms", "cli.subprocess", "ms"),
)
SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


# -- operand samples ---------------------------------------------------------------


def sample(S, tracer, rng, scalars, matrices, pairs, reps=20):
    """Scalar ``*``, ``-``, ``inverse()`` and text-form timings on operands
    drawn from the workload, and matrix text round trips."""
    for _ in range(pairs):
        x, y = rng.choice(scalars), rng.choice(scalars)
        tracer.repeat("quaternion.mul", reps, operator.mul, x, y)
        tracer.repeat("quaternion.sub", reps, operator.sub, x, y)
        if not x.is_zero():
            tracer.repeat("quaternion.inverse", reps, x.inverse)
        text = S.format_quaternion(x)
        tracer.repeat("quaternion.format_quaternion", reps, S.format_quaternion, x)
        tracer.repeat("quaternion.parse_quaternion", reps, S.parse_quaternion, text)
    for m in rng.sample(matrices, min(4, len(matrices))):
        text = lib(S, tracer, "matrix.format_matrix", m)
        lib(S, tracer, "matrix.parse_matrix", text)


# -- probes --------------------------------------------------------------------------


def _first_row(S, m):
    return S.Matrix.row(m.row_entries(1))


def _dependence_args(S, m):
    extended = S.extended_matrix(m, _first_row(S, m))
    return extended, S.rc_rank(extended), extended.rows


def _fibered_args(S, m):
    base = S.Base(("p", "q", "r", "s"))
    return (S.Section(base, [_first_row(S, m)] * 4), S.FiberedLinearMap(base, [m] * 4))


# Arguments built from a nonsingular square matrix, or from any matrix.
SQUARE_PROBES = {
    "matrix.rc_product": lambda S, m: (m, m),
    "matrix.cr_product": lambda S, m: (m, m),
    "matrix.transpose": lambda S, m: (m,),
    "quasidet.rc_inverse": lambda S, m: (m,),
    "quasidet.rc_quasideterminant": lambda S, m: (m, 1, 1),
    "quasidet.rc_inverse_via_quasidet": lambda S, m: (m,),
    "quasidet.is_rc_nonsingular": lambda S, m: (m,),
    "rank.row_dependence": _dependence_args,
    "rank.solve_general": lambda S, m: (m, _first_row(S, m)),
    "spaces.expand_in_basis": lambda S, m: (_first_row(S, m), S.BasisModel(m)),
    "bundles.apply_fibered_map": _fibered_args,
}
RECT_PROBES = {
    "rank.rc_rank": lambda S, m: (m,),
    "rank.cr_rank": lambda S, m: (m,),
    "spaces.is_independent": lambda S, m: (m,),
}
PROBE_SAMPLES = 2


def _smallest(matrices):
    return sorted(matrices, key=lambda m: (m.rows * m.cols, m.rows))[:PROBE_SAMPLES]


def probe(S, tracer, rng, square, rect):
    """Call every public function that has no span yet on the workload's
    smallest matrices."""
    missing = {span for _, span, _ in CALL_METRICS if not tracer.durations(span)}
    cli = CliRequests()

    def cli_round(op_id, req):
        result = tracer.group("probe", op_id, cli.op, S, req, tracer)
        tracer.group("probe", op_id, cli.replay, S, req, result, tracer)

    for span in sorted(missing):
        if span in SQUARE_PROBES or span in RECT_PROBES:
            make_args = SQUARE_PROBES.get(span) or RECT_PROBES[span]
            for m in _smallest(square if span in SQUARE_PROBES else rect):
                tracer.group("probe", span, lib, S, tracer, span, *make_args(S, m))
    if any(span.startswith("representations.") for span in missing):
        tracer.group("probe", "probe:representations", _probe_representations, S, tracer, rng)
    if missing & {"cli.run", "cli.parse", "cli.compute", "cli.format"}:
        for i, m in enumerate(_smallest(rect)):
            request = {"argv": ["rank", inputs.text(m)], "stdin": None, "kind": "rank",
                       "expect": 0}
            cli_round(f"probe:cli:{i}", request)
    if "cli.large_request" in missing:
        cli_round("probe:cli:large", inputs.large_request(S, rng))


def _probe_representations(S, tracer, rng):
    instance = inputs.cyclic_instance(rng.choice(inputs.REPR_QUOTIENTS))
    source = lib(S, tracer, "representations.representation_from_json", instance["f"])
    target = lib(S, tracer, "representations.representation_from_json", instance["g"])
    morphism = S.morphism_from_json(instance["morphism"], source, target)
    lib(S, tracer, "representations.decompose_morphism", morphism)


def subprocess_latency(S, tracer, root, runs):
    """``python -m skewlin.cli demo paper-example`` from the source tree; a
    run whose output differs from the in-process one is marked failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "skewlin.cli", "demo", "paper-example"]
    request = {"argv": argv[3:], "stdin": None, "kind": "demo", "expect": 0}
    want = CliRequests().op(S, request, DIRECT)
    for _ in range(runs):
        done = tracer("cli.subprocess", _run_child, argv, env, root)
        if (done.returncode, done.stdout, done.stderr) != want:
            tracer.fail_last("subprocess output differs")


def _run_child(argv, env, cwd):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=60, check=False)


# -- metrics ---------------------------------------------------------------------------


def metrics(tracer, overhead_frac):
    """Per-layer metrics; ``overhead_frac`` is the measured cost of tracing."""
    out = {}
    for metric, span, unit in CALL_METRICS:
        out[metric] = (median(tracer.durations(span)) * SCALE[unit], unit)
    stages = {}
    for s in tracer.spans:
        if s["name"] in ("cli.run", "cli.parse", "cli.compute", "cli.format"):
            stages.setdefault(s["op"], {})[s["name"]] = (s["end"] - s["start"]) / 1e6
    overhead = [
        d["cli.run"] - d.get("cli.parse", 0) - d["cli.compute"] - d["cli.format"]
        for d in stages.values() if "cli.run" in d and "cli.compute" in d
    ]
    out["cli.overhead_ms"] = (median(overhead), "ms")
    out["rank.minors_before_major"] = (tracer.counts.get("rank.minors_before_major", 0), "count")
    layers = tracer.layers()
    for layer in LAYERS:
        calls, busy, failed = layers.get(layer, (0, 0.0, 0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.failed"] = (failed, "count")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    return out
