"""Spans around the benchmark's own calls into the library.

Operations call the library through a *caller*: :data:`DIRECT` just calls
the function (tracing off), a :class:`Tracer` records one span per call.
Spans stay in memory until the run ends and are then written out as JSON
lines: ``name``, ``start``/``end`` in nanoseconds, ``parent`` (the line of
the enclosing span, counted from 0), ``op`` (the operation the span belongs
to), ``reps`` for timing loops and ``error`` for calls that raised or
returned a wrong status.

A span's layer is the part of its name before the first dot; ``op``,
``replay`` and ``probe`` spans only group the others.
"""

import json
from time import perf_counter_ns

GROUPS = ("op", "replay", "probe")


class _Direct:
    def __call__(self, name, fn, *args):
        return fn(*args)

    def fail_last(self, reason):
        pass


DIRECT = _Direct()


class Tracer:
    def __init__(self, hooks=None):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None
        self._hooks = hooks or {}

    def _open(self, name, reps=1):
        span = {"name": name, "start": 0, "end": 0,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op, "reps": reps, "error": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def __call__(self, name, fn, *args):
        span = self._open(name)
        span["start"] = perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter_ns()
            self._stack.pop()
        hook = self._hooks.get(name)
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def fail_last(self, reason):
        """Mark the most recent call span as failed without it raising."""
        for span in reversed(self.spans):
            if span["name"].split(".")[0] not in GROUPS:
                span["error"] = reason
                return

    def group(self, name, op_id, fn, *args):
        """Run ``fn(*args)`` inside a grouping span of operation ``op_id``."""
        previous, self._op = self._op, op_id
        try:
            return self(name, fn, *args)
        finally:
            self._op = previous

    def repeat(self, name, reps, fn, *args):
        """Time ``reps`` back-to-back calls of a cheap function as one span."""
        span = self._open(name, reps)
        span["start"] = perf_counter_ns()
        for _ in range(reps):
            fn(*args)
        span["end"] = perf_counter_ns()
        self._stack.pop()

    def durations(self, name):
        """Per-call seconds of every span named ``name``."""
        return [
            (s["end"] - s["start"]) / 1e9 / s["reps"] for s in self.spans if s["name"] == name
        ]

    def layers(self):
        """``{layer: (calls, busy seconds, failed)}``; busy time is self time,
        the span's duration less the part covered by its children."""
        child_time = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {}
        for i, span in enumerate(self.spans):
            layer = span["name"].split(".")[0]
            if layer in GROUPS:
                continue
            calls, busy, failed = out.get(layer, (0, 0, 0))
            out[layer] = (
                calls + span["reps"],
                busy + span["end"] - span["start"] - child_time[i],
                failed + (span["error"] is not None),
            )
        return {k: (c, b / 1e9, f) for k, (c, b, f) in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
