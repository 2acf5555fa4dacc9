"""Keep the benchmark on the least contended CPU it may use.

On a virtual machine whose vCPUs share physical cores with other tenants,
one vCPU was seen to run a fixed loop 1.6 times slower than the other for
spells of a second to a minute, while a busy single-threaded process tends
to stay on the CPU it started on.  :class:`QuietCpu` times a short
standard-library probe on each CPU the process may use and pins the process
to the fastest, choosing again once ``interval`` seconds have passed, always
outside a timed span.  The probe never calls the library, so a change to the
library cannot move the choice.
"""

import os
from collections import Counter
from fractions import Fraction
from time import perf_counter

_TERMS = [Fraction(i, 7) for i in range(1, 201)]
PROBES = 3
SECONDS_PER_CPU = 0.125


def _probe():
    start = perf_counter()
    total = Fraction(0)
    for x in _TERMS:
        total += x * x
    return perf_counter() - start


class QuietCpu:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = SECONDS_PER_CPU * len(self.cpus)
        self.last = None
        self.choices = Counter()

    def settle(self):
        """Pin to the CPU where the probe runs fastest, unless the last
        choice is less than ``interval`` seconds old."""
        if len(self.cpus) < 2:
            return
        if self.last is not None and perf_counter() - self.last < self.interval:
            return
        best = min(self.cpus, key=self._probe_on)
        os.sched_setaffinity(0, {best})
        self.choices[best] += 1
        self.last = perf_counter()

    def _probe_on(self, cpu):
        os.sched_setaffinity(0, {cpu})
        return min(_probe() for _ in range(PROBES))
