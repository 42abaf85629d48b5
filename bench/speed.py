"""Host-speed probe: a fixed pure-Python kernel timed while the program runs.

On a shared virtual machine the same operation runs up to half again as
slow in one spell as in the next, through contention the benchmark's
processes cannot remove.  The probe measures that drift where it happens:
a timer signal runs a short, fixed kernel in the worker's own thread every
``INTERVAL_S`` seconds of an operation, so the kernel samples the same
processor at the same moments as the program.  An operation's time, less
the time the probe itself took, is then scaled by ``NOMINAL_S`` over the
kernel's mean time during the operation: the time it would have taken at
the reference speed.  The kernel iterates the set bits of integer rows and
ORs rows together, the kind of work squaregap's pure-Python hot paths do,
so its speed moves with theirs.

The handler and the kernel add two frames to the depth of whatever the
program is doing when the signal arrives, and call nothing else.
"""

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
MIN_SAMPLES = 5  # an operation shorter than this many samples borrows its neighbours'
NOMINAL_S = 3.0e-4  # mean kernel time on the reference machine (Intel Xeon, 2 vCPUs)

_N = 96
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if (7 * _u + 13 * _v) % 11 < 2:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
_ADJ = tuple(_ADJ)


def kernel():
    """One run of the fixed kernel; returns its own duration in seconds."""
    start = perf_counter()
    adj, hits = _ADJ, 0
    for u in range(0, _N, 3):
        row = mask = adj[u]
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            row |= adj[v]
            hits += (adj[v] >> u) & 1
    return perf_counter() - start


def burst(runs=40):
    """Mean kernel time over `runs` back-to-back runs."""
    return statistics.fmean(kernel() for _ in range(runs))


class Probe:
    """Samples the kernel on a wall-clock timer; samples are (start, seconds)."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, kernel()))

    def start(self):
        self.samples += [(perf_counter(), kernel()) for _ in range(MIN_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((perf_counter(), kernel()))

    def measure(self, start, end):
        """(seconds spent in the probe, mean kernel time) over the interval [start, end].

        With fewer than MIN_SAMPLES samples inside the interval, the mean is
        taken over the MIN_SAMPLES samples nearest its middle.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        spent = sum(seconds for _, seconds in inside)
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        return spent, statistics.fmean(seconds for _, seconds in inside)
