"""Timing that holds up against a shared host's slow periods.

On a host whose cores are shared with other tenants, the same Python code
runs at one speed for a while and up to twice as slow for the next few
hundred milliseconds, and process CPU time rises just as wall time does.
A plain wall-clock median then drifts with the neighbours' load.

``Clock`` samples the host's speed while the benchmark runs: a timer
signal interrupts the process every ``TICK_S`` seconds and times ``probe``,
a short fixed stretch of exact rational arithmetic in pure Python, the kind
of work halfhandle does.  The probe stays in the core's own caches, so it
measures the core and not what the program did just before.  ``Clock.reference(t)`` maps wall time onto
*reference seconds*: wall time between two probes is rescaled by the
duration of the probes around it, and the time spent in probes counts for
nothing.  A reference second is the time the same work takes on a host on
which the probe takes ``REFERENCE_PROBE_S``.  The probe and the benchmark
are fixed, so a change to the program moves these figures and a change in
the host's load does not.

The module imports nothing beyond the interpreter's built-in modules, so a
fresh interpreter can load it before timing ``import halfhandle``.
"""

import signal
from bisect import bisect_right
from math import gcd
from time import perf_counter

TICK_S = 0.005
PROBE_ROUNDS = 50
# A fixed constant, near the probe's median duration on the 2.0 GHz Xeon
# (2 vCPUs, shared host) the benchmark was built on.
REFERENCE_PROBE_S = 1e-4


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    def __add__(self, other):
        if not isinstance(other, _Ratio):
            return NotImplemented
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def probe():
    """The fixed work whose duration measures the host's current speed."""
    acc = _Ratio(0, 1)
    for i in range(1, PROBE_ROUNDS):
        acc = acc + _Ratio(i, i + 1)
    return acc


def _median3(values, i):
    window = sorted(values[max(i - 1, 0):i + 2])
    return window[len(window) // 2]


class Clock:
    """Samples probe durations while started; converts wall times after ``stop``."""

    def __init__(self):
        self.ticks = []  # (probe start, probe duration) in wall seconds
        self._starts = self._scale = self._cum = None

    def _on_tick(self, signum, frame):
        start = perf_counter()
        probe()
        self.ticks.append((start, perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.ticks:  # started for less than one tick
            self._on_tick(None, None)
        ticks = self.ticks
        durations = [d for _, d in ticks]
        # Each stretch is rescaled by the median of the probe that ends it
        # and that probe's two neighbours, so that one probe the kernel
        # preempted does not rescale a stretch on its own.
        self._scale = [REFERENCE_PROBE_S / _median3(durations, i) for i in range(len(ticks))]
        self._starts = [t for t, _ in ticks]
        cum = [0.0]
        for i in range(1, len(ticks)):
            gap = ticks[i][0] - (ticks[i - 1][0] + ticks[i - 1][1])
            cum.append(cum[-1] + gap * self._scale[i])
        self._cum = cum

    def reference(self, t):
        """Reference seconds from the first probe to wall time ``t``."""
        starts, scale, cum = self._starts, self._scale, self._cum
        i = bisect_right(starts, t)
        if i == 0:
            return (t - starts[0]) * scale[0]
        end = starts[i - 1] + self.ticks[i - 1][1]
        if t <= end:
            return cum[i - 1]
        return cum[i - 1] + (t - end) * scale[min(i, len(scale) - 1)]

    def seconds(self, start, end):
        """Reference seconds of the wall interval ``[start, end]``."""
        return self.reference(end) - self.reference(start)

    def slowdown(self):
        """Median probe duration over the reference one."""
        durations = sorted(d for _, d in self.ticks)
        return durations[len(durations) // 2] / REFERENCE_PROBE_S
