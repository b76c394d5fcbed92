"""Timings normalised to the speed of the core they ran on.

On a shared host the same Python work runs up to 1.6 times slower for
stretches of milliseconds to minutes, in wall time and CPU time alike,
and each core changes speed on its own.  That swamps the differences a
benchmark exists to show.  So while a :class:`Speedometer` is running, a
timer signal every few milliseconds runs a fixed reference loop in this
process and records how long it took.  The benchmark process and its
children are pinned to one core, so the samples measure the core the
timed work ran on.

A timed interval ``[a, b]`` is reported as
``(b - a - sampling time inside it) * REF_SECONDS / r``, where ``r`` is the
mean reference time sampled during the interval (or around it, for
intervals too short to hold samples) and ``REF_SECONDS`` is the loop's
time on an idle core.  A program change still moves the result in full;
a change in host speed cancels out, since it slows the program and the
reference loop alike.  The raw times are reported next to the
normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Time of one ``reference()`` call when the core is not slowed, measured
# as the low end of its distribution on the 2-core x86-64 host the bounds
# were tuned on (CPython 3.11).
REF_SECONDS = 61e-6
PERIOD = 0.004
MIN_SAMPLES = 5

_TABLE = {format(i, "x"): i for i in range(256)}
_KEYS = tuple(format(i, "x") for i in range(0, 512, 6))
_WORD = bytes(range(32))


def reference() -> int:
    """Fixed work in the package's idiom: dict probes, string and bytes
    building, set membership."""
    total = 0
    for key in _KEYS:
        value = _TABLE.get(key)
        if value is not None:
            total += value
        total ^= len(key + "_")
    seen = set()
    for i in range(0, 32, 2):
        for j in range(0, 16, 2):
            candidate = _WORD[:i] + _WORD[j : j + 2] + _WORD[i + 2 :]
            if candidate not in seen:
                seen.add(candidate)
    return total + len(seen)


class Speedometer:
    """Samples the reference loop on a timer signal while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.refs: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        reference()
        end = perf_counter()
        self.starts.append(start)
        self.refs.append(end - start)
        self.costs.append(perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalise(self, start: float, end: float) -> float:
        """The interval's length at reference speed, sampling time excluded."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        own = sum(self.costs[i:j])
        lo, hi = i, j
        if hi - lo < MIN_SAMPLES:
            pad = MIN_SAMPLES - (hi - lo)
            lo, hi = max(0, lo - pad), min(len(self.refs), hi + pad)
        if lo >= hi:
            return end - start
        return (end - start - own) * REF_SECONDS / statistics.fmean(self.refs[lo:hi])

    def reference_us(self, spans) -> tuple[float | None, float | None]:
        """Mean reference time in µs of the samples inside ``spans`` and of the rest.

        A program change that slows or speeds the reference loop itself
        (by sharing its caches and allocator) shows as a gap between the two.
        """
        inside = set()
        for start, end in spans:
            inside.update(range(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)))
        ins = [r for i, r in enumerate(self.refs) if i in inside]
        out = [r for i, r in enumerate(self.refs) if i not in inside]
        return tuple(statistics.fmean(rs) * 1e6 if rs else None for rs in (ins, out))

    def factor(self) -> float:
        """Mean correction over the samples so far (1 = reference speed)."""
        return REF_SECONDS / statistics.fmean(self.refs) if self.refs else 1.0


class Timer:
    """Raw intervals of one metric, normalised once the samples are in."""

    def __init__(self, meter: Speedometer):
        self.meter = meter
        self.spans: list[tuple[float, float]] = []

    def time(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((start, perf_counter()))

    @property
    def raw(self) -> list[float]:
        return [b - a for a, b in self.spans]

    @property
    def values(self) -> list[float]:
        return [self.meter.normalise(a, b) for a, b in self.spans]
