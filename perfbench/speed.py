"""Machine-speed sampling, so that timings on a shared machine can be put on
one scale.

On the shared 2-core machine this benchmark was built on, the speed of a
core swings by up to 1.6x within seconds, with no steal time reported: a
fixed arithmetic loop runs in 38 ms one second and in 60 ms the next, and
the median decode turn of one seed took 70 ms in one pass and 104 ms in the
next. A wall time then says as much about the neighbours as about kgdial.
While a run is measured, `SpeedSampler` times a fixed calibration loop of
about 1.3 ms every 50 ms of wall time, from a SIGALRM handler in the
measuring thread, so the samples see the same core as the code under test.
`reference_s` turns a unit's wall time into reference seconds: the wall time
minus the time spent in samples, scaled by how much slower the calibration
loop ran around that unit than `CAL_REF_S`, its time on a quiet core of that
machine. Over five passes of one decode-long seed the median turn spread
by 1.55x (max/min) in wall time and by 1.06x in reference time.
"""

from __future__ import annotations

import bisect
import re
import signal
import statistics
import time

import numpy as np

# calibration-loop time on a quiet core of the 2-core x86-64 machine the
# benchmark was built on: the 10th percentile of 3000 runs
CAL_REF_S = 1.25e-3
INTERVAL_S = 0.05
# units shorter than WINDOW_S are scaled by the samples around them
WINDOW_S = 0.25

_WORD = re.compile(r"\w+|[^\w\s]")
_TEXT = ("could you tell me whether the grand hotel near the river offers "
         "free parking for guests, please?")
_NAMES = ("grand river hotel", "blue lotus kitchen")
_MATRIX = np.random.default_rng(0).normal(size=(24, 24))


def _edit_distance(a: str, b: str) -> int:
    x = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    y = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    idx = np.arange(len(y) + 1)
    prev, row = idx.copy(), np.empty(len(y) + 1, dtype=np.int64)
    for i in range(1, len(x) + 1):
        row[0] = i
        np.minimum(prev[:-1] + (x[i - 1] != y), prev[1:] + 1, out=row[1:])
        row = np.minimum.accumulate(row - idx) + idx
        prev, row = row, prev
    return int(prev[-1])


def calibration_loop() -> None:
    """The kinds of work the pipeline's hot layers do, in code of its own:
    regex tokenizing, windowed edit distance with small numpy rows, and a
    small self-attention. It tracked the pipeline's slow-downs more closely
    than plain arithmetic did."""
    tokens = _WORD.findall(_TEXT.lower())
    for name in _NAMES:
        width = len(name.split())
        for start in range(0, len(tokens) - width + 1, 3):
            _edit_distance(name, " ".join(tokens[start:start + width]))
    emb = _MATRIX[np.arange(3 * len(tokens)) % 24]
    for _ in range(6):
        scores = emb @ emb.T
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        emb + weights @ emb


class SpeedSampler:
    """Context manager sampling the calibration loop every INTERVAL_S."""

    def __init__(self, on_tick=None):
        # on_tick(duration) lets a tracer keep sample time out of its spans
        self.on_tick = on_tick
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        if self.on_tick is not None:
            self.on_tick(duration)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the samples taken in it, in
        reference seconds: each stretch between two samples is divided by
        the slow-down they measured (the mean of the two), so a unit that
        ran partly in a slow phase is corrected only for that part. A unit
        holding no sample is divided by the median slow-down within
        WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        slow = [d / CAL_REF_S for d in self.durations[lo:hi]]
        if not slow:
            around = self.durations[
                bisect.bisect_left(self.starts, start - WINDOW_S):
                bisect.bisect_left(self.starts, end + WINDOW_S)]
            if not around:
                raise RuntimeError("no speed samples near the measured unit")
            return (end - start) / (statistics.median(around) / CAL_REF_S)
        edges = [start] + self.starts[lo:hi]
        resumes = [start] + [t + d for t, d in zip(self.starts[lo:hi],
                                                   self.durations[lo:hi])]
        total = 0.0
        for k in range(len(slow) + 1):
            gap = (edges[k + 1] if k < len(slow) else end) - resumes[k]
            before = slow[k - 1] if k > 0 else slow[0]
            after = slow[k] if k < len(slow) else slow[-1]
            total += gap / ((before + after) / 2)
        return total

    def speed_factor(self) -> float:
        """Median calibration time over CAL_REF_S: 1 on a quiet core."""
        return statistics.median(self.durations) / CAL_REF_S
