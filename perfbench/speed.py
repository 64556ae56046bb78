"""Host-speed probe: scales measured times to a nominal machine speed.

On a shared host the same op list runs up to 40% slower for minutes at a
time, because other tenants load the machine; wall time alone then
varies more between runs than any bound worth setting.  A short fixed
loop of the kind the library spends its time in (a circuit scan over a
rank table) is timed before every op and, through an interval timer,
every ``INTERVAL`` seconds inside long ops.  Each op's time is scaled by
``NOMINAL_S / mean(probe times)`` over the probes taken from ``WINDOW``
seconds before the op until ``WINDOW`` seconds after it.  On a shared
2-vCPU Xeon VM (Python 3.11) the mean probe time over the minor op list
tracked the list's own time (correlation 0.84 over 14 runs), and scaling
cut the spread of that time between runs from 16% to 6%.  Raw times are
reported next to the scaled ones.
"""

from __future__ import annotations

import signal
import time

# The probe's time on that VM when it is not slowed down by other load.
NOMINAL_S = 1.2e-3
INTERVAL = 0.25
# The host's speed flips between states within seconds, so one op's own
# probes are too few; its neighbours' probes steady the estimate.
WINDOW = 2.0

_TABLE = bytes(min(A.bit_count(), 6) for A in range(1 << 12))


def probe() -> float:
    """Time one scan for the circuits of U_{6,12} over its rank table."""
    rt = _TABLE
    t0 = time.perf_counter()
    for A in range(1, 1 << 12):
        pc = A.bit_count()
        if rt[A] != pc - 1:
            continue
        m = A
        while m:
            bit = m & -m
            m ^= bit
            if rt[A ^ bit] != pc - 1:
                break
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe samples, taken on demand and from a SIGALRM interval timer
    whose handler runs in the main thread between bytecodes."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, probe time)
        self.spent = 0.0  # wall time spent inside probes, to subtract

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))
        self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run ``fn()`` after a probe; return (result, raw seconds, (start,
        end)).  Probe time inside the call is subtracted from the raw time."""
        self.sample()
        spent = self.spent
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, t1 - t0 - (self.spent - spent), (t0, t1)

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured from ``start`` to ``end``."""
        near = [d for t, d in self.samples if start - WINDOW <= t <= end + WINDOW]
        return NOMINAL_S * len(near) / sum(near)
