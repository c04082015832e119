"""Host-speed probe that puts timings on a steady scale.

The benchmark's host is shared. Its speed for one thread changes by up to
~1.8x between phases lasting from a second to minutes, so raw medians of
runs taken minutes apart disagree by more than any useful bound. While a
section runs, ``Sampler`` times a fixed ~40 us snippet of Python 50 times a
second from a SIGALRM handler, plus a few times before and after it. The
snippet slows down with the host. ``scale`` converts the section's host
seconds to seconds at a probe time of ``REFERENCE_S``.

The handler adds about 0.2% to the section and touches nothing of the
program under test. This module imports only ``signal`` and ``time``, so a
set-up probe can load it before it times ``import fivegsim``.
"""
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 40e-6   # probe duration that defines the reported scale
BRACKET = 5           # probes taken directly before and after the section


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    d = {}
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i
    return time.perf_counter_ns() - t0


class Sampler:
    """Probe the host's speed for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[int] = []

    def __enter__(self):
        self.samples.extend(probe_ns() for _ in range(BRACKET))
        samples = self.samples
        self._old = signal.signal(signal.SIGALRM, lambda s, f: samples.append(probe_ns()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.extend(probe_ns() for _ in range(BRACKET))
        return False

    @property
    def probe_s(self) -> float:
        """Mean probe time with the slowest and fastest tenth dropped."""
        s = sorted(self.samples)
        k = len(s) // 10
        core = s[k : len(s) - k]
        return sum(core) / len(core) / 1e9

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.probe_s
