"""Reference CPU speed, sampled evenly through a pass.

The host's CPU speed drifts by up to 2x, from one call of a few
milliseconds to the next and over minutes (README "Noise").  A fixed kernel timed in the same
stretches as the work runs at the same speed as the work, so a time divided
by the kernel's mean time is steady where either alone is not.

While a ``Speedometer`` is open, a SIGALRM handler times the kernel every
``INTERVAL_S`` seconds, also in the middle of long library calls, and
``clock()`` leaves those pauses out.  The kernel is the same kind of work
as the library's skew products (dicts keyed by exponent tuples, a parity
sign per term pair) but shares no code with it, so a change to the library
does not move it.  Nothing here imports oddnil.
"""

import gc
import random
import signal
import time

# one sample every this many seconds of wall time
INTERVAL_S = 0.05

_TERMS = 30
_VARS = 5


def _operand(seed):
    rng = random.Random(seed)
    terms = {}
    while len(terms) < _TERMS:
        terms[tuple(rng.randrange(4) for _ in range(_VARS))] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


_F = _operand(1)
_G = _operand(2)


def reference_kernel():
    out = {}
    for ea, ca in _F.items():
        for eb, cb in _G.items():
            sign = 0
            for i in range(1, _VARS):
                sign += ea[i] * sum(eb[:i])
            key = tuple(map(int.__add__, ea, eb))
            c = out.get(key, 0) + (-ca * cb if sign & 1 else ca * cb)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def time_reference():
    """Seconds for one reference_kernel call.  The collector is off while
    it runs, so the library's heap and gc settings do not reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


_active = None


def clock():
    """time.perf_counter() less the time spent sampling so far."""
    return time.perf_counter() - (_active.paused if _active else 0.0)


class Speedometer:
    """Samples the kernel at entry, every INTERVAL_S while open, and at
    exit.  ``samples`` holds (perf_counter at the sample, kernel seconds)."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def sample(self, *_signal_args):
        t = time.perf_counter()
        self.samples.append((t, time_reference()))
        self.paused += time.perf_counter() - t

    def __enter__(self):
        global _active
        _active = self
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        _active = None
        return False
