"""A clock that counts the program's time at a fixed host speed.

The benchmark's host is a share of a larger machine whose speed, as
seen by one process, changes by up to 2x in spells of a few seconds
(another guest on the same core comes and goes).  CPU time follows
wall time through these spells, so neither clock measures the program
alone, and medians over whole runs only average the spells a run
happened to meet.

``Meter`` takes the host's speed as it goes.  A ``SIGALRM`` every
``INTERVAL_S`` seconds interrupts the program between two bytecodes and
times ``reference()``, a fixed loop of interpreter work that does not
touch loopchains.  ``clock()`` advances by the program's time since the
last sample, times ``NOMINAL_S`` over the median of the last three
samples: a scaled second is the time the program would take on a host
where ``reference()`` takes ``NOMINAL_S``.  The samples' own time is
left out, so the clock only moves forward and spans read from it stay
additive.  Samples reach Python code only; a single call into C that
outlasts the interval just makes its segment longer.  ``plain()`` is
``perf_counter`` without the samples, for the unscaled times.

Program and reference do not slow by quite the same factor: a run in
the slow spells of this host reads a few per cent more than one in the
fast spells, where plain time differs by up to 2x.  Set-up, mostly
unmarshalling and running module bodies, slows less than the
reference: it reads up to a fifth more in fast spells than in slow
ones, where plain time differs by 1.7x.
"""

import signal
import statistics
import time

INTERVAL_S = 0.025
NOMINAL_S = 0.0007  # about one reference() on a core not shared


def _shift(word, i):
    return word[1:] + (i % 5,)


def reference():
    """Fixed interpreter work, in two halves that the host's spells slow
    by different amounts: dict and integer arithmetic, which slows less
    than loopchains does, and calls building and sorting tuples, which
    slows more."""
    table = {}
    total = 0
    for i in range(1500):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    words = {}
    word = (0, 1, 2, 3)
    for i in range(600):
        word = _shift(word, i)
        words[word] = words.get(word, 0) + (-1) ** (i & 1)
        if i & 15 == 0:
            total += sorted(word)[0]
    return total + len(words)


def _timed_reference():
    start = time.perf_counter()
    reference()
    return start, time.perf_counter()


class Meter:
    """Scaled program time, sampled by ``SIGALRM`` while it runs."""

    def __init__(self):
        self._recent = []
        # (scaled time at `last`, perf_counter at `last`, scale after it,
        # time spent sampling); one tuple, so that no clock sees half an
        # update
        self._state = None
        self._busy = False

    def _rescale(self, start, end, base, sampled=0.0):
        self._recent = self._recent[-2:] + [end - start]
        scale = NOMINAL_S / statistics.median(self._recent)
        now = time.perf_counter()
        self._state = (base, now, scale, sampled + now - start)

    def start(self):
        for _ in range(3):  # warm-up: the first calls run cold
            reference()
        for _ in range(3):
            self._rescale(*_timed_reference(), 0.0)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        base, last, scale, sampled = self._state
        start, end = _timed_reference()
        self._rescale(start, end, base + (start - last) * scale, sampled)
        self._busy = False

    def clock(self):
        """Scaled seconds since ``start``."""
        base, last, scale, _ = self._state
        return base + (time.perf_counter() - last) * scale

    def plain(self):
        """``perf_counter`` less the time spent sampling."""
        return time.perf_counter() - self._state[3]
