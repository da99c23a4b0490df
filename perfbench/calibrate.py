"""The speed reference for the benchmark's times.

The shared host's speed drifts by up to half within seconds and for minutes
at a time, and a run's median wall time drifts with it.  So the benchmark
also times a fixed loop that uses no beliefprog code -- before and after
each measured call, and every SAMPLE_PERIOD_S during it, from a timer
signal -- and reports each call's time scaled to the speed at which that
loop takes REFERENCE_S.  The loops run during a call are taken out of its
time.  A change to beliefprog moves the scaled times in full; a change in
the host's speed cancels out.  This module imports nothing of the package,
so a fresh set-up interpreter can time the loop too.
"""

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_STEPS = 1000
SAMPLE_PERIOD_S = 0.2
REFERENCE_S = 0.008


def reference_loop(steps=SAMPLE_STEPS):
    """Fixed interpreter-bound work: exact arithmetic, hashing of tuples and
    frozensets, dict traffic, small allocations and a sort."""
    table = {}
    total = Fraction(0)
    for i in range(steps):
        p = Fraction(1 + i % 9, 3 + i % 11)
        key = (i % 61, frozenset((i % 5, i % 7, i % 3)))
        total += p * table.get(key, Fraction(1, 2))
        table[key] = p
    sorted(table.items(), key=lambda kv: (kv[0][0], len(kv[0][1])))
    return total


def sample():
    """Wall seconds of one reference loop.  The collector is held off, so
    that a loop run inside a call does not collect the call's objects; the
    loop frees all it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    reference_loop()
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def at_reference_speed(seconds, samples):
    """A measured time scaled by the mean of the loop times taken with it."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


def run_sampled(fn):
    """Call fn() with the host's speed sampled before, during and after it.

    Returns fn's result, its wall seconds without the loops run inside it,
    the same at the reference speed, and the loop times.
    """
    samples = [sample()]
    inside = 0.0

    def on_timer(_signum, _frame):
        nonlocal inside
        enter = perf_counter()
        samples.append(sample())
        inside += perf_counter() - enter

    previous = signal.signal(signal.SIGALRM, on_timer)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start - inside
        signal.signal(signal.SIGALRM, previous)
    samples.append(sample())
    return result, seconds, at_reference_speed(seconds, samples), samples
