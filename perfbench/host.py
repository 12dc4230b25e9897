"""The host's speed at a given moment, from a fixed reference loop.

The reference machine is a small virtual machine on a shared host.  The
host runs it in two states: a quiet one, and a slow one in which pure
Python runs 1.6 to 1.8 times slower.  The states switch every few
seconds, and the share of time in each drifts over minutes, so raw
timings of the same deterministic operation spread by a third between
runs.  The kernel inside the machine shows no steal time: nothing but a
timing reveals the state.

``reference_seconds`` times a fixed pure-Python loop (integer arithmetic,
as in knotrank) that knotrank's code cannot change.  The benchmark times
it next to every operation and scales the operation's time by
``QUIET_SECONDS / now``: the result is the time the operation takes on
the quiet host.  ``QUIET_SECONDS`` is a constant, not a figure taken
from each run, because a run can pass without a quiet moment.
"""

from __future__ import annotations

import time

REFERENCE_STEPS = 300
# The loop's time on the quiet reference host: the 1st percentile of
# 34,984 timings over eight witness and six seifert-large runs (2 vCPUs
# at 2.1 GHz, Python 3.11.7).  Its median there was 125 us.
QUIET_SECONDS = 76.6e-6


def _loop() -> int:
    x = 12345678901234567
    acc = 0
    for k in range(REFERENCE_STEPS):
        acc = (acc * 31 + x % (k + 7)) % 1000000007
        x = x * 3 // 2 + k
    return acc


def reference_seconds() -> float:
    """One timing of the reference loop (about 80 microseconds on a quiet host)."""
    clock = time.perf_counter
    t = clock()
    _loop()
    return clock() - t

