"""Machine-speed probe run inside the driver while it measures.

On a shared host the CPU's speed drifts by tens of percent within
seconds, moving every CPU-bound metric with it, and the server and the
driver slow down together.  So while a phase measures (or a replica
launches), the driver also times one fixed piece of Python at most once
a millisecond, on its own core, in the gaps of its work.  Each phase's
CPU-bound figures are then scaled to a fixed reference speed: a phase
measured while the fragment took ``REFERENCE_US`` reads as measured,
one measured while it ran 20 % slower reads 20 % better.  The raw figures are kept beside the scaled
ones in every result.

The probe runs beside the server, so the server can move it too: work
a change puts on the driver's CPU (a helper thread, cache pressure)
looks like a slower machine and flatters the scaled figures.  A probe
taken only between phases, with the server idle, would be immune, but
it missed most of the host's drift (its factor correlated 0.1 with the
planner's CPU per query, against 0.4 here), so ``compare.py`` judges
the raw figures beside the scaled ones instead.
"""

from __future__ import annotations

import asyncio
import statistics
import struct
import threading
import time
from contextlib import contextmanager
from typing import List

#: Fragment time, in µs, that defines the reference speed.
REFERENCE_US = 50.0

_S = struct.Struct("!IBI")


def fragment(n: int = 60) -> int:
    """Fixed interpreter work: struct packing, tuples and a dict."""
    table = {}
    acc = 0
    for i in range(n):
        blob = _S.pack(i, 1, i ^ 0x5A5A)
        word = tuple(blob[5:9])
        table[word] = i
        acc += len(word) + table.get(word, 0) % 7
    return acc


class Speedometer:
    """Times :func:`fragment` at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.times: List[float] = []
        self._next = 0.0

    @property
    def seconds(self) -> float:
        """Total time spent in the probe (to subtract from CPU times)."""
        return sum(self.times)

    def tick(self, now: float) -> None:
        if now < self._next:
            return
        start = time.perf_counter()
        fragment()
        end = time.perf_counter()
        self.times.append(end - start)
        self._next = end + self.interval

    async def run_beside(self, done: asyncio.Event) -> None:
        """Tick on the event loop until ``done`` is set."""
        while not done.is_set():
            self.tick(time.perf_counter())
            await asyncio.sleep(self.interval)

    @contextmanager
    def ticking(self):
        """Tick in a background thread for the ``with`` block.

        For blocking waits, such as a server process starting up, that
        release the interpreter lock.
        """
        done = threading.Event()

        def loop() -> None:
            while not done.is_set():
                self.tick(time.perf_counter())
                done.wait(self.interval)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            done.set()
            thread.join()

    def factor(self) -> float:
        """Reference / measured speed (1.0 = reference, < 1 = slower).

        Multiply a CPU time or latency by it, divide a rate by it.  The
        median fragment time ignores fragments the kernel preempted.
        """
        if not self.times:
            return 1.0
        return REFERENCE_US / (statistics.median(self.times) * 1e6)
