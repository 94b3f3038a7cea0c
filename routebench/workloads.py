"""The four traffic mixes and the seeded query streams they send.

Each mix's name and the reason it exists are declared once, in
``BENCHMARK.json``; this module holds the settings behind each name.

A workload fixes everything that shapes the load: the graph DG(d, k),
which serving tier is meant to answer, whether replies carry paths,
the closed-loop window, the open-loop offered rate and the client
burst size.  The seed only picks *which* pairs are asked; the server
sees nothing but the encoded ``QUERY`` frames.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.service.protocol import encode_query

Word = Tuple[int, ...]

#: Request-id slots per stream.  The driver cycles through them, so a
#: request id always names the same (source, destination) pair and
#: every distinct reply is verified once however long a run lasts.
STREAM_SLOTS = 32768


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    k: int
    tier: str  #: "table" | "shards" | "planner" | "batch"
    want_path: bool
    window: int  #: closed-loop queries in flight
    #: Fixed open-loop rate, about a fifth of the closed-loop saturation
    #: rate.  The host's CPU runs at half speed for seconds at a time;
    #: at half of saturation the open loop then overloads and the
    #: latency median jumps twentyfold.
    offered_qps: float
    #: Open-loop queries that fall due together.  Alone, each cheap
    #: query would pay the server's cold wake-up, whose cost swings with
    #: the host, hence 4; the planner's queries cost far more than a
    #: wake-up, hence 1.  For planner-batch a burst holds one full batch
    #: per hot destination, so groups flush by size: partial groups wait
    #: on the server's flush timer, whose lateness (2-11 ms on a shared
    #: 2-vCPU host) makes the median unsteady.
    open_burst: int
    client_burst: int  #: queries per timed RobustRouteClient burst (one a round)
    #: Queries sent before timing, to fill caches.  planner-batch needs
    #: ten times more: after 3000, its first closed-loop round still ran
    #: at a third of the later rounds' rate in 9 of 10 runs.
    warmup: int
    replay: int  #: queries replayed in-process by the traced run
    #: Launches per untraced run; setup_s is their scaled median.  A planner
    #: launch is ~0.5 s of imports whose time swings by a fifth from
    #: launch to launch, so those workloads take more of them.
    setups: int = 5
    #: Shard-tier geometry (shard-path only).
    shard_rows: int = 0
    shard_budget_mb: int = 0
    hot_groups: int = 0
    #: Planner-path pair pool, three times the default RouteCache size
    #: (4096): at twice, hits and misses split near 50/50 and the
    #: latency median flips between the two modes from run to run.
    pool: int = 0
    #: Planner-batch hot destinations.
    hot_destinations: int = 0

    def serve_args(self, table_file: str = "") -> List[str]:
        """The ``serve`` flags an operator would pass for this mix."""
        # --duration: a server orphaned by a killed run still exits.
        args = ["serve", "-d", str(self.d), "-k", str(self.k),
                "--port", "0", "--workers", "1", "--duration", "900"]
        if self.tier == "table":
            args += ["--table", table_file]
        elif self.tier == "shards":
            args += ["--shards", "--shard-budget-mb", str(self.shard_budget_mb),
                     "--shard-rows", str(self.shard_rows)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table-path", d=2, k=12, tier="table", want_path=True,
            window=128, offered_qps=4000.0, open_burst=4, client_burst=1000, warmup=3000,
            replay=4000,
        ),
        Workload(
            name="shard-path", d=2, k=16, tier="shards", want_path=True,
            window=128, offered_qps=3000.0, open_burst=4, client_burst=1000, warmup=3000,
            replay=4000, shard_rows=32, shard_budget_mb=24, hot_groups=4,
        ),
        Workload(
            name="planner-path", d=2, k=20, tier="planner", want_path=True,
            window=128, offered_qps=500.0, open_burst=1, client_burst=400, warmup=8000,
            replay=2000, setups=9, pool=12288,
        ),
        Workload(
            name="planner-batch", d=2, k=20, tier="batch", want_path=False,
            window=256, offered_qps=4000.0, open_burst=256, client_burst=1500, warmup=30000,
            replay=4096, setups=9, hot_destinations=8,
        ),
    )
}


def unpack(value: int, d: int, k: int) -> Word:
    digits = []
    for _ in range(k):
        value, digit = divmod(value, d)
        digits.append(digit)
    return tuple(reversed(digits))


def pack(word: Sequence[int], d: int) -> int:
    value = 0
    for digit in word:
        value = value * d + digit
    return value


class Stream:
    """One workload's seeded query stream, pre-encoded.

    ``pairs[i]`` is the (source, destination) of request id ``i``;
    ``blob`` holds every ``QUERY`` frame back to back, each
    ``frame_size`` bytes, so the driver sends slices of it.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        rng = random.Random(f"routebench/{workload.name}/{seed}")
        self.hot_groups: List[int] = []
        self.pairs = self._pairs(workload, rng)
        frames = [
            encode_query(rid, workload.d, x, y, directed=False,
                         want_path=workload.want_path)
            for rid, (x, y) in enumerate(self.pairs)
        ]
        self.frame_size = len(frames[0])
        self.blob = b"".join(frames)
        self.slots = len(frames)

    def _pairs(self, w: Workload, rng: random.Random) -> List[Tuple[Word, Word]]:
        d, k = w.d, w.k
        order = d ** k

        def word() -> Word:
            return unpack(rng.randrange(order), d, k)

        if w.tier == "shards":
            # Fixed, evenly spaced groups: which rows a shard holds sets
            # its build's transient memory, so seed-drawn groups would
            # make the server's RSS depend on the seed.
            groups = order // w.shard_rows
            self.hot_groups = [(2 * g + 1) * groups // (2 * w.hot_groups)
                               for g in range(w.hot_groups)]
            out = []
            for _ in range(STREAM_SLOTS):
                group = rng.choice(self.hot_groups)
                dest = group * w.shard_rows + rng.randrange(w.shard_rows)
                out.append((word(), unpack(dest, d, k)))
            return out
        if w.tier == "planner":
            pool = [(word(), word()) for _ in range(w.pool)]
            return [rng.choice(pool) for _ in range(STREAM_SLOTS)]
        if w.tier == "batch":
            # Destinations in turn, so any open-loop burst fills every
            # group to the server's batch size at once.
            hot = [word() for _ in range(w.hot_destinations)]
            return [(word(), hot[i % len(hot)]) for i in range(STREAM_SLOTS)]
        return [(word(), word()) for _ in range(STREAM_SLOTS)]

    def frames(self, seq: int, count: int) -> bytes:
        """``count`` frames starting at stream position ``seq`` (cyclic)."""
        size = self.frame_size
        start = seq % self.slots
        stop = start + count
        if stop <= self.slots:
            return self.blob[start * size:stop * size]
        return self.blob[start * size:] + self.frames(0, stop - self.slots)

    def pairs_from(self, seq: int, count: int) -> List[Tuple[Word, Word]]:
        return [self.pairs[(seq + i) % self.slots] for i in range(count)]
