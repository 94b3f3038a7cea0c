"""In-process traced replay: per-layer self times for one workload.

The replay feeds the workload's own frames through the same public
functions the server calls, in server order (frame decoder → query
decode → engine → reply encode), plus the client codec.  Spans are
recorded around each call into a layer: the replay loop wraps the
calls it makes, and the calls the engine makes into lower layers are
wrapped by temporarily replacing those functions in this process only.
Spans are kept in memory; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import repro.service.engine as engine_module
from repro.core.packed import PackedSpace
from repro.core.shards import RouteShard, ShardedRouteTable
from repro.core.tables import CompiledRouteTable
from repro.service.engine import RouteQueryEngine
from repro.service.protocol import (
    Frame,
    FrameDecoder,
    FrameType,
    decode_query,
    decode_reply,
    encode_query,
    encode_reply,
)

#: (owner, attribute, span name) of every engine-internal call wrapped.
_PATCHES = (
    (RouteQueryEngine, "resolve", "engine.resolve"),
    (RouteQueryEngine, "resolve_distances", "engine.distances"),
    (PackedSpace, "pack_checked", "packed.pack"),
    (CompiledRouteTable, "distance_packed", "tables.distance"),
    (CompiledRouteTable, "path_actions", "tables.walk"),
    (ShardedRouteTable, "shard_for", "shards.lookup"),
    (RouteShard, "distance_packed", "shards.walk"),
    (RouteShard, "path_actions", "shards.walk"),
    (engine_module, "route", "routing.route"),
    (engine_module, "undirected_distances_many", "batch.distances"),
)

#: Spans that run inside the server process for a query.
SERVER_ROOTS = ("protocol.feed", "protocol.decode_query", "engine.resolve",
                "engine.distances", "protocol.encode_reply")


class Tracer:
    """Span recorder: (id, name, start ns, end ns, parent id, request id)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.current = -1
        self.request = -1
        self._clock = time.perf_counter_ns

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            sid = tracer.current = len(tracer.spans)
            tracer.spans.append(None)
            start = tracer._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans[sid] = (sid, name, start, tracer._clock(),
                                     parent, tracer.request)
                tracer.current = parent

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _PATCHES]
        try:
            for (owner, attr, name), (_, _, original) in zip(_PATCHES, saved):
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name → (total self seconds, span count)."""
        covered: Dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0])
        for sid, name, start, end, _, _ in self.spans:
            row = totals[name]
            row[0] += end - start - covered[sid]
            row[1] += 1
        return {name: (ns / 1e9, count) for name, (ns, count) in totals.items()}

    def inclusive(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name) / 1e9


def replay(engine: RouteQueryEngine, stream, first: int, count: int,
           batch_size: int, tracer: Optional[Tracer]) -> Tuple[float, List[bytes]]:
    """Serve ``count`` stream queries in-process; returns (seconds, replies).

    Frames are fed to the decoder a window at a time, as the server
    reads them; distance-only queries without a table are grouped by
    destination and answered per group, as the micro-batcher does.
    """
    w = stream.workload
    decoder = FrameDecoder()
    span = tracer.wrap if tracer is not None else (lambda fn, name: fn)
    feed = span(decoder.feed, "protocol.feed")
    decode = span(decode_query, "protocol.decode_query")
    encode = span(encode_reply, "protocol.encode_reply")
    client_encode = span(encode_query, "client.encode_query")
    client_decode = span(decode_reply, "client.decode_reply")
    batched = not w.want_path and not engine.has_table(False)
    replies: List[bytes] = []
    start = time.perf_counter()
    for seq in range(first, first + count, w.window):
        n = min(w.window, first + count - seq)
        if tracer is not None:
            tracer.request = -1
        frames = feed(stream.frames(seq, n))
        queries = []
        for frame in frames:
            if tracer is not None:
                tracer.request = frame.request_id
            x, y = stream.pairs[frame.request_id]
            client_encode(frame.request_id, w.d, x, y, False, w.want_path)
            queries.append(decode(frame))
        answers = []
        if batched:
            groups: Dict[tuple, list] = defaultdict(list)
            for query in queries:
                group = groups[query.destination]
                group.append(query)
                if len(group) == batch_size:
                    answers += _flush(engine, tracer, group)
                    del groups[query.destination]
            for group in groups.values():
                answers += _flush(engine, tracer, group)
        else:
            for query in queries:
                if tracer is not None:
                    tracer.request = query.request_id
                distance, path = engine.resolve(query.source, query.destination,
                                                False, query.want_path)
                answers.append((query.request_id, distance, path))
        for rid, distance, path in answers:
            if tracer is not None:
                tracer.request = rid
            reply = encode(rid, distance, path)
            client_decode(Frame(FrameType.REPLY, rid, reply[9:]))
            replies.append(reply)
    return time.perf_counter() - start, replies


def _flush(engine, tracer, group):
    if tracer is not None:
        tracer.request = group[0].request_id
    distances = engine.resolve_distances(
        group[0].destination, [q.source for q in group], False)
    return [(q.request_id, dist, None) for q, dist in zip(group, distances)]
