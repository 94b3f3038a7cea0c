"""Metric names and units (from ``BENCHMARK.json``) and the per-layer ledger."""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The server's default micro-batch size, mirrored by the replay.
BATCH_SIZE = 32

#: The benchmark's declaration: workloads, metric names and units.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: End-to-end metrics (``--trace 0``), name → unit.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

#: Per-layer metrics (``--trace 1``), name → unit.  A layer the workload
#: does not cross reads 0 (no span, no counter movement).
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: End-to-end metrics measured once per round of a run.
ROUND_METRICS = ("qps", "server_cpu_us", "p50_ms", "client_cpu_us")


def over_rounds(name: str, values) -> float:
    """A run's figure from its per-round figures of metric ``name``.

    The median, except for ``p50_ms``: host stalls only ever add
    latency, and a stretch of them can cover most of a run's rounds
    (shard-path rounds read 3-15 ms beside 0.45 ms), so the lower
    quartile of the rounds' medians stands for the run.  Across ten
    runs its quartile spread stayed below 0.17 where the median's
    reached 0.74.
    """
    if name == "p50_ms":
        return statistics.quantiles(values, n=4)[0]
    return statistics.median(values)


#: Span name → per-layer metric fed by its self time (µs per query).
_SELF_TIME = {
    "protocol.feed": "protocol.feed_us",
    "protocol.decode_query": "protocol.decode_query_us",
    "protocol.encode_reply": "protocol.encode_reply_us",
    "packed.pack": "packed.pack_us",
    "tables.distance": "tables.distance_us",
    "tables.walk": "tables.walk_us",
    "shards.lookup": "shards.lookup_us",
    "shards.walk": "shards.walk_us",
    "engine.resolve": "engine.self_us",
    "engine.distances": "engine.self_us",
    "routing.route": "routing.route_us",
    "batch.distances": "batch.per_source_us",
    "client.encode_query": "client.encode_query_us",
    "client.decode_reply": "client.decode_reply_us",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def replay_ledger(bench):
    """Replay the stream in-process, untraced then traced.

    Returns the tracer, both timings, the traced replies, the median
    shard build time and the speed factor measured around the replay.
    """
    from oracle import check_body
    from speed import Speedometer
    from tracing import Tracer, replay

    from repro.service.engine import EngineSpec

    w, stream = bench.w, bench.stream
    spec = EngineSpec(
        w.d, w.k,
        table_path=bench.table_file if w.tier == "table" else None,
        shards=w.tier == "shards",
        shard_byte_budget=w.shard_budget_mb << 20,
        shard_rows=w.shard_rows or None,
    )
    engine = spec.build()
    build_s = 0.0
    try:
        if engine.shards is not None:
            builds = []
            for group in stream.hot_groups:
                start = time.perf_counter()
                engine.shards.ensure_shard(group)
                builds.append(time.perf_counter() - start)
            build_s = statistics.median(builds)
        # Warm caches as the served run did, then time two disjoint
        # stretches of the stream: untraced, then traced.
        seq = 0
        if w.tier == "planner":
            replay(engine, stream, seq, w.warmup, BATCH_SIZE, None)
            seq += w.warmup
        speedo = Speedometer(interval=0.0)
        for _ in range(20):
            speedo.tick(0.0)
        # Leave the long-lived objects (stream, oracle, caches) out of
        # the collector's scans, as they are in a long-running server.
        gc.collect()
        gc.freeze()
        plain_s, plain_replies = replay(engine, stream, seq, w.replay, BATCH_SIZE, None)
        tracer = Tracer()
        with tracer.installed():
            traced_s, traced_replies = replay(
                engine, stream, seq + w.replay, w.replay, BATCH_SIZE, tracer)
        for _ in range(20):
            speedo.tick(0.0)
    finally:
        gc.unfreeze()
        if engine.shards is not None:
            engine.shards.close()
        if engine.table is not None:
            engine.table.close()
    for reply in plain_replies + traced_replies:
        rid = int.from_bytes(reply[5:9], "big")
        problem = check_body(bench.oracle, rid, reply[9:], w.want_path)
        if problem:
            bench.problems.append(f"in-process replay: {problem}")
    return {"tracer": tracer, "plain_s": plain_s, "traced_s": traced_s,
            "replies": traced_replies, "build_s": build_s,
            "factor": speedo.factor()}


def layer_metrics(bench, ledger, stats0, stats1, server_cpu_us, raw_cpu_us,
                  driver_cpu_us, lateness, table_times):
    """The per-layer metrics; replay times are scaled like the run's.

    ``server_cpu_us`` is the run's scaled figure, ``raw_cpu_us`` the
    measured one; the explained share compares unscaled times only.
    """
    from tracing import SERVER_ROOTS
    from wire import quantile

    w = bench.w
    tracer, replies = ledger["tracer"], ledger["replies"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update(table_times)
    out["shards.build_s"] = ledger["build_s"]
    per_query_us = ledger["factor"] / w.replay * 1e6
    selfs = tracer.self_times()
    for span, metric in _SELF_TIME.items():
        out[metric] += selfs.get(span, (0.0, 0))[0] * per_query_us
    out["engine.resolve_us"] = tracer.inclusive("engine.resolve") * per_query_us
    out["engine.distances_us"] = tracer.inclusive("engine.distances") * per_query_us
    out["protocol.reply_bytes"] = statistics.mean(len(r) for r in replies)
    if w.want_path:
        out["tables.hops"] = statistics.mean(r[10] for r in replies)
    # The server's share of the traced replay, applied to the untraced
    # replay's time, so tracing overhead is not counted as explained.
    traced_total = sum(end - start for _, _, start, end, parent, _ in tracer.spans
                       if parent < 0) / 1e9
    server_share = sum(tracer.inclusive(name) for name in SERVER_ROOTS) / traced_total
    explained = ledger["plain_s"] * server_share / w.replay * 1e6 / raw_cpu_us
    out["server.other_us"] = server_cpu_us * (1.0 - explained)
    out["trace.explained_frac"] = explained
    out["trace.overhead"] = ledger["traced_s"] / ledger["plain_s"]

    c0, c1 = stats0["counters"], stats1["counters"]

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    out["shards.hit_ratio"] = _ratio(delta("shards.hits"),
                                     delta("shards.hits") + delta("shards.misses"))
    out["shards.evictions"] = c1.get("shards.evictions", 0)
    out["routing.cache_hit_ratio"] = _ratio(
        delta("engine.cache_hits"),
        delta("engine.cache_hits") + delta("engine.cache_misses"))
    h0 = stats0["histograms"].get("server.batch_group_size", {})
    h1 = stats1["histograms"].get("server.batch_group_size", {})
    out["batch.group_size"] = _ratio(h1.get("sum", 0) - h0.get("sum", 0),
                                     h1.get("count", 0) - h0.get("count", 0))
    out["server.queue_peak"] = c1.get("server.queue_peak", 0)
    latency = stats1["histograms"].get("server.latency_seconds", {})
    out["server.admit_p50_ms"] = latency.get("p50", 0.0) * 1e3
    out["driver.cpu_us"] = driver_cpu_us
    out["driver.lag_ms"] = quantile(lateness, 0.99) * 1e3
    return out
