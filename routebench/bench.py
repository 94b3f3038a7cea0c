"""One benchmark run: set-ups, timed rounds, verification, metrics.

See ``run.py`` for the command line and ``README.md`` for what is
measured and why.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from dataclasses import dataclass, field

from metrics import (
    END_TO_END,
    PER_LAYER,
    ROUND_METRICS,
    layer_metrics,
    over_rounds,
    replay_ledger,
)
from oracle import Oracle, check_decoded, negative_check, verify_frames
from speed import Speedometer
from wire import (
    Driver,
    ServerProcess,
    cli_command,
    cpus_kept_awake,
    proc_rss_mb,
    quantile,
    run_to_end,
    split_frames,
    steal_seconds,
    stop_resource_tracker,
)
from workloads import Stream, pack

from repro.core.tables import CompiledRouteTable
from repro.service.client import RobustRouteClient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10  #: closed-loop / open-loop / client-burst rounds per run


@dataclass
class Load:
    """What the timed rounds sent and saw."""

    captures: list  #: raw-socket captures, warm-up first
    bursts: list = field(default_factory=list)  #: (pairs, client outcome)
    rounds: list = field(default_factory=list)  #: per-round raw figures
    served: int = 0  #: closed-loop replies inside the timed windows
    server_cpu: float = 0.0  #: server CPU seconds over those windows
    driver_cpu: float = 0.0  #: driver CPU seconds over those windows
    latencies: list = field(default_factory=list)  #: open-loop, seconds
    lateness: list = field(default_factory=list)  #: open-loop sends, seconds
    steal: float = 0.0  #: CPU seconds the hypervisor took meanwhile


class RunFailed(Exception):
    """A set-up step failed; the run has no result."""


class Bench:
    """One run of one workload; :meth:`run` returns (result, extra)."""

    def __init__(self, workload, args, work: str) -> None:
        self.w = workload
        self.args = args
        self.work = work
        self.stream = Stream(workload, args.seed)
        self.oracle = Oracle(self.stream)
        self.table_file = os.path.join(work, f"dg{workload.d}-{workload.k}.routes")
        self.server = None
        self.driver = None
        self.problems = []
        self.notes = []

    # -- set-up ------------------------------------------------------------

    def launch(self):
        """Bring one replica up.

        Returns (seconds to its first verified reply, speed factor
        measured beside the launch).
        """
        w = self.w
        speedo = Speedometer()
        with speedo.ticking():
            start = time.perf_counter()
            if w.tier == "table":
                command, env = cli_command(
                    ROOT, ["compile-tables", "-d", str(w.d), "-k", str(w.k),
                           "--output", self.table_file])
                run_to_end(command, env, ROOT, timeout=120)
            self.server = ServerProcess(ROOT, w.serve_args(self.table_file),
                                        os.path.join(self.work, "serve.log"))
            self.driver = Driver(self.server.port, self.stream)
            if w.tier == "shards":
                self._warm_shards()
            self._check_probe(self.driver.ask([0]))
            elapsed = time.perf_counter() - start
        return elapsed, speedo.factor()

    def _warm_shards(self) -> None:
        """Ask each hot group once, then wait until every one is resident."""
        w, stream = self.w, self.stream
        firsts = {}
        for rid, (_, y) in enumerate(stream.pairs):
            firsts.setdefault(pack(y, w.d) // w.shard_rows, rid)
        self._check_probe(self.driver.ask([firsts[g] for g in stream.hot_groups]))
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            counters = self.driver.stats()["counters"]
            if (counters.get("shards.resident_shards", 0) >= w.hot_groups
                    and counters.get("shards.pending", 1) == 0):
                return
            time.sleep(0.01)
        raise RunFailed("hot shard groups never became resident")

    def _check_probe(self, capture) -> None:
        _, verified, errors, problems = verify_frames(
            self.oracle, split_frames(capture.data()), self.w.want_path, {})
        if problems or errors or verified != capture.sent:
            raise RunFailed(f"set-up probe failed: {problems or errors}")

    def stop_server(self) -> None:
        if self.driver is not None:
            self.driver.close()
            self.driver = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the run -----------------------------------------------------------

    def run(self):
        try:
            return self._run()
        finally:
            try:
                self.stop_server()
            finally:
                stop_resource_tracker()

    def _run(self):
        w, args = self.w, self.args
        table_times = {}
        if args.trace and w.tier == "table":
            table_times = self._table_build_times()
        setups, setup_factors = [], []
        for i in range(1 if args.trace else w.setups):
            if i:
                self.stop_server()
            seconds, speed = self.launch()
            setups.append(seconds)
            setup_factors.append(speed)
        stats0 = self.driver.stats()
        load = self._load()
        stats1 = self.driver.stats()
        rss = proc_rss_mb(self.server.pid)
        self.stop_server()
        ledger = replay_ledger(self) if args.trace else None

        self._inject(load.captures[1])
        sent = sum(c.sent for c in load.captures) + sum(len(p) for p, _ in load.bursts)
        verified, errors = self._verify(load.captures, load.bursts, stats0, stats1)
        driver_cpu_us = load.driver_cpu / load.served * 1e6
        if driver_cpu_us >= load.server_cpu / load.served * 1e6:
            self.problems.append(
                f"driver busier than the server ({driver_cpu_us:.1f} us per "
                f"query): no headroom")
        if not any(x != float("inf") for x in load.latencies):
            self.problems.append("no open-loop query was answered")
        e2e = self._end_to_end(load, setups, setup_factors)
        e2e.update({"rss_mb": rss, "ok_frac": verified / sent})
        speed = statistics.median(r["factors"][0] for r in load.rounds)
        if args.trace:
            values = layer_metrics(
                self, ledger, stats0, stats1, e2e["server_cpu_us"],
                load.server_cpu / load.served * 1e6, driver_cpu_us * speed,
                load.lateness, table_times)
            values["machine.speed"] = speed
        else:
            values = e2e
        units = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": not self.problems,
            "attempted": sent,
            "failed": sent - verified,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        extra = {"setups": setups, "setup_factors": setup_factors,
                 "rounds": load.rounds, "sent": sent, "verified": verified,
                 "errors": errors, "speed": speed, "e2e": e2e,
                 "problems": self.problems, "notes": self.notes}
        return result, extra

    def _load(self) -> "Load":
        """Warm up, then run the rounds; every reply is kept for checking."""
        w, driver, pid = self.w, self.driver, self.server.pid
        load = Load(captures=[driver.burst(w.warmup, w.window)])
        # Alternate the phases so that each metric samples the whole run
        # and a slow stretch of the machine moves few of its medians.
        phase = self.args.seconds / (2 * ROUNDS)
        load.steal = -steal_seconds()
        for _ in range(ROUNDS):
            gc.collect()
            closed_speed = Speedometer()
            closed, n, elapsed, cpu, dcpu = driver.closed_loop(
                phase, w.window, pid, closed_speed)
            gc.collect()
            open_speed = Speedometer()
            with cpus_kept_awake():
                opened, lat, late = driver.open_loop(phase, w.offered_qps,
                                                     w.open_burst, open_speed)
            pairs = self.stream.pairs_from(driver.seq, w.client_burst)
            driver.seq += w.client_burst
            client_speed = Speedometer()
            warm, outcome, client_cpu = asyncio.run(
                self._client_burst(pairs, client_speed))
            load.captures += [closed, opened]
            load.bursts += [(pairs[:len(warm.replies)], warm), (pairs, outcome)]
            load.served += n
            load.server_cpu += cpu
            load.driver_cpu += dcpu
            load.latencies += lat
            load.lateness += late
            load.rounds.append({
                "qps": n / elapsed, "server_cpu_us": cpu / n * 1e6,
                "p50_ms": quantile(lat, 0.5) * 1e3,
                "client_cpu_us": client_cpu / len(pairs) * 1e6,
                "factors": (closed_speed.factor(), open_speed.factor(),
                            client_speed.factor())})
        load.steal += steal_seconds()
        return load

    def _end_to_end(self, load: "Load", setups, setup_factors) -> dict:
        """The scaled figures over the rounds; raw ones go to the notes."""
        # Scale each round's and each launch's figures to the reference
        # speed measured beside them.  A launch is mostly imports and
        # compiling, CPU-bound like the rounds: whole runs fell in host
        # stretches where it took 0.30 s or 0.48 s, which more launches
        # per run cannot average out.
        scaled = []
        for r in load.rounds:
            closed_f, open_f, client_f = r["factors"]
            scaled.append({"qps": r["qps"] / closed_f,
                           "server_cpu_us": r["server_cpu_us"] * closed_f,
                           "p50_ms": r["p50_ms"] * open_f,
                           "client_cpu_us": r["client_cpu_us"] * client_f})
        latencies = load.latencies
        p99 = quantile(latencies, 0.99) * 1e3
        self.notes.append(
            f"open loop: {len(latencies)} samples at {self.w.offered_qps:g} qps, "
            f"p99_ms {p99:.4g} ({len(latencies) - int(0.99 * len(latencies))} beyond), "
            f"driver lag p99 {quantile(load.lateness, 0.99) * 1e3:.4g} ms")
        self.notes.append("setup_s per launch (raw): "
                          + ", ".join(f"{s:.4f}" for s in setups))
        speed = statistics.median(r["factors"][0] for r in load.rounds)
        self.notes.append(
            "raw (unscaled): " + ", ".join(
                f"{name} {over_rounds(name, [r[name] for r in load.rounds]):.5g}"
                for name in ROUND_METRICS)
            + f", setup_s {statistics.median(setups):.5g}"
            + f"; machine at {speed:.3f} of the reference speed, "
            f"{load.steal:.2f} CPU-s stolen by the host")
        out = {name: over_rounds(name, [s[name] for s in scaled])
               for name in ROUND_METRICS}
        out["setup_s"] = statistics.median(
            s * f for s, f in zip(setups, setup_factors))
        return out

    def _inject(self, target) -> None:
        """``--inject``: corrupt the first reply of ``target`` in place."""
        if not self.args.inject:
            return
        data = bytearray(target.data())
        body_len = int.from_bytes(data[0:4], "big") - 5
        at = 9  # body offset of the first frame
        if self.args.inject == "distance":
            data[at] ^= 1
        elif data[at + 1]:
            # Flip the last step's digit: the path now ends elsewhere.
            data[at + body_len - 1] = (data[at + body_len - 1] + 1) % self.w.d
        else:
            data[at + 1] = 1  # claim a step on a distance-only reply
        target.chunks = [bytes(data)]

    def _verify(self, captures, bursts, stats0, stats1):
        """Check every reply and the STATS counters.

        Returns (verified replies, errors); a reply that fails its check
        counts as missed.
        """
        w = self.w
        seen = {}
        replies = verified = errors = 0
        for capture in captures:
            frames = split_frames(capture.data())
            if len(frames) != capture.sent:
                self.problems.append(
                    f"{capture.sent - len(frames)} queries unanswered")
            r, v, e, problems = verify_frames(self.oracle, frames, w.want_path, seen)
            replies += r
            verified += v
            errors += e
            self.problems += problems[:5]
        for pairs, outcome in bursts:
            for pair, reply in zip(pairs, outcome.replies):
                if not reply.ok:
                    errors += 1
                    continue
                replies += 1
                problem = check_decoded(self.oracle, pair, reply.distance,
                                        reply.path, w.want_path)
                if problem:
                    self.problems.append(problem)
                else:
                    verified += 1
        if not seen:
            self.problems.append("no reply to verify")
        else:
            self.problems += negative_check(self.oracle, seen, w.want_path)
        self._check_stats(stats0, stats1, replies)
        return verified, errors

    def _check_stats(self, stats0, stats1, replies) -> None:
        c0, c1 = stats0["counters"], stats1["counters"]

        def delta(name):
            return c1.get(name, 0) - c0.get(name, 0)

        if delta("server.replies") != replies:
            self.problems.append(
                f"server.replies moved {delta('server.replies')}, "
                f"driver saw {replies} replies")
        tier = {"table": "engine.table_lookups", "shards": "engine.shard_hits",
                "planner": "engine.planned", "batch": "engine.batched"}[self.w.tier]
        if delta(tier) < 0.999 * replies:
            self.problems.append(
                f"{tier} answered {delta(tier)} of {replies} queries")
        if self.w.tier == "shards" and delta("engine.shard_fallbacks"):
            self.problems.append(
                f"{delta('engine.shard_fallbacks')} shard fallbacks after set-up")

    async def _client_burst(self, pairs, speedo):
        """One timed ``query_many`` burst with ``speedo`` ticking beside it.

        Returns (warm-up outcome, outcome, client CPU seconds).
        """

        w = self.w
        client = RobustRouteClient("127.0.0.1", self.server.port, d=w.d, pool_size=1)
        try:
            warm = await client.query_many(pairs[:32], want_path=w.want_path,
                                           window=w.window)
            gc.collect()
            done = asyncio.Event()
            beside = asyncio.create_task(speedo.run_beside(done))
            cpu0 = time.process_time()
            outcome = await client.query_many(pairs, want_path=w.want_path,
                                              window=w.window)
            cpu = time.process_time() - cpu0
            done.set()
            await beside
        finally:
            await client.close()
        return warm, outcome, cpu - speedo.seconds

    def _table_build_times(self):
        """Compile, save and mmap-load the table in-process (traced run)."""
        start = time.perf_counter()
        table = CompiledRouteTable.compile(self.w.d, self.w.k)
        compiled = time.perf_counter()
        path = os.path.join(self.work, "inproc.routes")
        table.save(path)
        saved = time.perf_counter()
        CompiledRouteTable.load(path).close()
        loaded = time.perf_counter()
        os.unlink(path)
        return {"compile.table_s": compiled - start, "tables.save_s": saved - compiled,
                "tables.load_s": loaded - saved}

