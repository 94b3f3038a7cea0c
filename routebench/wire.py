"""Server process control and the raw-socket load driver.

The driver sends pre-encoded ``QUERY`` frames and, inside a timed
window, only walks the reply length prefixes to count answers.  The
raw reply bytes are kept and verified after the window, so the
driver's own cost per query stays small next to the server's.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.service.protocol import (
    Frame,
    FrameType,
    decode_stats_reply,
    encode_stats_request,
)

_LENGTH = struct.Struct("!I")
_RID_AT = 5  #: request id offset inside a frame (after length + type)
MIN_REPLY = 11  #: bytes in the shortest REPLY frame (distance, no steps)
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def proc_cpu_seconds(pid: int) -> float:
    """CPU time (user + system) of every thread of ``pid``.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds), falling
    back to the clock-tick utime + stime of ``/proc/<pid>/stat``.
    """
    try:
        total = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                continue  # the thread ended between listdir and open
        return total / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine, all CPUs summed."""
    with open("/proc/stat", "rb") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def proc_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE / 1e6


def cli_command(root: str, args: List[str]) -> Tuple[List[str], Dict[str, str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return [sys.executable, "-m", "repro.cli"] + args, env


class ServerProcess:
    """One ``serve`` worker process launched the way an operator does."""

    def __init__(self, root: str, args: List[str], log_path: str) -> None:
        command, env = cli_command(root, args)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, env=env, cwd=root, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self.pid = self.proc.pid
        try:
            self.port = self._read_port()
        except BaseException:
            # Also on SIGTERM: the caller never gets this object to stop.
            self.stop()
            raise

    def _read_port(self) -> int:
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if " on " not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM, then SIGKILL; always reaps, its process group too.

        Not SIGINT: a process started from a background job inherits
        SIGINT as ignored, and the server would never see it.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.communicate(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            end_group(self.proc)
            self.proc.communicate()
            self._log.close()


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A helper forked by a child (a compile worker, the multiprocessing
    resource tracker) is then re-parented here when that child ends,
    so :func:`end_group` can reap it instead of leaving it to init.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> None:
    """Reap every ended child of this process in process group ``pgid``."""
    while True:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_group(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Reap ``proc`` and wait until its process group is empty.

    ``proc`` must have been started with ``start_new_session=True``.
    If it is still running, its whole group is killed.  Helpers it
    forked, such as compile workers or the multiprocessing resource
    tracker, can outlive it by a moment; any still there after
    ``grace`` seconds are killed.
    """
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    deadline = time.monotonic() + grace
    killed = False
    while True:
        _reap_group(proc.pid)
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            if killed:
                raise RuntimeError(f"process group {proc.pid} would not end")
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.005)


def run_to_end(command: List[str], env: Dict[str, str], cwd: str,
               timeout: float) -> None:
    """Run ``command`` to completion in a process group of its own.

    On return, by success or by any exception, no process of that
    group is left.  A non-zero exit raises ``CalledProcessError``.
    """
    proc = subprocess.Popen(command, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        end_group(proc)
    if code:
        raise subprocess.CalledProcessError(code, command)


def stop_resource_tracker() -> None:
    """Stop and reap this process's multiprocessing resource tracker.

    A parallel table compile run in this process starts one; left
    alone, it ends only after this process has exited.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


#: An idle-priority busy loop that exits once its parent is gone.
_SPIN = """import os, sys
parent = int(sys.argv[1])
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == parent:
    pass
"""


@contextmanager
def cpus_kept_awake():
    """Keep every CPU busy at idle priority for the ``with`` block.

    In a virtual machine an idle CPU is handed back to the host, and
    waking it again can take milliseconds when the host is busy; with
    the server and driver idling between open-loop bursts, that
    wake-up delay, not the program, set the latency median.  A busy
    loop at idle priority yields to any other thread at once, so the
    CPUs stay awake without taking time from the server or driver.
    """
    spinners = []
    try:
        for _ in range(len(os.sched_getaffinity(0))):
            spinners.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(os.getpid())],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


@dataclass
class Capture:
    """Raw reply bytes from one phase plus what was sent."""

    sent: int = 0
    chunks: List[bytes] = field(default_factory=list)
    answered: int = 0  #: reply frames seen (REPLY or ERROR)

    def data(self) -> bytes:
        return b"".join(self.chunks)


def count_frames(buf: bytes, offset: int) -> Tuple[int, int]:
    """Complete frames in ``buf[offset:]`` by length prefix: (n, new offset)."""
    n = 0
    end = len(buf)
    unpack = _LENGTH.unpack_from
    while end - offset >= 4:
        (length,) = unpack(buf, offset)
        if end - offset - 4 < length:
            break
        offset += 4 + length
        n += 1
    return n, offset


def split_frames(data: bytes) -> List[Tuple[int, int, bytes]]:
    """Every complete frame as (type, request id, body)."""
    out = []
    offset = 0
    end = len(data)
    while end - offset >= 9:
        (length,) = _LENGTH.unpack_from(data, offset)
        if end - offset - 4 < length:
            break
        ftype = data[offset + 4]
        (rid,) = _LENGTH.unpack_from(data, offset + _RID_AT)
        out.append((ftype, rid, data[offset + 9:offset + 4 + length]))
        offset += 4 + length
    return out


class Driver:
    """One raw TCP connection driving the server from a stream."""

    def __init__(self, port: int, stream) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = stream
        self.seq = 0  #: next stream position to send
        self._stats_rid = 0xFFFF0000

    def close(self) -> None:
        self.sock.close()

    def _recv(self) -> bytes:
        data = self.sock.recv(1 << 18)
        if not data:
            raise ConnectionError("server closed the connection")
        return data

    def stats(self) -> dict:
        """A STATS round trip; only call with nothing in flight."""
        self._stats_rid += 1
        self.sock.sendall(encode_stats_request(self._stats_rid))
        buf = b""
        while True:
            buf += self._recv()
            frames = split_frames(buf)
            if frames:
                ftype, rid, body = frames[0]
                if ftype != FrameType.STATS_REPLY or rid != self._stats_rid:
                    raise RuntimeError("unexpected frame while waiting for STATS")
                return decode_stats_reply(Frame(FrameType.STATS_REPLY, rid, body))

    def ask(self, rids: List[int]) -> Capture:
        """Send the frames of ``rids`` and wait for every reply."""
        cap = Capture(sent=len(rids))
        self.sock.sendall(b"".join(self.stream.frames(rid, 1) for rid in rids))
        self._drain(cap, b"")
        return cap

    def burst(self, count: int, window: int) -> Capture:
        """Closed-loop ``count`` queries at ``window`` in flight, untimed."""
        cap = Capture()
        sendall, recv, frames = self.sock.sendall, self._recv, self.stream.frames
        first = min(window, count)
        sendall(frames(self.seq, first))
        self.seq += first
        cap.sent = first
        pending = b""
        while cap.answered < count:
            data = recv()
            cap.chunks.append(data)
            pending += data
            n, offset = count_frames(pending, 0)
            pending = pending[offset:]
            cap.answered += n
            more = min(n, count - cap.sent)
            if more > 0:
                sendall(frames(self.seq, more))
                self.seq += more
                cap.sent += more
        return cap

    def closed_loop(self, seconds: float, window: int, pid: int, speedo):
        """Flat out at ``window`` in flight for ``seconds``.

        ``speedo`` (a :class:`speed.Speedometer`) ticks in the gaps.
        Returns (capture, replies inside the window, window seconds,
        server CPU seconds, driver CPU seconds without the probe).
        """
        cap = Capture()
        sendall, recv, frames = self.sock.sendall, self._recv, self.stream.frames
        clock = time.perf_counter
        # Wake only once replies to a quarter of the window can have
        # arrived, so the server always holds three quarters of it; at
        # least ``window`` replies of >= MIN_REPLY bytes are outstanding,
        # so the threshold is always reachable.
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVLOWAT,
                             window // 4 * MIN_REPLY)
        cpu0 = proc_cpu_seconds(pid)
        dcpu0 = time.process_time()
        start = clock()
        end = start + seconds
        sendall(frames(self.seq, window))
        self.seq += window
        cap.sent = window
        pending = b""
        in_window = 0
        now = start
        while now < end:
            data = recv()
            now = clock()
            cap.chunks.append(data)
            pending += data
            n, offset = count_frames(pending, 0)
            if offset:
                pending = pending[offset:]
            in_window += n
            sendall(frames(self.seq, n))
            self.seq += n
            cap.sent += n
            speedo.tick(now)
        elapsed = now - start
        server_cpu = proc_cpu_seconds(pid) - cpu0
        driver_cpu = time.process_time() - dcpu0 - speedo.seconds
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVLOWAT, 1)
        cap.answered = in_window
        self._drain(cap, pending)
        return cap, in_window, elapsed, server_cpu, driver_cpu

    def open_loop(self, seconds: float, rate: float, burst: int, speedo):
        """Send on a fixed schedule; time each reply from its due time.

        Queries fall due ``burst`` at a time, ``burst / rate`` seconds
        apart.  ``speedo`` ticks between sends.  Returns (capture,
        latencies in s, lateness samples in s).
        """
        cap = Capture()
        sock, stream = self.sock, self.stream
        slots = stream.slots
        due_at = [0.0] * slots
        latencies: List[float] = []
        batches: List[Tuple[float, int, int]] = []
        clock = time.perf_counter
        unpack = _LENGTH.unpack_from
        interval = burst / rate
        total = max(burst, int(seconds * rate) // burst * burst)
        t0 = clock() + 0.001
        sent = 0
        pending = b""
        answered = 0
        base = self.seq
        while answered < total:
            now = clock()
            if sent < total:
                due = min(total, (int((now - t0) / interval) + 1) * burst)
                if due > sent:
                    for j in range(sent, due):
                        due_at[(base + j) % slots] = t0 + j // burst * interval
                    batches.append((now, sent, due))
                    sock.sendall(stream.frames(base + sent, due - sent))
                    sent = due
                wait = t0 + sent // burst * interval - clock()
            else:
                wait = 1.0
            readable, _, _ = select.select([sock], [], [], max(0.0, wait))
            if not readable:
                continue
            data = self._recv()
            now = clock()
            cap.chunks.append(data)
            pending += data
            offset = 0
            end = len(pending)
            while end - offset >= 9:
                (length,) = unpack(pending, offset)
                if end - offset - 4 < length:
                    break
                (rid,) = unpack(pending, offset + _RID_AT)
                # A refused query misses every latency limit.
                if pending[offset + 4] == FrameType.REPLY:
                    latencies.append(now - due_at[rid])
                else:
                    latencies.append(float("inf"))
                offset += 4 + length
                answered += 1
            pending = pending[offset:]
            speedo.tick(now)
        lateness = [
            sent_at - (t0 + j // burst * interval)
            for sent_at, first, stop in batches
            for j in range(first, stop)
        ]
        self.seq = base + sent
        cap.sent = sent
        cap.answered = answered
        return cap, latencies, lateness

    def _drain(self, cap: Capture, pending: bytes) -> None:
        """Read until every query of ``cap`` is answered."""
        while cap.answered < cap.sent:
            data = self._recv()
            cap.chunks.append(data)
            pending += data
            n, offset = count_frames(pending, 0)
            pending = pending[offset:]
            cap.answered += n


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
