"""Independent answers to check every reply against.

Distances come from a breadth-first search over the undirected DG(d, k)
written here with numpy (one row per destination, the undirected
distance being symmetric), or, for the planner-path pool whose
destinations are too many for BFS rows, from the suffix-automaton
distance of :mod:`repro.core.batch` cross-checked on a sample against
the paper's Theorem 2 (:func:`repro.core.distance.undirected_distance`).
Paths are checked with :func:`repro.core.routing.verify_path` and must
be exactly as long as the distance.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.batch import undirected_distances_many
from repro.core.distance import undirected_distance
from repro.core.routing import verify_path
from repro.exceptions import WirePathError
from repro.network.message import decode_path

from workloads import Word, pack

_UNSEEN = 255


def bfs_rows(d: int, k: int, destinations: List[int]) -> np.ndarray:
    """``dist[v, i]`` = undirected distance from packed ``v`` to ``destinations[i]``.

    Node-major, so each level's neighbour gather copies whole rows.
    """
    order = d ** k
    nodes = np.arange(order, dtype=np.int64)
    shifts = []
    for digit in range(d):
        shifts.append((nodes * d) % order + digit)  # type-L neighbours
        shifts.append(nodes // d + digit * (order // d))  # type-R neighbours
    columns = np.arange(len(destinations))
    dist = np.full((order, len(destinations)), _UNSEEN, dtype=np.uint8)
    dist[destinations, columns] = 0
    frontier = np.zeros((order, len(destinations)), dtype=bool)
    frontier[destinations, columns] = True
    level = 0
    while frontier.any():
        level += 1
        # Undirected: v is next to the frontier iff one of its own
        # neighbours is in it.
        reach = frontier[shifts[0]]
        for shift in shifts[1:]:
            reach |= frontier[shift]
        frontier = reach
        frontier &= dist == _UNSEEN
        dist[frontier] = level
    return dist


class Oracle:
    """Expected distance for every request id of a stream."""

    def __init__(self, stream) -> None:
        w = stream.workload
        self.d = w.d
        self.stream = stream
        self._memo: Dict[Tuple[Word, Word], int] = {}
        self._rows: Optional[np.ndarray] = None
        if w.tier == "planner":
            self._check_against_theorem2()
            return
        dests = sorted({pack(y, w.d) for _, y in stream.pairs})
        self._row_of = {dest: i for i, dest in enumerate(dests)}
        self._rows = bfs_rows(w.d, w.k, dests)

    def _check_against_theorem2(self, samples: int = 48) -> None:
        rng = random.Random(0)
        for x, y in rng.sample(self.stream.pairs, samples):
            if self.pair_distance(x, y) != undirected_distance(x, y):
                raise RuntimeError("oracle disagrees with Theorem 2")

    def pair_distance(self, x: Word, y: Word) -> int:
        if self._rows is not None:
            return int(self._rows[pack(x, self.d), self._row_of[pack(y, self.d)]])
        key = (x, y)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = undirected_distances_many(y, [x])[0]
        return found

    def distance(self, rid: int) -> int:
        x, y = self.stream.pairs[rid]
        return self.pair_distance(x, y)


def check_body(oracle: Oracle, rid: int, body: bytes, want_path: bool) -> Optional[str]:
    """None when a REPLY body is right for request ``rid``, else why not."""
    stream = oracle.stream
    if rid >= stream.slots:
        return f"reply to unknown request id {rid}"
    if len(body) < 2 or len(body) != 2 + 2 * body[1]:
        return f"rid {rid}: malformed reply body"
    distance, steps = body[0], body[1]
    expected = oracle.distance(rid)
    if distance != expected:
        return f"rid {rid}: distance {distance}, oracle {expected}"
    if not want_path:
        return None if steps == 0 else f"rid {rid}: path on a distance-only reply"
    if steps != distance:
        return f"rid {rid}: {steps}-step path for distance {distance}"
    try:
        path = decode_path(body[2:])
    except WirePathError as exc:
        return f"rid {rid}: undecodable path ({exc})"
    x, y = stream.pairs[rid]
    if not verify_path(x, y, path, oracle.d):
        return f"rid {rid}: path does not lead to the destination"
    return None


def check_decoded(oracle: Oracle, pair: Tuple[Word, Word], distance: int,
                  path, want_path: bool) -> Optional[str]:
    """The same check for a reply decoded by the repo's client."""
    x, y = pair
    expected = oracle.pair_distance(x, y)
    if distance != expected:
        return f"client reply distance {distance}, oracle {expected}"
    if want_path and (len(path) != distance or not verify_path(x, y, path, oracle.d)):
        return "client reply path is not a shortest path"
    if not want_path and path:
        return "client reply carries a path on a distance-only query"
    return None


def verify_frames(oracle: Oracle, frames: Iterable[Tuple[int, int, bytes]],
                  want_path: bool, seen: Dict[int, bytes]) -> Tuple[int, int, int, List[str]]:
    """Check every REPLY once per distinct (rid, body); count ERRORs.

    Returns (replies, verified replies, errors, problems).
    """
    replies = verified = errors = 0
    problems: List[str] = []
    for ftype, rid, body in frames:
        if ftype == 2:  # ERROR
            errors += 1
            continue
        if ftype != 1:
            problems.append(f"unexpected frame type {ftype}")
            continue
        replies += 1
        if seen.get(rid) != body:
            problem = check_body(oracle, rid, body, want_path)
            if problem:
                problems.append(problem)
                continue
            seen[rid] = body
        verified += 1
    return replies, verified, errors, problems


def negative_check(oracle: Oracle, seen: Dict[int, bytes], want_path: bool) -> List[str]:
    """The verifier must reject a corrupted distance and an invalid path."""
    rid, body = next(iter(seen.items()))
    problems = []
    bad_distance = bytes([body[0] ^ 1]) + body[1:]
    if check_body(oracle, rid, bad_distance, want_path) is None:
        problems.append("verifier accepted a corrupted distance byte")
    if want_path and body[1]:
        # Flip the last step's digit: that digit survives into the
        # final word, so the path lands elsewhere.
        bad_path = body[:-1] + bytes([(body[-1] + 1) % oracle.d])
    else:
        bad_path = bytes([body[0], 1, 0, 0]) + body[2:]
    if check_body(oracle, rid, bad_path, want_path) is None:
        problems.append("verifier accepted an invalid path")
    return problems
