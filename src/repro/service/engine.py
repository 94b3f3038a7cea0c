"""Tiered route-query resolution: table → cache/planner → batch.

One :class:`RouteQueryEngine` serves a single DG(d, k) in both
orientations and picks the cheapest tier that can answer:

1. **Compiled table** — when a :class:`~repro.core.tables.
   CompiledRouteTable` of matching orientation is attached (compiled
   in-process or mmap-loaded from a ``compile-tables`` artifact), a
   distance is one byte read and a path is one byte read per hop.
2. **Lazy shards** — when a :class:`~repro.core.shards.
   ShardedRouteTable` is attached instead (big k, where the full O(N²)
   table cannot exist), destinations whose prefix group is resident get
   the same O(1) byte reads; cold destinations fall through to the
   planner while the shard compiles in the background under the byte
   budget.
3. **Cache-backed planner** — otherwise the paper's planner runs on
   the words' digit bytes: Algorithm 1's overlap for directed queries,
   the bit-parallel Theorem-2 kernel
   (:func:`repro.core.distance.undirected_witness_packed`) for
   undirected ones, with the reply's step bytes written straight from
   the witness (:func:`repro.core.routing.witness_steps`).  Answers are
   kept in a :class:`~repro.core.routing.RouteCache` keyed by the packed
   pair and orientation, so steady-state repeats cost one lookup.
4. **One-to-many batch** — distance-only queries that the server's
   micro-batcher coalesced by destination are answered in one sweep:
   undirected groups build the destination's suffix automaton once
   (:func:`repro.core.batch.undirected_distances_many`, valid because
   the undirected distance is symmetric), directed groups hoist the
   :class:`~repro.core.packed.PackedSpace` affix machinery.

Every tier answers through :meth:`RouteQueryEngine.answer` (and
:meth:`~RouteQueryEngine.answer_distances` for coalesced groups) on
packed words, returning the reply's step bytes ready for the wire: the
table and shard tiers emit them straight from the action bytes they
walk, the planner writes them from its witness and the destination's
digit bytes, and the batch tier reads digit tuples off the words' raw
bytes.  :meth:`~RouteQueryEngine.resolve` and
:meth:`~RouteQueryEngine.resolve_distances` are the tuple-word views
of the same code for library callers.

Per-tier counters land in the shared metrics registry so the ``STATS``
frame shows where traffic is actually being served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.batch import undirected_distances_many
from repro.core.distance import undirected_witness_packed
from repro.core.packed import PackedSpace
from repro.core.routing import Path, RouteCache, step_from_action, witness_steps

# Not called here; kept importable because routebench/tracing.py wraps
# ``engine.route`` by name.
from repro.core.routing import route  # noqa: F401
from repro.core.shards import ShardedRouteTable
from repro.core.tables import CompiledRouteTable
from repro.core.word import WordTuple, validate_parameters
from repro.exceptions import ServiceError
from repro.network.message import WILDCARD_BYTE, decode_path, encode_path
from repro.service.metrics import MetricsRegistry

#: A word's digits as the engine's packed entry points take them: the
#: wire's one-byte-per-digit ``bytes`` or a digit tuple.
Digits = Sequence[int]


class RouteQueryEngine:
    """Resolve (source, destination) queries for one DG(d, k).

    ``table`` may be attached at construction or later via
    :meth:`attach_table`; ``cache_size=0`` disables the planner cache
    (every query re-plans — the bench's "uncached planner" leg).  The
    cache holds ``(distance, step bytes)`` per ``(packed source, packed
    destination, directed)``.

    >>> engine = RouteQueryEngine(2, 3)
    >>> distance, path = engine.resolve(
    ...     (0, 0, 1), (1, 1, 1), directed=False, want_path=True)
    >>> distance, [str(step) for step in path]
    (2, ['L1', 'L1'])
    """

    def __init__(
        self,
        d: int,
        k: int,
        table: Optional[CompiledRouteTable] = None,
        cache_size: int = 4096,
        use_wildcards: bool = False,
        registry: Optional[MetricsRegistry] = None,
        shards: Optional[ShardedRouteTable] = None,
    ) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        self.use_wildcards = use_wildcards
        self.cache = RouteCache(maxsize=cache_size) if cache_size > 0 else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.table: Optional[CompiledRouteTable] = None
        self.shards: Optional[ShardedRouteTable] = None
        self.space = PackedSpace(d, k)
        #: Digit byte of the planner's "arbitrarily chosen" steps.
        self._arbitrary = WILDCARD_BYTE if use_wildcards else 0
        #: Action byte → its two-byte wire step (see ``encode_path``).
        self._step_bytes = tuple(
            encode_path([step_from_action(action, d)]) for action in range(2 * d)
        )
        counter = self.registry.lazy_counter
        self._table_lookups = counter("engine.table_lookups")
        self._shard_hits = counter("engine.shard_hits")
        self._shard_fallbacks = counter("engine.shard_fallbacks")
        self._planned = counter("engine.planned")
        self._batched = counter("engine.batched")
        self._batch_flushes = counter("engine.batch_flushes")
        if table is not None:
            self.attach_table(table)
        if shards is not None:
            self.attach_shards(shards)

    def attach_table(self, table: CompiledRouteTable) -> None:
        """Serve matching-orientation queries from ``table`` from now on."""
        if (table.d, table.k) != (self.d, self.k):
            raise ServiceError(
                f"table is for DG({table.d},{table.k}), engine serves "
                f"DG({self.d},{self.k})"
            )
        self.table = table

    def attach_shards(self, shards: ShardedRouteTable) -> None:
        """Serve matching-orientation queries from the lazy shard tier.

        Consulted after the full table (if any) and before the planner;
        cold shard groups fall through to the planner, so attaching
        shards never blocks a query on a compile.
        """
        if (shards.d, shards.k) != (self.d, self.k):
            raise ServiceError(
                f"shards are for DG({shards.d},{shards.k}), engine serves "
                f"DG({self.d},{self.k})"
            )
        self.shards = shards

    def _table_for(self, directed: bool) -> Optional[CompiledRouteTable]:
        table = self.table
        if table is not None and table.directed == directed:
            return table
        return None

    def _shards_for(self, directed: bool) -> Optional[ShardedRouteTable]:
        shards = self.shards
        if shards is not None and shards.directed == directed:
            return shards
        return None

    def has_table(self, directed: bool) -> bool:
        """True when the O(1) tier can answer ``directed`` queries."""
        return self._table_for(directed) is not None

    # -- single-query tiers ---------------------------------------------

    def answer(
        self,
        source: int,
        destination: int,
        source_digits: Digits,
        destination_digits: Digits,
        directed: bool,
        want_path: bool,
    ) -> Tuple[int, bytes]:
        """Answer one query on packed words: ``(distance, step bytes)``.

        ``source``/``destination`` are packed and already validated;
        ``*_digits`` are the same words digit by digit, read only by the
        planner.  The step bytes are the ``REPLY`` path field (empty for
        a distance-only query).  Raises
        :class:`~repro.exceptions.DeBruijnError` subclasses when no
        route exists; the server maps those to ``ERROR`` frames.
        """
        table = self.table
        if table is not None and table.directed == directed:
            self._table_lookups.value += 1
            distance = table.distance_packed(source, destination)
            if not want_path:
                return distance, b""
            return distance, table.walk(source, destination, self._step_bytes)
        shards = self.shards
        if shards is not None and shards.directed == directed:
            answer = shards.resolve_packed(
                source, destination, want_path, self._step_bytes
            )
            if answer is not None:
                self._shard_hits.value += 1
                distance, steps = answer
                return distance, (steps if want_path else b"")
            self._shard_fallbacks.value += 1
        self._planned.value += 1
        cache = self.cache
        key = (source, destination, directed)
        answer = cache.lookup(key) if cache is not None else None
        if answer is None:
            answer = self._plan(
                source, destination, source_digits, destination_digits, directed
            )
            if cache is not None:
                cache.store(key, answer)
        distance, steps = answer
        return distance, (steps if want_path else b"")

    def _plan(
        self,
        source: int,
        destination: int,
        source_digits: Digits,
        destination_digits: Digits,
        directed: bool,
    ) -> Tuple[int, bytes]:
        """The paper's shortest path for one pair: ``(distance, step bytes)``."""
        y = bytes(destination_digits)
        if directed:
            # Algorithm 1: k − l left shifts spelling y_{l+1} .. y_k.
            overlap = self.space.overlap_length(source, destination)
            steps = bytearray(2 * (self.k - overlap))
            steps[1::2] = y[overlap:]
            return self.k - overlap, bytes(steps)
        witness = undirected_witness_packed(source_digits, y)
        return witness.distance, witness_steps(witness, y, self._arbitrary)

    def resolve(
        self,
        source: WordTuple,
        destination: WordTuple,
        directed: bool,
        want_path: bool,
    ) -> Tuple[int, Optional[Path]]:
        """Answer one query on word tuples: ``(distance, path-or-None)``.

        Validates and packs both words, then :meth:`answer`; raises
        :class:`~repro.exceptions.DeBruijnError` subclasses on invalid
        words or a missing route.
        """
        space = self.space
        distance, steps = self.answer(
            space.pack_checked(source),
            space.pack_checked(destination),
            source,
            destination,
            directed,
            want_path,
        )
        return distance, (decode_path(steps) if want_path else None)

    # -- batch tier ------------------------------------------------------

    def answer_distances(
        self,
        destination: int,
        destination_digits: Digits,
        sources: Sequence[int],
        source_digits: Sequence[Digits],
        directed: bool,
    ) -> List[int]:
        """Distances from each packed source to one packed ``destination``.

        The micro-batcher's flush path (``source_digits[i]`` spells
        ``sources[i]``).  With a matching table it is a row of byte
        reads; otherwise one shared structure per flush (suffix
        automaton / packed space) replaces per-query planning.
        """
        table = self._table_for(directed)
        if table is not None:
            self._table_lookups.value += len(sources)
            return [table.distance_packed(px, destination) for px in sources]
        shards = self._shards_for(directed)
        if shards is not None:
            # One reference covers the whole flush: eviction mid-batch
            # cannot split the answers across two shard generations.
            shard = shards.shard_for(destination)
            if shard is not None:
                self._shard_hits.value += len(sources)
                return [shard.distance_packed(px, destination) for px in sources]
            self._shard_fallbacks.value += len(sources)
        self._batched.value += len(sources)
        self._batch_flushes.value += 1
        if directed:
            space = self.space
            return [space.directed_distance(px, destination) for px in sources]
        # Undirected distance is symmetric (Theorem 2), so one automaton
        # of the shared destination answers the whole group.
        return undirected_distances_many(
            tuple(destination_digits), [tuple(digits) for digits in source_digits]
        )

    def resolve_distances(
        self,
        destination: WordTuple,
        sources: Sequence[WordTuple],
        directed: bool,
    ) -> List[int]:
        """Distances from each source tuple to one shared ``destination``.

        Validates and packs every word, then :meth:`answer_distances`.
        """
        space = self.space
        return self.answer_distances(
            space.pack_checked(destination),
            destination,
            [space.pack_checked(source) for source in sources],
            sources,
            directed,
        )

    # -- accounting ------------------------------------------------------

    def stats(self) -> dict:
        """Engine-tier counters plus the planner cache's live counters."""
        if self.cache is not None:
            cache_stats = self.cache.stats()
            self.registry.set_counter("engine.cache_hits", int(cache_stats["hits"]))
            self.registry.set_counter(
                "engine.cache_misses", int(cache_stats["misses"])
            )
            self.registry.set_counter(
                "engine.cache_entries", int(cache_stats["entries"])
            )
        self.registry.set_counter(
            "engine.table_attached", 0 if self.table is None else 1
        )
        self.registry.set_counter(
            "engine.shards_attached", 0 if self.shards is None else 1
        )
        if self.shards is not None:
            for name, value in self.shards.stats().items():
                self.registry.set_counter(f"shards.{name}", int(value))
        return self.registry.snapshot()


@dataclass(frozen=True)
class EngineSpec:
    """A plain-data recipe for building one :class:`RouteQueryEngine`.

    The multi-worker supervisor forks one process per core and each
    worker must build its *own* engine — live objects cannot cross an
    exec boundary, and even under ``fork`` every worker should mmap the
    compiled table file itself so the only shared state is the kernel
    page cache.  A spec captures everything ``serve`` knows how to
    assemble (table path / in-process compile / lazy shards / bare
    planner) as picklable values; :meth:`build` turns it into an engine
    wherever it lands.
    """

    d: int
    k: int
    table_path: Optional[str] = None  #: mmap-load this compiled table
    compile_table: bool = False  #: compile the undirected table in-process
    shards: bool = False  #: attach the lazy sharded tier instead
    shard_byte_budget: int = 512 << 20
    shard_rows: Optional[int] = None
    shard_dir: Optional[str] = None
    shard_threshold: int = 1
    kernel: str = "auto"  #: BFS engine for compiles ("auto"/"array"/"python")
    cache_size: int = 4096
    use_wildcards: bool = False

    def build(
        self, registry: Optional[MetricsRegistry] = None
    ) -> "RouteQueryEngine":
        """Construct the engine this spec describes (see class docs)."""
        table = None
        shard_table = None
        if self.table_path is not None:
            table = CompiledRouteTable.load(self.table_path)
            if (table.d, table.k) != (self.d, self.k):
                raise ServiceError(
                    f"{self.table_path} holds DG({table.d},{table.k}), "
                    f"spec wants DG({self.d},{self.k})"
                )
        elif self.compile_table:
            table = CompiledRouteTable.compile(
                self.d, self.k, kernel=self.kernel
            )
        elif self.shards:
            shard_table = ShardedRouteTable(
                self.d,
                self.k,
                byte_budget=self.shard_byte_budget,
                rows_per_shard=self.shard_rows,
                cache_dir=self.shard_dir,
                kernel=self.kernel,
                compile_threshold=self.shard_threshold,
            )
        return RouteQueryEngine(
            self.d,
            self.k,
            table=table,
            cache_size=self.cache_size,
            use_wildcards=self.use_wildcards,
            registry=registry,
            shards=shard_table,
        )


def build_engine(spec: EngineSpec) -> RouteQueryEngine:
    """Module-level :meth:`EngineSpec.build` (a picklable fork target)."""
    return spec.build()
