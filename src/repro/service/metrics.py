"""Counters and fixed-bucket latency histograms for the query service.

A deliberately small, dependency-free registry in the Prometheus style:
monotonic :class:`Counter` values plus :class:`Histogram` observations
binned into a *fixed* set of upper-bound buckets chosen at construction.
Fixed buckets keep ``observe`` O(log buckets) with zero allocation —
safe inside the server's hot path — while still answering p50/p95/p99
by linear interpolation inside the winning bucket (the standard
``histogram_quantile`` estimate; exact enough at the default 5 %
bucket-to-bucket resolution, and tested against sorted-sample quantiles).

The whole registry serialises to a plain dict (:meth:`MetricsRegistry.
snapshot`) which the server ships over the ``STATS`` frame and the CLI
writes with ``--stats-json``.  Snapshots carry the raw bucket counts, so
:meth:`MetricsRegistry.merge` can fold many workers' snapshots into one
fleet-wide registry bucket-wise: merged quantiles are exactly the
quantiles of the concatenated observation streams (same buckets, summed
counts, min-of-mins / max-of-maxes) — the multi-process supervisor's
``STATS`` aggregation path.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 22 geometric steps, ~50 µs .. ~10 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    5e-05 * (1.75**i) for i in range(22)
)


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with quantile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything beyond the last edge.

    >>> h = Histogram("demo", bounds=(1.0, 2.0, 4.0))
    >>> for v in (0.5, 1.5, 1.6, 3.0):
    ...     h.observe(v)
    >>> h.count, round(h.total, 1)
    (4, 6.6)
    >>> 1.0 <= h.quantile(0.5) <= 2.0
    True
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "_min", "_max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) from the buckets.

        Linear interpolation inside the bucket holding the q-th
        observation, clamped to the observed min/max so tails never
        over-report beyond what was actually seen.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self._max
                )
                fraction = (rank - seen) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self._min), self._max)
            seen += bucket_count
        return self._max  # pragma: no cover - defensive (rank <= count)

    def merge_snapshot(self, row: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        The other histogram must have identical bucket bounds — merging
        is a bucket-wise count addition, so the merged quantile estimate
        equals the estimate of a single histogram that observed both
        streams.  Raises :class:`ValueError` on a bounds mismatch or a
        summary-only snapshot (one without ``bounds``/``counts``).
        """
        bounds = row.get("bounds")
        counts = row.get("counts")
        if bounds is None or counts is None:
            raise ValueError(
                f"histogram {self.name}: snapshot has no bucket data to merge"
            )
        if tuple(float(b) for b in bounds) != self.bounds:
            raise ValueError(f"histogram {self.name}: bucket bounds differ")
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name}: bucket count mismatch")
        other_count = int(row["count"])
        if other_count == 0:
            return
        for index, bucket_count in enumerate(counts):
            self.counts[index] += int(bucket_count)
        self.count += other_count
        self.total += float(row["sum"])
        self._min = min(self._min, float(row["min"]))
        self._max = max(self._max, float(row["max"]))

    def snapshot(self) -> Dict[str, object]:
        """The summary row exported over the wire (plus raw buckets)."""
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self._min if self.count else 0.0,
            "max": self._max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named counters and histograms with one-call snapshot export.

    ``counter`` / ``histogram`` are get-or-create and return the same
    object for the same name, so modules can look metrics up lazily
    without coordinating construction order.
    """

    __slots__ = ("_counters", "_histograms", "_unlisted")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: :meth:`lazy_counter` counters that have not moved yet.
        self._unlisted: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        found = self._counters.get(name)
        if found is None:
            found = self._unlisted.pop(name, None) or Counter(name)
            self._counters[name] = found
        return found

    def lazy_counter(self, name: str) -> Counter:
        """The counter :meth:`counter` returns for ``name``, held for a hot path.

        Hot paths bump ``.value`` on the returned object directly.  It
        appears in snapshots once it has moved (or once ``counter(name)``
        is called), exactly as if it had been created on first use.
        """
        found = self._counters.get(name) or self._unlisted.get(name)
        if found is None:
            found = self._unlisted[name] = Counter(name)
        return found

    def _list_moved(self) -> None:
        unlisted = self._unlisted
        for name in [name for name, c in unlisted.items() if c.value]:
            self._counters[name] = unlisted.pop(name)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram under ``name`` (created with ``bounds`` on first use)."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS
            )
        return found

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``registry.counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    def set_counter(self, name: str, value: int) -> None:
        """Force a counter to an externally computed total (gauge-style)."""
        counter = self.counter(name)
        if value < counter.value:
            counter.value = value
        else:
            counter.inc(value - counter.value)

    def merge(self, other_snapshot: Dict[str, object]) -> None:
        """Fold one :meth:`snapshot` dict into this registry.

        Counters add; histograms merge bucket-wise (identical bounds
        required, see :meth:`Histogram.merge_snapshot`).  Calling this
        once per worker snapshot on a fresh registry yields the
        fleet-wide view the supervisor serves over ``STATS``: summed
        counters, and latency quantiles computed over the union of every
        worker's observations.
        """
        counters = other_snapshot.get("counters", {})
        if isinstance(counters, dict):
            for name, value in counters.items():
                self.counter(name).inc(int(value))
        histograms = other_snapshot.get("histograms", {})
        if isinstance(histograms, dict):
            for name, row in histograms.items():
                bounds = row.get("bounds")
                if bounds is None:
                    raise ValueError(
                        f"histogram {name}: snapshot has no bucket data"
                    )
                self.histogram(name, bounds=bounds).merge_snapshot(row)

    def snapshot(self) -> Dict[str, object]:
        """Everything, as plain JSON-serialisable types."""
        self._list_moved()
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }
