"""Process-local metric registry: counters, gauges, fixed-bucket histograms.

Design contract (mirrors the hot-path doctrine in ``repro.lint``):

* **Alloc-free record paths.**  ``Counter.inc`` / ``Gauge.set`` /
  ``Histogram.record`` touch only preallocated state — the histogram's
  bucket edges are a tuple and its counts an ``array('q')`` sized at
  construction, and ``record`` does a ``bisect`` plus an in-place
  increment.  No dict, list, or array construction happens on the record
  path; the ``telemetry.record-alloc`` lint rule enforces this.
* **No numpy.**  The campaign service (``repro serve`` and the catalogue
  commands) records metrics without loading numpy or the learner.
* **No wall clock.**  Nothing in this module reads the wall clock;
  callers time with ``time.perf_counter`` and cross-process timestamps
  are stamped by the catalogue's SQL clock at persist time
  (``Catalog.record_telemetry``).
* **Best-effort under threads.**  Record paths are deliberately
  lock-free (a lost increment under a rare race is acceptable for
  telemetry); the registry lock only guards metric creation and
  ``snapshot``.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from typing import Dict, List, Union

#: Histogram bucket upper edges, in seconds.  They cover campaign work
#: from sub-millisecond store round-trips to multi-second training cells.
DEFAULT_BUCKET_EDGES = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: A zeroed count buffer: one slot per edge plus the overflow slot.
_ZERO_COUNTS = array("q", bytes(8 * (len(DEFAULT_BUCKET_EDGES) + 1)))


class Counter:
    """Monotonically increasing value (floats allowed for seconds totals)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def point(self) -> dict:
        return {"name": self.name, "kind": "counter", "value": float(self.value)}

    def reset(self) -> None:
        self.value = 0.0

    @property
    def empty(self) -> bool:
        return self.value == 0.0


class Gauge:
    """Last-write-wins instantaneous value (queue depth, rates)."""

    kind = "gauge"
    __slots__ = ("name", "value", "updated")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updated = False

    def set(self, value: float) -> None:
        self.value = value
        self.updated = True

    def point(self) -> dict:
        return {"name": self.name, "kind": "gauge", "value": float(self.value)}

    def reset(self) -> None:
        # Gauges keep their last value across flushes; only the dirty bit
        # clears so an unchanged gauge is not re-reported every interval.
        self.updated = False

    @property
    def empty(self) -> bool:
        return not self.updated


class Histogram:
    """Fixed-bucket histogram over preallocated edges and counts.

    ``record`` is alloc-free: a ``bisect_left`` over the edge tuple plus an
    in-place increment of the ``array('q')`` count buffer.  Bucket ``i``
    counts values ``<= edges[i]`` of :data:`DEFAULT_BUCKET_EDGES` (the bucket
    ``np.searchsorted`` picks); the final slot is the overflow bucket, which
    also takes NaN, as ``searchsorted`` sorts it last.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "counts", "sum", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.edges = DEFAULT_BUCKET_EDGES
        self.counts = array("q", _ZERO_COUNTS)
        self.sum = 0.0
        self.count = 0

    def record(self, value: float) -> None:
        # NaN compares false against every edge, so bisect would put it first.
        if value == value:
            self.counts[bisect_left(self.edges, value)] += 1
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def point(self) -> dict:
        return {
            "name": self.name,
            "kind": "histogram",
            "value": float(self.sum),
            "count": int(self.count),
            "buckets": {
                "edges": [float(edge) for edge in self.edges],
                "counts": [int(c) for c in self.counts],
            },
        }

    def reset(self) -> None:
        self.counts[:] = _ZERO_COUNTS
        self.sum = 0.0
        self.count = 0

    @property
    def empty(self) -> bool:
        return self.count == 0


Metric = Union[Counter, Gauge, Histogram]


class NullMetric:
    """Shared do-nothing stand-in returned when telemetry is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass


NULL_METRIC = NullMetric()


class MetricRegistry:
    """Name-keyed store of process-local metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}, "
                    f"requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def snapshot(self, reset: bool = True) -> List[dict]:
        """Return points for every metric that changed since the last reset."""
        with self._lock:
            points = []
            for metric in self._metrics.values():
                if metric.empty:
                    continue
                points.append(metric.point())
                if reset:
                    metric.reset()
            return points
