"""Metrics collection: registry primitives and the MetricsObserver.

:class:`MetricsRegistry` is a small counters/gauges/histograms registry
(the usual production-monitoring shapes, kept dependency-free);
:class:`MetricsObserver` populates one from engine events:

- ``messages_total`` / ``publishes_total`` / ``rounds_total`` /
  ``halted_total`` / ``failed_total`` — counters;
- ``payload_bytes_total`` — counter of estimated published bytes
  (:func:`estimate_payload_bytes`; the LOCAL model's messages are
  unbounded, so this measures what an implementation *would* ship);
- ``awake_fraction`` / ``round_payload_bytes`` — per-round histograms;
- ``halt_round`` / ``locality_radius`` — per-vertex histograms, the
  latter via ball-growth accounting: a stepping vertex's information
  radius grows to ``1 + max(radius published by its neighbors)``,
  mirroring how :class:`repro.algorithms.ball.BallCollection` grows
  views.  A vertex's radius at halt is the locality it actually
  consumed — for shattering algorithms this stays far below the
  deterministic diameter bound.

Summaries are plain JSON-safe dicts so :func:`repro.analysis.run_sweep`
can pickle them back from forked workers; :func:`merge_summaries`
combines them deterministically (counters add, gauges take the max,
histograms pool their moments) and refuses summaries it cannot merge
faithfully (foreign schema, newer version, unknown metric type).

The observer reads whole round batches, column by column: plain-list
columns (the per-node engines and the sharded backend) in pure Python,
numpy columns (the vectorized backend) as array reductions.  Both
paths produce the *same summary*, a contract pinned per backend by the
observer-neutrality relation in :mod:`repro.verify`.  Histogram totals
stay exact under bulk accumulation because every observed value is an
integer far below 2**53 (or a single per-round float computed
identically on both paths).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import RunMeta, RunResult, SETUP_ROUND, flat_adjacency
from .observer import RoundBatch, RunObserver

#: Schema version written by :meth:`MetricsObserver.summary`.  v2 added
#: the run-outcome counters (``runs_succeeded_total`` etc.) and the
#: recomputable ``derived`` block; v1 summaries still merge.
SUMMARY_VERSION = 2

#: Deterministic size charged for objects whose ``repr`` would embed a
#: memory address (default ``object.__repr__``) — never call that repr,
#: it would break byte-identical summaries across runs.
_OPAQUE_OBJECT_BYTES = 16


def estimate_payload_bytes(value: Any) -> int:
    """Deterministic estimate of a published value's wire size.

    Not a serialization — a stable accounting rule: primitives cost
    their natural width, containers cost framing plus contents, and
    opaque objects cost a flat :data:`_OPAQUE_OBJECT_BYTES` (their
    ``repr`` may embed addresses, which would poison determinism).
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(estimate_payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(
            estimate_payload_bytes(k) + estimate_payload_bytes(v)
            for k, v in value.items()
        )
    if type(value).__repr__ is object.__repr__:
        return _OPAQUE_OBJECT_BYTES
    return len(repr(value).encode("utf-8"))


class Counter:
    """Monotonic count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming moments: count, total, min, max (no buckets — the
    distributions we watch are small and summaries must merge)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
        }


class MetricsRegistry:
    """Name -> metric, get-or-create, snapshot to a plain dict."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, factory: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe dump of every metric, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }


class MetricsObserver(RunObserver):
    """Populate a :class:`MetricsRegistry` from engine events.

    One instance may watch several runs (every phase of a driver under
    :func:`repro.core.observe_runs`); counters and histograms aggregate
    across runs, per-run locality state resets at each
    ``on_run_start``.  Setup-round publishes are folded into the first
    round's payload accounting.

    Each batch is accumulated column-wise: plain-list columns in pure
    Python, numpy columns with numpy.  The first numpy batch of a run
    moves its locality state into numpy arrays, and ball-growth becomes
    one CSR segment reduction per round — same numbers, no per-vertex
    Python work.
    """

    checkpoint_capable = True

    def checkpoint_state(self) -> Any:
        """Resumable position: the whole accumulated-metrics state.

        Everything mutable lives in ``__dict__`` (registry, curves,
        per-run locality arrays), and all of it is plain data or numpy
        arrays — picklable by construction.  The snapshot is taken at a
        round boundary, between batches.
        """
        return dict(self.__dict__)

    def restore_checkpoint(self, state: Any) -> None:
        if state is None:
            self.__init__()  # type: ignore[misc]
            return
        self.__dict__.clear()
        self.__dict__.update(state)

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.runs = 0
        #: Per-run, per-round curve: list (over runs) of lists of dicts.
        self.round_curves: List[List[Dict[str, Any]]] = []
        self._n = 0
        self._graph: Any = None
        self._radius: List[int] = []
        self._pub_radius: List[int] = []
        self._pending_radius: Dict[int, int] = {}
        self._round_payload = 0
        self._round_publishes = 0
        # Numpy-mode locality state (vectorized-backend runs only).
        self._vec = False
        self._radius_np: Any = None
        self._pub_radius_np: Any = None
        self._pending_np: List[Tuple[Any, Any]] = []
        self._csr: Any = None

    def on_run_start(self, meta: RunMeta) -> None:
        self.runs += 1
        self.round_curves.append([])
        self._n = meta.n
        self._graph = meta.graph
        self._radius = [0] * meta.n
        self._pub_radius = [0] * meta.n
        self._pending_radius = {}
        self._round_payload = 0
        self._round_publishes = 0
        self._vec = False
        self._radius_np = None
        self._pub_radius_np = None
        self._pending_np = []
        self._csr = None

    def on_round_batch(self, batch: RoundBatch) -> None:
        if not self._vec and (
            hasattr(batch.stepped, "dtype")
            or hasattr(batch.published, "dtype")
            or hasattr(batch.halted_verts, "dtype")
        ):
            self._enter_vector_mode()
        if self._vec:
            payload, radii = self._columns_np(batch)
        else:
            payload, radii = self._columns_list(batch)
        registry = self.registry
        r = batch.round_index
        for _, fault in batch.faults:
            self._count_fault(fault)
        npub = len(batch.published)
        if npub:
            registry.counter("publishes_total").inc(npub)
            registry.counter("payload_bytes_total").inc(payload)
            self._round_payload += payload
            self._round_publishes += npub
        nhalt = len(batch.halted_verts)
        if nhalt:
            registry.counter("halted_total").inc(nhalt)
            _observe_bulk(
                registry.histogram("halt_round"), nhalt, r * nhalt, r, r
            )
            if radii is not None:
                _observe_bulk(
                    registry.histogram("locality_radius"), nhalt, *radii
                )
        nfail = len(batch.failed)
        if nfail:
            registry.counter("failed_total").inc(nfail)
        if r == SETUP_ROUND:
            return
        registry.counter("rounds_total").inc()
        registry.counter("messages_total").inc(batch.messages)
        fraction = batch.awake / self._n if self._n else 0.0
        registry.histogram("awake_fraction").observe(fraction)
        registry.histogram("round_payload_bytes").observe(
            self._round_payload
        )
        self.round_curves[-1].append(
            {
                "round": r,
                "awake": batch.awake,
                "halted": batch.halted,
                "messages": batch.messages,
                "publishes": self._round_publishes,
                "payload_bytes": self._round_payload,
            }
        )
        self._round_payload = 0
        self._round_publishes = 0

    def on_run_fault(self, round_index: int, fault: Any) -> None:
        self._count_fault(fault)

    def on_run_end(self, result: RunResult) -> None:
        if self._vec:
            if self._radius_np is not None and self._n:
                self.registry.gauge("max_locality_radius").set(
                    int(self._radius_np.max())
                )
        elif self._radius:
            self.registry.gauge("max_locality_radius").set(
                max(self._radius)
            )
        # Run-outcome accounting for the empirical failure-probability
        # story (RandLOCAL algorithms promise failure probability
        # ≤ 1/n): pure counters, so sweep merges stay order-insensitive
        # and the rates can be recomputed after any merge (see
        # ``derived`` in :meth:`summary`).
        if result.failures:
            self.registry.counter("runs_failed_total").inc()
        else:
            self.registry.counter("runs_succeeded_total").inc()
        self.registry.counter("runs_vertices_total").inc(self._n)

    def _count_fault(self, fault: Any) -> None:
        # Injected-fault accounting (see repro.faults): a global count
        # plus one counter per fault kind, so merged sweep telemetry
        # reports exactly what the adversary did.
        self.registry.counter("faults_total").inc()
        self.registry.counter(f"faults_{fault.kind}_total").inc()

    # -- the column-type-specific part of a batch ----------------------
    #
    # Both return the batch's total payload bytes and the (sum, min,
    # max) of its halting vertices' locality radii (None without
    # locality tracking), after ball-growth accounting: publishes
    # staged last round (or in setup) became visible at this round
    # boundary, so their information radii are committed first —
    # exactly like the engine's double buffering commits values — then
    # every stepping vertex grows its radius to one more than its
    # farthest-reaching neighbor's, and this round's publishes are
    # staged with their grown radii.

    def _columns_list(
        self, batch: RoundBatch
    ) -> Tuple[int, Optional[Tuple[int, int, int]]]:
        """Plain-list columns, in pure Python."""
        radius = self._radius
        if batch.round_index != SETUP_ROUND:
            pub_radius = self._pub_radius
            for v, staged in self._pending_radius.items():
                pub_radius[v] = staged
            self._pending_radius = {}
            graph = self._graph
            if graph is not None:
                for v in batch.stepped:
                    grown = radius[v]
                    for u in graph.neighbors(v):
                        reach = pub_radius[u] + 1
                        if reach > grown:
                            grown = reach
                    radius[v] = grown
        payload = 0
        if len(batch.published):
            payload = sum(batch.publish_bytes())
            if radius:
                pending = self._pending_radius
                for v in batch.published:
                    pending[v] = radius[v]
        if not (radius and len(batch.halted_verts)):
            return payload, None
        radii = [radius[v] for v in batch.halted_verts]
        return payload, (sum(radii), min(radii), max(radii))

    def _enter_vector_mode(self) -> None:
        """Move this run's locality state into numpy arrays."""
        import numpy as np

        self._vec = True
        self._radius_np = np.asarray(self._radius, dtype=np.int64)
        self._pub_radius_np = np.asarray(self._pub_radius, dtype=np.int64)
        pending = self._pending_radius
        self._pending_np = [
            (
                np.fromiter(pending.keys(), np.int64, len(pending)),
                np.fromiter(pending.values(), np.int64, len(pending)),
            )
        ]
        self._pending_radius = {}
        if self._graph is not None and self._n:
            offsets, targets = flat_adjacency(self._graph)
            self._csr = (
                np.asarray(offsets, dtype=np.int64),
                np.asarray(targets, dtype=np.int64),
            )

    def _columns_np(
        self, batch: RoundBatch
    ) -> Tuple[int, Optional[Tuple[int, int, int]]]:
        """Numpy columns (or empty ones), with numpy."""
        import numpy as np

        track_radius = self._n > 0
        if batch.round_index != SETUP_ROUND:
            for verts, radii in self._pending_np:
                self._pub_radius_np[verts] = radii
            self._pending_np = []
            if self._csr is not None and len(batch.stepped):
                self._grow_radii_np(np, np.asarray(batch.stepped))
        payload = 0
        if len(batch.published):
            sizes = np.asarray(batch.publish_bytes(), dtype=np.int64)
            payload = int(sizes.sum())
            if track_radius:
                published = np.asarray(batch.published)
                self._pending_np.append(
                    (published, self._radius_np[published])
                )
        if not (track_radius and len(batch.halted_verts)):
            return payload, None
        radii = self._radius_np[np.asarray(batch.halted_verts)]
        return payload, (int(radii.sum()), int(radii.min()), int(radii.max()))

    def _grow_radii_np(self, np: Any, stepped: Any) -> None:
        """Ball-growth for all stepping vertices as one CSR segment
        reduction — the numpy twin of :meth:`_columns_list`'s loop."""
        offsets, targets = self._csr
        starts = offsets[stepped]
        counts = offsets[stepped + 1] - starts
        seg_off = np.zeros(stepped.size + 1, dtype=np.int64)
        np.cumsum(counts, out=seg_off[1:])
        total = int(seg_off[-1])
        if total == 0:
            return
        ptr = np.repeat(np.arange(stepped.size, dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - seg_off[ptr]
        reach = self._pub_radius_np[targets[starts[ptr] + within]] + 1
        padded = np.append(reach, np.int64(0))
        grown = np.maximum.reduceat(padded, seg_off[:-1])
        grown[seg_off[:-1] == seg_off[1:]] = 0
        self._radius_np[stepped] = np.maximum(
            self._radius_np[stepped], grown
        )

    # -- summaries ------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Plain JSON-safe dict: scalar metrics, no per-round curves.

        This is what :func:`repro.analysis.run_sweep` ships back from
        forked workers and merges across cells — keep it picklable and
        deterministic.  The ``derived`` block (empirical failure rate
        vs the 1/n target) is recomputed from counters, both here and
        after every :func:`merge_summaries`, so it stays correct under
        any merge order.
        """
        metrics = self.registry.snapshot()
        return {
            "schema": "repro.obs.metrics",
            "version": SUMMARY_VERSION,
            "runs": self.runs,
            "metrics": metrics,
            "derived": _derived_block(metrics),
        }


def _observe_bulk(
    hist: Histogram,
    count: int,
    total: int,
    vmin: float,
    vmax: float,
) -> None:
    """Fold ``count`` integer observations summing to ``total`` into
    ``hist`` at once.  Exact twin of ``count`` scalar ``observe``
    calls: integer partial sums are float-exact below 2**53."""
    hist.count += count
    hist.total += total
    if hist.min is None or vmin < hist.min:
        hist.min = vmin
    if hist.max is None or vmax > hist.max:
        hist.max = vmax


def _counter_value(metrics: Dict[str, Any], name: str) -> int:
    snap = metrics.get(name)
    return snap["value"] if snap and snap.get("type") == "counter" else 0


def _derived_block(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Rates recomputed from counters — never merged directly, so they
    stay consistent regardless of merge order.

    ``empirical_failure_rate`` is the fraction of observed runs with at
    least one failed vertex; ``failure_rate_target`` is the paper's
    1/n promise, generalized to runs/total-vertices so uniform-n sweeps
    read exactly 1/n.
    """
    failed = _counter_value(metrics, "runs_failed_total")
    succeeded = _counter_value(metrics, "runs_succeeded_total")
    vertices = _counter_value(metrics, "runs_vertices_total")
    finished = failed + succeeded
    derived: Dict[str, Any] = {}
    if finished:
        derived["runs_observed"] = finished
        derived["empirical_failure_rate"] = failed / finished
    if vertices:
        derived["failure_rate_target"] = finished / vertices
    return derived


_METRIC_TYPES = ("counter", "gauge", "histogram")


def _merge_metric(
    name: str, a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    if a["type"] != b["type"]:
        raise ValueError(
            f"metric {name!r} has conflicting types: "
            f"{a['type']} vs {b['type']}"
        )
    if a["type"] == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if a["type"] == "gauge":
        return {"type": "gauge", "value": max(a["value"], b["value"])}
    count = a["count"] + b["count"]
    total = a["total"] + b["total"]
    mins = [x["min"] for x in (a, b) if x["min"] is not None]
    maxs = [x["max"] for x in (a, b) if x["max"] is not None]
    return {
        "type": "histogram",
        "count": count,
        "total": total,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": (total / count) if count else None,
    }


#: Every top-level section this build knows how to merge.  ``derived``
#: is recomputable from the merged counters, so dropping an *input's*
#: derived block is faithful; any other unrecognized section is not.
_SUMMARY_KEYS = frozenset(
    {"schema", "version", "runs", "metrics", "derived"}
)


def _check_mergeable(summary: Dict[str, Any]) -> None:
    """Refuse summaries this code cannot merge faithfully — silently
    dropping (or mis-adding) a newer schema's keys would corrupt sweep
    telemetry without a trace."""
    schema = summary.get("schema", "repro.obs.metrics")
    if schema != "repro.obs.metrics":
        raise ValueError(
            f"cannot merge foreign summary schema {schema!r}"
        )
    version = summary.get("version", 1)
    if not isinstance(version, int) or version > SUMMARY_VERSION:
        raise ValueError(
            f"cannot merge metrics summary version {version!r}: this "
            f"build understands versions 1..{SUMMARY_VERSION} — "
            "upgrade before merging"
        )
    unknown = sorted(set(summary) - _SUMMARY_KEYS)
    if unknown:
        raise ValueError(
            f"cannot merge metrics summary with unknown section(s) "
            f"{unknown} — merging would silently drop them"
        )
    for name, snap in summary.get("metrics", {}).items():
        kind = snap.get("type") if isinstance(snap, dict) else None
        if kind not in _METRIC_TYPES:
            raise ValueError(
                f"metric {name!r} has unknown type {kind!r} "
                "(newer schema?) — refusing to merge"
            )


def merge_summaries(
    summaries: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Deterministically combine :meth:`MetricsObserver.summary` dicts.

    Counters add, gauges keep the maximum, histograms pool moments, and
    the ``derived`` rates are recomputed from the merged counters.
    Merging is order-insensitive for counters/histograms and reduced
    with ``max`` for gauges, so any grid order yields the same result
    — the bit-identical-to-serial contract ``run_sweep`` tests rely on.

    Raises :class:`ValueError` on anything that cannot be merged
    faithfully: a foreign schema, a summary version newer than
    :data:`SUMMARY_VERSION`, or a metric of unknown type.  (v1
    summaries merge fine; the result is always emitted at the current
    version.)
    """
    merged: Dict[str, Any] = {
        "schema": "repro.obs.metrics",
        "version": SUMMARY_VERSION,
        "runs": 0,
        "metrics": {},
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        _check_mergeable(summary)
        merged["runs"] += summary.get("runs", 0)
        for name, snap in summary.get("metrics", {}).items():
            if name in metrics:
                metrics[name] = _merge_metric(name, metrics[name], snap)
            else:
                metrics[name] = dict(snap)
    merged["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    merged["derived"] = _derived_block(merged["metrics"])
    return merged


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "SETUP_ROUND",
    "SUMMARY_VERSION",
    "estimate_payload_bytes",
    "merge_summaries",
]
