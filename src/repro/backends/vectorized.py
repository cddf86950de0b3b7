"""The ``"vectorized"`` backend: whole rounds as numpy kernels.

Instead of stepping vertices one Python call at a time, this backend
executes each communication round as a handful of array operations over
the CSR adjacency from :func:`repro.core.engine.flat_adjacency`:
inbox *gathers* become fancy indexing on ``targets``, per-vertex
aggregation becomes segment reductions over the CSR offsets, and the
dirty-commit pass becomes a masked scatter.  That is what makes the
paper's asymptotic regime (n = 10^6–10^7, experiment E5) reachable —
see ``docs/performance.md`` for the design and measured speedups.

**Bit-identity contract.**  A registered :class:`RoundKernel` is a
vectorized *reimplementation* of one algorithm's ``setup``/``step``;
the parameterized equivalence relation (``repro.verify``) pins its
RunResult — outputs, rounds, messages, failures — to the scalar
engines.  RandLOCAL kernels consume the exact same per-vertex
``random.Random`` streams in the exact same per-vertex draw order, so
even sampled executions match draw-for-draw.

**One round loop.**  The backend is the shared runner,
:func:`repro.core.engine.run_stepped`, with the stepper factory
:func:`_kernel_stepper`; its numpy-kernel stepper runs in
:func:`repro.core.engine.run_rounds`, which owns the guards, bulk
skips and observer lifecycle for every backend.  The stepper adds
wake buckets over index arrays, crash-stop accounting,
one :meth:`RoundKernel.step` call per round and the round's
:class:`~repro.obs.RoundBatch`, with numpy vertex columns and the
published values kernels report through
:meth:`VectorRun.record_publish`.  Observers of any kind ride along:
the resulting telemetry (metrics summaries, trace bytes) is identical
to the other engines'.

**Fallback rules.**  The factory decides once per run, before the run
starts or resumes, and returns None — the runner then steps per node —
whenever vectorized execution could not be bit-identical or is
impossible:

- no kernel is registered for the algorithm's type;
- the active fault plan touches messages (drop/duplicate/corrupt need
  materialized per-port inboxes) — round budgets and crash-stop
  faults stay on the vectorized path (the :class:`RoundKernel`
  contract scatters published state only for ``awake`` vertices, so a
  crashed vertex's last published value stays frozen);
- constructing the :class:`VectorRun` or the kernel raises a
  non-:class:`~repro.core.errors.ReproError` (ill-typed inputs);
- the kernel's ``supports()`` veto — unusual configurations (oversized
  palettes, missing inputs) where the scalar path is the spec.

A kernel ``setup()`` error ends the run; it never falls back.  The
fallback is an implementation detail: callers always observe
engine-identical behavior, including error behavior and telemetry.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.algorithm import SyncAlgorithm
from ..core.context import Model
from ..core.engine import (
    RunResult,
    Stepper,
    checked_ids,
    flat_adjacency,
    run_stepped,
)
from ..core.errors import FaultEvent, ReproError, SimulationError
from ..graphs.graph import Graph
from ..obs.observer import RoundBatch
from .mt19937 import VectorMT

#: Sentinel distinguishing "no constant value" in record_publish.
_NO_VALUE = object()

#: Kernel registry: algorithm class -> RoundKernel subclass.
_KERNELS: Dict[type, Type["RoundKernel"]] = {}

_kernels_imported = False


def register_kernel(
    algorithm_cls: type,
) -> Callable[[Type["RoundKernel"]], Type["RoundKernel"]]:
    """Class decorator registering a kernel for one algorithm type."""

    def decorate(kernel_cls: Type["RoundKernel"]) -> Type["RoundKernel"]:
        _KERNELS[algorithm_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(algorithm: SyncAlgorithm) -> Optional[Type["RoundKernel"]]:
    """The registered kernel class for ``algorithm`` (exact type match)."""
    _ensure_kernels()
    return _KERNELS.get(type(algorithm))


def _ensure_kernels() -> None:
    """Import the shipped kernel definitions exactly once."""
    global _kernels_imported
    if not _kernels_imported:
        from ..algorithms import kernels  # noqa: F401  (registration side effect)

        _kernels_imported = True


# ---------------------------------------------------------------------------
# Segment helpers over CSR slices
# ---------------------------------------------------------------------------


def edge_slices(
    offsets: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR edge slots owned by ``verts``, segment-shaped.

    Returns ``(e, seg_off, ptr)``: ``e`` lists the CSR slot index of
    every edge of every vertex in ``verts`` (port order preserved),
    ``seg_off`` are the per-vertex segment offsets into ``e`` (length
    ``len(verts) + 1``), and ``ptr[j]`` is the position in ``verts`` of
    the vertex owning ``e[j]``.
    """
    starts = offsets[verts]
    counts = offsets[verts + 1] - starts
    seg_off = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_off[1:])
    total = int(seg_off[-1])
    ptr = np.repeat(
        np.arange(verts.size, dtype=np.int64), counts
    )
    within = np.arange(total, dtype=np.int64) - seg_off[ptr]
    e = starts[ptr] + within
    return e, seg_off, ptr


def segment_or(values: np.ndarray, seg_off: np.ndarray) -> np.ndarray:
    """Per-segment bitwise OR (identity 0) of ``values`` partitioned by
    ``seg_off``; safe for empty segments (degree-0 vertices)."""
    nseg = seg_off.size - 1
    if values.size == 0:
        return np.zeros(nseg, dtype=np.int64)
    padded = np.append(values, values.dtype.type(0))
    out = np.bitwise_or.reduceat(padded, seg_off[:-1])
    out[seg_off[:-1] == seg_off[1:]] = 0
    return out


_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(masks: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount for numpy < 2.0 (no
    ``np.bitwise_count``).  Inputs are non-negative int64 masks."""
    x = masks.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & _SWAR_M1)
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    return ((x * _SWAR_H01) >> np.uint64(56)).astype(np.int64)


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount(masks: np.ndarray) -> np.ndarray:
        """Per-element set-bit count of non-negative int64 masks."""
        return np.bitwise_count(masks).astype(np.int64)

else:  # pragma: no cover — exercised directly by the test suite
    popcount = _popcount_swar


# ---------------------------------------------------------------------------
# The run handle kernels execute against
# ---------------------------------------------------------------------------


class VectorRun:
    """Shared state of one vectorized run, handed to the kernel.

    The stepper and the shared round loop own scheduling (wake
    buckets, bulk skip, crashes, budgets); the kernel owns the
    algorithm state and publishes.  Kernels report lifecycle changes
    through :meth:`halt` and :meth:`sleep` — the exact analogues of
    ``ctx.halt`` and ``ctx.sleep_until``.
    """

    def __init__(
        self,
        graph: Graph,
        model: Model,
        *,
        ids: Optional[Sequence[int]],
        seed: Optional[int],
        node_inputs: Optional[Sequence[Dict[str, Any]]],
        global_params: Optional[Dict[str, Any]],
        rng_factory: Optional[Any],
        allow_duplicate_ids: bool,
    ) -> None:
        n = graph.num_vertices
        ids = checked_ids(n, model, ids, allow_duplicate_ids)
        self.ids: Optional[np.ndarray] = None
        if ids is not None:
            try:
                self.ids = np.asarray([int(x) for x in ids], dtype=np.int64)
            except OverflowError:
                pass  # kernels needing IDs must veto
        self.seed = seed
        #: Custom per-vertex stream factories cannot be vectorized;
        #: RandLOCAL kernels must veto when this is set.
        self.rng_factory = rng_factory
        self._vector_rng: Optional[VectorMT] = None
        self.graph = graph
        self.model = model
        self.n = n
        self.num_edges = graph.num_edges
        self.max_degree = graph.max_degree
        offsets_list, targets_list = flat_adjacency(graph)
        self.offsets = np.asarray(offsets_list, dtype=np.int64)
        self.targets = np.asarray(targets_list, dtype=np.int64)
        self.node_inputs = node_inputs
        self.globals: Dict[str, Any] = dict(global_params or {})
        self.halted = np.zeros(n, dtype=bool)
        self.wake = np.full(n, -1, dtype=np.int64)
        self.outputs: List[Any] = [None] * n
        self.failures: Dict[int, str] = {}
        #: Vertices halted in the round being executed (stepper-reset).
        self.halted_this_round = 0
        #: True when observers are attached; kernels must then report
        #: publishes via :meth:`record_publish` (a no-op otherwise, so
        #: the unobserved hot path pays one bool test).
        self.observing = False
        self._pub_segments: List[Tuple[np.ndarray, Any, Any, Any, Any]] = []
        self._halt_segments: List[Tuple[np.ndarray, List[Any]]] = []

    def vector_rng(self, min_words: int = 64) -> VectorMT:
        """The run's per-vertex random streams as one :class:`VectorMT`.

        Built lazily (DET runs and vetoed kernels never pay for it)
        from the same master-seed derivation as ``make_node_rngs``, so
        vertex ``v``'s stream is bit-identical to the scalar engines'
        ``ctx.random``.  ``min_words`` is the kernel's per-vertex draw
        budget hint (only the first call sizes the buffer; outrunning
        it stays correct, just slower).
        """
        if self._vector_rng is None:
            if self.rng_factory is not None:
                raise SimulationError(
                    "custom rng_factory streams cannot be vectorized"
                )
            master = random.Random(self.seed)
            seeds = np.fromiter(
                (master.getrandbits(64) for _ in range(self.n)),
                dtype=np.uint64,
                count=self.n,
            )
            self._vector_rng = VectorMT(seeds, min_words=min_words)
        return self._vector_rng

    def halt(self, verts: np.ndarray, outputs: Any) -> None:
        """Halt ``verts`` with per-vertex ``outputs`` (array or list).

        Output values are converted to plain Python objects so the
        RunResult (and anything serialized from it) is byte-identical
        to the scalar engines'.
        """
        if verts.size == 0:
            return
        self.halted[verts] = True
        self.halted_this_round += int(verts.size)
        values = (
            outputs.tolist()
            if isinstance(outputs, np.ndarray)
            else outputs
        )
        out = self.outputs
        for v, value in zip(verts.tolist(), values):
            out[v] = value
        if self.observing:
            self._halt_segments.append(
                (
                    verts,
                    values if isinstance(outputs, np.ndarray) else list(values),
                )
            )

    def record_publish(
        self,
        verts: np.ndarray,
        values: Any = None,
        *,
        value_const: Any = _NO_VALUE,
        values_fn: Optional[Callable[[], Sequence[Any]]] = None,
        payload_bytes: Any = None,
    ) -> None:
        """Report this round's published values for ``verts``.

        A no-op unless the run is observed (:attr:`observing`), so
        kernels call it unconditionally at every scatter site.  The
        reported values must be *exactly* what the scalar algorithm
        passes to ``ctx.publish`` for those vertices — the
        observer-neutrality relation pins trace bytes across backends.

        Exactly one of three value forms must be given: ``values`` (a
        sequence/array aligned with ``verts``), ``value_const`` (one
        shared value for every vertex), or ``values_fn`` (a thunk
        returning the aligned sequence, called only if an observer
        actually needs materialized values — payload-value traces).
        ``payload_bytes`` optionally pre-computes
        :func:`repro.obs.estimate_payload_bytes` per vertex (an aligned
        int array, or one int for all) so byte accounting never has to
        materialize values; omit it to let observers derive sizes from
        the values themselves.
        """
        if not self.observing or verts.size == 0:
            return
        if values is None and value_const is _NO_VALUE and values_fn is None:
            raise TypeError(
                "record_publish needs values, value_const, or values_fn"
            )
        self._pub_segments.append(
            (verts, payload_bytes, values, value_const, values_fn)
        )

    def sleep(self, verts: np.ndarray, wake_rounds: np.ndarray) -> None:
        """Park ``verts`` until their ``wake_rounds`` (absolute)."""
        self.wake[verts] = wake_rounds


class RoundKernel:
    """Vectorized implementation of one algorithm's rounds.

    Subclasses implement:

    - ``supports(algorithm, run)`` — veto configurations the kernel
      cannot reproduce bit-identically (the backend then falls back to
      the per-node engine, which is the spec);
    - ``setup()`` — mirror ``algorithm.setup`` for all ``run.n``
      vertices (initial publishes, setup halts via ``run.halt``,
      sleeps via ``run.sleep``);
    - ``step(awake, round_index)`` — mirror one synchronous round for
      the scheduled vertex set ``awake``.  Reads must use pre-round
      published state only (gather before scatter — the vectorized
      double buffering).

    ``setup()`` must accept whatever the constructor accepted: convert
    inputs in ``__init__`` and veto in ``supports()``, because a
    ``setup()`` error is the run's error, never a fallback.

    A kernel must also keep crash-stop fidelity: published state it
    gathers from is scattered only for vertices in ``awake``, so a
    crashed vertex's last published value stays frozen exactly as in
    the scalar engines (which simply stop stepping it).  Crash-stop
    plans therefore never force a fallback.
    """

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        self.run = run
        self.algorithm = algorithm

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        return True

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, awake: np.ndarray, round_index: int) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Batch assembly: kernel-recorded publish values -> one lazy column
# ---------------------------------------------------------------------------


def _merged_values_fn(
    pubs: List[Tuple[np.ndarray, Any, Any, Any, Any]],
    order: Optional[np.ndarray],
) -> Callable[[], List[Any]]:
    """Thunk materializing the round's published values in vertex
    order, deferring per-vertex Python object construction until an
    observer actually asks (payload-value traces, generic replay)."""

    def materialize() -> List[Any]:
        parts: List[Any] = []
        for verts, _pb, values, const, fn in pubs:
            if values is not None:
                parts.extend(
                    values.tolist()
                    if isinstance(values, np.ndarray)
                    else values
                )
            elif fn is not None:
                parts.extend(fn())
            else:
                parts.extend([const] * int(verts.size))
        if order is not None:
            return [parts[i] for i in order.tolist()]
        return parts

    return materialize


# ---------------------------------------------------------------------------
# The numpy-kernel stepper
# ---------------------------------------------------------------------------


class _KernelStepper(Stepper):
    """The numpy-kernel stepper (see "One round loop" above)."""

    format = "vector"

    def __init__(self, kernel: RoundKernel, faults: Optional[Any]) -> None:
        self.kernel = kernel
        self.run = kernel.run
        self.faults = faults
        self.backend_info = ("vectorized", type(kernel).__name__)
        self.crash_round: Optional[np.ndarray] = None
        if faults is not None and faults.crashes:
            self.crash_round = np.full(
                self.run.n, np.iinfo(np.int64).max, dtype=np.int64
            )
            for v, at in faults.crashes.items():
                self.crash_round[v] = at
        #: wake round -> vertices parked until that round (index arrays).
        self.buckets: Dict[int, np.ndarray] = {}
        self.runnable = np.empty(0, dtype=np.int64)
        self.parked = 0
        # The batch columns of the round just stepped.
        self.stepped: Any = ()
        self.crashed: Any = ()
        self.crash_reasons: List[str] = []
        self.crash_faults: List[Tuple[int, FaultEvent]] = []

    def setup(self) -> None:
        self.kernel.setup()

    def capture(self, rounds: int, messages: int) -> Dict[str, Any]:
        """The ``"vector"`` snapshot.

        It holds the kernel's columnar algorithm state (its
        ``__dict__`` minus the ``run``/``algorithm`` back-references),
        the run's lifecycle arrays (halt flags, wake rounds, outputs,
        failures), and the :class:`~repro.backends.mt19937.VectorMT`
        depth and draw cursors.  The MT output buffer itself is *not*
        stored — it regenerates bit-exactly from the seeds at restore,
        keeping snapshots O(n) instead of O(words × n).  Values are
        referenced, not copied: the caller pickles the payload
        synchronously at the round boundary, before any further
        mutation.
        """
        kernel = self.kernel
        run = self.run
        rng = run._vector_rng
        return {
            "format": "vector",
            "rounds": rounds,
            "messages": messages,
            "kernel": {
                key: value
                for key, value in kernel.__dict__.items()
                if key not in ("run", "algorithm")
            },
            "halted": run.halted,
            "wake": run.wake,
            "outputs": run.outputs,
            "failures": run.failures,
            "rng": (
                None
                if rng is None
                else {"words": rng.words, "pos": rng.pos}
            ),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Applied to a freshly constructed kernel in place of setup()."""
        run = self.run
        for key, value in payload["kernel"].items():
            setattr(self.kernel, key, value)
        run.halted[:] = payload["halted"]
        run.wake[:] = payload["wake"]
        run.outputs[:] = payload["outputs"]
        run.failures.clear()
        run.failures.update(payload["failures"])
        rng_state = payload["rng"]
        if rng_state is not None:
            # min_words sizes the regenerated buffer to the snapshot's
            # depth up front (one refill instead of grow-and-replay).
            rng = run.vector_rng(min_words=int(rng_state["words"]))
            rng.restore_positions(rng_state["pos"])

    def schedule(self, rounds: int) -> None:
        run = self.run
        alive = ~run.halted
        parked_mask = alive & (run.wake > rounds)
        self.runnable = np.flatnonzero(alive & ~parked_mask)
        self.parked = int(parked_mask.sum())
        if self.parked:
            parked_verts = np.flatnonzero(parked_mask)
            for wake_round, group in _group_by_wake(
                run.wake[parked_verts], parked_verts
            ):
                self.buckets[wake_round] = group

    def active(self) -> int:
        return int(self.runnable.size) + self.parked

    def wake(self, rounds: int) -> Optional[int]:
        if self.parked:
            due = self.buckets.pop(rounds, None)
            if due is not None and due.size:
                self.parked -= int(due.size)
                self.runnable = (
                    np.concatenate([self.runnable, due])
                    if self.runnable.size
                    else due
                )
            if not self.runnable.size:
                return min(self.buckets)
        return None

    def step(self, rounds: int) -> Tuple[int, int]:
        run = self.run
        observing = run.observing
        runnable = self.runnable
        if observing and runnable.size:
            # Ascending vertex order, as the scalar engines schedule
            # when observed; kernels are order-insensitive so this only
            # normalizes the batch columns.
            runnable = np.sort(runnable)
        awake = int(runnable.size)
        run.halted_this_round = 0
        self.crashed = ()
        self.crash_reasons = []
        self.crash_faults = []
        crash_round = self.crash_round
        if crash_round is not None:
            crashed_sel = crash_round[runnable] <= rounds
            if crashed_sel.any():
                # Crash-stop semantics mirror the scalar engines: the
                # vertex counts as awake (it was scheduled) and halted,
                # never steps again, and its last published value stays
                # visible.  Output stays None; the failure is recorded.
                faults = self.faults
                crashed = runnable[crashed_sel]
                reason = faults.crash_reason(rounds)
                for v in crashed.tolist():
                    run.failures[v] = reason
                    if observing:
                        self.crash_faults.append(
                            (v, faults.crash_event(rounds, v))
                        )
                        self.crash_reasons.append(reason)
                run.halted[crashed] = True
                run.halted_this_round += int(crashed.size)
                runnable = runnable[~crashed_sel]
                if observing:
                    self.crashed = crashed
        run.wake[runnable] = -1
        if runnable.size:
            self.kernel.step(runnable, rounds)
        survivors = runnable[~run.halted[runnable]]
        wake = run.wake[survivors]
        park_sel = wake > rounds + 1
        if park_sel.any():
            parking = survivors[park_sel]
            buckets = self.buckets
            for wake_round, group in _group_by_wake(
                wake[park_sel], parking
            ):
                previous = buckets.get(wake_round)
                buckets[wake_round] = (
                    group
                    if previous is None
                    else np.concatenate([previous, group])
                )
            self.parked += int(parking.size)
            survivors = survivors[~park_sel]
        self.stepped = runnable
        self.runnable = survivors
        return awake, run.halted_this_round

    def round_batch(
        self,
        round_index: int,
        active: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> RoundBatch:
        """Drain the run's recorded publish/halt segments into one
        :class:`RoundBatch` with ascending vertex columns."""
        run = self.run
        pubs = run._pub_segments
        halts = run._halt_segments
        run._pub_segments = []
        run._halt_segments = []

        published: Any = ()
        publish_bytes: Optional[np.ndarray] = None
        values_fn: Optional[Callable[[], List[Any]]] = None
        if pubs:
            if len(pubs) == 1:
                published = pubs[0][0]
                order = None
            else:
                published = np.concatenate([seg[0] for seg in pubs])
                order = np.argsort(published, kind="stable")
                published = published[order]
            byte_parts: Optional[List[np.ndarray]] = []
            for verts, pb, _values, _const, _fn in pubs:
                if pb is None:
                    byte_parts = None
                    break
                if isinstance(pb, (int, np.integer)):
                    byte_parts.append(
                        np.full(verts.size, int(pb), dtype=np.int64)
                    )
                else:
                    byte_parts.append(np.asarray(pb, dtype=np.int64))
            if byte_parts is not None:
                publish_bytes = (
                    byte_parts[0]
                    if len(byte_parts) == 1
                    else np.concatenate(byte_parts)
                )
                if order is not None:
                    publish_bytes = publish_bytes[order]
            values_fn = _merged_values_fn(pubs, order)

        halted_verts: Any = ()
        halt_values: Sequence[Any] = ()
        if halts:
            if len(halts) == 1:
                halted_verts, halt_values = halts[0]
            else:
                halted_verts = np.concatenate([seg[0] for seg in halts])
                horder = np.argsort(halted_verts, kind="stable")
                halted_verts = halted_verts[horder]
                merged: List[Any] = []
                for _verts, vals in halts:
                    merged.extend(vals)
                halt_values = [merged[i] for i in horder.tolist()]

        return RoundBatch(
            round_index,
            active=active,
            awake=awake,
            halted=halted,
            messages=messages,
            stepped=self.stepped,
            published=published,
            publish_values_fn=values_fn,
            publish_bytes=publish_bytes,
            halted_verts=halted_verts,
            halt_values=halt_values,
            failed=self.crashed,
            fail_reasons=self.crash_reasons,
            faults=self.crash_faults,
        )

    def finish(self) -> Tuple[List[Any], Dict[int, str]]:
        return self.run.outputs, self.run.failures


def _kernel_stepper(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    faults: Optional[Any],
    observing: bool,
    node_stepper: Callable[[], Stepper],
    inputs: Dict[str, Any],
) -> Optional[Stepper]:
    """The backend's stepper factory: the numpy-kernel stepper, or
    None under the fallback rules of the module docstring."""
    kernel_cls = kernel_for(algorithm)
    # Message perturbation happens per materialized inbox slot.
    if kernel_cls is None or (faults is not None and faults.touches_messages):
        return None
    try:
        run = VectorRun(graph, model, **inputs)
        run.observing = observing
        if not kernel_cls.supports(algorithm, run):
            return None
        return _KernelStepper(kernel_cls(run, algorithm), faults)
    except ReproError:
        raise
    except Exception:
        # Construction chokes on ill-typed inputs (e.g. a composite
        # driver feeding forward the None outputs of a crash-faulted
        # upstream phase) before anything observable happened; the
        # per-node stepper raises its own — contractual — error.
        return None


def run_local_vectorized(
    graph: Graph, algorithm: SyncAlgorithm, model: Model, **options: Any
) -> RunResult:
    """Entry point of the ``"vectorized"`` backend: the shared runner
    with :func:`_kernel_stepper` (same signature and same RunResult as
    every other backend)."""
    return run_stepped(_kernel_stepper, graph, algorithm, model, **options)


def _group_by_wake(
    wake_rounds: np.ndarray, verts: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Group ``verts`` by their wake round (few distinct values)."""
    groups: List[Tuple[int, np.ndarray]] = []
    for wake_round in np.unique(wake_rounds).tolist():
        groups.append(
            (int(wake_round), verts[wake_rounds == wake_round])
        )
    return groups
