"""Vectorized round kernels for the ``"vectorized"`` backend.

Each kernel reimplements one shipped algorithm's ``setup``/``step`` as
whole-graph array operations (see :mod:`repro.backends.vectorized` for
the stepper and the kernel contract).  The cardinal rule is
*bit-identity with the scalar engines*:

- published state lives in per-vertex arrays and is only scattered
  after all gathers of a round (double buffering);
- RandLOCAL kernels draw from the very same per-vertex
  ``random.Random`` streams, in the same per-vertex order, as the
  scalar ``setup``/``step`` code — e.g. the ColorBidding bid round
  iterates each vertex's remaining palette in ascending color order on
  both paths;
- palettes and bids are encoded as int64 bitmasks, which caps the
  supported main palette at 62 colors — far above the Δ ≤ 16 regime of
  the experiments; larger instances transparently fall back.

Registered kernels: ColorBidding (Theorem 10 Phase 1), Linial and
oriented Linial (Theorems 1/2, the O(log* n) stages), H-partition
peeling and the layer sweep (Theorem 9 stages 1 and 5).  The remaining
drivers (Kuhn–Wattenhofer reduction, MIS, sinkless orientation, ...)
run through the per-node fallback — registering a kernel here is all
it takes to accelerate one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .linial import (
    LinialColoring,
    OrientedLinialColoring,
    choose_cover_free_params,
    linial_schedule,
)
from .rand_tree_coloring import BAD, ColorBiddingAlgorithm
from .tree_coloring import LayerSweepColoring, PeelingAlgorithm
from ..backends.vectorized import (
    RoundKernel,
    VectorRun,
    edge_slices,
    popcount,
    register_kernel,
    segment_or,
)
from ..core.algorithm import SyncAlgorithm
from ..core.context import Model
from ..obs.metrics import estimate_payload_bytes

#: Palette/bid bitmasks are int64: 62 usable color bits (sign-safe).
MAX_MASK_COLORS = 62

_ONE = np.int64(1)


def _lowest_set_bit_index(masks: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (non-zero, positive) mask."""
    low = masks & -masks
    return popcount(low - _ONE)


def _mask_to_set(mask: int) -> set:
    """The color set a bid bitmask encodes (matches the scalar bid)."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# ColorBidding (Theorem 10, Phase 1)
# ---------------------------------------------------------------------------

_KIND_BID = 0
_KIND_STILL = 1
_KIND_COLORED = 2
_KIND_BAD = 3


@register_kernel(ColorBiddingAlgorithm)
class ColorBiddingKernel(RoundKernel):
    """Vectorized ColorBidding + Filtering.

    State layout (n vertices, 2m CSR edge slots):

    - ``palette``: int64 bitmask of Ψ_i(v);
    - ``pub_kind`` / ``pub_bid`` / ``pub_color``: the published value,
      split by message kind (bid mask, chosen color);
    - ``part``: per-edge-slot bool — is the port's neighbor still a
      participating competitor;
    - ``phase`` / ``iteration``: global scalars (every live vertex is
      in the same phase of the same iteration by construction).

    A *bid* round draws ``S_v`` per vertex from the vertex's own
    ``random.Random`` stream (ascending palette order, matching the
    scalar code exactly), a *resolve* round computes the neighbor-bid
    union as a segment OR and halts the winners, and the *filter*
    checks are per-vertex popcount arithmetic on the masks.

    Crash-safe: ``pub_kind``/``pub_bid``/``pub_color`` and the ``part``
    slots are scattered only for stepping vertices, so a crashed
    competitor keeps publishing its frozen message.
    """

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        super().__init__(run, algorithm)
        config = run.globals["config"]
        self.delta = run.max_degree
        self.schedule: Tuple[float, ...] = config.escalation_schedule(
            self.delta
        )
        self.guard: float = self.delta / config.palette_guard
        self.main_palette: int = run.globals["main_palette"]
        n = run.n
        full = (_ONE << np.int64(self.main_palette)) - _ONE
        self.palette = np.full(n, full, dtype=np.int64)
        self.pub_kind = np.full(n, _KIND_BID, dtype=np.int8)
        self.pub_bid = np.zeros(n, dtype=np.int64)
        self.pub_color = np.zeros(n, dtype=np.int64)
        self.part = np.ones(run.targets.size, dtype=bool)
        self.iteration = 0
        self.phase = "resolve"
        # Per-vertex draw budget: ≤ 2·|Ψ| words per bernoulli bid round
        # plus the uniform round's rejection-loop tail.
        self.rng_words = 2 * self.main_palette * len(self.schedule) + 32

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        if run.model is not Model.RAND or run.rng_factory is not None:
            return False
        main_palette = run.globals.get("main_palette")
        config = run.globals.get("config")
        return (
            config is not None
            and isinstance(main_palette, int)
            and 1 <= main_palette <= MAX_MASK_COLORS
            and run.max_degree >= 1
        )

    def setup(self) -> None:
        everyone = np.arange(self.run.n, dtype=np.int64)
        self._publish_bid(everyone, 0)

    def step(self, awake: np.ndarray, round_index: int) -> None:
        if self.phase == "resolve":
            self._resolve(awake)
        else:
            self._filter_and_rebid(awake)

    def _resolve(self, awake: np.ndarray) -> None:
        run = self.run
        e, seg, _ = edge_slices(run.offsets, awake)
        neighbor = run.targets[e]
        competing = self.part[e] & (self.pub_kind[neighbor] == _KIND_BID)
        contrib = np.where(competing, self.pub_bid[neighbor], 0)
        neighbor_bids = segment_or(contrib, seg)
        free = self.pub_bid[awake] & ~neighbor_bids
        won = free != 0
        winners = awake[won]
        colors = _lowest_set_bit_index(free[won])
        self.phase = "bid"
        # Scatter after the gather above: double buffering.
        self.pub_kind[winners] = _KIND_COLORED
        self.pub_color[winners] = colors
        run.record_publish(
            winners,
            payload_bytes=10,  # estimate_payload_bytes(("colored", c<62))
            values_fn=lambda: [("colored", c) for c in colors.tolist()],
        )
        run.halt(winners, colors)
        self.pub_kind[awake[~won]] = _KIND_STILL
        run.record_publish(
            awake[~won], value_const=("still",), payload_bytes=7
        )

    def _filter_and_rebid(self, awake: np.ndarray) -> None:
        run = self.run
        e, seg, ptr = edge_slices(run.offsets, awake)
        neighbor = run.targets[e]
        participating = self.part[e]
        kind = self.pub_kind[neighbor]
        colored = participating & (kind == _KIND_COLORED)
        removed = np.where(
            colored,
            np.left_shift(
                _ONE, np.where(colored, self.pub_color[neighbor], 0)
            ),
            np.int64(0),
        )
        self.palette[awake] &= ~segment_or(removed, seg)
        still = participating & (kind == _KIND_STILL)
        self.part[e] = still
        still_count = np.bincount(ptr[still], minlength=awake.size)
        i = self.iteration  # the iteration just resolved
        self.iteration = i + 1
        bad = np.zeros(awake.size, dtype=bool)
        if i == 0:
            palette_size = popcount(self.palette[awake])
            bad = (palette_size - still_count) < self.guard
        elif i + 1 < len(self.schedule):
            bad = still_count > self.delta / self.schedule[i + 1]
        self._mark_bad(awake[bad])
        self._publish_bid(awake[~bad], i + 1)

    def _mark_bad(self, verts: np.ndarray) -> None:
        self.pub_kind[verts] = _KIND_BAD
        self.run.record_publish(
            verts, value_const=("bad",), payload_bytes=5
        )
        self.run.halt(verts, np.full(verts.size, BAD, dtype=np.int64))

    def _publish_bid(self, verts: np.ndarray, iteration: int) -> None:
        """Vectorized ``_publish_bid`` for the vertex subset ``verts``."""
        self.phase = "resolve"
        if iteration >= len(self.schedule):
            # Filtering(t): every still-uncolored vertex is bad.
            self._mark_bad(verts)
            return
        palettes = self.palette[verts]
        sizes = popcount(palettes)
        small = sizes < self.guard  # invariant P1 endangered
        self._mark_bad(verts[small])
        bidders = verts[~small]
        if not bidders.size:
            return
        palettes = palettes[~small]
        sizes = sizes[~small]
        c_i = self.schedule[iteration]
        if c_i <= 1.0:
            bids = self._draw_uniform(bidders, palettes, sizes)
        else:
            bids = self._draw_bernoulli(bidders, palettes, sizes, c_i)
        self.pub_kind[bidders] = _KIND_BID
        self.pub_bid[bidders] = bids
        # estimate_payload_bytes(("bid", S)) = 7 + |S| for colors < 256:
        # byte accounting stays pure mask arithmetic, the Python sets
        # are only built if an observer wants materialized values.
        self.run.record_publish(
            bidders,
            payload_bytes=popcount(bids) + 7,
            values_fn=lambda: [
                ("bid", _mask_to_set(m)) for m in bids.tolist()
            ],
        )

    def _draw_uniform(
        self,
        verts: np.ndarray,
        palettes: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """``c_i <= 1``: one uniform color per vertex — a single
        ``randrange(|Ψ|)`` per vertex, exactly like the scalar code
        (including the ValueError on an empty palette)."""
        picks = self.run.vector_rng(self.rng_words).randrange(verts, sizes)
        # The pick indexes the sorted palette: select each mask's
        # pick-th set bit by ascending rank.
        bids = np.zeros(verts.size, dtype=np.int64)
        rank = np.zeros(verts.size, dtype=np.int64)
        for bit in range(self.main_palette):
            has = (palettes >> np.int64(bit)) & _ONE
            chosen = (has == 1) & (rank == picks)
            bids[chosen] = _ONE << np.int64(bit)
            rank += has
        return bids

    def _draw_bernoulli(
        self,
        verts: np.ndarray,
        palettes: np.ndarray,
        sizes: np.ndarray,
        c_i: float,
    ) -> np.ndarray:
        """``c_i > 1``: each palette color independently with
        probability ``c_i / |Ψ|`` — one ``rng.random()`` per palette
        color in ascending color order, exactly like the scalar code."""
        if (sizes == 0).any():
            # p = c_i / |Ψ| on the scalar path.
            raise ZeroDivisionError("float division by zero")
        probs = np.minimum(1.0, c_i / sizes)
        seg_off = np.zeros(verts.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=seg_off[1:])
        total = int(seg_off[-1])
        rolls = self.run.vector_rng(self.rng_words).random_runs(verts, sizes)
        assert rolls.size == total
        # Flat ascending color positions of every set palette bit.
        colors = np.empty(total, dtype=np.int64)
        filled = np.zeros(verts.size, dtype=np.int64)
        for bit in range(self.main_palette):
            has = ((palettes >> np.int64(bit)) & _ONE).astype(bool)
            if not has.any():
                continue
            colors[seg_off[:-1][has] + filled[has]] = bit
            filled[has] += 1
        ptr = np.repeat(
            np.arange(verts.size, dtype=np.int64), sizes
        )
        included = rolls < probs[ptr]
        contrib = np.where(
            included, np.left_shift(_ONE, colors), np.int64(0)
        )
        return segment_or(contrib, seg_off)


# ---------------------------------------------------------------------------
# Linial recoloring (Theorems 1 and 2)
# ---------------------------------------------------------------------------


class _LinialKernelBase(RoundKernel):
    """Shared machinery of the classic and oriented Linial kernels.

    Per round, the cover-free recoloring reduces to polynomial
    arithmetic: vertex colors encode degree-``d`` polynomials over F_q,
    and the sets ``S_c = {x·q + p_c(x)}`` of two colors intersect at
    ``x`` iff the polynomials agree at ``x``.  The scalar code picks
    the smallest element of the (sorted) own set not covered by the
    escaped neighbors' sets — which is exactly the smallest ``x`` with
    no agreeing escaped neighbor, vectorized here as one Horner
    evaluation plus one edge-compare per candidate ``x``.

    ``self.colors`` holds the *published* color of every vertex and is
    scattered only for the ``awake`` set, so a crash-stopped vertex
    keeps publishing its frozen color exactly like a halted scalar
    context.  A frozen color from an earlier stage may lie outside the
    current stage's family — the scalar path raises ``ValueError`` from
    ``linial_recolor``'s base-q digit extraction when a stepping vertex
    reads it, mirrored here (including its precedence against the
    cover-free ``AssertionError``, per scalar vertex order).
    """

    def _degree_param(self, run: VectorRun) -> int:
        raise NotImplementedError

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        super().__init__(run, algorithm)
        k0 = run.globals.get("id_space")
        if k0 is None:
            k0 = 1 << max(1, (run.n - 1).bit_length())
        self.k0: int = k0
        self.degree = self._degree_param(run)
        self.schedule = linial_schedule(k0, self.degree)
        self.iteration = 0
        assert run.ids is not None
        self.colors = run.ids.astype(np.int64)
        # CSR of the neighbors each variant escapes, in the exact order
        # the scalar code reads them (all ports / out_ports order).
        self.read_offsets = run.offsets
        self.read_targets = run.targets

    @classmethod
    def _basic_support(cls, run: VectorRun, k0_degree_ok: bool) -> bool:
        if run.model is not Model.DET or run.ids is None:
            return False
        if not k0_degree_ok:
            return False
        k0 = run.globals.get("id_space")
        if k0 is None:
            k0 = 1 << max(1, (run.n - 1).bit_length())
        # Out-of-range IDs make the scalar path raise from
        # linial_recolor; keep that path authoritative.
        return bool(
            run.n == 0
            or (run.ids.min() >= 0 and run.ids.max() < k0)
        )

    def setup(self) -> None:
        run = self.run
        everyone = np.arange(run.n, dtype=np.int64)
        run.record_publish(everyone, self.colors.copy())  # publish(id)
        if len(self.schedule) == 1:
            run.halt(everyone, self.colors)

    def step(self, awake: np.ndarray, round_index: int) -> None:
        # Live vertices recolor in lockstep (the schedule is common
        # knowledge); ``awake`` excludes crash-stopped vertices, whose
        # published color in ``self.colors`` stays frozen.
        run = self.run
        i = self.iteration
        k = self.schedule[i]
        d, q = choose_cover_free_params(k, self.degree)
        # Base-q coefficient extraction of every published color.  A
        # frozen crashed color can exceed q^(d+1) (non-zero remainder);
        # the scalar path raises from linial_recolor if it is read.
        coeffs = []
        rest = self.colors.copy()
        for _ in range(d + 1):
            coeffs.append(rest % q)
            rest //= q
        n = run.n
        e, _, ptr = edge_slices(self.read_offsets, awake)
        nb = self.read_targets[e]
        src = awake[ptr]
        bad_pos: Optional[int] = None
        bad_edges = (rest != 0)[nb]
        if bad_edges.any():
            # Position (in awake order) of the first vertex reading an
            # out-of-range color; whether it raises, and against which
            # neighbor, depends on the cover-free scan below.
            bad_pos = int(ptr[int(np.argmax(bad_edges))])
        found = np.zeros(awake.size, dtype=bool)
        new_colors = np.zeros(awake.size, dtype=np.int64)
        for x in range(q):
            value = np.zeros(n, dtype=np.int64)
            for coeff in reversed(coeffs):
                value = (value * x + coeff) % q
            agree = value[src] == value[nb]
            conflicted = np.zeros(awake.size, dtype=bool)
            conflicted[ptr[agree]] = True
            settled = ~found & ~conflicted
            new_colors[settled] = x * q + value[awake[settled]]
            found |= settled
            if found.all():
                break
        if not found.all():
            first_unfound = int(np.argmax(~found))
            # Scalar vertex order: a vertex raising ValueError on an
            # out-of-range neighbor read does so before any later
            # vertex's own-set scan fails (and before its own, since
            # neighbors are read first).
            if bad_pos is None or first_unfound < bad_pos:
                raise AssertionError(
                    "cover-free property violated — more neighbors "
                    "than the family parameter supports"
                )
        if bad_pos is not None:
            first = int(np.argmax(bad_edges & (ptr == bad_pos)))
            color = int(self.colors[nb[first]])
            raise ValueError(
                f"color {color} out of range for q={q}, d={d}"
            )
        self.colors[awake] = new_colors
        run.record_publish(awake, new_colors)
        self.iteration = i + 1
        if i + 1 >= len(self.schedule) - 1:
            run.halt(awake, new_colors)


@register_kernel(LinialColoring)
class LinialKernel(_LinialKernelBase):
    """Classic variant: escape every neighbor (degree param Δ)."""

    def _degree_param(self, run: VectorRun) -> int:
        return max(1, run.max_degree)

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        return cls._basic_support(run, True)


@register_kernel(OrientedLinialColoring)
class OrientedLinialKernel(_LinialKernelBase):
    """Oriented variant: escape only the ``out_ports`` neighbors."""

    def _degree_param(self, run: VectorRun) -> int:
        return max(1, run.globals["out_degree"])

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        super().__init__(run, algorithm)
        offsets = run.offsets.tolist()
        assert run.node_inputs is not None
        out_slots = np.fromiter(
            (
                offsets[v] + port
                for v, node_input in enumerate(run.node_inputs)
                for port in node_input["out_ports"]
            ),
            dtype=np.int64,
        )
        counts = np.fromiter(
            (
                len(node_input["out_ports"])
                for node_input in run.node_inputs
            ),
            dtype=np.int64,
            count=run.n,
        )
        read_offsets = np.zeros(run.n + 1, dtype=np.int64)
        np.cumsum(counts, out=read_offsets[1:])
        self.read_offsets = read_offsets
        # out_ports order preserved — the scalar read (and raise) order.
        self.read_targets = run.targets[out_slots]

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        if "out_degree" not in run.globals or run.node_inputs is None:
            return False
        try:
            ok = all(
                "out_ports" in node_input
                for node_input in run.node_inputs
            )
        except TypeError:
            return False
        return ok and cls._basic_support(run, True)


# ---------------------------------------------------------------------------
# Theorem 9 stages: H-partition peeling and the layer sweep
# ---------------------------------------------------------------------------


@register_kernel(PeelingAlgorithm)
class PeelingKernel(RoundKernel):
    """Iterated low-degree peeling: one bincount per round.

    Crash-safe: ``active_pub`` flips only for peeled stepping vertices,
    so a crashed vertex stays frozen at its last published activity.
    """

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        super().__init__(run, algorithm)
        self.threshold = run.globals["threshold"]
        self.active_pub = np.ones(run.n, dtype=bool)

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        return "threshold" in run.globals

    def setup(self) -> None:
        # Everyone publishes "active"; nobody halts or sleeps.
        self.run.record_publish(
            np.arange(self.run.n, dtype=np.int64),
            value_const="active",
            payload_bytes=6,
        )

    def step(self, awake: np.ndarray, round_index: int) -> None:
        run = self.run
        e, _, ptr = edge_slices(run.offsets, awake)
        active_edges = self.active_pub[run.targets[e]]
        counts = np.bincount(ptr[active_edges], minlength=awake.size)
        peeled_sel = counts <= self.threshold
        peeled = awake[peeled_sel]
        run.record_publish(
            peeled,
            value_const=("peeled", round_index),
            payload_bytes=estimate_payload_bytes(("peeled", round_index)),
        )
        run.halt(
            peeled, np.full(peeled.size, round_index, dtype=np.int64)
        )
        # Publish ("peeled", round) == stop counting as "active";
        # committed after the gather above (double buffering).
        self.active_pub[peeled] = False


@register_kernel(LayerSweepColoring)
class LayerSweepKernel(RoundKernel):
    """Top-down layer sweep: wake buckets + smallest-free-color masks.

    The harness's wake buckets and bulk round-skip do the scheduling
    (each vertex acts in exactly one round); the kernel's step is one
    gather of neighbor finals and one lowest-zero-bit per vertex.

    Crash-safe: ``final`` is committed only for stepping vertices; a
    vertex crashed at its wake round keeps its pre-final publish,
    which neighbors ignore exactly as the scalar path does.
    """

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        super().__init__(run, algorithm)
        self.q: int = run.globals["q"]
        max_layer = run.globals["max_layer"]
        assert run.node_inputs is not None
        layers = np.fromiter(
            (ni["layer"] for ni in run.node_inputs),
            dtype=np.int64,
            count=run.n,
        )
        schedule_colors = np.fromiter(
            (ni["schedule_color"] for ni in run.node_inputs),
            dtype=np.int64,
            count=run.n,
        )
        self.wake = (max_layer - layers) * self.q + schedule_colors
        self.final = np.full(run.n, -1, dtype=np.int64)

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        q = run.globals.get("q")
        if not isinstance(q, int) or not 1 <= q <= MAX_MASK_COLORS:
            return False
        if "max_layer" not in run.globals or run.node_inputs is None:
            return False
        try:
            return all(
                "layer" in ni and "schedule_color" in ni
                for ni in run.node_inputs
            )
        except TypeError:
            return False

    def setup(self) -> None:
        run = self.run
        everyone = np.arange(run.n, dtype=np.int64)
        run.record_publish(
            everyone, value_const=("tmp",), payload_bytes=5
        )
        run.sleep(everyone, self.wake)

    def step(self, awake: np.ndarray, round_index: int) -> None:
        run = self.run
        e, seg, _ = edge_slices(run.offsets, awake)
        neighbor_final = self.final[run.targets[e]]
        fixed = neighbor_final >= 0
        contrib = np.where(
            fixed,
            np.left_shift(
                _ONE, np.where(fixed, neighbor_final, 0)
            ),
            np.int64(0),
        )
        taken = segment_or(contrib, seg)
        free = ~taken & ((_ONE << np.int64(self.q)) - _ONE)
        if not free.all():
            raise AssertionError(
                "no free color — caller violated the palette/degree "
                "precondition"
            )
        colors = _lowest_set_bit_index(free)
        run.record_publish(
            awake,
            payload_bytes=8,  # estimate_payload_bytes(("final", c<62))
            values_fn=lambda: [("final", c) for c in colors.tolist()],
        )
        run.halt(awake, colors)
        self.final[awake] = colors  # commit after the gather above
