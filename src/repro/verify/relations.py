"""Metamorphic relations over LOCAL algorithms.

A *metamorphic relation* pairs an input transformation with the output
relation a correct LOCAL algorithm must preserve under it.  The model's
axioms (Section II; the indistinguishability arguments behind Theorems
3 and 10) supply the catalogue:

====================  ================================================
relation              a correct algorithm must …
====================  ================================================
id-relabeling         stay *LCL-valid* under any ID assignment (the
                      output may change; its correctness may not)
port-permutation      stay LCL-valid under any port renumbering
vertex-order          be equivariant under relabeling the simulation
                      handles: outputs follow the IDs / random
                      streams, never the engine's vertex indices
engine-equivalence    produce bit-identical results on every
                      registered engine backend
observer-neutrality   be unchanged by attaching a ``MetricsObserver``
                      (spectators never steer)
fault-determinism     under a fixed ``FaultPlan``, be a deterministic
                      function of the plan — same perturbed outcome on
                      every run and on every backend
checkpoint-resume     reproduce the uninterrupted run byte-for-byte
                      (outcome, metrics summary, JSONL trace) when
                      killed at a derived round and resumed from its
                      checkpoint, on every backend, faults included
partition-invariance  on the sharded backend, be independent of the
                      vertex partition: every shard count (and the
                      seeded-random placement) must reproduce the
                      serial fast engine's outcome, metrics summary,
                      and JSONL trace bytes, faults included
order-invariance      (opt-in) depend only on the relative order of
                      IDs, not their values
====================  ================================================

Relations operate on a :class:`Subject` — a normalized handle over
either a registered end-to-end driver (:func:`subject_from_spec`) or a
bare :class:`~repro.core.algorithm.SyncAlgorithm`
(:func:`subject_from_algorithm`) — so the same catalogue applies to
shipped pipelines and to test fixtures alike.

Every check compares *captured outcomes*: a run that raises is folded
to an ``("error", "ExcType: message")`` value, so "both runs fail with
the same budget error" satisfies a determinism relation while "one run
succeeds, the other crashes" violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.drivers import DriverSpec
from ..core.algorithm import SyncAlgorithm
from ..core.backend import available_backend_names, use_backend
from ..core.context import Model
from ..core.engine import inject_faults, observe_runs, run_local
from ..faults.plan import FaultPlan
from ..faults.runtime import mix64
from ..graphs.graph import Graph
from ..lcl.problem import LCLProblem
from ..obs import JsonlTraceObserver, MetricsObserver
from ..obs.observer import RunObserver
from ..transforms.order_invariance import order_preserving_remap
from .gen import (
    Instance,
    apply_inverse,
    derive_rng,
    permute_ports,
    permute_vertices,
    random_permutation,
    reshuffled,
)

# ----------------------------------------------------------------------
# Subjects and outcome capture
# ----------------------------------------------------------------------
#: Normalized run entry point: ``(graph, ids, seed, rng_factory)`` ->
#: ``(labeling, rounds)``.  ``rng_factory`` is ``None`` except for bare
#: RandLOCAL subjects that opt into per-vertex stream override.
Runner = Callable[
    [Graph, Optional[Sequence[int]], Optional[int], Optional[Any]],
    Tuple[List[Any], int],
]


@dataclass(frozen=True)
class Subject:
    """One algorithm under verification, with the knobs it honours."""

    name: str
    model: Model
    runner: Runner
    problem: Optional[Callable[[Graph], LCLProblem]] = None
    accepts_ids: bool = False
    accepts_seed: bool = False
    #: Bare subjects run through ``run_local`` directly may have their
    #: per-vertex random streams re-keyed (needed for RAND vertex-order
    #: equivariance); registry drivers seed internally and cannot.
    supports_rng_factory: bool = False
    #: Declared by the author: output depends only on the relative
    #: order of IDs.  Audited by :class:`OrderInvariance`.
    order_invariant: bool = False

    def run(
        self,
        graph: Graph,
        *,
        ids: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        rng_factory: Optional[Any] = None,
    ) -> Tuple[List[Any], int]:
        return self.runner(graph, ids, seed, rng_factory)


def subject_from_spec(spec: DriverSpec) -> Subject:
    """Wrap a registered end-to-end driver as a verification subject."""

    def runner(
        graph: Graph,
        ids: Optional[Sequence[int]],
        seed: Optional[int],
        rng_factory: Optional[Any],
    ) -> Tuple[List[Any], int]:
        if rng_factory is not None:
            raise TypeError(
                f"driver {spec.name!r} does not expose rng_factory"
            )
        report = spec.invoke(graph, ids, seed)
        return list(report.labeling), report.rounds

    return Subject(
        name=spec.name,
        model=spec.model,
        runner=runner,
        problem=spec.problem,
        accepts_ids=spec.accepts_ids,
        accepts_seed=spec.accepts_seed,
    )


def subject_from_algorithm(
    make_algorithm: Callable[[], SyncAlgorithm],
    *,
    name: str,
    model: Model,
    problem: Optional[Callable[[Graph], LCLProblem]] = None,
    order_invariant: bool = False,
    max_rounds: int = 10_000,
) -> Subject:
    """Wrap a bare node program as a verification subject.

    ``make_algorithm`` is a zero-argument factory so that a fixture
    with (deliberately buggy) instance state is rebuilt fresh per run.
    """

    def runner(
        graph: Graph,
        ids: Optional[Sequence[int]],
        seed: Optional[int],
        rng_factory: Optional[Any],
    ) -> Tuple[List[Any], int]:
        result = run_local(
            graph,
            make_algorithm(),
            model,
            ids=ids,
            seed=seed,
            rng_factory=rng_factory,
            max_rounds=max_rounds,
        )
        return list(result.outputs), result.rounds

    return Subject(
        name=name,
        model=model,
        runner=runner,
        problem=problem,
        accepts_ids=model is Model.DET,
        accepts_seed=model is Model.RAND,
        supports_rng_factory=model is Model.RAND,
        order_invariant=order_invariant,
    )


#: ``("ok", (canonical_labeling, rounds))`` or ``("error", "Type: msg")``.
Outcome = Tuple[str, Any]


def _canonical(value: Any) -> Any:
    """Fold lists/tuples to tuples so label equality is structural."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(x) for x in value)
    return value


def capture(
    runner: Callable[[], Tuple[List[Any], int]],
) -> Outcome:
    """Run and fold the result (or the raised error) into a comparable
    outcome value."""
    try:
        labeling, rounds = runner()
    except Exception as exc:  # noqa: BLE001 — outcome folding is the point
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("ok", (_canonical(labeling), rounds))


def _subject_kwargs(
    subject: Subject, instance: Instance
) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if subject.accepts_ids:
        kwargs["ids"] = list(instance.ids)
    if subject.accepts_seed:
        kwargs["seed"] = instance.run_seed
    return kwargs


def run_outcome(
    subject: Subject, instance: Instance, **overrides: Any
) -> Outcome:
    """The captured outcome of ``subject`` on ``instance`` with the
    instance-derived IDs/seed (overridable per relation)."""
    kwargs = _subject_kwargs(subject, instance)
    kwargs.update(overrides)
    graph = kwargs.pop("graph", instance.graph)
    return capture(lambda: subject.run(graph, **kwargs))


def _validity(
    subject: Subject, graph: Graph, outcome: Outcome
) -> Optional[bool]:
    """Whether an ok outcome's labeling satisfies the subject's LCL
    (``None`` for errors or problem-less subjects)."""
    if outcome[0] != "ok" or subject.problem is None:
        return None
    labeling, _rounds = outcome[1]
    problem = subject.problem(graph)
    return not problem.violations(graph, list(labeling))


# ----------------------------------------------------------------------
# The relation protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationViolation:
    """One counterexample: a subject/instance pair breaking a relation."""

    relation: str
    subject: str
    message: str
    instance: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"[{self.relation}] {self.subject}: {self.message} "
            f"(instance {self.instance})"
        )


class Relation:
    """Base class: one metamorphic relation.

    Subclasses define :attr:`name`, :meth:`applies_to` (which subjects
    the transformation is meaningful for) and :meth:`check` (returning
    ``None`` on success or a :class:`RelationViolation`).
    """

    name: str = "relation"
    description: str = ""

    def applies_to(self, subject: Subject) -> bool:
        raise NotImplementedError

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        raise NotImplementedError

    def _violation(
        self, subject: Subject, instance: Instance, message: str
    ) -> RelationViolation:
        return RelationViolation(
            relation=self.name,
            subject=subject.name,
            message=message,
            instance=instance.describe(),
        )


class IdRelabeling(Relation):
    """LCL validity must not depend on *which* IDs vertices received.

    Runs the subject under the identity assignment and under a seeded
    shuffle of it; outcome kinds and LCL validity must agree.  An
    algorithm that (say) colors by ``ID mod 3`` is valid exactly when
    the assignment happens to align with the topology — this relation
    is what catches it.
    """

    name = "id-relabeling"
    description = "LCL validity invariant under ID reassignment"

    def applies_to(self, subject: Subject) -> bool:
        return subject.accepts_ids and subject.problem is not None

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        base = run_outcome(
            subject, instance, ids=list(range(instance.n))
        )
        relabeled = run_outcome(subject, reshuffled(instance, 1))
        if base[0] != relabeled[0]:
            return self._violation(
                subject,
                instance,
                f"outcome kind changed under ID relabeling: "
                f"{base[0]} -> {relabeled[0]} ({relabeled[1]!r})",
            )
        valid_base = _validity(subject, instance.graph, base)
        valid_new = _validity(subject, instance.graph, relabeled)
        if valid_base != valid_new:
            return self._violation(
                subject,
                instance,
                f"LCL validity changed under ID relabeling: "
                f"identity ids valid={valid_base}, shuffled ids "
                f"valid={valid_new}",
            )
        if valid_new is False:
            return self._violation(
                subject,
                instance,
                "labeling violates the declared LCL under both ID "
                "assignments",
            )
        return None


class PortPermutation(Relation):
    """LCL validity must not depend on how vertices numbered their
    ports.

    The same abstract graph is rebuilt under a shuffled edge order
    (hence fresh port numbers everywhere); the subject must stay
    correct.  Catches programs that treat a port number as a global
    direction (e.g. "port 0 points left").
    """

    name = "port-permutation"
    description = "LCL validity invariant under port renumbering"

    def applies_to(self, subject: Subject) -> bool:
        return subject.problem is not None and (
            subject.accepts_ids or subject.accepts_seed
        )

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        base = run_outcome(subject, instance)
        renumbered_graph = permute_ports(
            instance.graph, mix64(instance.seed, 0x5050)
        )
        renumbered = run_outcome(
            subject, instance, graph=renumbered_graph
        )
        if base[0] != renumbered[0]:
            return self._violation(
                subject,
                instance,
                f"outcome kind changed under port renumbering: "
                f"{base[0]} -> {renumbered[0]} ({renumbered[1]!r})",
            )
        valid_base = _validity(subject, instance.graph, base)
        valid_new = _validity(subject, renumbered_graph, renumbered)
        if valid_base != valid_new:
            return self._violation(
                subject,
                instance,
                f"LCL validity changed under port renumbering: "
                f"original ports valid={valid_base}, renumbered "
                f"valid={valid_new}",
            )
        if valid_new is False:
            return self._violation(
                subject,
                instance,
                "labeling violates the declared LCL under both port "
                "numberings",
            )
        return None


class VertexOrderInvariance(Relation):
    """Outputs must follow IDs (or random streams), never the engine's
    vertex indices.

    The graph is rebuilt under a vertex permutation σ with ports
    preserved, and vertex σ(v) inherits v's ID (and, for bare RAND
    subjects, v's random stream).  Every local view is then bitwise
    identical, so a correct run satisfies ``output'[σ(v)] == output[v]``
    with equal round counts.  Catches hidden cross-node channels and
    scan-order leaks.
    """

    name = "vertex-order"
    description = "equivariance under relabeling of simulation handles"

    def applies_to(self, subject: Subject) -> bool:
        if subject.accepts_ids:
            return True
        return subject.accepts_seed and subject.supports_rng_factory

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        perm = random_permutation(
            instance.n, instance.seed, instance.requested_n
        )
        inverse = apply_inverse(perm)
        permuted_graph = permute_vertices(instance.graph, perm)

        base_kwargs: Dict[str, Any] = {}
        perm_kwargs: Dict[str, Any] = {"graph": permuted_graph}
        if subject.accepts_ids:
            ids = list(instance.ids)
            base_kwargs["ids"] = ids
            perm_kwargs["ids"] = [ids[inverse[w]] for w in range(instance.n)]
        if subject.accepts_seed:
            base_kwargs["seed"] = instance.run_seed
            perm_kwargs["seed"] = instance.run_seed
        if subject.supports_rng_factory and subject.accepts_seed:
            run_seed = instance.run_seed
            base_kwargs["rng_factory"] = lambda v: derive_rng(
                run_seed, 0x766F, v
            )
            perm_kwargs["rng_factory"] = lambda w: derive_rng(
                run_seed, 0x766F, inverse[w]
            )

        base = run_outcome(subject, instance, **base_kwargs)
        permuted = run_outcome(subject, instance, **perm_kwargs)
        if base[0] != permuted[0]:
            return self._violation(
                subject,
                instance,
                f"outcome kind changed under vertex relabeling: "
                f"{base[0]} -> {permuted[0]} ({permuted[1]!r})",
            )
        if base[0] != "ok":
            return None
        labeling, rounds = base[1]
        perm_labeling, perm_rounds = permuted[1]
        if rounds != perm_rounds:
            return self._violation(
                subject,
                instance,
                f"round count changed under vertex relabeling: "
                f"{rounds} -> {perm_rounds}",
            )
        for v in range(instance.n):
            if labeling[v] != perm_labeling[perm[v]]:
                return self._violation(
                    subject,
                    instance,
                    f"output not equivariant: vertex {v} got "
                    f"{labeling[v]!r} but its image {perm[v]} got "
                    f"{perm_labeling[perm[v]]!r}",
                )
        return None


class EngineEquivalence(Relation):
    """Every available engine backend must agree bit-for-bit with the
    reference engine on every run (labels, round counts, and error
    outcomes alike).

    The relation iterates the backend registry, so a newly registered
    backend (e.g. ``"vectorized"``) is pinned against the oracle with
    no test changes; backends whose dependencies are missing are
    skipped (the no-numpy environment still checks fast vs reference).
    """

    name = "engine-equivalence"
    description = "every registered backend == reference engine"

    def applies_to(self, subject: Subject) -> bool:
        return True

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        with use_backend("reference"):
            reference = run_outcome(subject, instance)
        for name in available_backend_names():
            if name == "reference":
                continue
            with use_backend(name):
                candidate = run_outcome(subject, instance)
            if candidate != reference:
                return self._violation(
                    subject,
                    instance,
                    f"backend {name!r} diverges from the reference "
                    f"engine: {name}={_summarize(candidate)}, "
                    f"reference={_summarize(reference)}",
                )
        return None


class ObserverNeutrality(Relation):
    """Attaching observers must never change the result — telemetry is
    a spectator, not a participant — and what the observers *record*
    must not depend on which backend ran the algorithm.

    Checked on every available backend: (1) bare vs observed (a
    ``MetricsObserver`` plus a ``JsonlTraceObserver`` with per-vertex
    step events, the heaviest deterministic-plane configuration)
    outcome equality; (2) the metrics summary and the full trace bytes
    must be identical across all backends, for raising runs too — the
    byte-identity half of the two-plane telemetry contract.
    """

    name = "observer-neutrality"
    description = (
        "observers change nothing; summaries and trace bytes "
        "backend-identical"
    )

    def applies_to(self, subject: Subject) -> bool:
        return True

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        import io

        first_backend: Optional[str] = None
        first_summary: Optional[Dict[str, Any]] = None
        first_trace: Optional[str] = None
        for name in available_backend_names():
            with use_backend(name):
                bare = run_outcome(subject, instance)
                metrics = MetricsObserver()
                sink = io.StringIO()
                trace = JsonlTraceObserver(sink, node_steps=True)
                with observe_runs(metrics, trace):
                    observed = run_outcome(subject, instance)
            if bare != observed:
                return self._violation(
                    subject,
                    instance,
                    f"attaching observers changed the outcome on "
                    f"backend {name!r}: bare={_summarize(bare)}, "
                    f"observed={_summarize(observed)}",
                )
            summary = metrics.summary()
            trace_bytes = sink.getvalue()
            if first_backend is None:
                first_backend = name
                first_summary = summary
                first_trace = trace_bytes
                continue
            if summary != first_summary:
                return self._violation(
                    subject,
                    instance,
                    f"metrics summary diverges between backends "
                    f"{first_backend!r} and {name!r}",
                )
            if trace_bytes != first_trace:
                return self._violation(
                    subject,
                    instance,
                    f"trace bytes diverge between backends "
                    f"{first_backend!r} and {name!r}",
                )
        return None


def _tag_corrupt(payload: Any) -> Any:
    """Deterministic corruption: wrap the payload so receivers see a
    well-formed but wrong value (repr-stable, hence outcome-comparable)."""
    return ("corrupted", payload)


class FaultPlanDeterminism(Relation):
    """Under a fixed nonzero :class:`FaultPlan`, the perturbed execution
    must be a pure function of the plan: repeating the run — on any
    available backend — reproduces the identical outcome (including the
    identical failure, when the adversary wins)."""

    name = "fault-determinism"
    description = "same FaultPlan => same perturbed outcome, any backend"

    #: The message adversary used for every check: light message-layer
    #: noise plus a budget so runs the faults derail still end
    #: deterministically.
    drop_rate: float = 0.02
    corrupt_rate: float = 0.01
    round_budget: int = 512
    #: The crash adversary: message-fault-free, so backends whose
    #: kernels declare crash support stay on their native round loop
    #: instead of falling back — the plan that pins frozen-publish
    #: crash-stop semantics per backend.
    crash_rate: float = 0.05
    crash_round: int = 1

    def applies_to(self, subject: Subject) -> bool:
        return True

    def plan_for(self, instance: Instance) -> FaultPlan:
        return FaultPlan(
            seed=mix64(instance.seed, 0xFA01),
            drop_rate=self.drop_rate,
            corrupt_rate=self.corrupt_rate,
            corrupt=_tag_corrupt,
            round_budget=self.round_budget,
        )

    def crash_plan_for(self, instance: Instance) -> FaultPlan:
        return FaultPlan(
            seed=mix64(instance.seed, 0xFA02),
            crash_rate=self.crash_rate,
            crash_round=self.crash_round,
            round_budget=self.round_budget,
        )

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        for plan in (
            self.plan_for(instance),
            self.crash_plan_for(instance),
        ):
            violation = self._check_plan(subject, instance, plan)
            if violation is not None:
                return violation
        return None

    def _check_plan(
        self, subject: Subject, instance: Instance, plan: FaultPlan
    ) -> Optional[RelationViolation]:
        with inject_faults(plan):
            first = run_outcome(subject, instance)
        with inject_faults(plan):
            second = run_outcome(subject, instance)
        if first != second:
            return self._violation(
                subject,
                instance,
                f"repeating the same FaultPlan produced a different "
                f"outcome: {_summarize(first)} vs {_summarize(second)}",
            )
        for name in available_backend_names():
            with use_backend(name), inject_faults(plan):
                outcome = run_outcome(subject, instance)
            if first != outcome:
                return self._violation(
                    subject,
                    instance,
                    f"backend {name!r} diverges under the same "
                    f"FaultPlan: fast={_summarize(first)}, {name}="
                    f"{_summarize(outcome)}",
                )
        return None


class _CheckpointKill(Exception):
    """Deterministic mid-run death injected by :class:`CheckpointResume`."""


class _KillSwitch(RunObserver):
    """Observer that raises after N delivered round batches (setup
    excluded).  With ``kill_after=None`` it only counts
    — the baseline leg uses that to learn the run's total length, and
    the resume leg to keep the observer arity identical to the kill
    leg's snapshot."""

    checkpoint_capable = True

    def __init__(self, kill_after: Optional[int] = None) -> None:
        self.kill_after = kill_after
        self.seen = 0

    def checkpoint_state(self) -> Any:
        return self.seen

    def restore_checkpoint(self, state: Any) -> None:
        self.seen = 0 if state is None else int(state)

    def on_round_batch(self, batch: Any) -> None:
        if batch.round_index < 0:
            return
        self.seen += 1
        if self.kill_after is not None and self.seen >= self.kill_after:
            raise _CheckpointKill(
                f"injected kill after {self.seen} round batches"
            )


class CheckpointResume(Relation):
    """Killing a checkpointed run at a splitmix64-chosen round and
    resuming it must reproduce the uninterrupted run **byte-for-byte**:
    the same outcome, the same metrics summary, and the same JSONL
    trace bytes — on every registered backend, bare and under nonzero
    :class:`FaultPlan`\\ s.

    Three legs per backend/plan: (1) an uninterrupted baseline that
    also counts delivered round batches; (2) a checkpointed run killed
    after ``1 + mix64(seed, …) % total`` batches; (3) a resumed run
    (fresh observer instances, the trace sink pre-seeded with the kill
    leg's partial bytes) that must land exactly on the baseline.  The
    crash plan runs on every backend; a duplicate-rate plan runs on the
    vectorized backend only, pinning the checkpoint hand-off through
    its silent fallback to the per-node engine.
    """

    name = "checkpoint-resume"
    description = "kill at a derived round + resume == uninterrupted run"

    kill_salt: int = 0xC4EC
    crash_rate: float = 0.05
    crash_round: int = 1
    duplicate_rate: float = 0.05
    round_budget: int = 512

    def applies_to(self, subject: Subject) -> bool:
        return True

    def _plans(
        self, instance: Instance, backend: str
    ) -> List[Optional[FaultPlan]]:
        plans: List[Optional[FaultPlan]] = [
            None,
            FaultPlan(
                seed=mix64(instance.seed, 0xC4EC01),
                crash_rate=self.crash_rate,
                crash_round=self.crash_round,
                round_budget=self.round_budget,
            ),
        ]
        if backend == "vectorized":
            plans.append(
                FaultPlan(
                    seed=mix64(instance.seed, 0xC4EC02),
                    duplicate_rate=self.duplicate_rate,
                    round_budget=self.round_budget,
                )
            )
        return plans

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        for index, backend in enumerate(available_backend_names()):
            for plan_index, plan in enumerate(self._plans(instance, backend)):
                violation = self._check_leg(
                    subject, instance, backend, plan, index * 8 + plan_index
                )
                if violation is not None:
                    return violation
        return None

    def _observed(
        self, subject: Subject, instance: Instance, kill: _KillSwitch
    ) -> Tuple[Outcome, "io.StringIO", MetricsObserver]:
        import io

        metrics = MetricsObserver()
        sink = io.StringIO()
        trace = JsonlTraceObserver(sink)
        with observe_runs(metrics, trace, kill):
            outcome = run_outcome(subject, instance)
        return outcome, sink, metrics

    def _check_leg(
        self,
        subject: Subject,
        instance: Instance,
        backend: str,
        plan: Optional[FaultPlan],
        salt: int,
    ) -> Optional[RelationViolation]:
        import contextlib
        import io
        import shutil
        import tempfile

        from ..core.checkpoint import checkpointing

        label = f"backend {backend!r}" + (
            "" if plan is None else " under a nonzero FaultPlan"
        )

        def scoped(extra: Any = None) -> Any:
            stack = contextlib.ExitStack()
            stack.enter_context(use_backend(backend))
            if plan is not None:
                stack.enter_context(inject_faults(plan))
            if extra is not None:
                stack.enter_context(extra)
            return stack

        # Leg 1: uninterrupted baseline, counting delivered batches.
        counter = _KillSwitch(None)
        with scoped():
            baseline, base_sink, base_metrics = self._observed(
                subject, instance, counter
            )
        total = counter.seen
        if total < 1:
            return None  # nothing to kill mid-flight
        kill_at = 1 + mix64(instance.seed, self.kill_salt, salt) % total

        workdir = tempfile.mkdtemp(prefix="repro-ckpt-verify-")
        try:
            # Leg 2: checkpoint every round boundary, die at kill_at.
            with scoped(checkpointing(workdir, every_rounds=1)):
                killed, kill_sink, _ = self._observed(
                    subject, instance, _KillSwitch(kill_at)
                )
            if killed[0] != "error" or "_CheckpointKill" not in killed[1]:
                return self._violation(
                    subject,
                    instance,
                    f"{label}: injected kill at batch {kill_at}/{total} "
                    f"did not surface: {_summarize(killed)}",
                )

            # Leg 3: resume; the trace sink continues from the partial
            # bytes the killed process left behind.
            resume_sink = io.StringIO()
            resume_sink.write(kill_sink.getvalue())
            metrics = MetricsObserver()
            trace = JsonlTraceObserver(resume_sink)
            probe = _KillSwitch(None)
            with scoped(
                checkpointing(workdir, every_rounds=1, resume=True)
            ), observe_runs(metrics, trace, probe):
                resumed = run_outcome(subject, instance)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        if resumed != baseline:
            return self._violation(
                subject,
                instance,
                f"{label}: resume after a kill at batch {kill_at}/"
                f"{total} diverges: baseline={_summarize(baseline)}, "
                f"resumed={_summarize(resumed)}",
            )
        if resume_sink.getvalue() != base_sink.getvalue():
            return self._violation(
                subject,
                instance,
                f"{label}: resumed JSONL trace bytes differ from the "
                f"uninterrupted run's (kill at batch {kill_at}/{total})",
            )
        if baseline[0] == "ok" and metrics.summary() != base_metrics.summary():
            return self._violation(
                subject,
                instance,
                f"{label}: resumed metrics summary differs from the "
                f"uninterrupted run's (kill at batch {kill_at}/{total})",
            )
        return None


class PartitionInvariance(Relation):
    """The sharded backend must be invisible to the algorithm: for the
    same (driver, instance, seed, fault plan), every shard count — and
    the seeded-random placement mode — must reproduce the serial fast
    engine's execution exactly.

    Per plan (bare, message noise, crash adversary) the fast engine
    runs once under the heaviest deterministic-plane observers (a
    ``MetricsObserver`` plus a per-vertex ``JsonlTraceObserver``), then
    the sharded backend runs at each count in :attr:`shard_counts`
    plus one 2-shard leg under ``mode="random"``.  Outcomes, metrics
    summaries and the full trace bytes must all match, for raising
    runs too.

    On hosts without the ``fork`` start method the sharded backend
    falls back to the fast engine, so the relation degenerates to a
    tautology rather than failing spuriously.
    """

    name = "partition-invariance"
    description = "sharded == fast at every shard count, faults included"

    #: Shard counts exercised per plan (1 pins the degenerate single-
    #: worker path; 4 forces multi-boundary routing at quick_n sizes).
    shard_counts: Tuple[int, ...] = (1, 2, 4)
    #: Placement seed for the extra random-mode leg.
    random_placement_seed: int = 0x5EED
    #: The message adversary (mirrors FaultPlanDeterminism's rates).
    drop_rate: float = 0.02
    corrupt_rate: float = 0.01
    round_budget: int = 512
    #: The crash adversary: exercises shard-local crash-stop plus the
    #: parent-side CrashStopFault reconstruction in the merged batches.
    crash_rate: float = 0.05
    crash_round: int = 1

    def applies_to(self, subject: Subject) -> bool:
        return True

    def plans_for(
        self, instance: Instance
    ) -> List[Optional[FaultPlan]]:
        return [
            None,
            FaultPlan(
                seed=mix64(instance.seed, 0x5A01),
                drop_rate=self.drop_rate,
                corrupt_rate=self.corrupt_rate,
                corrupt=_tag_corrupt,
                round_budget=self.round_budget,
            ),
            FaultPlan(
                seed=mix64(instance.seed, 0x5A02),
                crash_rate=self.crash_rate,
                crash_round=self.crash_round,
                round_budget=self.round_budget,
            ),
        ]

    def _observed(
        self, subject: Subject, instance: Instance
    ) -> Tuple[Outcome, str, Dict[str, Any]]:
        import io

        metrics = MetricsObserver()
        sink = io.StringIO()
        trace = JsonlTraceObserver(sink, node_steps=True)
        with observe_runs(metrics, trace):
            outcome = run_outcome(subject, instance)
        return outcome, sink.getvalue(), metrics.summary()

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        import contextlib

        from ..backends.sharded import use_shards

        for plan in self.plans_for(instance):

            def scoped() -> Any:
                stack = contextlib.ExitStack()
                if plan is not None:
                    stack.enter_context(inject_faults(plan))
                return stack

            plan_label = (
                "bare" if plan is None else "under a nonzero FaultPlan"
            )
            with scoped(), use_backend("fast"):
                base, base_trace, base_summary = self._observed(
                    subject, instance
                )
            legs = [
                (f"{count} contiguous shards", use_shards(count))
                for count in self.shard_counts
            ]
            legs.append(
                (
                    "2 random-placement shards",
                    use_shards(
                        2,
                        mode="random",
                        seed=self.random_placement_seed,
                    ),
                )
            )
            for leg_label, shards in legs:
                with scoped(), use_backend("sharded"), shards:
                    got, got_trace, got_summary = self._observed(
                        subject, instance
                    )
                if got != base:
                    return self._violation(
                        subject,
                        instance,
                        f"sharded backend at {leg_label} ({plan_label}) "
                        f"diverges from the fast engine: "
                        f"fast={_summarize(base)}, "
                        f"sharded={_summarize(got)}",
                    )
                if got_trace != base_trace:
                    return self._violation(
                        subject,
                        instance,
                        f"JSONL trace bytes at {leg_label} "
                        f"({plan_label}) differ from the fast "
                        f"engine's",
                    )
                if got_summary != base_summary:
                    return self._violation(
                        subject,
                        instance,
                        f"metrics summary at {leg_label} "
                        f"({plan_label}) differs from the fast "
                        f"engine's",
                    )
        return None


class OrderInvariance(Relation):
    """Subjects declared ``order_invariant`` must produce identical
    outputs under any order-preserving remap of their IDs (the
    Naor–Stockmeyer order-invariance hypothesis)."""

    name = "order-invariance"
    description = "output depends only on the relative order of IDs"

    def applies_to(self, subject: Subject) -> bool:
        return subject.order_invariant and subject.accepts_ids

    def check(
        self, subject: Subject, instance: Instance
    ) -> Optional[RelationViolation]:
        ids = list(instance.ids)
        remapped = order_preserving_remap(
            ids, derive_rng(instance.seed, 0x6F6964)
        )
        base = run_outcome(subject, instance, ids=ids)
        stretched = run_outcome(subject, instance, ids=remapped)
        if base != stretched:
            return self._violation(
                subject,
                instance,
                f"output changed under an order-preserving ID remap: "
                f"{_summarize(base)} vs {_summarize(stretched)}",
            )
        return None


def _summarize(outcome: Outcome) -> str:
    kind, payload = outcome
    if kind == "error":
        return f"error({payload})"
    labeling, rounds = payload
    return f"ok(rounds={rounds}, labeling={list(labeling)!r})"


def standard_relations() -> List[Relation]:
    """The shipped catalogue, in documentation order."""
    return [
        IdRelabeling(),
        PortPermutation(),
        VertexOrderInvariance(),
        EngineEquivalence(),
        ObserverNeutrality(),
        FaultPlanDeterminism(),
        CheckpointResume(),
        PartitionInvariance(),
        OrderInvariance(),
    ]


__all__ = [
    "CheckpointResume",
    "EngineEquivalence",
    "FaultPlanDeterminism",
    "IdRelabeling",
    "ObserverNeutrality",
    "OrderInvariance",
    "Outcome",
    "PartitionInvariance",
    "PortPermutation",
    "Relation",
    "RelationViolation",
    "Subject",
    "VertexOrderInvariance",
    "capture",
    "run_outcome",
    "standard_relations",
    "subject_from_algorithm",
    "subject_from_spec",
]
