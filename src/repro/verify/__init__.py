"""Property-based differential verification of LOCAL algorithms.

Three layers (see :doc:`docs/verification.md`):

- :mod:`repro.verify.gen` — seeded instance generation and
  halve-and-retest shrinking;
- :mod:`repro.verify.relations` — the metamorphic relation catalogue
  (ID relabeling, port permutation, vertex-order equivariance, engine
  equivalence, observer neutrality, fault-plan determinism, order
  invariance) over normalized :class:`Subject` handles;
- :mod:`repro.verify.certify` — per-ball LCL certificates with a
  round-count audit against each driver's declared complexity bound;
- :mod:`repro.verify.harness` — the driver-registry sweep behind the
  ``repro verify`` CLI subcommand.
"""

from .certify import (
    CERTIFICATE_SCHEMA,
    CERTIFICATE_VERSION,
    BallViolation,
    Certificate,
    certify,
)
from .gen import (
    Instance,
    make_instance,
    permute_ports,
    permute_vertices,
    shrink_instance,
    shuffled_ids,
)
from .harness import (
    CellResult,
    Counterexample,
    VerifyReport,
    find_counterexample,
    run_verification,
    write_counterexamples,
)
from .relations import (
    CheckpointResume,
    EngineEquivalence,
    FaultPlanDeterminism,
    IdRelabeling,
    ObserverNeutrality,
    OrderInvariance,
    PartitionInvariance,
    PortPermutation,
    Relation,
    RelationViolation,
    Subject,
    VertexOrderInvariance,
    capture,
    run_outcome,
    standard_relations,
    subject_from_algorithm,
    subject_from_spec,
)

__all__ = [
    "BallViolation",
    "CERTIFICATE_SCHEMA",
    "CERTIFICATE_VERSION",
    "CellResult",
    "Certificate",
    "CheckpointResume",
    "Counterexample",
    "EngineEquivalence",
    "FaultPlanDeterminism",
    "IdRelabeling",
    "Instance",
    "ObserverNeutrality",
    "OrderInvariance",
    "PartitionInvariance",
    "PortPermutation",
    "Relation",
    "RelationViolation",
    "Subject",
    "VertexOrderInvariance",
    "VerifyReport",
    "capture",
    "certify",
    "find_counterexample",
    "make_instance",
    "permute_ports",
    "permute_vertices",
    "run_outcome",
    "run_verification",
    "shrink_instance",
    "shuffled_ids",
    "standard_relations",
    "subject_from_algorithm",
    "subject_from_spec",
    "write_counterexamples",
]
