"""``repro.backends.sharded`` — the multi-process sharded round engine.

The fourth registered engine backend: partitions the CSR graph across
N forked worker processes (contiguous or seeded-random vertex
partition), steps each shard locally, and exchanges only boundary
messages at round barriers over ``multiprocessing`` pipes.  Registered
as ``"sharded"`` in :mod:`repro.core.backend`; select it with
``run_local(..., backend="sharded")``, ``use_backend("sharded")``,
``REPRO_BACKEND=sharded``, or the CLI's ``--backend sharded
--shards N``.

The determinism contract (RunResult and JSONL trace bytes identical to
the serial fast engine for every driver, shard count, and fault plan)
and the barrier protocol are documented in ``docs/sharding.md``; the
``PartitionInvariance`` relation in :mod:`repro.verify` enforces the
contract mechanically.
"""

from .coordinator import (
    DEFAULT_SHARD_COUNT,
    SHARDS_ENV_VAR,
    ShardConfig,
    WorkerCrashError,
    active_worker_pids,
    current_shard_config,
    run_local_sharded,
    use_shards,
)
from .partition import (
    CONTIGUOUS,
    PARTITION_MODES,
    RANDOM,
    Partition,
    boundary_edges,
    partition_graph,
)

__all__ = [
    "CONTIGUOUS",
    "DEFAULT_SHARD_COUNT",
    "PARTITION_MODES",
    "RANDOM",
    "Partition",
    "SHARDS_ENV_VAR",
    "ShardConfig",
    "WorkerCrashError",
    "active_worker_pids",
    "boundary_edges",
    "current_shard_config",
    "partition_graph",
    "run_local_sharded",
    "use_shards",
]
