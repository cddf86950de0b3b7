"""Seeded LM008 violations: observer callbacks writing into the run
metadata, the live graph it carries, or the round-batch columns they
are only supposed to read."""

from repro.obs import RunObserver


class GraphEditor(RunObserver):
    """Scribbles on the live graph handed over in the run metadata."""

    def on_run_start(self, meta):
        # seeded: attribute store through meta.graph
        meta.graph._n = 0
        # seeded: container mutation rooted at meta
        meta.graph._adj[0].append(1)


class MetaStamper:
    """Duck-typed observer (no RunObserver base); its metadata param is
    recognized by annotation, not by name."""

    def on_run_start(self, info: "RunMeta"):
        # seeded: attribute store through an annotated meta param
        info.seed = 0


class BatchScribbler:
    """Duck-typed batch-plane observer writing into the columnar
    RoundBatch payload arrays the vectorized backend hands out."""

    def on_round_batch(self, batch):
        # seeded: element store into an engine-owned payload array
        batch.stepped[0] = -1
        # seeded: container mutation rooted at the batch
        batch.halted_verts.append(0)


class AnnotatedBatchEditor:
    """Batch param recognized by annotation, not by name."""

    def on_round_batch(self, rb: "RoundBatch"):
        # seeded: attribute store through an annotated batch param
        rb.active = 0

    def on_backend_info(self, backend, kernel):
        self.backend = backend


class PoliteWatcher(RunObserver):
    """Clean control: reads the metadata, its graph and every batch;
    touches only self."""

    def __init__(self):
        self.degrees = []
        self.halts = []

    def on_run_start(self, meta):
        graph = meta.graph
        self.degrees = [graph.degree(v) for v in graph.vertices()]

    def on_round_batch(self, batch):
        for vertex, output in zip(batch.halted_verts, batch.halt_values):
            self.halts.append((batch.round_index, vertex, output))


class PoliteBatchWatcher:
    """Clean control: reads batch columns, touches only self."""

    def __init__(self):
        self.rounds = []

    def on_round_batch(self, batch):
        self.rounds.append((batch.round_index, batch.active))
