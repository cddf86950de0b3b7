"""Tests for the LOCAL engine: round semantics, model enforcement,
halting, sleeping, double buffering."""

import pytest

from repro.core import (
    DuplicateIDError,
    Model,
    ModelViolationError,
    SimulationError,
    SyncAlgorithm,
    run_local,
)
from repro.graphs import Graph
from repro.graphs.generators import path_graph, star_graph


class HaltImmediately(SyncAlgorithm):
    def setup(self, ctx):
        ctx.halt("done")

    def step(self, ctx, inbox):
        raise AssertionError("step must not run after setup-halt")


class CountNeighborsOneRound(SyncAlgorithm):
    def setup(self, ctx):
        ctx.publish("hello")

    def step(self, ctx, inbox):
        ctx.halt(sum(1 for m in inbox if m == "hello"))


class EchoChain(SyncAlgorithm):
    """Propagates the max ID seen; halts after `rounds` global rounds —
    used to verify information travels exactly one hop per round."""

    def setup(self, ctx):
        ctx.state["best"] = ctx.id
        ctx.publish(ctx.id)

    def step(self, ctx, inbox):
        best = max([ctx.state["best"]] + [m for m in inbox if m is not None])
        ctx.state["best"] = best
        ctx.publish(best)
        if ctx.now + 1 >= ctx.globals["rounds"]:
            ctx.halt(best)


class ReadIdUnderRand(SyncAlgorithm):
    def setup(self, ctx):
        _ = ctx.id

    def step(self, ctx, inbox):
        pass


class ReadRandomUnderDet(SyncAlgorithm):
    def setup(self, ctx):
        _ = ctx.random

    def step(self, ctx, inbox):
        pass


class NeverHalts(SyncAlgorithm):
    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        pass


class SleeperAlgorithm(SyncAlgorithm):
    def setup(self, ctx):
        ctx.state["steps"] = 0
        ctx.publish("zzz")
        ctx.sleep_until(5)

    def step(self, ctx, inbox):
        ctx.state["steps"] += 1
        assert ctx.now == 5
        ctx.halt(ctx.state["steps"])


class SameRoundLeakProbe(SyncAlgorithm):
    """Publishes its ID in round 0; in round 0 nobody must see it yet
    (they see setup values), in round 1 everybody must."""

    def setup(self, ctx):
        ctx.publish("setup")

    def step(self, ctx, inbox):
        if ctx.now == 0:
            assert all(m == "setup" for m in inbox)
            ctx.publish(("round0", ctx.id))
        else:
            assert all(m[0] == "round0" for m in inbox)
            ctx.halt(sorted(m[1] for m in inbox))


class FailingAlgorithm(SyncAlgorithm):
    def setup(self, ctx):
        ctx.publish(None)

    def step(self, ctx, inbox):
        if ctx.random.random() < 2.0:  # always
            ctx.fail("induced failure")


class TestRounds:
    def test_zero_round_algorithm(self, ring):
        result = run_local(ring, HaltImmediately(), Model.DET)
        assert result.rounds == 0
        assert result.messages == 0
        assert all(out == "done" for out in result.outputs)

    def test_one_round_neighbor_count(self):
        g = star_graph(5)
        result = run_local(g, CountNeighborsOneRound(), Model.DET)
        assert result.rounds == 1
        assert result.outputs[0] == 5
        assert result.outputs[1] == 1

    def test_information_travels_one_hop_per_round(self):
        g = path_graph(10)
        # Max ID is 9 at the far end; vertex 0 learns it only after 9
        # rounds.
        for budget, expected in [(3, 3), (9, 9)]:
            result = run_local(
                g,
                EchoChain(),
                Model.DET,
                global_params={"rounds": budget},
            )
            assert result.rounds == budget
            assert result.outputs[0] == expected

    def test_no_same_round_leak(self, ring):
        result = run_local(ring, SameRoundLeakProbe(), Model.DET)
        assert result.rounds == 2

    def test_message_accounting(self, ring):
        result = run_local(
            ring, EchoChain(), Model.DET, global_params={"rounds": 4}
        )
        assert result.messages == 4 * 2 * ring.num_edges

    def test_max_rounds_guard(self, ring):
        with pytest.raises(SimulationError):
            run_local(ring, NeverHalts(), Model.DET, max_rounds=10)

    def test_sleeping_skips_steps(self, ring):
        result = run_local(ring, SleeperAlgorithm(), Model.DET)
        assert result.rounds == 6
        assert all(out == 1 for out in result.outputs)


class TestModelEnforcement:
    def test_no_ids_in_rand(self, ring):
        with pytest.raises(ModelViolationError):
            run_local(ring, ReadIdUnderRand(), Model.RAND, seed=0)

    def test_no_random_in_det(self, ring):
        with pytest.raises(ModelViolationError):
            run_local(ring, ReadRandomUnderDet(), Model.DET)

    def test_ids_rejected_in_rand_config(self, ring):
        with pytest.raises(SimulationError):
            run_local(
                ring, HaltImmediately(), Model.RAND, ids=list(range(48))
            )

    def test_duplicate_ids_rejected(self, ring):
        with pytest.raises(DuplicateIDError):
            run_local(ring, HaltImmediately(), Model.DET, ids=[0] * 48)

    def test_wrong_id_count_rejected(self, ring):
        with pytest.raises(DuplicateIDError):
            run_local(ring, HaltImmediately(), Model.DET, ids=[1, 2, 3])

    def test_negative_ids_rejected(self, ring):
        ids = list(range(48))
        ids[0] = -5
        with pytest.raises(DuplicateIDError):
            run_local(ring, HaltImmediately(), Model.DET, ids=ids)


class TestRandomness:
    def test_seed_reproducibility(self, ring):
        class Draw(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(ctx.random.getrandbits(32))

            def step(self, ctx, inbox):
                pass

        a = run_local(ring, Draw(), Model.RAND, seed=7)
        b = run_local(ring, Draw(), Model.RAND, seed=7)
        c = run_local(ring, Draw(), Model.RAND, seed=8)
        assert a.outputs == b.outputs
        assert a.outputs != c.outputs

    def test_streams_are_independent(self, ring):
        class Draw(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(ctx.random.getrandbits(64))

            def step(self, ctx, inbox):
                pass

        result = run_local(ring, Draw(), Model.RAND, seed=3)
        assert len(set(result.outputs)) == ring.num_vertices

    def test_rng_factory_override(self, ring):
        import random as _random

        class Draw(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(ctx.random.getrandbits(16))

            def step(self, ctx, inbox):
                pass

        result = run_local(
            ring,
            Draw(),
            Model.RAND,
            rng_factory=lambda v: _random.Random(42),
        )
        # Every vertex got the same stream: all outputs equal.
        assert len(set(result.outputs)) == 1

    def test_failures_recorded(self):
        g = path_graph(3)
        result = run_local(g, FailingAlgorithm(), Model.RAND, seed=0)
        assert not result.ok
        assert set(result.failures) == {0, 1, 2}


class TestInputs:
    def test_node_inputs_delivered(self):
        g = path_graph(3)

        class ReadInput(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(ctx.input["payload"] * 2)

            def step(self, ctx, inbox):
                pass

        result = run_local(
            g,
            ReadInput(),
            Model.DET,
            node_inputs=[{"payload": v} for v in range(3)],
        )
        assert result.outputs == [0, 2, 4]

    def test_reverse_ports_injected(self):
        g = Graph(3, [(0, 1), (1, 2)])

        class CheckReverse(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(list(ctx.input["reverse_ports"]))

            def step(self, ctx, inbox):
                pass

        result = run_local(g, CheckReverse(), Model.DET)
        for v in g.vertices():
            for p, q in enumerate(result.outputs[v]):
                u = g.endpoint(v, p)
                assert g.endpoint(u, q) == v

    def test_global_params_shared(self, ring):
        class ReadGlobal(SyncAlgorithm):
            def setup(self, ctx):
                ctx.halt(ctx.globals["magic"])

            def step(self, ctx, inbox):
                pass

        result = run_local(
            ring, ReadGlobal(), Model.DET, global_params={"magic": 99}
        )
        assert all(out == 99 for out in result.outputs)
