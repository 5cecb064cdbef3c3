"""``RuntimeConfig(metrics=NULL_REGISTRY)`` turns collection off on
either substrate.

The per-item path adds to pre-bound cells in place, so every registry
the config accepts must hand out cells with a numeric ``value``: the
null registry's are one shared sink. A worker zeroes its forked registry
and ships a shard of it; the null registry's shard is empty. A custom
registry lacking what the multiprocess substrate calls is refused at
deploy, before any worker is forked.
"""

import multiprocessing

import pytest

from repro.apps import CollaborativeFiltering
from repro.apps.wordcount import build_wordcount_sdg
from repro.durability.manifest import state_fingerprint
from repro.errors import RuntimeExecutionError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, ShardCache
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.deployment import Topology
from repro.runtime.envelope import INPUT_EDGE, ChannelId, Envelope
from repro.runtime.transport import Transport
from repro.testing import build_kv_sdg

SUBSTRATES = [("inprocess", None), ("multiprocess", 2)]
WORDCOUNT_TEXT = ["the quick brown fox", "jumps over the lazy dog",
                  "the fox", "dog days of state"]


def drive(sdg, se_instances, inputs, substrate, workers, metrics):
    """Inject ``(entry, payload)`` pairs, drain; results and state."""
    config = RuntimeConfig(se_instances=se_instances, substrate=substrate,
                           workers=workers, metrics=metrics)
    runtime = Runtime(sdg, config).deploy()
    try:
        for entry, payload in inputs:
            runtime.inject(entry, payload)
        processed = runtime.run_until_idle()
        if metrics is NULL_REGISTRY:
            assert runtime.merged_metrics().total(
                "engine_items_processed_total") == 0.0
        results = {te: sorted(map(repr, items))
                   for te, items in runtime.results.items()}
        return processed, results, state_fingerprint(runtime)
    finally:
        runtime.close()


def drive_cf(substrate, workers, metrics):
    app = CollaborativeFiltering.launch(
        RuntimeConfig(substrate=substrate, workers=workers,
                      metrics=metrics),
        user_item=2, co_occ=2)
    try:
        for user in range(6):
            for item in range(5):
                if (user + item) % 3:
                    app.add_rating(user, item, 1 + (user * item) % 4)
        app.run()
        for user in range(6):
            app.get_rec(user)
        app.run()
        # Each reply's order across merge slots is the workers' race.
        replies = sorted(rec.to_list() for rec in app.results("get_rec"))
        return replies, state_fingerprint(app.runtime)
    finally:
        app.runtime.close()


@pytest.mark.parametrize("substrate, workers", SUBSTRATES,
                         ids=[name for name, _ in SUBSTRATES])
class TestNullRegistryRuns:
    """Same results and state as a run with the default registry."""

    def test_kv(self, substrate, workers):
        inputs = [("serve", ("put", f"k{i % 17}", i)) for i in range(120)]
        inputs += [("serve", ("get", f"k{i}", None)) for i in range(17)]

        def run(metrics):
            return drive(build_kv_sdg(), {"table": 4}, inputs, substrate,
                         workers, metrics)

        assert run(NULL_REGISTRY) == run(None)

    def test_wordcount(self, substrate, workers):
        inputs = [("split", (i, WORDCOUNT_TEXT[i % 4])) for i in range(80)]

        def run(metrics):
            return drive(build_wordcount_sdg(), {"counts": 4}, inputs,
                         substrate, workers, metrics)

        assert run(NULL_REGISTRY) == run(None)

    def test_cf(self, substrate, workers):
        replies, fingerprint = drive_cf(substrate, workers, NULL_REGISTRY)
        assert any(any(reply) for reply in replies)
        assert (replies, fingerprint) == drive_cf(substrate, workers, None)


class TestNullCells:
    def test_every_cell_takes_an_in_place_add(self):
        for metric in (NULL_REGISTRY.counter("c"), NULL_REGISTRY.gauge("g"),
                       NULL_REGISTRY.histogram("h")):
            cell = metric.labels(te="x")
            cell.value += 1.0
            cell.value -= 3
            cell.inc()
            cell.observe(2)
            assert metric.value(te="x") == 0.0
        assert NULL_REGISTRY.names() == []

    def test_a_worker_shard_is_empty(self):
        NULL_REGISTRY.reset()
        schema, values = NULL_REGISTRY.shard(ShardCache())
        assert MetricsRegistry.expand(schema, values) == {}

    def test_a_stand_alone_transport_delivers_and_sends(self):
        topology = Topology(build_kv_sdg(), RuntimeConfig(
            se_instances={"table": 2}))
        topology.materialise()
        transport = Transport(topology)
        channel = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 0)
        assert transport.deliver(Envelope(("put", "a", 1), 1, channel))
        producer = topology.te_instance("serve", 0)
        assert transport.send(producer, 0, "serve", 1, ("put", "b", 2),
                              None, None)
        assert [len(topology.te_instance("serve", i).inbox)
                for i in (0, 1)] == [1, 1]
        assert [c.delivered for c in transport.channels()] == [1, 1]


class TestRegistryGate:
    class Partial:
        """Registry-shaped for one process only: no reset, no shard."""

        def __init__(self):
            self._registry = MetricsRegistry()
            self.counter = self._registry.counter
            self.gauge = self._registry.gauge
            self.histogram = self._registry.histogram

    def test_refused_before_any_fork(self):
        before = len(multiprocessing.active_children())
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               metrics=self.Partial())
        with pytest.raises(RuntimeExecutionError, match="reset"):
            Runtime(build_kv_sdg(), config).deploy()
        assert len(multiprocessing.active_children()) == before

    def test_accepted_in_process(self):
        registry = self.Partial()
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            se_instances={"table": 2}, metrics=registry)).deploy()
        runtime.inject("serve", ("put", "a", 1))
        assert runtime.run_until_idle() == 1
        assert registry._registry.total(
            "engine_items_processed_total") == 1.0
