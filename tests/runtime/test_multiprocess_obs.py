"""Cross-substrate observability tests for the multiprocess substrate.

The telemetry plane must be substrate-agnostic: tracing, metrics,
profiling and the flight recorder have to report the *same facts* on
the multiprocess substrate as in-process, modulo process-local logical
clocks. These are differential tests — the in-process runtime is the
oracle:

* merged causal traces are hop-equivalent (same ``(te, instance)``
  multiset per trace; worker-local step stamps are incomparable);
* :meth:`Runtime.merged_metrics` streams live between barriers via
  :meth:`Runtime.poll_telemetry`;
* a worker crash + fleet restart neither loses nor double-counts
  metrics, results or state;
* a fatal crash carries the dead worker's flight-recorder tail.
"""

import os
import signal
import time
from collections import Counter

import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.core import SDG, Dispatch
from repro.core.elements import AccessMode, StateKind
from repro.durability.manifest import state_fingerprint
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.multiprocess import WIRE_RUN
from repro.runtime.wire import (
    FRAME_HEADER,
    MSG_CRASH,
    MSG_IDLE,
    MSG_STATE,
    MSG_TRACE,
    encode_frame,
)
from repro.state import KeyValueMap
from repro.testing import build_kv_sdg
from tests.helpers import input_logs


def hop_view(runtime):
    """Per-trace multiset of ``(te, instance)`` hops.

    Worker step numbers are process-local clocks, so step arithmetic
    is not comparable across substrates — *which instance served which
    traced item* is.
    """
    return {
        trace.trace_id: sorted((hop.te, hop.instance)
                               for hop in trace.hops)
        for trace in runtime.tracer.traces()
    }


def spy_peers(runtime):
    """Record what each worker's latest report says it wrote its peers:
    ``{worker: (envelopes to worker 0, to worker 1, ...)}``, cumulative
    for the live fleet (a re-fork starts again at zero). Every frame the
    coordinator handles must be a report, a trace shard or a crash:
    envelopes go from worker to worker, never through the coordinator."""
    substrate = runtime.substrate
    handle, sent = substrate._handle, {}

    def spy(link, message):
        tag = message[0]
        assert tag in (MSG_IDLE, MSG_STATE, MSG_TRACE, MSG_CRASH), tag
        if tag in (MSG_IDLE, MSG_STATE):
            peer_sent = message[3]
            assert len(peer_sent) == substrate.workers
            assert peer_sent[link.worker_id] == 0
            sent[link.worker_id] = peer_sent
        return handle(link, message)

    substrate._handle = spy
    return sent


def traced_kv(substrate, workers=None):
    config = RuntimeConfig(se_instances={"table": 4}, trace=True,
                           substrate=substrate, workers=workers)
    with Runtime(build_kv_sdg(), config).deploy() as runtime:
        for i in range(60):
            runtime.inject("serve", ("put", f"k{i % 11}", i))
        for i in range(7):
            runtime.inject("serve", ("get", f"k{i}", None))
        runtime.run_until_idle()
        return hop_view(runtime)


def traced_wordcount(substrate, workers=None):
    config = RuntimeConfig(se_instances={"counts": 4}, trace=True,
                           substrate=substrate, workers=workers)
    with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
        text = ["the quick brown fox", "jumps over the lazy dog",
                "the fox", "dog days of state"]
        for i in range(40):
            runtime.inject("split", (i, text[i % len(text)]))
        runtime.run_until_idle()
        return hop_view(runtime)


def closed_loop_kv(n, spy=None):
    """``n`` closed-loop KV requests on 2 workers (puts and gets; one
    inject, one drain each); the merged snapshot after the last barrier.
    ``spy(link, message)`` sees every frame the coordinator handles."""
    config = RuntimeConfig(se_instances={"table": 2},
                           substrate="multiprocess", workers=2)
    with Runtime(build_kv_sdg(), config).deploy() as runtime:
        if spy is not None:
            handle = runtime.substrate._handle

            def spying(link, message):
                spy(link, message)
                return handle(link, message)

            runtime.substrate._handle = spying
        # Each worker's report on its hello lands here, so the frame
        # counts below do not depend on how fast the fork came up.
        runtime.run_until_idle()
        for i in range(n):
            op = "get" if i % 4 == 3 else "put"
            runtime.inject("serve", (op, f"k{i % 37}", i))
            runtime.run_until_idle()
        return runtime.merged_metrics().snapshot()


class TestDistributedTracing:
    """Tentpole: merged cross-process traces == in-process traces."""

    def test_kvstore_hop_graphs_identical(self):
        assert traced_kv("multiprocess", workers=3) \
            == traced_kv("inprocess")

    def test_wordcount_fanout_hop_graphs_identical(self):
        # split -> count fan-out: each traced line hops once on split
        # and once per word on count, across the wire.
        assert traced_wordcount("multiprocess", workers=4) \
            == traced_wordcount("inprocess")

    def test_hops_carry_worker_ids(self):
        config = RuntimeConfig(se_instances={"table": 2}, trace=True,
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            for i in range(20):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            workers = {hop.worker for trace in runtime.tracer.traces()
                       for hop in trace.hops}
        # Every hop was served by a real worker, never the coordinator.
        assert workers and None not in workers
        assert workers <= {0, 1}


class TestLiveMetricStreaming:
    """Tentpole: merged_metrics() is fresh between barriers."""

    def test_poll_telemetry_streams_before_the_barrier(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            n = 50
            for i in range(n):
                runtime.inject("serve", ("put", f"k{i}", i))
            # No run_until_idle yet: workers drain autonomously and
            # piggyback metric shards on their idle reports. Pump
            # the coordinator wire until those shards land.
            deadline = time.perf_counter() + 10.0
            live = 0.0
            while time.perf_counter() < deadline:
                runtime.poll_telemetry(0.05)
                live = runtime.merged_metrics().total(
                    "engine_items_processed_total")
                if live >= n:
                    break
            assert live == n, "live metrics never caught up pre-barrier"
            # The barrier then agrees with the stream.
            runtime.run_until_idle()
            assert runtime.merged_metrics().total(
                "engine_items_processed_total") == n

    def test_wire_metrics_account_both_directions(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            for i in range(30):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            metrics = runtime.merged_metrics()
            frames = metrics.total("wire_frames_total")
            sent = metrics.value("wire_frames_total",
                                 direction="send", role="coordinator")
            recv = metrics.value("wire_frames_total",
                                 direction="recv", role="coordinator")
            assert frames > 0 and sent > 0 and recv > 0
            assert metrics.total("wire_bytes_total") > 0
            assert metrics.total("wire_serialize_seconds_total") > 0

    def test_reports_ship_the_schema_once_and_stay_small(self):
        reports = []

        def spy(link, message):
            if message[0] in (MSG_IDLE, MSG_STATE):
                reports.append((link.worker_id, message))

        closed_loop_kv(200, spy)
        schemas = Counter(worker for worker, message in reports
                          if message[5]["metrics"][0] is not None)
        assert schemas == {0: 1, 1: 1}
        # Counters, not a registry: an idle frame with no fresh results
        # is the progress counters plus one flat tuple of cell values.
        sizes = [len(encode_frame(message)) for _worker, message in reports
                 if message[0] == MSG_IDLE and "results" not in message[5]
                 and message[5]["metrics"][0] is None]
        assert len(sizes) > 50
        assert max(sizes) < 400

    def test_merged_series_match_full_snapshot_reports(self, monkeypatch):
        # Differential against the snapshot encoding: every report
        # carrying the worker's whole snapshot() (installed in the
        # forked workers through the class) must merge into the same
        # series, bar the byte counts and wall-clock seconds.
        def comparable(snapshot):
            return {name: entry for name, entry in snapshot.items()
                    if name != "wire_bytes_total"
                    and not name.endswith("_seconds_total")}

        compact = closed_loop_kv(200)
        monkeypatch.setattr(MetricsRegistry, "shard",
                            lambda self, cache: (self.snapshot(), ()))
        monkeypatch.setattr(MetricsRegistry, "expand",
                            staticmethod(lambda schema, values: schema))
        full = closed_loop_kv(200)
        assert comparable(compact) == comparable(full)
        assert compact["engine_items_processed_total"]["children"] == {
            (("te", "serve"),): 200.0}


def kill_worker(runtime, worker_id):
    process = runtime.substrate._links[worker_id].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def run_kv_with_fault(substrate, workers=None, restarts=0, fault=None):
    """KV puts and gets on 2 partitions, with ``fault(runtime, 0)`` hit
    at a barrier midway; returns results, processed counts, state."""
    config = RuntimeConfig(se_instances={"table": 2},
                           substrate=substrate, workers=workers,
                           worker_restarts=restarts)
    with Runtime(build_kv_sdg(), config).deploy() as runtime:
        for i in range(20):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        if fault is not None:
            fault(runtime, 0)
        # Each worker owns about half of 500 keys: several full runs
        # are flushed inside inject, towards the failed worker too.
        for i in range(500):
            runtime.inject("serve", ("put", f"j{i}", i))
        for i in range(0, 500, 25):
            runtime.inject("serve", ("get", f"j{i}", None))
        runtime.run_until_idle()
        results = {te: sorted(map(repr, items))
                   for te, items in runtime.results.items()}
        processed = runtime.merged_metrics().snapshot()[
            "engine_items_processed_total"]["children"]
        return results, processed, state_fingerprint(runtime)


class TestInjectAfterWorkerDeath:
    """A dead worker found by ``inject``'s run flush is a public error
    without restart budget, and a restart with it."""

    def test_without_budget_inject_raises_runtime_execution_error(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=0)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            runtime.inject("serve", ("put", "k", 1))
            runtime.run_until_idle()
            kill_worker(runtime, 0)
            # About half go to worker 0's link: several full lists,
            # so a flush reaches the dead worker.
            with pytest.raises(RuntimeExecutionError, match="worker 0"):
                for i in range(8 * WIRE_RUN):
                    runtime.inject("serve", ("put", f"j{i}", i))

    def test_with_budget_the_same_sequence_matches_in_process(self):
        crashed = run_kv_with_fault("multiprocess", workers=2, restarts=1,
                                    fault=kill_worker)
        clean = run_kv_with_fault("inprocess")
        assert crashed == clean
        assert len(crashed[0]["serve"]) == 20


    def test_rows_pending_for_a_survivor_are_replayed_once(self):
        # Rows wait in the survivor's route runs when inject finds the
        # dead worker: the restart drops them with the fleet, and the
        # replay queues each once, on the new fleet's links.
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            substrate = runtime.substrate
            runtime.run_until_idle()  # the hellos
            partition = runtime.topology.routers["serve"].partition
            keys = {worker: [key for key in map("k{}".format, range(99))
                             if substrate.placement.owner_of(
                                 "serve", partition(key)) == worker]
                    for worker in (0, 1)}
            for i, key in enumerate(keys[1][:10]):
                runtime.inject("serve", ("put", key, i))
            assert substrate._links[1].queued == 9  # the first went
            kill_worker(runtime, 0)
            runtime.inject("serve", ("put", keys[0][0], 99))
            assert len(runtime.events.events(kind=KIND.WORKER_RESTART)) == 1
            sinks = [route.sink for inputs in runtime._entries.values()
                     for route in inputs.routes]
            for sink in sinks:
                assert (bool(sink.rows)
                        == (sink in substrate._links[sink.owner].runs))
            assert sum(len(sink.rows) for sink in sinks) == sum(
                link.queued for link in substrate._links) == 11
            assert runtime.run_until_idle() == 11
            merged = {}
            for inst in runtime.se_instances("table"):
                merged.update(inst.element.items())
        assert merged == {**{key: i for i, key in enumerate(keys[1][:10])},
                          keys[0][0]: 99}


class TestCoordinatorInputStore:
    """The coordinator ships inputs as plain rows and keeps them only
    while a fleet restart may replay them: counted, never timed."""

    @staticmethod
    def deploy(restarts):
        config = RuntimeConfig(se_instances={"table": 4},
                               substrate="multiprocess", workers=2,
                               worker_restarts=restarts)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        substrate, queued = runtime.substrate, []
        flush_run = substrate._flush_run

        def spy(link):
            queued.extend(row for run in link.runs for row in run.rows)
            return flush_run(link)

        substrate._flush_run = spy
        return runtime, queued

    def test_without_restarts_no_input_is_kept(self):
        runtime, queued = self.deploy(restarts=0)
        with runtime:
            for i in range(2000):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            assert len(queued) == 2000
            assert {type(row) for row in queued} == {tuple}
            logs = list(input_logs(runtime).values())
            assert len(logs) == 4
            assert sum(map(len, logs)) == 0
            assert runtime._entries["serve"].log == []
            assert sum(len(inst.element.items()) for inst
                       in runtime.se_instances("table")) == 2000

    def test_with_restarts_rows_are_kept_until_the_barrier(self):
        runtime, queued = self.deploy(restarts=1)
        with runtime:
            for i in range(200):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            replay_log = runtime._entries["serve"].log
            assert replay_log == []
            for i in range(200, 500):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert len(replay_log) == 300
            assert {type(row) for row in replay_log} == {tuple}
            assert [row[0][2] for row in replay_log] == list(range(200, 500))
            assert runtime.run_until_idle() == 300
            assert replay_log == []
            assert {type(row) for row in queued} == {tuple}
            assert sum(map(len, input_logs(runtime).values())) == 0


class TestNodeRecoveryRefused:
    """The workers hold the nodes: failing one on the coordinator would
    install a replacement no process serves, and hang the next drain."""

    def test_fail_node_raises_and_the_fleet_still_drains(self):
        def run(substrate, workers=None):
            config = RuntimeConfig(se_instances={"table": 2},
                                   substrate=substrate, workers=workers)
            with Runtime(build_kv_sdg(), config).deploy() as runtime:
                for i in range(30):
                    runtime.inject("serve", ("put", f"k{i}", i))
                runtime.run_until_idle()
                if substrate == "multiprocess":
                    node = runtime.se_instance("table", 0).node_id
                    version = runtime.topology.version
                    with pytest.raises(RuntimeExecutionError,
                                       match=r"fail_node.*multiprocess"):
                        runtime.fail_node(node)
                    assert runtime.nodes[node].alive
                    assert runtime.topology.version == version
                for i in range(30, 60):
                    runtime.inject("serve", ("put", f"k{i}", i))
                assert runtime.run_until_idle() == 30
                assert runtime.is_idle()
                return state_fingerprint(runtime)

        assert run("multiprocess", workers=2) == run("inprocess")


def send_empty_frame(runtime, worker_id):
    """Write the worker a frame of 0 bytes: no pickle is empty."""
    os.write(runtime.substrate._links[worker_id].send_fd,
             FRAME_HEADER.pack(0))


def garble_next_frame(runtime, worker_id):
    """Put a garbage frame ahead of what the coordinator next reads from
    the worker, as if the worker had written it."""
    buffer = runtime.substrate._links[worker_id].buffer
    assert len(buffer._buffer) == 0
    buffer._buffer.extend(FRAME_HEADER.pack(3) + b"\xffab")


class TestMalformedFrame:
    """A frame that does not unpickle is a ``WireError``, and whoever
    reads one fails as a dead peer does: a worker reports a crash, and
    the coordinator fails the worker that sent it."""

    def test_a_worker_that_reads_one_reports_a_crash(self):
        links = []

        def fault(runtime, worker_id):
            links.append(runtime.substrate._links[worker_id])
            send_empty_frame(runtime, worker_id)

        with pytest.raises(RuntimeExecutionError, match=(
                "(?s)worker 0 crashed.*WireError: malformed 0-byte frame")):
            run_kv_with_fault("multiprocess", workers=2, fault=fault)
        # Recorded when close() joined and released the worker.
        (link,) = links
        assert link.exitcode == 1

    def test_the_coordinator_fails_the_worker_that_sent_one(self):
        with pytest.raises(RuntimeExecutionError, match=(
                r"worker 0 sent a bad frame: WireError\('malformed 3-byte")):
            run_kv_with_fault("multiprocess", workers=2,
                              fault=garble_next_frame)

    @pytest.mark.parametrize("fault", [send_empty_frame, garble_next_frame])
    def test_with_budget_the_fleet_restarts_and_replays(self, fault):
        restarted = run_kv_with_fault("multiprocess", workers=2, restarts=1,
                                      fault=fault)
        assert restarted == run_kv_with_fault("inprocess")


def build_crash_once_kv(flag_path):
    """A KV app whose ``boom`` key crashes the owning worker exactly
    once: the flag file survives the re-fork, the second service
    succeeds. (Process memory resets on restart; disk does not.)
    ``get`` requests answer ``(key, value)`` as terminal results."""
    sdg = SDG("crashonce")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

    def serve(ctx, request):
        op, key, value = request
        if key == "boom" and not os.path.exists(flag_path):
            with open(flag_path, "w") as fh:
                fh.write("crashed")
            os._exit(13)  # hard death: no MSG_CRASH, no cleanup
        if op == "get":
            return (key, ctx.state.get(key))
        ctx.state.put(key, value)

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda r: r[1], entry_key_name="key")
    return sdg


def build_crash_once_wordcount(flag_path):
    """Wordcount (``split`` -> keyed ``count``) whose ``count`` dies
    hard, once, on the word ``boom`` — the same flag-file trick."""
    sdg = SDG("crashonce-wc")
    sdg.add_state("counts", KeyValueMap, kind=StateKind.PARTITIONED)

    def split(ctx, line):
        for word in line.split():
            ctx.emit(word)

    def count(ctx, word):
        if word == "boom" and not os.path.exists(flag_path):
            with open(flag_path, "w") as fh:
                fh.write("crashed")
            os._exit(13)
        ctx.state.increment(word)

    sdg.add_task("split", split, is_entry=True)
    sdg.add_task("count", count, state="counts",
                 access=AccessMode.PARTITIONED)
    sdg.connect("split", "count", Dispatch.KEY_PARTITIONED,
                key_fn=lambda word: word, key_name="word")
    return sdg


def build_crash_once_two_entries(flag_path):
    """Two entry TEs, each on its own partitioned SE: ``put`` dies
    hard, once, on the key ``boom`` (the same flag-file trick);
    ``count`` increments its key, so a row served twice shows."""
    sdg = SDG("crashonce-two")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)
    sdg.add_state("tally", KeyValueMap, kind=StateKind.PARTITIONED)

    def put(ctx, request):
        key, value = request
        if key == "boom" and not os.path.exists(flag_path):
            with open(flag_path, "w") as fh:
                fh.write("crashed")
            os._exit(13)
        ctx.state.put(key, value)

    def count(ctx, key):
        ctx.state.increment(key)

    sdg.add_task("put", put, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda r: r[0], entry_key_name="key")
    sdg.add_task("count", count, state="tally",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda key: key, entry_key_name="key")
    return sdg


class TestCrashRestartAccounting:
    """Satellite: restart telemetry neither loses nor double-counts."""

    #: One drain: 24 puts, then the key that crashes its worker once.
    ONE_ROUND = ([("put", f"k{i}", i) for i in range(24)]
                 + [("put", "boom", 99)],)

    def run_workload(self, sdg, substrate, workers=None, restarts=0,
                     rounds=ONE_ROUND):
        """Inject each round's requests, draining after every round."""
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate=substrate, workers=workers,
                               worker_restarts=restarts)
        with Runtime(sdg, config).deploy() as runtime:
            for requests in rounds:
                for request in requests:
                    runtime.inject("serve", request)
                runtime.run_until_idle()
            metrics = runtime.merged_metrics().snapshot()
            series = metrics["engine_items_processed_total"]["children"]
            results = {te: sorted(map(repr, items))
                       for te, items in runtime.results.items()}
            events = runtime.events.events(kind=KIND.WORKER_RESTART)
            return (series, results, state_fingerprint(runtime), events)

    def test_merged_metrics_survive_a_restart(self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        crashed = self.run_workload(build_crash_once_kv(flag),
                                    "multiprocess", workers=2,
                                    restarts=1)
        # Oracle: the same program in-process, with the flag pre-set so
        # it never crashes — the restart must be invisible in the
        # merged series, the results and the final state.
        oracle_flag = str(tmp_path / "preset.flag")
        open(oracle_flag, "w").close()
        clean = self.run_workload(build_crash_once_kv(oracle_flag),
                                  "inprocess")
        assert crashed[:3] == clean[:3]
        assert os.path.exists(flag), "the crash never happened"
        assert len(crashed[3]) == 1, "expected one worker-restart event"
        assert clean[3] == []

    def test_restart_after_several_barriers_keeps_state(self, tmp_path):
        # The crash lands in the *third* drain: the re-forked fleet
        # must start from the state, results and counters the first
        # two barriers left, not from what the coordinator held at
        # deploy (a restart that forks from a stale mirror loses k0-k23
        # and answers the gets below with None).
        keys = [f"k{i}" for i in range(24)]
        rounds = (
            [("put", key, i) for i, key in enumerate(keys[:12])],
            [("put", key, i) for i, key in enumerate(keys[12:], 12)]
            + [("get", key, None) for key in keys[:12]],
            [("put", "boom", 99)]
            + [("get", key, None) for key in keys],
        )
        flag = str(tmp_path / "crashed.flag")
        crashed = self.run_workload(build_crash_once_kv(flag),
                                    "multiprocess", workers=2,
                                    restarts=1, rounds=rounds)
        oracle_flag = str(tmp_path / "preset.flag")
        open(oracle_flag, "w").close()
        clean = self.run_workload(build_crash_once_kv(oracle_flag),
                                  "inprocess", rounds=rounds)
        assert crashed[:3] == clean[:3]
        assert len(clean[1]["serve"]) == 36
        assert os.path.exists(flag), "the crash never happened"
        assert len(crashed[3]) == 1, "expected one worker-restart event"

    def test_reforked_workers_re_resolve_local_or_remote(self, tmp_path):
        # Worker-to-worker traffic across a restart: whether a channel's
        # destination is local or foreign is kept on the route stamp, and
        # the re-forked fleet inherits the coordinator's channel records.
        # A flag that survived the fork would drop or misdeliver words.
        lines = [" ".join(f"w{(i * 7 + j) % 23}" for j in range(6))
                 for i in range(90)]
        lines[47] += " boom"  # mid-ingest, in the second drain

        def run(flag, substrate, **config):
            runtime = Runtime(
                build_crash_once_wordcount(flag),
                RuntimeConfig(te_instances={"split": 2},
                              se_instances={"counts": 4},
                              substrate=substrate, **config)).deploy()
            peers = (spy_peers(runtime) if substrate == "multiprocess"
                     else {})
            with runtime:
                for start in range(0, 90, 30):
                    written = sum(map(sum, peers.values()))
                    for line in lines[start:start + 30]:
                        runtime.inject("split", line)
                    runtime.run_until_idle()
                counts = {}
                for instance in runtime.se_instances("counts"):
                    counts.update(instance.element.items())
                metrics = runtime.merged_metrics().snapshot()
                return (counts, state_fingerprint(runtime),
                        metrics["engine_items_processed_total"]["children"],
                        runtime.events.events(kind=KIND.WORKER_RESTART),
                        sum(map(sum, peers.values())) - written)

        flag = str(tmp_path / "crashed.flag")
        crashed = run(flag, "multiprocess", workers=2, worker_restarts=1)
        oracle_flag = str(tmp_path / "preset.flag")
        open(oracle_flag, "w").close()
        clean = run(oracle_flag, "inprocess")
        assert crashed[:3] == clean[:3]
        # The re-forked fleet's workers wrote each other in the last drain.
        assert crashed[4] > 0
        assert sum(clean[0].values()) == 90 * 6 + 1
        assert os.path.exists(flag), "the crash never happened"
        assert len(crashed[3]) == 1, "expected one worker-restart event"

    def test_restart_replays_two_entries_logged_in_one_barrier(
            self, tmp_path):
        # Rows of both entries interleave within one barrier, and the
        # crash lands mid-drain: the restart replays each entry's log
        # in seq order, entry by entry, and every row is served once.
        def run(flag, substrate, **config):
            runtime = Runtime(
                build_crash_once_two_entries(flag),
                RuntimeConfig(se_instances={"table": 2, "tally": 2},
                              substrate=substrate, **config)).deploy()
            with runtime:
                for i in range(40):
                    runtime.inject("put", (f"k{i}", i))
                    runtime.inject("count", f"c{i % 5}")
                    if i == 20:
                        runtime.inject("put", ("boom", 99))
                runtime.run_until_idle()
                tally = {}
                for instance in runtime.se_instances("tally"):
                    tally.update(instance.element.items())
                metrics = runtime.merged_metrics().snapshot()
                return (tally, state_fingerprint(runtime),
                        metrics["engine_items_processed_total"]["children"],
                        runtime.events.events(kind=KIND.WORKER_RESTART),
                        [len(inputs.log) for inputs
                         in runtime._entries.values()])

        flag = str(tmp_path / "crashed.flag")
        crashed = run(flag, "multiprocess", workers=2, worker_restarts=1)
        oracle_flag = str(tmp_path / "preset.flag")
        open(oracle_flag, "w").close()
        clean = run(oracle_flag, "inprocess")
        assert crashed[0] == {f"c{j}": 8 for j in range(5)}
        assert crashed[:3] == clean[:3]
        assert os.path.exists(flag), "the crash never happened"
        (restart,) = crashed[3]
        assert restart.attrs["replayed"] == 81
        assert crashed[4] == [0, 0]  # the barrier cleared both logs

    def test_restart_budget_exhaustion_still_fails(self, tmp_path):
        # Two crash sites, one restart: the second death propagates.
        sdg = SDG("crashtwice")
        sdg.add_state("table", KeyValueMap,
                      kind=StateKind.PARTITIONED)

        def serve(ctx, request):
            op, key, value = request
            if key == "boom":
                raise ValueError("always fatal")
            ctx.state.put(key, value)

        sdg.add_task("serve", serve, state="table",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda r: r[1], entry_key_name="key")
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1)
        with Runtime(sdg, config).deploy() as runtime:
            runtime.inject("serve", ("put", "boom", 1))
            with pytest.raises(RuntimeExecutionError, match="crashed"):
                runtime.run_until_idle()


class TestFleetRestartHygiene:
    """A restarted fleet leaves nothing behind once the runtime closes."""

    def test_close_after_a_restart_releases_every_fd_and_child(
            self, tmp_path):
        fds = len(os.listdir("/proc/self/fd"))
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1)
        runtime = Runtime(build_crash_once_kv(str(tmp_path / "flag")),
                          config).deploy()
        # Pids only: a held ``Process`` would keep its sentinel fd open.
        pids = [link.process.pid for link in runtime.substrate._links]
        with runtime:
            for i in range(24):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.inject("serve", ("put", "boom", 99))
            assert runtime.run_until_idle() == 25
            pids += [link.process.pid for link in runtime.substrate._links]
            restarts = runtime.events.events(kind=KIND.WORKER_RESTART)
        assert len(restarts) == 1
        assert len(set(pids)) == 4
        # Reaped, not merely exited: a zombie still has a /proc entry.
        assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []
        assert len(os.listdir("/proc/self/fd")) == fds


class TestCrashFlightRecorder:
    """Tentpole: a dying worker ships its last-N envelope digests."""

    def test_fatal_error_carries_the_flight_tail(self):
        sdg = SDG("blackbox")
        sdg.add_state("table", KeyValueMap,
                      kind=StateKind.PARTITIONED)

        def serve(ctx, request):
            op, key, value = request
            if key == "boom":
                raise ValueError("injected task failure")
            ctx.state.put(key, value)

        sdg.add_task("serve", serve, state="table",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda r: r[1], entry_key_name="key")
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               flight_recorder=32)
        with Runtime(sdg, config).deploy() as runtime:
            for i in range(10):
                runtime.inject("serve", ("put", "steady", i))
            runtime.inject("serve", ("put", "boom", 1))
            with pytest.raises(RuntimeExecutionError) as err:
                runtime.run_until_idle()
        text = str(err.value)
        assert "flight recorder" in text
        # The ring shows the fatal envelope itself as its last entry.
        assert "'boom'" in text
        assert "serve" in text


class TestMergedProfile:
    """Tentpole: worker phase shards fold into one profile view."""

    def test_profile_merges_worker_and_coordinator_phases(self):
        def run(**substrate):
            config = RuntimeConfig(se_instances={"counts": 2},
                                   profile=True, **substrate)
            with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
                for i in range(30):
                    runtime.inject("split", (i, f"w{i % 5} w{i % 4}"))
                runtime.run_until_idle()
                profile = runtime.merged_profile()
                return profile, (profile.count("process"),
                                 profile.count("dispatch"))

        profile, counts = run(substrate="multiprocess", workers=2)
        names = set(profile.names())
        # Worker-side phases...
        assert {"process", "dispatch"} <= names
        # ...and wire phases, timed on both ends, in one registry.
        assert profile.count("serialize") > 0
        assert profile.count("wire_wait") > 0
        # Every line and word was served once fleet-wide, and each
        # line's words went through one ``dispatcher.dispatch`` call,
        # as in-process.
        assert counts == (30 + 2 * 30, 30)
        assert run()[1] == counts

    def test_restart_retires_phases_with_the_metric_shards(self, tmp_path):
        # Phases are metric series: a restarted fleet's barrier-fenced
        # phases are retired with its shards, not dropped, so the
        # fleet-wide count never goes down across the restart.
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1, profile=True)
        runtime = Runtime(build_crash_once_kv(str(tmp_path / "flag")),
                          config).deploy()
        rounds = ([("put", f"k{i}", i) for i in range(24)],
                  [("put", f"j{i}", i) for i in range(12)]
                  + [("put", "boom", 99)])
        counts = []
        with runtime:
            for requests in rounds:
                for request in requests:
                    runtime.inject("serve", request)
                runtime.run_until_idle()
                counts.append(runtime.merged_profile().count("process"))
            processed = runtime.merged_metrics().total(
                "engine_items_processed_total")
            restarts = runtime.events.events(kind=KIND.WORKER_RESTART)
        assert len(restarts) == 1
        assert counts == [24, 37]
        assert processed == 37

    def test_profile_off_means_none(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            runtime.inject("serve", ("put", "a", 1))
            runtime.run_until_idle()
            assert runtime.merged_profile() is None
