"""Tests for the execution-substrate layer.

The substrate contract is behavioural equivalence: for the same
injected inputs, every substrate must produce the same final SE state
(the cross-substrate differential tests assert it via the durability
layer's partition-independent ``state_fingerprint``) and the same
terminal results. On top of that, this file covers the multiprocess
specifics: wire backpressure under a bounded in-flight window, crash
propagation, barrier metrics merging, state that stays in the workers
until it is read, envelope runs on the wire (one frame per flush per
link), the payload-isolation capability flag, and the deploy-time
configuration gates.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.apps import CollaborativeFiltering
from repro.apps.wordcount import build_wordcount_sdg
from repro.core import SDG
from repro.core.elements import AccessMode, StateKind
from repro.durability.manifest import state_fingerprint
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND
from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import (
    InProcessSubstrate,
    Runtime,
    RuntimeConfig,
    SUBSTRATES,
    resolve_substrate,
)
from repro.runtime.multiprocess import WIRE_RUN, MultiprocessSubstrate
from repro.runtime.transport import Transport
from repro.runtime.wire import MSG_DELIVER
from repro.state import KeyValueMap, Matrix, Vector
from repro.testing import build_iterative_sdg, build_kv_sdg
from repro.workloads import RatingsWorkload
from tests.runtime.test_multiprocess_obs import build_crash_once_kv, spy_peers

WORDCOUNT_TEXT = ["the quick brown fox", "jumps over the lazy dog",
                  "the fox", "dog days of state"]


def run_kv(substrate, workers=None, puts=120, gets=13, partitions=4,
           **knobs):
    """A fixed KV workload; returns (processed, fingerprint, results)."""
    config = RuntimeConfig(se_instances={"table": partitions},
                           substrate=substrate, workers=workers, **knobs)
    with Runtime(build_kv_sdg(), config).deploy() as runtime:
        for i in range(puts):
            runtime.inject("serve", ("put", f"k{i % 17}", i))
        for i in range(gets):
            runtime.inject("serve", ("get", f"k{i}", None))
        processed = runtime.run_until_idle()
        fingerprint = state_fingerprint(runtime)
        results = {te: sorted(map(repr, items))
                   for te, items in runtime.results.items()}
    return processed, fingerprint, results


def run_wordcount(substrate, workers=None, lines=80, partitions=4):
    config = RuntimeConfig(se_instances={"counts": partitions},
                           substrate=substrate, workers=workers)
    with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
        for i in range(lines):
            runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
        processed = runtime.run_until_idle()
        fingerprint = state_fingerprint(runtime)
        results = {te: sorted(map(repr, items))
                   for te, items in runtime.results.items()}
    return processed, fingerprint, results


class TestCrossSubstrateDifferential:
    """Same inputs => same merged final state, on either substrate."""

    def test_kvstore_state_and_results_identical(self):
        inproc = run_kv("inprocess")
        multi = run_kv("multiprocess", workers=3)
        assert multi == inproc

    def test_wordcount_state_and_results_identical(self):
        inproc = run_wordcount("inprocess")
        multi = run_wordcount("multiprocess", workers=4)
        assert multi == inproc

    def test_iterative_loop_crosses_workers(self):
        # stepA -> stepB -> stepA keyed ping-pong: with one partition
        # per worker a hop often crosses from worker to worker.
        def run(substrate, workers=None):
            config = RuntimeConfig(
                se_instances={"modelA": 2, "modelB": 2},
                substrate=substrate, workers=workers,
            )
            with Runtime(build_iterative_sdg(), config).deploy() as runtime:
                for n in (5, 8, 3):
                    runtime.inject("stepA", n)
                processed = runtime.run_until_idle()
                fingerprint = state_fingerprint(runtime)
            return processed, fingerprint

        assert run("multiprocess", workers=2) == run("inprocess")

    def test_cf_replies_match_full_scan_multiply(self, monkeypatch):
        def full_scan_multiply(self, vector):
            """``Matrix.multiply`` as it was before the column index."""
            values = vector.to_list()
            result = Vector()
            for (row, col), cell in self._iter_items():
                if col < len(values) and values[col]:
                    result.add(row, cell * values[col])
            return result

        ops = list(RatingsWorkload(n_users=12, n_items=15, skew=0.8,
                                   read_fraction=0.2, seed=5).ops(300))

        def run(substrate, workers=None):
            app = CollaborativeFiltering.launch(
                RuntimeConfig(substrate=substrate, workers=workers),
                user_item=2, co_occ=2)
            with app.runtime:
                for op in ops:
                    if op.kind == "add_rating":
                        app.add_rating(op.user, op.item, op.rating)
                    else:
                        # A read waits for the writes before it, or its
                        # reply would depend on how the workers raced.
                        app.run()
                        app.get_rec(op.user)
                        app.run()
                app.run()
                replies = [rec.to_list() for rec in app.results("get_rec")]
                return replies, state_fingerprint(app.runtime)

        with monkeypatch.context() as patched:
            patched.setattr(Matrix, "multiply", full_scan_multiply)
            reference = run("inprocess")
        assert len(reference[0]) == sum(
            op.kind == "get_rec" for op in ops)
        assert any(any(reply) for reply in reference[0])
        assert run("inprocess") == reference
        assert run("multiprocess", workers=2) == reference

    def test_concurrent_broadcasts_from_two_workers_all_complete(self):
        """Both workers broadcast at once: each request id names its
        producer instance, so no two collide at the merge barrier."""
        ops = list(RatingsWorkload(n_users=12, n_items=15, skew=0.8,
                                   read_fraction=0.0, seed=5).ops(200))

        def run(substrate, workers=None):
            app = CollaborativeFiltering.launch(
                RuntimeConfig(substrate=substrate, workers=workers),
                user_item=2, co_occ=2)
            with app.runtime:
                for op in ops:
                    app.add_rating(op.user, op.item, op.rating)
                app.run()
                for user in range(12):
                    app.get_rec(user)
                app.run()
                return sorted(rec.to_list()
                              for rec in app.results("get_rec"))

        reference = run("inprocess")
        assert len(reference) == 12
        assert run("multiprocess", workers=2) == reference

    def test_more_workers_than_nodes(self):
        # Extra workers simply own nothing; correctness is unchanged.
        inproc = run_kv("inprocess", partitions=2)
        multi = run_kv("multiprocess", workers=6, partitions=2)
        assert multi == inproc

    def test_repeated_runs_accumulate_consistently(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            runtime.inject("serve", ("put", "a", 1))
            first = runtime.run_until_idle()
            runtime.inject("serve", ("put", "b", 2))
            runtime.inject("serve", ("get", "a", None))
            second = runtime.run_until_idle()
            merged = {}
            for inst in runtime.se_instances("table"):
                merged.update(dict(inst.element.items()))
        assert (first, second) == (1, 2)
        assert merged == {"a": 1, "b": 2}
        assert ("a", 1) in runtime.results["serve"]


class TestWireBackpressure:
    """A burst on the coordinator->worker wire: in flight, then drained."""

    def test_burst_drains_without_loss(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            # The coordinator never pumps during injection, so the whole
            # burst is in flight when the drain starts. Delivery never
            # drops: the drain completes (no deadlock), every envelope is
            # acknowledged and reaches its partition (no loss).
            n = 100
            for i in range(n):
                runtime.inject("serve", ("put", f"k{i}", i))
            processed = runtime.run_until_idle()
            assert processed == n
            assert runtime.substrate._quiet()
            merged = {}
            for inst in runtime.se_instances("table"):
                merged.update(dict(inst.element.items()))
            assert merged == {f"k{i}": i for i in range(n)}

    def test_pending_envelope_is_in_flight(self):
        # Less than one run injected, nothing pumped: no frame went, and
        # all 40 rows sit in the coordinator's pending runs, one per
        # route of each worker's; the counters already say all 40 are
        # in flight — not quiet.
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            substrate = runtime.substrate
            runtime.run_until_idle()  # consume the hello handshake
            assert substrate._quiet()
            frames = wire_totals(runtime)[0]
            for i in range(40):
                runtime.inject("serve", ("put", f"k{i}", i))
            pending = [link.queued for link in substrate._links]
            assert sum(pending) == 40 and max(pending) < WIRE_RUN
            for link in substrate._links:
                assert sum(len(run.rows) for run in link.runs) == link.queued
                for run in link.runs:
                    (channel,) = {row[2] for row in run.rows}
                    assert substrate.placement.owner_of(
                        channel.dst_te, channel.dst_instance) == run.owner
                    assert run.owner == link.worker_id
            assert wire_totals(runtime)[0] == frames
            assert sum(link.sent - link.consumed
                       for link in substrate._links) == 40
            assert not substrate._quiet()
            assert runtime.run_until_idle() == 40
            assert substrate._quiet()


class TestMultiprocessLifecycle:
    def test_runtime_is_a_context_manager_that_closes_on_a_raise(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with pytest.raises(KeyError):
            with Runtime(build_kv_sdg(), config).deploy() as runtime:
                links = list(runtime.substrate._links)
                runtime.inject("serve", ("put", "a", 1))
                runtime.run_until_idle()
                raise KeyError("mid-run")
        assert runtime.substrate._links == []
        assert [link.exitcode for link in links] == [0, 0]

    def test_worker_crash_propagates_with_traceback(self):
        sdg = SDG("crashy")
        sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

        def serve(ctx, request):
            op, key, value = request
            if key == "boom":
                raise ValueError("injected task failure")
            ctx.state.put(key, value)

        sdg.add_task("serve", serve, state="table",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda r: r[1], entry_key_name="key")
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(sdg, config).deploy() as runtime:
            runtime.inject("serve", ("put", "ok", 1))
            runtime.inject("serve", ("put", "boom", 2))
            with pytest.raises(RuntimeExecutionError, match="crashed"):
                runtime.run_until_idle()

    def test_close_is_idempotent_and_reaps_workers(self):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        substrate = runtime.substrate
        links = list(substrate._links)
        runtime.inject("serve", ("put", "a", 1))
        runtime.run_until_idle()
        runtime.close()
        runtime.close()
        assert substrate._links == []
        for link in links:
            # Reaped: the exit code recorded when its Process was closed.
            assert link.exitcode is not None

    def test_close_with_undrained_input_is_prompt_and_leaks_no_fd(self):
        fds_before = len(os.listdir("/proc/self/fd"))
        others = set(multiprocessing.active_children())
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        assert len(set(multiprocessing.active_children()) - others) == 2
        for i in range(100):
            runtime.inject("serve", ("put", f"k{i}", i))
        started = time.monotonic()
        runtime.close()
        assert time.monotonic() - started < 5.0
        assert set(multiprocessing.active_children()) <= others
        assert len(os.listdir("/proc/self/fd")) == fds_before

    @pytest.mark.parametrize("undrained", [0, 20_000])
    def test_sigkilled_coordinator_leaves_no_workers(self, undrained):
        """Workers notice their coordinator's death and exit, idle or
        with input still queued. An orphan waits as a zombie until its
        new parent reaps it, so a zombie counts as gone."""
        script = (
            "import sys, time\n"
            "from repro.runtime import Runtime, RuntimeConfig\n"
            "from repro.testing import build_kv_sdg\n"
            "config = RuntimeConfig(se_instances={'table': 2},\n"
            "                       substrate='multiprocess', workers=2)\n"
            "runtime = Runtime(build_kv_sdg(), config).deploy()\n"
            f"for i in range({undrained}):\n"
            "    runtime.inject('serve', ('put', i, i))\n"
            "print(*(link.process.pid for link in runtime.substrate._links),"
            " flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE)
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            child.kill()
            child.wait()
            child.stdout.close()

        def gone(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    # The state follows the parenthesised command name.
                    return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
            except FileNotFoundError:
                return True

        deadline = time.monotonic() + 10.0
        while not all(map(gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(map(gone, pids))

    def test_merged_metrics_match_inprocess_totals(self):
        def processed_series(substrate, workers=None):
            config = RuntimeConfig(se_instances={"table": 2},
                                   substrate=substrate, workers=workers)
            with Runtime(build_kv_sdg(), config).deploy() as runtime:
                for i in range(40):
                    runtime.inject("serve", ("put", f"k{i}", i))
                runtime.run_until_idle()
                snap = runtime.merged_metrics().snapshot()
            return snap["engine_items_processed_total"]["children"]

        assert processed_series("multiprocess", workers=2) \
            == processed_series("inprocess")

    def test_run_returns_processed_delta_per_barrier(self):
        _, _, _ = run_kv("multiprocess", workers=2, puts=30, gets=0)
        processed, _, _ = run_kv("inprocess", puts=30, gets=0)
        assert processed == 30


def deploy_kv(substrate="multiprocess", sdg=None, **knobs):
    """Four KV partitions; on two workers when multiprocess."""
    config = RuntimeConfig(
        se_instances={"table": 4}, substrate=substrate,
        workers=2 if substrate == "multiprocess" else None, **knobs)
    return Runtime(sdg or build_kv_sdg(), config).deploy()


def per_key(replies):
    """``(key, value)`` replies grouped by key, order kept."""
    grouped = {}
    for key, value in replies:
        grouped.setdefault(key, []).append(value)
    return grouped


def wire_totals(runtime):
    """(frames, bytes) crossing the star so far, both roles and ways."""
    metrics = runtime.merged_metrics()
    return (metrics.total("wire_frames_total"),
            metrics.total("wire_bytes_total"))


class TestStateStaysInWorkers:
    """Quiescence is the barrier; SE state crosses only when read.

    Everything here is a count the program makes itself — frames,
    bytes, object identity — never a wall clock.
    """

    deploy = staticmethod(deploy_kv)

    def test_empty_drain_touches_no_pipe(self):
        with self.deploy() as runtime:
            for i in range(20):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert runtime.run_until_idle() == 20
            for read_state_first in (False, True):
                if read_state_first:
                    # A state pull leaves no frame behind either.
                    state_fingerprint(runtime)
                before = wire_totals(runtime)
                assert runtime.run_until_idle() == 0
                assert wire_totals(runtime) == before

    def test_request_bytes_do_not_grow_with_state(self):
        def get_round_bytes(distinct_keys):
            with self.deploy() as runtime:
                # Same operations, same values, same counters on both
                # sides: only the number of entries held differs.
                for i in range(5000):
                    runtime.inject(
                        "serve", ("put", f"k{i % distinct_keys}", "v"))
                runtime.run_until_idle()
                deltas = []
                for _ in range(2):
                    before = wire_totals(runtime)
                    runtime.inject("serve", ("get", "k7", None))
                    runtime.run_until_idle()
                    after = wire_totals(runtime)
                    deltas.append((after[0] - before[0],
                                   after[1] - before[1]))
                assert runtime.results["serve"] == [("k7", "v")] * 2
                return deltas

        assert get_round_bytes(100) == get_round_bytes(5000)

    def test_results_arrive_as_deltas_into_the_same_lists(self):
        def rounds(runtime):
            seen = []
            for n in range(6):
                for i in range(8):
                    runtime.inject("serve", ("put", f"k{i}", (n, i)))
                    runtime.inject("serve", ("get", f"k{i}", None))
                runtime.run_until_idle()
                seen.append(len(runtime.results["serve"]))
            return seen

        oracle = self.deploy("inprocess")
        oracle_seen = rounds(oracle)
        with self.deploy() as runtime:
            results, bucket = runtime.results, runtime.results["serve"]
            assert rounds(runtime) == oracle_seen
            # The driver may hold a reference across requests.
            assert runtime.results is results
            assert runtime.results["serve"] is bucket
        # Each key lives in one partition, so its replies keep their
        # order; across keys only the worker-order merge is fixed.
        assert per_key(bucket) == per_key(oracle.results["serve"])
        assert runtime.results["serve"] is bucket

    def test_a_read_before_the_drain_sees_what_reached_the_workers(self):
        # A worker answers a state pull with its next report, once idle:
        # the read includes every put routed before it, and the report
        # it rides on is a quiescence report like any other, so the
        # drain after it still counts those puts.
        with self.deploy() as runtime:
            for i in range(20):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert runtime.run_until_idle() == 20
            for i in range(20, 220):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert sum(len(dict(instance.element.items())) for instance
                       in runtime.se_instances("table")) == 220
            assert runtime.run_until_idle() == 200

    def test_checkpoint_pulls_before_it_freezes(self):
        # CheckpointManager walks node.se_instances itself, past the
        # Runtime accessors: begin() is a pull point of its own.
        with self.deploy() as runtime:
            for i in range(40):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            manager = CheckpointManager(runtime, BackupStore(m_targets=2))
            checkpoints = manager.checkpoint_all()
        assert sum(c.state_entries() for c in checkpoints) == 40

    def test_state_read_after_close_is_the_last_barrier(self):
        def drained(substrate):
            runtime = self.deploy(substrate)
            for i in range(60):
                runtime.inject("serve", ("put", f"k{i % 23}", i))
            runtime.run_until_idle()
            return runtime

        expected = state_fingerprint(drained("inprocess"))
        with drained("multiprocess") as read_first:
            before = state_fingerprint(read_first)
        assert before == state_fingerprint(read_first) == expected
        never_read = drained("multiprocess")
        never_read.close()
        assert state_fingerprint(never_read) == expected


def send_frames(runtime, role):
    return runtime.merged_metrics().value(
        "wire_frames_total", direction="send", role=role)


def peer_frames(runtime):
    """Frames the workers wrote each other, exact at a barrier: what
    they sent less what the coordinator read, and what they read less
    what the coordinator sent."""
    metrics = runtime.merged_metrics()

    def frames(direction, role):
        return metrics.value("wire_frames_total", direction=direction,
                             role=role)

    written = frames("send", "worker") - frames("recv", "coordinator")
    assert written == frames("recv", "worker") - frames(
        "send", "coordinator")
    return written


class TestEnvelopeRuns:
    """Envelopes cross the wire in lists: one frame per flush per link.

    Counts the program makes itself and cross-substrate equality only;
    no wall clock.
    """

    def test_kv_ingest_frames_are_per_run_not_per_envelope(self):
        with deploy_kv() as runtime:
            runtime.run_until_idle()
            before = send_frames(runtime, "coordinator")
            n = 5000
            for i in range(n):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert runtime.run_until_idle() == n
            sent = send_frames(runtime, "coordinator") - before
            assert 0 < sent <= math.ceil(n / WIRE_RUN) + 2

    def test_a_closed_loop_get_moves_two_frames(self):
        def frames_sent(runtime):
            return (send_frames(runtime, "coordinator")
                    + send_frames(runtime, "worker"))

        with deploy_kv() as runtime:
            for i in range(20):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            before = frames_sent(runtime)
            for round_ in range(1, 11):
                runtime.inject("serve", ("get", f"k{round_}", None))
                assert frames_sent(runtime) == before + 2 * round_ - 2
                assert runtime.run_until_idle() == 1
                # The input, framed at the drain's first pump, and the
                # worker's idle report.
                assert frames_sent(runtime) == before + 2 * round_
            assert len(runtime.results["serve"]) == 10

    def test_wordcount_peer_frames_are_a_tenth_of_forwards(self):
        # The first peer run after a wake ships early; the rest still
        # batch, so the frames stay a tenth of the envelopes they carry.
        config = RuntimeConfig(se_instances={"counts": 4},
                               substrate="multiprocess", workers=2)
        with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
            for i in range(3000):
                runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
            runtime.run_until_idle()
            forwards = runtime.merged_metrics().total(
                "transport_wire_forwards_total")
            assert forwards > 1000
            assert 0 < peer_frames(runtime) * 10 <= forwards

    def test_a_woken_worker_ships_its_first_peer_run_at_once(self):
        # One split instance wakes on a frame of four lines. The first
        # split ships its peer run before the next step; the other two
        # batch until the worker is idle: two peer frames, where a
        # worker that flushed only when idle would write one, and one
        # that flushed after every step three. (An empty line goes
        # first in the same frame: its step sends nothing, so the ship
        # waits for the first step that does.)
        config = RuntimeConfig(te_instances={"split": 1},
                               se_instances={"counts": 4},
                               substrate="multiprocess", workers=2)
        with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
            runtime.run_until_idle()  # the hellos
            runtime.inject("split", (0, ""))
            words = " ".join(f"w{i}" for i in range(12))
            for i in range(3):
                runtime.inject("split", (i, words))
            runtime.run_until_idle()
            assert runtime.merged_metrics().total(
                "transport_wire_forwards_total") >= 3
            assert peer_frames(runtime) == 2

    def test_the_coordinator_never_decodes_a_forward(self):
        # Forwards go from worker to worker: the coordinator routes what
        # was injected, and reads only reports, trace shards and crashes.
        config = RuntimeConfig(se_instances={"counts": 4},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_wordcount_sdg(), config).deploy()
        deliver, routed = runtime.substrate.deliver, []

        def spy(route, row):
            routed.append(row)
            return deliver(route, row)

        runtime.substrate.deliver = spy
        written = spy_peers(runtime)
        with runtime:
            for i in range(3000):
                runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
            runtime.run_until_idle()
            metrics = runtime.merged_metrics()
            forwards = metrics.total("transport_wire_forwards_total")
            assert forwards > 1000
            assert sum(map(sum, written.values())) == forwards
            assert len(routed) == metrics.total(
                "engine_items_injected_total") == 3000

    def test_workers_keep_no_output_buffers(self):
        # Nothing on a fleet replays a producer's output buffers, so each
        # report empties them: after a drain, the state pull's report
        # finds none on either worker (every split send would be there
        # if they were kept).
        config = RuntimeConfig(se_instances={"counts": 4},
                               substrate="multiprocess", workers=2)
        with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
            for i in range(3000):
                runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
            runtime.run_until_idle()
            state_fingerprint(runtime)
            held = [shard["engine_output_buffered_envelopes"]["children"]
                    for shard in runtime.substrate.metric_shards]
            assert held == [{(): 0.0}, {(): 0.0}]

    def test_three_workers_write_to_both_peers(self):
        def run(substrate, workers=None):
            runtime = Runtime(
                build_wordcount_sdg(),
                RuntimeConfig(te_instances={"split": 3},
                              se_instances={"counts": 6},
                              substrate=substrate, workers=workers),
            ).deploy()
            written = (spy_peers(runtime) if substrate == "multiprocess"
                       else {})
            with runtime:
                for i in range(300):
                    runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
                runtime.run_until_idle()
                # Then read the counts back across a second barrier.
                for word in ("the", "fox", "state", "absent"):
                    runtime.inject("query", (0, word))
                runtime.run_until_idle()
                peers = {src: {dst for dst, n in enumerate(sent) if n}
                         for src, sent in written.items()}
                results = {te: sorted(map(repr, items))
                           for te, items in runtime.results.items()}
                return peers, results, state_fingerprint(runtime)

        peers, *outcome = run("multiprocess", workers=3)
        assert peers == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert outcome == list(run("inprocess")[1:])

    @pytest.mark.parametrize("items", [63, 64, 65, 128, 129])
    def test_order_survives_list_boundaries(self, items):
        # Few keys, so every key's puts and gets straddle the frames;
        # a key lives in one partition and its replies keep their order.
        def run(substrate):
            with deploy_kv(substrate) as runtime:
                for i in range(items):
                    key = f"k{i % 3}"
                    runtime.inject("serve", ("put", key, i))
                    runtime.inject("serve", ("get", key, None))
                assert runtime.run_until_idle() == 2 * items
                return (per_key(runtime.results["serve"]),
                        state_fingerprint(runtime))

        assert run("multiprocess") == run("inprocess")

    def test_round_trips_do_not_wait_for_a_list_to_fill(self):
        # Every hop of the loop, and the broadcast and replies of a CF
        # read, cross from worker to worker — in total fewer envelopes
        # than one run, so a flush that waited for a full list would
        # never let these drains return.
        def forwards(runtime):
            return runtime.merged_metrics().total(
                "transport_wire_forwards_total")

        config = RuntimeConfig(se_instances={"modelA": 2, "modelB": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_iterative_sdg(), config).deploy() as runtime:
            for n in (5, 8, 3):
                runtime.inject("stepA", n)
            assert runtime.run_until_idle() > 3
            assert 0 < forwards(runtime) < WIRE_RUN

        def recommend(substrate, workers=None):
            app = CollaborativeFiltering.launch(
                RuntimeConfig(substrate=substrate, workers=workers),
                user_item=2, co_occ=2)
            with app.runtime:
                for user in range(3):
                    for item in range(3):
                        app.add_rating(user, (user + item) % 4, 1 + item)
                app.run()
                before = forwards(app.runtime)
                app.get_rec(1)
                app.run()
                return (app.results("get_rec")[0].to_list(),
                        forwards(app.runtime) - before)

        rec, forwarded = recommend("multiprocess", workers=2)
        assert 0 < forwarded < WIRE_RUN
        assert (rec, 0) == recommend("inprocess")

    def test_restart_replays_flushed_and_pending_lists(self, tmp_path):
        def run(flag, substrate, restarts=0):
            with deploy_kv(substrate, build_crash_once_kv(flag),
                           worker_restarts=restarts) as runtime:
                if substrate == "multiprocess":
                    runtime.run_until_idle()  # hello consumed
                # All on the crashing worker's link: WIRE_RUN + 5 puts,
                # the key that kills its worker once, 30 more puts. No
                # pump in between, so the link holds one flushed list
                # (WIRE_RUN) and one pending (36) when the drain starts.
                index = runtime.topology.routers["serve"].partition
                keys = [f"k{i}" for i in range(8 * WIRE_RUN)
                        if index(f"k{i}") == index("boom")]
                first = WIRE_RUN + 5
                keys = keys[:first] + ["boom"] + keys[first:first + 30]
                assert len(keys) == WIRE_RUN + 36
                for i, key in enumerate(keys):
                    runtime.inject("serve", ("put", key, i))
                if substrate == "multiprocess":
                    assert sorted(
                        sum(len(run.rows) for run in link.runs)
                        for link in runtime.substrate._links) == [0, 36]
                assert runtime.run_until_idle() == WIRE_RUN + 36
                series = runtime.merged_metrics().snapshot()[
                    "engine_items_processed_total"]["children"]
                restarts = runtime.events.events(kind=KIND.WORKER_RESTART)
                return series, state_fingerprint(runtime), len(restarts)

        flag = str(tmp_path / "crashed.flag")
        crashed = run(flag, "multiprocess", restarts=1)
        assert os.path.exists(flag), "the crash never happened"
        preset = str(tmp_path / "preset.flag")
        open(preset, "w").close()
        assert crashed == run(preset, "inprocess")[:2] + (1,)


class TestRunsPerChannel:
    """A ``MSG_DELIVER`` holds one run per channel, from the coordinator
    and from a peer alike. Counts the program makes itself; no clock."""

    def test_every_input_run_is_one_channel_its_receiver_owns(self):
        with deploy_kv() as runtime:
            substrate = runtime.substrate
            runtime.run_until_idle()  # the hellos
            frames, frame = [], substrate._frame

            def spy(link, message):
                if message[0] == MSG_DELIVER:
                    frames.append((link.worker_id, message[1]))
                return frame(link, message)

            substrate._frame = spy
            for i in range(2000):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert runtime.run_until_idle() == 2000
        owner = substrate.placement.owner_of
        runs = [(worker, rows) for worker, runs in frames for rows in runs]
        assert sum(len(rows) for _worker, rows in runs) == 2000
        for worker, rows in runs:
            (channel,) = {row[2] for row in rows}
            assert owner(channel.dst_te, channel.dst_instance) == worker
        # Each worker owns two of the four routes, both in every frame
        # of this interleaved stream, and a frame holds at most WIRE_RUN
        # rows.
        assert {len(runs) for _worker, runs in frames} == {2}
        assert max(sum(map(len, runs)) for _worker, runs in frames) \
            <= WIRE_RUN

    def test_every_peer_run_is_one_channel_and_the_barrier_closes(
            self, tmp_path, monkeypatch):
        # Patched on the class before deploy, so forked workers inherit
        # it; a file, because the runs land in the worker processes.
        landed = tmp_path / "runs.txt"
        deliver_run = Transport.deliver_run

        def spy(transport, rows):
            with open(landed, "a") as out:
                out.write(f"{rows[0][2].edge_index} "
                          f"{len({row[2] for row in rows})} {len(rows)}\n")
            return deliver_run(transport, rows)

        monkeypatch.setattr(Transport, "deliver_run", spy)
        lines = 400
        config = RuntimeConfig(se_instances={"counts": 4},
                               substrate="multiprocess", workers=2)
        with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
            for i in range(lines):
                runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
            processed = runtime.run_until_idle()
            forwards = runtime.merged_metrics().total(
                "transport_wire_forwards_total")
            fingerprint = state_fingerprint(runtime)
        runs = [tuple(map(int, line.split()))
                for line in landed.read_text().splitlines()]
        assert {channels for _edge, channels, _rows in runs} == {1}
        peer = [rows for edge, _channels, rows in runs if edge != -1]
        assert len(peer) > 1 and sum(peer) == forwards
        assert sum(rows for edge, _channels, rows in runs
                   if edge == -1) == lines
        assert (processed, fingerprint) == run_wordcount(
            "inprocess", lines=lines)[:2]


class TestPayloadIsolation:
    """The serialisation boundary is the isolation."""

    def test_mutating_consumer_cannot_corrupt_producer_payload(self):
        # End to end: a worker that mutates its input is never
        # observable by the injector, because the wire hands it a copy.
        sdg = SDG("mutate")
        sdg.add_state("seen", KeyValueMap, kind=StateKind.PARTITIONED)

        def absorb(ctx, item):
            key, values = item
            values.append("consumer-was-here")
            ctx.state.put(key, list(values))

        sdg.add_task("absorb", absorb, state="seen",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda item: item[0],
                     entry_key_name="key")
        config = RuntimeConfig(se_instances={"seen": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(sdg, config).deploy() as runtime:
            original = ["pristine"]
            runtime.inject("absorb", ("k", original))
            runtime.run_until_idle()
            assert original == ["pristine"]


class TestResolutionAndGates:
    def test_default_substrate_is_inprocess(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        assert isinstance(runtime.substrate, InProcessSubstrate)
        assert runtime.substrate.name == "inprocess"

    def test_registry_names(self):
        assert SUBSTRATES == ("inprocess", "multiprocess")
        config = RuntimeConfig(workers=3, substrate="multiprocess")
        resolved = resolve_substrate("multiprocess", config)
        assert isinstance(resolved, MultiprocessSubstrate)
        assert resolved.workers == 3

    def test_workers_default_to_two(self):
        config = RuntimeConfig(substrate="multiprocess")
        assert resolve_substrate("multiprocess", config).workers == 2

    def test_unknown_substrate_fails_at_deploy(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(substrate="threads"))
        with pytest.raises(RuntimeExecutionError,
                           match="unknown substrate"):
            runtime.deploy()

    def test_custom_substrate_object_passthrough(self):
        substrate = InProcessSubstrate()
        config = RuntimeConfig(substrate=substrate)
        assert resolve_substrate(substrate, config) is substrate

    def test_non_substrate_object_rejected(self):
        with pytest.raises(RuntimeExecutionError, match="protocol"):
            resolve_substrate(42, RuntimeConfig())

    def test_workers_require_multiprocess(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(workers=2))
        with pytest.raises(RuntimeExecutionError,
                           match="substrate='multiprocess'"):
            runtime.deploy()

    def test_bad_worker_count_rejected(self):
        config = RuntimeConfig(substrate="multiprocess", workers=0)
        with pytest.raises(RuntimeExecutionError, match="workers"):
            config.validate(build_kv_sdg())

    def test_auto_scale_requires_inprocess(self):
        config = RuntimeConfig(substrate="multiprocess",
                               auto_scale=True)
        with pytest.raises(RuntimeExecutionError, match="auto_scale"):
            config.validate(build_kv_sdg())

    def test_scale_up_refused_on_multiprocess(self):
        # The workers hold the SE state; scaling the coordinator's stale
        # copy would break the next drain. Refused before any mutation.
        def drive(runtime, start):
            for i in range(start, start + 30):
                runtime.inject("serve", ("put", f"k{i % 17}", i))
            runtime.run_until_idle()

        def shape(runtime):
            return (runtime.topology.version, runtime.se_epoch("table"),
                    runtime.te_slot_count("serve"))

        twin = Runtime(build_kv_sdg(),
                       RuntimeConfig(se_instances={"table": 2})).deploy()
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            drive(runtime, 0)
            drive(twin, 0)
            before = shape(runtime)
            with pytest.raises(RuntimeExecutionError,
                               match="multiprocess substrate"):
                runtime.scale_up("serve")
            assert shape(runtime) == before
            drive(runtime, 30)
            drive(twin, 30)
            assert state_fingerprint(runtime) == state_fingerprint(twin)

    def test_trace_deploys_on_multiprocess(self):
        # The trace gate is gone: workers record hops locally and the
        # coordinator merges their shards (see test_multiprocess_obs).
        config = RuntimeConfig(substrate="multiprocess", workers=2,
                               trace=True)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            runtime.inject("serve", ("put", "k", 1))
            runtime.run_until_idle()
            assert runtime.tracer is not None

    def test_worker_restarts_require_multiprocess(self):
        config = RuntimeConfig(worker_restarts=1)
        with pytest.raises(RuntimeExecutionError,
                           match="worker_restarts"):
            config.validate(build_kv_sdg())

    def test_bad_flight_recorder_capacity_rejected(self):
        config = RuntimeConfig(flight_recorder=-1)
        with pytest.raises(RuntimeExecutionError,
                           match="flight_recorder"):
            config.validate(build_kv_sdg())


class TestParallelOverlapSmoke:
    """A scaled-down twin of the fig7 parallel benchmark: workers that
    overlap per-item service latency must agree with one worker. The
    wall-clock claim (4 workers beat 1) is the benchmark's to make —
    ``benchmarks/test_parallel_scaleout.py`` holds it to 1.5x."""

    @staticmethod
    def build_slow_kv(delay):
        sdg = SDG("slowkv")
        sdg.add_state("table", KeyValueMap,
                      kind=StateKind.PARTITIONED)

        def serve(ctx, request):
            op, key, value = request
            time.sleep(delay)
            ctx.state.put(key, value)

        sdg.add_task("serve", serve, state="table",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda r: r[1], entry_key_name="key")
        return sdg

    def run(self, workers, items=120, delay=0.002):
        config = RuntimeConfig(se_instances={"table": 4},
                               substrate="multiprocess",
                               workers=workers)
        with Runtime(self.build_slow_kv(delay), config).deploy() as runtime:
            for i in range(items):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            return state_fingerprint(runtime)

    def test_four_workers_overlap_service_latency(self):
        assert self.run(1) == self.run(4)
