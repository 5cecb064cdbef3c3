"""Worker-to-worker pipes: quiescence and faults.

Each ordered pair of workers has a pipe of its own, so a cross-worker
envelope never passes through the coordinator. The coordinator is then
quiet only when every worker consumed what it routed there *and* every
ordered pair of workers agrees on the envelopes sent and consumed
between them. Counts and cross-substrate equality only; no wall clock.
"""

import os
import signal

import pytest

from repro.apps import CollaborativeFiltering
from repro.core import SDG, Dispatch
from repro.core.elements import AccessMode, StateKind
from repro.durability.manifest import state_fingerprint
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.multiprocess import MultiprocessSubstrate, _Link
from repro.state import KeyValueMap
from repro.testing import build_iterative_sdg
from repro.workloads import RatingsWorkload
from tests.runtime.test_multiprocess_obs import build_crash_once_kv, spy_peers


def fleet_of(workers):
    """A substrate with ``workers`` links and no processes behind them:
    enough for :meth:`MultiprocessSubstrate._quiet`."""
    substrate = MultiprocessSubstrate(workers=workers)
    substrate._links = [_Link(wid, None, -1, -1, workers)
                        for wid in range(workers)]
    return substrate


def report(link, consumed, peer_sent, peer_consumed):
    link.consumed = consumed
    link.peer_sent, link.peer_consumed = peer_sent, peer_consumed


class TestQuietCounts:
    """``_quiet()`` over link states set by hand."""

    def test_matching_counts_are_quiet(self):
        substrate = fleet_of(2)
        a, b = substrate._links
        a.sent, b.sent = 3, 1
        # A sent B six envelopes, B sent A two; both consumed them.
        report(a, 3, (0, 6), (0, 2))
        report(b, 1, (2, 0), (6, 0))
        assert substrate._quiet()

    @pytest.mark.parametrize("a_sent, b_consumed", [(6, 5), (5, 6)])
    def test_a_stale_pair_is_not_quiet(self, a_sent, b_consumed):
        # A's latest report says it sent B six and B's says it consumed
        # five (a run still in the pipe), or the other way round (B's
        # report is newer than A's): either is work in flight.
        substrate = fleet_of(2)
        a, b = substrate._links
        a.sent = b.sent = 1
        report(a, 1, (0, a_sent), (0, 0))
        report(b, 1, (0, 0), (b_consumed, 0))
        assert not substrate._quiet()
        report(b, 1, (0, 0), (a_sent, 0))
        assert substrate._quiet()

    def test_the_coordinator_links_still_count(self):
        substrate = fleet_of(2)
        a, _ = substrate._links
        a.sent = 4
        report(a, 3, (0, 0), (0, 0))
        assert not substrate._quiet()
        a.consumed = 4
        a.outbox.append(b"frame")
        assert not substrate._quiet()
        a.outbox.clear()
        assert substrate._quiet()

    def test_three_workers_check_every_ordered_pair(self):
        substrate = fleet_of(3)
        links = substrate._links
        # sent[src][dst], all different so a transposed check would fail.
        sent = [[0, 1, 2], [3, 0, 4], [5, 6, 0]]
        for wid, link in enumerate(links):
            report(link, 0, tuple(sent[wid]),
                   tuple(sent[src][wid] for src in range(3)))
        assert substrate._quiet()
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                consumed = list(links[dst].peer_consumed)
                consumed[src] -= 1
                saved, links[dst].peer_consumed = (
                    links[dst].peer_consumed, tuple(consumed))
                assert not substrate._quiet(), (src, dst)
                links[dst].peer_consumed = saved
        assert substrate._quiet()


def run_pair(run):
    """``run`` on two workers and in-process; both outcomes."""
    return run("multiprocess", 2), run("inprocess", None)


class TestQuiescence:
    """Drains that hop between workers many times end exactly when the
    work does: results and state equal the in-process run's. (Wordcount
    on three workers is ``test_substrates.py::TestEnvelopeRuns::
    test_three_workers_write_to_both_peers``.)"""

    def test_ping_pong_of_hundreds_of_hops(self):
        def run(substrate, workers=None):
            config = RuntimeConfig(se_instances={"modelA": 2, "modelB": 2},
                                   substrate=substrate, workers=workers)
            runtime = Runtime(build_iterative_sdg(), config).deploy()
            written = (spy_peers(runtime) if substrate == "multiprocess"
                       else {})
            with runtime:
                runtime.inject("stepA", 400)
                processed = runtime.run_until_idle()
                results = {te: sorted(map(repr, items))
                           for te, items in runtime.results.items()}
                return (processed, results, state_fingerprint(runtime),
                        sum(map(sum, written.values())))

        (processed, *outcome, hops), clean = run_pair(run)
        # stepA serves 400..0 and stepB 399..0, one item at a time.
        assert processed == 801
        assert [processed, *outcome] == list(clean[:3])
        assert hops >= 200

    def test_cf_on_three_workers(self):
        ops = list(RatingsWorkload(n_users=12, n_items=15, skew=0.8,
                                   read_fraction=0.2, seed=7).ops(240))

        def run(substrate, workers=None):
            app = CollaborativeFiltering.launch(
                RuntimeConfig(substrate=substrate, workers=workers),
                user_item=3, co_occ=3)
            with app.runtime:
                for op in ops:
                    if op.kind == "add_rating":
                        app.add_rating(op.user, op.item, op.rating)
                    else:
                        app.run()
                        app.get_rec(op.user)
                        app.run()
                app.run()
                replies = [rec.to_list() for rec in app.results("get_rec")]
                return replies, state_fingerprint(app.runtime)

        replies, fingerprint = run("multiprocess", 3)
        assert replies
        assert (replies, fingerprint) == run("inprocess")

    def test_runaway_loop_across_workers_hits_the_step_limit(self):
        # Each worker idles between two hops, so no worker-local limit
        # trips: the coordinator counts what the fleet processed.
        sdg = SDG("forever")
        sdg.add_state("modelA", KeyValueMap, kind=StateKind.PARTITIONED)
        sdg.add_state("modelB", KeyValueMap, kind=StateKind.PARTITIONED)
        sdg.add_task("stepA", lambda ctx, item: item + 1, state="modelA",
                     access=AccessMode.PARTITIONED, is_entry=True,
                     entry_key_fn=lambda x: x, entry_key_name="k")
        sdg.add_task("stepB", lambda ctx, item: item, state="modelB",
                     access=AccessMode.PARTITIONED)
        for src, dst in (("stepA", "stepB"), ("stepB", "stepA")):
            sdg.connect(src, dst, Dispatch.KEY_PARTITIONED,
                        key_fn=lambda x: x, key_name="k")
        config = RuntimeConfig(se_instances={"modelA": 2, "modelB": 2},
                               substrate="multiprocess", workers=2)
        with Runtime(sdg, config).deploy() as runtime:
            runtime.inject("stepA", 0)
            with pytest.raises(RuntimeExecutionError, match="idle"):
                runtime.run_until_idle(max_steps=200)


def build_killed_wordcount(flag_path, where):
    """Wordcount whose ``where`` task (``"split"`` or ``"count"``)
    SIGKILLs its own worker once, on ``boom``: mid-drain, while the
    workers stream each other runs. The flag file survives a re-fork,
    so a restarted fleet serves ``boom`` like any word."""
    sdg = SDG(f"killed-{where}")
    sdg.add_state("counts", KeyValueMap, kind=StateKind.PARTITIONED)

    def die_once(text):
        if "boom" in text and not os.path.exists(flag_path):
            open(flag_path, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)

    def split(ctx, line):
        if where == "split":
            die_once(line)
        for word in line.split():
            ctx.emit(word)

    def count(ctx, word):
        if where == "count":
            die_once(word)
        ctx.state.increment(word)

    sdg.add_task("split", split, is_entry=True)
    sdg.add_task("count", count, state="counts",
                 access=AccessMode.PARTITIONED)
    sdg.connect("split", "count", Dispatch.KEY_PARTITIONED,
                key_fn=lambda word: word, key_name="word")
    return sdg


LINES = [" ".join(f"w{(i * 7 + j) % 41}" for j in range(6))
         for i in range(600)]
LINES[300] += " boom"


def drain_killed(flag, where, substrate, **config):
    """All of :data:`LINES` in one drain; the counts and fingerprint."""
    runtime = Runtime(build_killed_wordcount(flag, where), RuntimeConfig(
        te_instances={"split": 2}, se_instances={"counts": 4},
        substrate=substrate, **config)).deploy()
    with runtime:
        for line in LINES:
            runtime.inject("split", line)
        runtime.run_until_idle()
        counts = {}
        for instance in runtime.se_instances("counts"):
            counts.update(instance.element.items())
        return (counts, state_fingerprint(runtime),
                len(runtime.events.events(kind=KIND.WORKER_RESTART)))


class TestPeerFaults:
    """A worker dying while its peers stream to it, or it to them."""

    @pytest.mark.parametrize("where", ["split", "count"])
    def test_a_restart_replays_the_lost_streams(self, tmp_path, where):
        flag = str(tmp_path / "killed.flag")
        crashed = drain_killed(flag, where, "multiprocess", workers=2,
                               worker_restarts=1)
        assert os.path.exists(flag), "the kill never happened"
        preset = str(tmp_path / "preset.flag")
        open(preset, "w").close()
        clean = drain_killed(preset, where, "inprocess")
        assert crashed[:2] == clean[:2]
        assert sum(clean[0].values()) == 600 * 6 + 1
        assert (crashed[2], clean[2]) == (1, 0)

    @pytest.mark.parametrize("where", ["split", "count"])
    def test_without_budget_the_error_names_the_dead_worker_and_the_fleet_ends(
            self, tmp_path, where):
        # "split": the victim was streaming to its peer. "count": its
        # peer was streaming to it, and a write into the dead pipe ends
        # the writer (or its read of the pipe's end does) — no hang.
        flag = str(tmp_path / "killed.flag")
        with Runtime(build_killed_wordcount(flag, where), RuntimeConfig(
                te_instances={"split": 2}, se_instances={"counts": 4},
                substrate="multiprocess", workers=2)).deploy() as runtime:
            processes = [link.process for link in runtime.substrate._links]
            for line in LINES:
                runtime.inject("split", line)
            with pytest.raises(RuntimeExecutionError) as raised:
                runtime.run_until_idle()
            for process in processes:
                process.join(timeout=10)
            codes = [process.exitcode for process in processes]
            assert sorted(codes) == [-signal.SIGKILL, 0]
            victim = codes.index(-signal.SIGKILL)
            assert f"worker {victim} exited unexpectedly" in str(
                raised.value)

    def test_a_restart_leaves_the_coordinator_fd_count_as_it_was(
            self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1)
        with Runtime(build_crash_once_kv(str(tmp_path / "flag")),
                     config).deploy() as runtime:
            for i in range(24):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            before = open_fds()
            runtime.inject("serve", ("put", "boom", 99))
            runtime.run_until_idle()
            assert len(runtime.events.events(
                kind=KIND.WORKER_RESTART)) == 1
            assert open_fds() == before
