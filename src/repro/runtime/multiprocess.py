"""The multiprocess substrate: shared-nothing workers over OS pipes.

This is the second :class:`~repro.runtime.substrate.ExecutionSubstrate`
implementation: the deployed topology is partitioned across ``N``
forked worker processes, one per group of logical nodes
(:meth:`~repro.runtime.deployment.Topology.plan_workers`), each owning
its nodes' TE instances and — transitively — their StateElement
partitions. Workers never share memory: every cross-worker hand-off is
an :class:`~repro.runtime.envelope.Envelope` serialised through the
:mod:`repro.runtime.wire` codec, which is exactly the paper's
location-independence discipline (§4.1) made physical.

Process topology: the coordinator (the process that called
``deploy()``) holds two pipes per worker, and each ordered pair of
workers has one pipe of its own, so a cross-worker envelope goes from
worker to worker and the coordinator stays off the data path. Workers
are **forked**, not spawned: SDG task functions are closures and
generated code that pickle cannot ship, but a forked child inherits the
fully deployed runtime for free — only envelopes and control messages
ever cross the wire.

Envelopes cross in **runs**, one per channel: ``deliver()`` appends an
input's wire row (the coordinator builds no envelope) to its route's
pending rows, and a link's routes become one ``MSG_DELIVER`` frame at
``WIRE_RUN`` rows, at the top of every pump round (so
``run_until_idle``, ``poll`` and a state pull all flush) and ahead of
any control frame to that worker, which keeps each link FIFO. A worker
queues what it sends other workers by destination (the transport
resolves the owning worker once per route) and channel, and writes each
destination's runs as one ``MSG_DELIVER`` into its pipe: at
``WIRE_RUN`` envelopes, before every report, and — once per wake from a
blocking wait — right after the first step that sent any, so the peer
starts on it while this worker goes on. A worker lands each run it
reads with one ``Transport.deliver_run`` call, then drains up to
``WIRE_RUN`` local steps (one ``Runtime._drain`` call, two when a woken
worker stops after its first peer send to ship it) before it looks at
its pipes again.

Deadlock freedom by construction:

* neither the coordinator nor a worker writing a peer ever blocks on
  a write: frames the pipe does not take wait in an outbox, drained by
  a ``select`` that always also reads;
* a worker blocks only on a write to the coordinator, which always
  reads, and on its ``select`` once locally idle *after* reporting so
  (``MSG_IDLE``); a report first frames the worker's outgoing lists.

Quiescence *is* the barrier: a worker reports only when locally idle,
with cumulative counters in **envelopes** (one per control frame) —
consumed from the coordinator, processed, sent to and consumed from
each peer — and the terminal results produced since its previous
report (shipped once). The fleet is quiet when no outbound bytes are
queued, every worker consumed all the coordinator sent it (pending rows
included), and every ordered pair's sent and consumed counts match.
This is exact: links are FIFO, each report is one atomic snapshot of a
worker with no work left, and all work traces back to an input the
coordinator counted itself. Take the earliest consumption after its
consumer's latest report: from the coordinator, it breaks that link's
count; from a peer, it was sent before the peer's latest report (the
pair's counts differ) or after it, which needs an earlier such
consumption at the peer. ``run_until_idle`` then appends the buffered
results to ``runtime.results`` in worker order and returns: no further
frame, and with nothing injected no pipe is touched.

State stays in the workers: a barrier that processed items marks the
coordinator's SE elements stale, and a **state pull**
(``MSG_SNAPSHOT``, answered by the worker's next report as
``MSG_STATE``) refreshes them only when someone reads them —
``Runtime.se_instances()``/``se_instance()`` (fingerprints,
``Program.state_of``, reports), ``CheckpointManager`` and ``close()``
— so state inspection stays substrate-agnostic.

Observability rides the same pipes (no side channels):

* **live metrics** — every report piggybacks the worker's cumulative
  metric cells as one flat tuple, with the schema that names them only
  when the registry's shape changed since the previous report (the
  first report of a fork, a new metric or label child), so
  :meth:`Runtime.merged_metrics` is fresh *between* barriers (drive the
  wire with :meth:`poll` / :meth:`Runtime.poll_telemetry` while a drain
  is in flight) and a pair is expanded into a snapshot only when read;
* **causal tracing** — workers record hops with their forked tracer
  and ship shards (``MSG_TRACE``, ahead of each idle report) the
  coordinator merges into one fleet-wide causal view;
* **profiling** — wall-clock phases (``RuntimeConfig(profile=True)``)
  are metric series, so they travel inside the metrics shard;
* **flight recorder** — a crashing worker ships its ring-buffer dump
  inside ``MSG_CRASH``, and the coordinator appends the rendered tail
  to the raised error.

Fleet restart (``RuntimeConfig(worker_restarts=N)``): a worker crash
normally aborts the run. With restarts budgeted, the coordinator
instead retires the dead fleet's barrier-fenced telemetry, tears every
worker down, re-forks a fresh fleet from its own state, and routes again
the input rows delivered since the last barrier — deterministic tasks
then reproduce exactly the lost work. Those rows are each entry's
input log, which node recovery replays in-process and each barrier
clears here; they go again entry by entry, as the fleet never ordered
rows of different entries. The fork source must be barrier-consistent,
so while restart budget remains the state pull runs at every barrier
that processed items.
Metric shards fenced at the last barrier are retired so the merged
totals never double-count a crashed worker's replayed items; post-
barrier live shards are discarded (the replay re-counts that work
exactly once).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import time
import traceback
import weakref
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND
from repro.obs.flight import render_dump
from repro.obs.metrics import MetricsRegistry, ShardCache
from repro.runtime.envelope import Envelope
from repro.runtime.substrate import InProcessSubstrate
from repro.runtime.wire import (
    MSG_CRASH,
    MSG_DELIVER,
    MSG_HELLO,
    MSG_IDLE,
    MSG_SHUTDOWN,
    MSG_SNAPSHOT,
    MSG_STATE,
    MSG_TRACE,
    FrameBuffer,
    WireError,
    encode_frame,
    encode_run,
    write_bytes,
    write_frame,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deployment import WorkerPlacement
    from repro.runtime.engine import InputRoute, Runtime
    from repro.runtime.instances import TEInstance

#: Upper bound on consecutive local steps a worker takes without
#: touching its control pipe — the multiprocess analogue of the
#: in-process loop's default ``max_steps``, so a worker-local infinite
#: dataflow cycle dies loudly (MSG_CRASH) instead of spinning forever.
WORKER_DRAIN_LIMIT = 10_000_000

#: Read size for both sides of the pipe.
_READ_CHUNK = 1 << 16

#: Envelopes per data frame: the runs pending for one worker become one
#: ``MSG_DELIVER`` frame at this many rows in all (or earlier, at the
#: flush points), and a worker takes at most this many local steps
#: between two looks at its pipe. The fastest of 64..512 on both
#: 2-worker benchmarks (KV and wordcount, 2 cores); not ``RUN_MAX``.
WIRE_RUN = 256

#: Flight-recorder tail length appended to a fatal crash error.
_CRASH_TAIL = 20


def _wire_meters(metrics, role: str) -> tuple:
    """The wire series children of one role: frames sent / received,
    bytes sent / received, and serialize seconds."""
    frames = metrics.counter(
        "wire_frames_total",
        "frames crossing the pipes, by direction and role")
    nbytes = metrics.counter(
        "wire_bytes_total",
        "bytes crossing the pipes, by direction and role")
    return (frames.labels(direction="send", role=role),
            frames.labels(direction="recv", role=role),
            nbytes.labels(direction="send", role=role),
            nbytes.labels(direction="recv", role=role),
            metrics.counter(
                "wire_serialize_seconds_total",
                "wall-clock seconds spent pickling outbound frames",
            ).labels(role=role))


#: The worker-send cell of the wire series, as a snapshot label key.
_WORKER_SEND = (("direction", "send"), ("role", "worker"))


def _expand_report(schema: tuple, values: tuple, frame_bytes: int) -> dict:
    """A worker report's shard as a snapshot, counting the report's own
    frame: its totals predate it and only the next report's cover it,
    so without this the merged wire totals are short at a barrier."""
    snapshot = MetricsRegistry.expand(schema, values)
    for name, amount in (("wire_frames_total", 1),
                         ("wire_bytes_total", frame_bytes)):
        cells = snapshot.get(name, {}).get("children", {})
        if _WORKER_SEND in cells:
            cells[_WORKER_SEND] += amount
    return snapshot


class _WorkerFailure(Exception):
    """Internal control-flow: one worker died; the pump loop must stop
    touching its (now stale) descriptors before anyone decides whether
    the failure is fatal or absorbed by a fleet restart."""

    def __init__(self, link: "_Link", detail: str,
                 extra: dict | None = None) -> None:
        super().__init__(detail)
        self.link = link
        self.detail = detail
        self.extra = extra or {}


class _Link:
    """Coordinator-side view of one worker: process, pipes, counters."""

    __slots__ = (
        "worker_id", "process", "send_fd", "recv_fd", "buffer", "outbox",
        "runs", "queued", "sent", "consumed", "processed", "peer_sent",
        "peer_consumed", "results", "state_reply", "schema", "shard",
        "fenced_shard", "fenced_processed", "exitcode",
    )

    def __init__(self, worker_id: int, process, send_fd: int,
                 recv_fd: int, workers: int) -> None:
        self.worker_id = worker_id
        self.process = process
        self.send_fd = send_fd
        self.recv_fd = recv_fd
        self.buffer = FrameBuffer()
        #: Encoded frames waiting for pipe capacity (never block a write).
        self.outbox: deque = deque()
        #: Input routes with rows for this worker not yet framed (one
        #: run each in the next ``MSG_DELIVER``), and their row count.
        self.runs: list[_Run] = []
        self.queued = 0
        #: Routed towards this worker: items (framed or still pending)
        #: plus one per control frame.
        self.sent = 0
        #: Worker's cumulative consumed/processed, and envelopes sent to
        #: and consumed from each worker by id, as of its latest
        #: MSG_IDLE / MSG_STATE report.
        self.consumed = 0
        self.processed = 0
        self.peer_sent = self.peer_consumed = (0,) * workers
        #: Terminal results reported since the last barrier, by TE;
        #: the barrier appends them to ``runtime.results``.
        self.results: dict[str, list] = {}
        #: SE elements of a state pull in flight, by ``(se, index)``.
        self.state_reply: dict | None = None
        #: The worker's metric schema, as its latest report that
        #: carried one described it (reports ship it on shape change).
        self.schema: tuple | None = None
        #: Freshest cumulative ``(schema, values, frame bytes)`` shard
        #: (every report carries the values; the bytes are its frame's)
        #: — what ``merged_metrics()`` expands live.
        self.shard: tuple | None = None
        #: The shard as of the last *barrier* (the same immutable tuple,
        #: not a copy) — what survives into ``_retired_shards`` if this
        #: worker's fleet is restarted.
        self.fenced_shard: tuple | None = None
        self.fenced_processed = 0
        #: The worker's exit code, recorded once the fleet is released.
        self.exitcode: int | None = None


class _Run:
    """An input route's sink on a fleet: the owning worker's id and the
    route's rows not yet framed."""

    __slots__ = ("owner", "rows")

    def __init__(self, owner: int) -> None:
        self.owner, self.rows = owner, []


def _release(links: list) -> None:
    """Tear a worker fleet down (finalizer-safe: no substrate ref)."""
    for link in links:
        try:
            os.set_blocking(link.send_fd, True)
            while link.outbox:
                chunk = link.outbox.popleft()
                while chunk:
                    chunk = chunk[os.write(link.send_fd, chunk):]
            write_frame(link.send_fd, (MSG_SHUTDOWN,))
        except OSError:
            pass
        try:
            os.close(link.send_fd)
        except OSError:
            pass
    for link in links:
        process = link.process
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - hung worker
            process.terminate()
            process.join(timeout=1.0)
        link.exitcode = process.exitcode
        if link.exitcode is not None:
            # Its popen pipes too: else they wait for the garbage
            # collector while an error's traceback holds the fleet.
            process.close()
        try:
            os.close(link.recv_fd)
        except OSError:
            pass


class MultiprocessSubstrate:
    """Shared-nothing worker processes behind the substrate protocol."""

    name = "multiprocess"
    #: Every cross-worker hand-off crosses the pickle wire, so
    #: :meth:`Runtime.deploy` runs the static SDG4xx
    #: substrate-safety gate (``RuntimeConfig.substrate_check``):
    #: programs that ship unpicklable payloads, leak process-dependent
    #: values onto edges, or mutate shared globals are refused (or
    #: warned about) *before* the fleet forks, with the offending call
    #: chain in the error.
    isolates_payloads = True

    def __init__(self, workers: int = 2, restarts: int = 0) -> None:
        self.workers = int(workers)
        #: Fleet-restart budget (``RuntimeConfig(worker_restarts=N)``):
        #: how many worker crashes are absorbed by re-forking before
        #: one propagates as an error.
        self.restarts = int(restarts)
        self.runtime: "Runtime | None" = None
        self.placement: "WorkerPlacement | None" = None
        self._links: list[_Link] = []
        #: ``recv_fd -> link`` of the live fleet (the select read set).
        self._readers: dict[int, _Link] = {}
        #: Whether the workers' SE elements are ahead of the coordinator's
        #: (a barrier processed items since the last state pull).
        self._stale = False
        self._processed_base = 0
        self._finalizer = None
        self._restarts_left = self.restarts
        #: Barrier-fenced ``(schema, values, frame bytes)`` metric shards
        #: of fleets that were restarted.
        self._retired_shards: list[tuple] = []
        self._retired_processed = 0

    # ------------------------------------------------------------------
    # Deploy: fork the fleet
    # ------------------------------------------------------------------

    def bind(self, runtime: "Runtime") -> None:
        """Plan placement, open pipes, fork workers, say hello.

        Called at the *end* of ``deploy()`` so every forked child
        inherits the fully materialised topology — task closures and
        generated code never travel the wire.
        """
        self.runtime = runtime
        self.placement = runtime.topology.plan_workers(self.workers)
        self._bind_obs()
        self._fork_fleet()

    def _bind_obs(self) -> None:
        """Pre-bind the coordinator's wire metrics and wire phases (null
        timers when profiling is off)."""
        m = self.runtime.metrics
        phase = self.runtime.probe.phase
        self._p_serialize = phase("serialize")
        self._p_wire_wait = phase("wire_wait")
        (self._m_frames_send, self._m_frames_recv, self._m_bytes_send,
         self._m_bytes_recv, self._m_serialize) = _wire_meters(
            m, "coordinator")
        outbox = m.gauge(
            "wire_outbox_depth",
            "frames queued towards each worker, awaiting pipe capacity")
        self._g_outbox = {
            wid: outbox.labels(worker=str(wid))
            for wid in range(self.workers)
        }

    def _fork_fleet(self) -> None:
        """Fork one worker per placement group and open its pipes: two
        to the coordinator, and one per ordered pair of workers.

        Called at bind time and again on every fleet restart — the
        children inherit the coordinator's SE mirror, which a restart
        finds as of the last barrier (see :meth:`_sync`). Each child
        keeps only its own ends, and the coordinator none of a peer
        pipe's.
        """
        runtime = self.runtime
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise RuntimeExecutionError(
                "the multiprocess substrate requires the fork start "
                "method (POSIX); this platform does not support it"
            ) from exc
        n = self.workers
        c2w = [os.pipe() for _ in range(n)]
        w2c = [os.pipe() for _ in range(n)]
        # (src, dst) -> the (read, write) pipe src writes dst through.
        peer = {(src, dst): os.pipe() for src in range(n)
                for dst in range(n) if src != dst}
        all_fds = [fd for pair in c2w + w2c + [*peer.values()] for fd in pair]
        index_digest = runtime.dispatcher.export_index()
        for wid in range(n):
            # Read ends by source, write ends by destination.
            peer_in = {src: r for (src, dst), (r, _) in peer.items()
                       if dst == wid}
            peer_out = {dst: w for (src, dst), (_, w) in peer.items()
                        if src == wid}
            keep = {c2w[wid][0], w2c[wid][1], *peer_in.values(),
                    *peer_out.values()}
            process = ctx.Process(
                target=_worker_main,
                args=(runtime, wid, self.placement, c2w[wid][0],
                      w2c[wid][1], peer_in, peer_out,
                      [fd for fd in all_fds if fd not in keep]),
                daemon=True,
                name=f"repro-worker-{wid}",
            )
            process.start()
            link = _Link(wid, process, c2w[wid][1], w2c[wid][0], n)
            self._links.append(link)
            self._readers[link.recv_fd] = link
        ours = {fd for link in self._links
                for fd in (link.send_fd, link.recv_fd)}
        for fd in all_fds:
            if fd in ours:
                os.set_blocking(fd, False)
            else:
                os.close(fd)
        # Idempotent teardown: explicit close(), GC and interpreter
        # exit all funnel into one _release of this exact fleet.
        self._finalizer = weakref.finalize(self, _release, self._links)
        for link in self._links:
            self._send(link, (MSG_HELLO, link.worker_id, self.workers,
                              index_digest))

    # ------------------------------------------------------------------
    # Substrate protocol
    # ------------------------------------------------------------------

    def deliver(self, route: "InputRoute", row: tuple) -> bool:
        """Queue one input row, as it goes on the wire, in its route's
        run for the owning worker (asked once per route: the placement
        outlives every fleet restart), and log it in the entry's input
        log for a fleet restart to replay, only while restarts are
        budgeted.
        """
        run = route.sink
        if run is None:
            channel = route.channel
            run = route.sink = _Run(self.placement.owner_of(
                channel.dst_te, channel.dst_instance))
        link = self._links[run.owner]
        if self.restarts:
            # Log first: if the flush trips over a dead worker, the
            # restart's replay re-delivers this row too, so the
            # handler below must not retry it itself.
            route.append(row)
        rows = run.rows
        if not rows:
            link.runs.append(run)
        rows.append(row)
        link.sent += 1
        link.queued += 1
        if link.queued >= WIRE_RUN:
            try:
                self._flush_run(link)
            except _WorkerFailure as failure:
                # Restart and replay, or raise the public error.
                self._handle_failure(failure)
        return True

    def process(self, instance: "TEInstance",
                envelope: "Envelope") -> None:  # pragma: no cover
        raise RuntimeExecutionError(
            "the multiprocess coordinator does not process envelopes; "
            "instances run inside their owning workers"
        )

    def run_until_idle(self, max_steps: int) -> int:
        """Pump the fleet until quiescent; that point is the barrier."""
        while True:
            try:
                while not self._quiet():
                    if self._processed() - self._processed_base > max_steps:
                        raise RuntimeExecutionError(
                            f"pipeline did not become idle within "
                            f"{max_steps} steps"
                        )
                    self._pump(0.1)
                return self._sync()
            except _WorkerFailure as failure:
                self._handle_failure(failure)

    def poll(self, timeout: float = 0.0) -> None:
        """Service the wire once without waiting for quiescence.

        Drains whatever worker frames are ready — idle reports carrying
        live metric shards, and trace shards — and flushes pending
        writes. This is what keeps
        :meth:`Runtime.merged_metrics` fresh *between* barriers
        (``repro top --watch`` drives it); the coordinator otherwise
        only touches the pipes inside :meth:`run_until_idle`.
        """
        if not self._links:
            return
        try:
            self._pump(timeout)
        except _WorkerFailure as failure:
            self._handle_failure(failure)

    def pull_state(self) -> None:
        """Bring the coordinator's SE elements up to the workers'.

        The hook behind ``Runtime.se_instances()``: a no-op unless a
        barrier processed items since the last pull. A read between
        ``inject`` and the drain sees each worker's state once it has
        served what reached it before the pull.
        """
        if self._stale:
            try:
                self._pull()
            except _WorkerFailure as failure:
                self._handle_failure(failure)

    def shutdown(self) -> None:
        """Stop workers and close pipes (idempotent).

        A quiet fleet's state is pulled first, so what is read after
        ``close()`` is what the last barrier left.
        """
        if not self._links:
            return
        if self._stale and self._quiet():
            try:
                self._pull()
            except _WorkerFailure:
                pass  # its state died with it; keep the last pull's
        self._drop_fleet()

    def _drop_fleet(self) -> None:
        """Release the fleet; nothing is ahead of the mirror any more."""
        links, self._links, self._readers = self._links, [], {}
        for link in links:
            for run in link.runs:
                run.rows = []
        self._stale = False
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _release(links)

    # ------------------------------------------------------------------
    # Telemetry shards
    # ------------------------------------------------------------------

    @property
    def metric_shards(self) -> list[dict]:
        """Per-worker registry snapshots: retired fleets' barrier-fenced
        shards plus the live fleet's freshest reports, expanded from
        their compact pairs here, when read. Consumed by
        :meth:`Runtime.merged_metrics`; updated live as idle frames
        arrive, not only at barriers."""
        shards = self._retired_shards + [
            link.shard for link in self._links if link.shard is not None]
        return [_expand_report(*shard) for shard in shards]

    # ------------------------------------------------------------------
    # Coordinator event loop
    # ------------------------------------------------------------------

    def _send(self, link: _Link, message: Any) -> None:
        """Queue one control frame, behind the envelopes routed so far."""
        self._flush_run(link)
        link.sent += 1
        self._frame(link, message)

    def _flush_run(self, link: _Link) -> None:
        """Turn the link's pending runs into one ``MSG_DELIVER``."""
        runs = link.runs
        if runs:
            link.runs, link.queued = [], 0
            frame = [run.rows for run in runs]
            for run in runs:
                run.rows = []
            self._frame(link, (MSG_DELIVER, frame))

    def _frame(self, link: _Link, message: Any) -> None:
        """Encode and count one outbound frame; write what the pipe takes."""
        t0 = time.perf_counter()
        data = encode_frame(message)
        elapsed = time.perf_counter() - t0
        self._m_serialize.value += elapsed
        self._p_serialize.add(elapsed)
        self._m_frames_send.value += 1
        self._m_bytes_send.value += len(data)
        link.outbox.append(data)
        self._flush(link)

    def _flush(self, link: _Link) -> None:
        """Write queued frames without ever blocking."""
        try:
            while link.outbox:
                head = link.outbox[0]
                try:
                    written = os.write(link.send_fd, head)
                except BlockingIOError:
                    return
                except BrokenPipeError:
                    self._worker_died(link)
                if written < len(head):
                    link.outbox[0] = head[written:]
                    return
                link.outbox.popleft()
        finally:
            self._g_outbox[link.worker_id].set(len(link.outbox))

    def _pump(self, timeout: float) -> None:
        """One select round: frame pending runs, drain worker frames,
        flush queued writes."""
        for link in self._links:
            self._flush_run(link)
        rlist = self._readers
        wlist = {link.send_fd: link
                 for link in self._links if link.outbox}
        t0 = time.perf_counter()
        readable, writable, _ = select.select(rlist, wlist, [], timeout)
        self._p_wire_wait.add(time.perf_counter() - t0)
        for fd in writable:
            self._flush(wlist[fd])
        for fd in readable:
            link = rlist[fd]
            try:
                data = os.read(fd, _READ_CHUNK)
            except BlockingIOError:  # pragma: no cover - spurious wake
                continue
            if not data:
                self._worker_died(link)
            self._m_bytes_recv.value += len(data)
            try:
                for message in link.buffer.feed(data):
                    self._m_frames_recv.value += 1
                    self._handle(link, message)
            except WireError as exc:  # as fatal as EOF on its pipe
                raise _WorkerFailure(
                    link, f"worker {link.worker_id} sent a bad frame: "
                          f"{exc!r}") from None

    def _handle(self, link: _Link, message: tuple) -> None:
        tag = message[0]
        if tag == MSG_IDLE or tag == MSG_STATE:
            (link.consumed, link.processed, link.peer_sent,
             link.peer_consumed) = message[1:5]
            self._absorb_obs(link, message[5])
            if tag == MSG_STATE:
                link.state_reply = message[6]
        elif tag == MSG_TRACE:
            # Only a tracing fleet ships shards.
            self.runtime.tracer.merge_shard(message[1])
        elif tag == MSG_CRASH:
            raise _WorkerFailure(
                link,
                f"worker {link.worker_id} crashed:\n{message[1]}",
                message[2],
            )
        else:  # pragma: no cover - protocol violation
            raise RuntimeExecutionError(
                f"unexpected frame tag {tag!r} from worker "
                f"{link.worker_id}"
            )

    def _absorb_obs(self, link: _Link, obs: dict) -> None:
        """Install a piggybacked report: the cumulative metrics shard,
        and the results produced since the previous one."""
        schema, values = obs["metrics"]
        if schema is not None:
            link.schema = schema
        link.shard = (link.schema, values, link.buffer.frame_bytes)
        for te, items in obs.get("results", {}).items():
            link.results.setdefault(te, []).extend(items)

    def _quiet(self) -> bool:
        """Nothing queued, nothing unconsumed on any link: each worker
        consumed all the coordinator sent it, and each ordered pair of
        workers agrees on the envelopes sent and consumed between them."""
        links = self._links
        for link in links:
            if link.outbox or link.consumed != link.sent:
                return False
        # Worker i's sent counts against column i of the consumed ones.
        return ([link.peer_sent for link in links]
                == list(zip(*[link.peer_consumed for link in links])))

    def _processed(self) -> int:
        """Items processed by every fleet so far, as last reported."""
        return self._retired_processed + sum(
            link.processed for link in self._links)

    def _worker_died(self, link: _Link) -> None:
        # A crashing worker writes why before it exits, and a write that
        # found its pipe closed can be the first to notice: read it. A
        # worker exits cleanly only once a pipe into it closed, so when
        # this one did, a peer that died before it is the one to blame
        # (once one worker dies every other exits soon: wait for each).
        link.process.join(timeout=1.0)
        peers = [peer for peer in self._links if peer is not link]
        for suspect in (peers if link.process.exitcode == 0 else []) + [link]:
            suspect.process.join(timeout=1.0)
            try:
                while data := os.read(suspect.recv_fd, _READ_CHUNK):
                    for message in suspect.buffer.feed(data):
                        if message[0] == MSG_CRASH:
                            self._handle(suspect, message)
            except (OSError, WireError):
                pass
            if suspect is link or suspect.process.exitcode not in (None, 0):
                raise _WorkerFailure(
                    suspect,
                    f"worker {suspect.worker_id} exited unexpectedly "
                    f"(exitcode {suspect.process.exitcode})",
                )

    # ------------------------------------------------------------------
    # Fleet restart
    # ------------------------------------------------------------------

    def _handle_failure(self, failure: _WorkerFailure) -> None:
        """Absorb one worker death by restarting the fleet, or give up.

        Without restart budget the failure propagates, with the dead
        worker's flight-recorder tail (when it shipped one) appended to
        the error. With budget: retire the fleet's barrier-fenced
        telemetry, tear every worker down, re-fork from the
        coordinator's barrier-consistent state, and replay the input
        rows delivered since that barrier (results reported
        after it were never appended; the replay re-reports them).
        """
        runtime = self.runtime
        flight_dump = failure.extra.get("flight")
        if self._restarts_left <= 0:
            detail = failure.detail
            if flight_dump:
                detail += (
                    f"\nworker {failure.link.worker_id} flight recorder "
                    f"(last {min(len(flight_dump), _CRASH_TAIL)} of "
                    f"{len(flight_dump)} events):\n"
                    + render_dump(flight_dump, limit=_CRASH_TAIL)
                )
            raise RuntimeExecutionError(detail) from None
        self._restarts_left -= 1
        # Retire what the last barrier fenced; everything after it is
        # recomputed by the replay and must not be counted twice.
        for link in self._links:
            if link.fenced_shard is not None:
                self._retired_shards.append(link.fenced_shard)
            self._retired_processed += link.fenced_processed
        replay = [(inputs.routes[row[2].dst_instance], row)  # entry by entry
                  for inputs in runtime._entries.values() for row in inputs.log]
        for inputs in runtime._entries.values():
            inputs.log.clear()
        runtime.events.publish(
            "substrate", KIND.WORKER_RESTART, runtime.total_steps,
            worker=failure.link.worker_id,
            restarts_left=self._restarts_left,
            replayed=len(replay),
        )
        runtime.probe.note(
            runtime.total_steps, "worker_restart",
            worker=failure.link.worker_id,
            detail=failure.detail.splitlines()[0],
        )
        self._drop_fleet()
        self._fork_fleet()
        for route, row in replay:  # routed, and logged, again
            self.deliver(route, row)

    # ------------------------------------------------------------------
    # Barrier and state pull
    # ------------------------------------------------------------------

    def _sync(self) -> int:
        """Commit the quiescent point the fleet just reached.

        Appends the results reported since the previous barrier to
        ``runtime.results`` (worker order: deterministic for a fixed
        placement and sequence of driver calls; the dict and its lists
        keep their identity) and fences each worker's telemetry for a
        later restart. Sends nothing — unless restart budget remains:
        a re-fork starts from the coordinator's SE elements, so they
        must follow every barrier. Returns the items processed since
        the previous barrier.
        """
        results = self.runtime.results
        processed_total = self._processed()
        delta = processed_total - self._processed_base
        if delta:
            self._stale = True
            if self._restarts_left:
                # Before anything is committed: a crash in here must
                # restart from the previous barrier, log intact.
                self._pull()
        for link in self._links:
            for te, items in link.results.items():
                results.setdefault(te, []).extend(items)
            link.results = {}
            link.fenced_shard = link.shard
            link.fenced_processed = link.processed
        for inputs in self.runtime._entries.values():
            inputs.log.clear()
        self._processed_base = processed_total
        return delta

    def _pull(self) -> None:
        """One state pull: every worker ships the SE elements it owns."""
        for link in self._links:
            link.state_reply = None
            self._send(link, (MSG_SNAPSHOT,))
        while any(link.state_reply is None for link in self._links):
            self._pump(0.1)
        # Installed only once every worker answered, so a death midway
        # leaves the previous pull's elements whole.
        topology = self.runtime.topology
        for link in self._links:
            for (se_name, index), element in link.state_reply.items():
                inst = topology.se_instance(se_name, index)
                if inst is not None:
                    # A restart forks from this copy: its readers' too.
                    topology.set_element(inst, element)
        self._stale = False


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerSubstrate(InProcessSubstrate):
    """The in-process loop, as run inside a worker.

    Workers reuse the engine's step loop verbatim — same scheduler
    rotor, same per-item semantics — which is what keeps the two
    substrates behaviourally aligned. Only owned instances ever become
    ready: the transport forwards an envelope for a foreign instance
    over the wire instead of appending it to the local inbox.
    """

    name = "multiprocess-worker"


def _worker_main(runtime: "Runtime", worker_id: int, placement,
                 recv_fd: int, send_fd: int, peer_in: dict,
                 peer_out: dict,
                 close_fds: list) -> None:  # pragma: no cover - subprocess
    """Entry point of a forked worker process."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        _serve(runtime, worker_id, placement, recv_fd, send_fd, peer_in,
               peer_out)
    except (EOFError, BrokenPipeError):
        # The coordinator or a peer went away: the fleet is over.
        pass
    except BaseException:
        extra = {"worker": worker_id, "steps": runtime.total_steps,
                 "flight": runtime.probe.flight_dump()}
        try:
            write_frame(send_fd, (MSG_CRASH, traceback.format_exc(),
                                  extra))
        except OSError:
            pass
        os._exit(1)


def _serve(runtime: "Runtime", worker_id: int, placement, recv_fd: int,
           send_fd: int, peer_in: dict,
           peer_out: dict) -> None:  # pragma: no cover - subprocess
    """The worker loop: drain local work, write peers, report."""
    # The forked copy of the coordinator's substrate must never run its
    # teardown in this process (its Process handles belong to the
    # parent); detach the inherited finalizer before replacing it.
    inherited = runtime.substrate
    if isinstance(inherited, MultiprocessSubstrate):
        if inherited._finalizer is not None:
            inherited._finalizer.detach()
        inherited._links = []
    # Envelopes consumed from each worker by its id and from the
    # coordinator (at ``n_workers``), items processed, and envelopes
    # sent to each worker.
    n_workers = placement.n_workers
    consumed, processed = [0] * (n_workers + 1), 0
    peer_sent = [0] * n_workers

    substrate = _WorkerSubstrate()
    substrate.bind(runtime)
    runtime.substrate = substrate
    # Drop any candidate cache inherited through the fork.
    runtime.topology.version += 1
    # The inherited registry holds the coordinator's deploy-time
    # values (profile phases included); zero it so this worker's shard
    # is purely its own work and the barrier merge never double-counts.
    runtime.metrics.reset()
    runtime.count_steps_from(runtime.total_steps)
    # A fresh cache: the first report describes the registry in full.
    shard_cache = ShardCache()
    # The inherited results hold whatever the coordinator collected up
    # to its last barrier (non-empty after a fleet restart); zero them
    # so this worker ships only work it performed itself.
    results = runtime.results
    for te in results:
        results[te] = []
    # The tracer keeps its inherited books (the served-set makes local
    # replay detection work after a restart) but from here stamps new
    # hops with this worker and queues them for shard shipping.
    probe = runtime.probe
    probe.start_worker(worker_id)
    p_serialize, p_wire_wait = map(probe.phase, ("serialize", "wire_wait"))
    (w_frames_send, w_frames_recv, w_bytes_send, w_bytes_recv,
     w_serialize) = _wire_meters(runtime.metrics, "worker")

    def encode(message: Any) -> bytes:
        t0 = time.perf_counter()
        data = encode_frame(message)
        elapsed = time.perf_counter() - t0
        w_serialize.value += elapsed
        p_serialize.add(elapsed)
        w_frames_send.value += 1
        w_bytes_send.value += len(data)
        return data

    def ship(message: Any) -> None:
        write_bytes(send_fd, encode(message))

    # Envelopes for each other worker, by its id, not yet framed (a run
    # per channel) and their count; and framed bytes its pipe has not
    # taken yet (a peer write never blocks: two workers writing each
    # other full pipes would deadlock).
    outgoing: list[dict] = [{} for _ in range(n_workers)]
    queued = [0] * n_workers
    outboxes = {fd: deque() for fd in peer_out.values()}

    def write_peer(fd: int) -> None:
        box = outboxes[fd]
        while box:
            try:
                box[0] = box[0][os.write(fd, box[0]):]
            except BlockingIOError:
                return
            if box[0]:
                return
            box.popleft()

    def flush_to(dst: int) -> None:
        runs = outgoing[dst]
        peer_sent[dst] += queued[dst]
        queued[dst] = 0
        frame = [encode_run(run) for run in runs.values()]
        runs.clear()
        outboxes[peer_out[dst]].append(encode((MSG_DELIVER, frame)))
        write_peer(peer_out[dst])

    def flush_out() -> None:
        for dst, count in enumerate(queued):
            if count:
                flush_to(dst)

    def remote_send(envelope: "Envelope", dst: int) -> None:
        runs = outgoing[dst]
        run = runs.get(envelope.channel)
        if run is None:
            runs[envelope.channel] = [envelope]
        else:
            run.append(envelope)
        queued[dst] += 1
        if queued[dst] >= WIRE_RUN:
            flush_to(dst)

    runtime.transport.enable_worker_routing(placement, worker_id,
                                            remote_send)

    # Source of each readable pipe: n_workers for the coordinator.
    readers = {fd: (src, FrameBuffer())
               for src, fd in [(n_workers, recv_fd), *peer_in.items()]}
    for fd in [*readers, *peer_out.values()]:
        os.set_blocking(fd, False)
    pending: deque = deque()

    def poll(block: bool) -> None:
        """Move what the pipes hold into ``pending`` as ``(source,
        message)`` and write what the peers take; with ``block``, wait
        until a frame is in."""
        while True:
            waiting = [fd for fd, box in outboxes.items() if box]
            wait = block and not pending
            t0 = time.perf_counter()
            readable, writable, _ = select.select(
                readers, waiting, [], None if wait else 0)
            if wait:
                p_wire_wait.add(time.perf_counter() - t0)
            for fd in writable:
                write_peer(fd)
            for fd in readable:
                data = os.read(fd, _READ_CHUNK)
                if not data:
                    raise EOFError("a pipe into this worker closed")
                w_bytes_recv.value += len(data)
                src, buffer = readers[fd]
                for message in buffer.feed(data):
                    w_frames_recv.value += 1
                    pending.append((src, message))
            if pending or not block:
                return

    # Nothing on a fleet replays a producer's output buffers (a restart
    # re-forks from the coordinator's copy), so each report empties
    # them in place (the deques are the send routes' own), and the
    # gauge reads how many it found.
    g_buffered = runtime.metrics.gauge(
        "engine_output_buffered_envelopes", "envelopes a worker's "
        "output buffers held at its latest report").labels()
    owned = [instance for instance in runtime.topology.all_te_instances()
             if placement.owner_of(instance.name, instance.index)
             == worker_id]

    def progress() -> tuple:
        return (consumed[n_workers], processed, tuple(peer_sent),
                tuple(consumed[:n_workers]))

    def report(tag: str, *extra: Any) -> tuple:
        """Ship the counters with everything new since the last report."""
        # Peer runs first (counted as sent once framed), then trace hops
        # (FIFO pipe: the coordinator has merged them before it can
        # observe this progress report), then the counters with
        # telemetry shards and fresh results piggybacked.
        flush_out()
        shard = probe.drain_shard()
        if shard:
            ship((MSG_TRACE, shard))
        cleared = 0
        for instance in owned:
            for buffer in instance.output_buffers.values():
                cleared += len(buffer)
                buffer.clear()
        g_buffered.set(cleared)
        obs: dict = {"metrics": runtime.metrics.shard(shard_cache)}
        fresh = {te: items for te, items in results.items() if items}
        if fresh:
            obs["results"] = fresh
        reported = progress()
        ship((tag,) + reported + (obs,) + extra)
        # Shipped once: the coordinator owns them from here.
        for items in fresh.values():
            items.clear()
        return reported

    # No worker builds the result filter: a restart drops what it replays.
    deliver_run = runtime.transport.deliver_run
    drain = runtime._drain
    # Asked after each step of a woken drain, with no frame of its own.
    sent_to_peer = partial(any, queued)
    # The first report answers the hello: a report of no progress could
    # never make the fleet quiet, and whether it went out would depend
    # on whether the hello beat this loop's first look at the pipe.
    reported = progress()
    drained = 0
    # A state pull is answered by the next report, once locally idle:
    # like any report, its counters may then close a quiescence check.
    snapshot = False
    idle = False
    while True:
        # Everything the pipes hold goes into the inboxes first (once
        # idle, after waiting for it), then up to one run of local steps
        # before they are looked at again.
        poll(block=idle)
        woke, idle = idle, False
        while pending:
            src, message = pending.popleft()
            tag = message[0]
            if tag == MSG_DELIVER:
                for rows in message[1]:
                    consumed[src] += len(rows)
                    deliver_run(rows)
                continue
            consumed[src] += 1  # control: from the coordinator only
            if tag == MSG_SNAPSHOT:
                snapshot = True
            elif tag == MSG_HELLO:
                _check_hello(runtime, message, worker_id, placement)
            elif tag == MSG_SHUTDOWN:
                return
            else:
                raise RuntimeExecutionError(
                    f"worker {worker_id}: unexpected frame tag {tag!r}"
                )
        # Woken from a wait, the first step that sends to a peer ships
        # at once: the peer starts on it while this worker goes on.
        # Later steps batch up to WIRE_RUN or idleness. A worker whose
        # steps send nothing takes its run in one drain.
        steps = drain(WIRE_RUN, sent_to_peer if woke else None)
        if woke and any(queued):
            flush_out()
            steps += drain(WIRE_RUN - steps)
        processed += steps
        if steps == WIRE_RUN:
            drained += steps
            if drained > WORKER_DRAIN_LIMIT:
                raise RuntimeExecutionError(
                    f"worker {worker_id} did not become idle "
                    f"within {WORKER_DRAIN_LIMIT} local steps"
                )
            continue
        drained = 0
        if snapshot or reported != progress():
            reported = (report(MSG_STATE, _owned_elements(
                runtime, worker_id, placement)) if snapshot
                else report(MSG_IDLE))
            snapshot = False
        idle = True


def _check_hello(runtime: "Runtime", message: tuple, worker_id: int,
                 placement) -> None:  # pragma: no cover - subprocess
    """Verify the coordinator's shipped view matches the forked one.

    A divergence between the coordinator's successor index and the
    worker's own (impossible today, cheap to check forever) would
    silently misroute envelopes; fail at bootstrap instead.
    """
    _, wid, n_workers, index_digest = message
    if wid != worker_id or n_workers != placement.n_workers:
        raise RuntimeExecutionError(
            f"hello mismatch: coordinator addressed worker {wid} of "
            f"{n_workers}, this process is worker {worker_id} of "
            f"{placement.n_workers}"
        )
    local = runtime.dispatcher.export_index()
    if index_digest != local:
        raise RuntimeExecutionError(
            f"worker {worker_id}: successor index diverged from the "
            f"coordinator's (routing tables are not identical)"
        )


def _owned_elements(runtime: "Runtime", worker_id: int,
                    placement) -> dict:  # pragma: no cover - subprocess
    """The SE elements this worker owns, by ``(se, index)``."""
    return {
        inst.key: inst.element
        for se_name in runtime.sdg.states
        for inst in runtime.topology.se_instances(se_name)
        if placement.worker_of_node(inst.node_id) == worker_id
    }
