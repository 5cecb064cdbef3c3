"""The pipelined SDG execution engine (§3.3).

The engine materialises a validated SDG and processes data items
cooperatively (single-threaded, deterministic): ``inject`` feeds
external input to entry TEs and ``run_until_idle`` drains the
pipeline. Since the layered refactor, :class:`Runtime` is a *facade*
over four subsystems, each a seam where a future policy or backend can
plug in:

* :mod:`repro.runtime.deployment` — the :class:`~repro.runtime
  .deployment.Topology` owns instances, nodes, partitioners, epochs;
* :mod:`repro.runtime.scheduler` — the round-robin instance selection
  plus the straggler-credit accounting;
* :mod:`repro.runtime.transport` — channels and inbox delivery;
* :mod:`repro.runtime.dispatcher` — the four dispatch semantics over a
  deploy-time successor index.

The facade keeps the public API of the original monolithic engine:
``repro.recovery`` and ``repro.chaos`` drive it unchanged.

Determinism note: the paper requires translated programs to be
deterministic so that recovery can re-execute computation (§4.1); the
scheduler, :class:`~repro.runtime.scheduler.RoundRobinScheduler`, honours
the same contract by processing instances in a fixed rotor order.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.core.elements import AccessMode, StateKind
from repro.core.graph import SDG
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND, EventBus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.profile import ProfileRegistry
from repro.obs.trace import Tracer
from repro.runtime.config import RuntimeConfig
from repro.runtime.deployment import Topology
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.envelope import (
    INPUT_EDGE,
    NO_RESPONSE,
    ChannelId,
    Envelope,
    RequestId,
)
from repro.runtime.instances import (
    GatherState,
    SEInstance,
    StreamKey,
    StreamStamps,
    TEInstance,
)
from repro.runtime.node import PhysicalNode, queued, served
from repro.runtime.scaling import BottleneckDetector
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.substrate import (
    ExecutionSubstrate,
    resolve_substrate,
)
from repro.runtime.transport import Transport
from repro.state import HashPartitioner

#: Most envelopes one scheduling step serves on a certified channel.
RUN_MAX = 64


class InputRoute:
    """One entry slot's input route: its channel, its entry's input log
    and the ``append`` a substrate logs an input with, and ``sink``, what
    the substrate resolved for the route on first use (on a fleet: the
    owning worker and the rows not yet framed)."""

    __slots__ = ("channel", "log", "append", "sink")

    def __init__(self, channel: ChannelId, log: list) -> None:
        self.channel, self.log, self.sink = channel, log, None
        self.append = log.append


class EntryInputs:
    """What ``inject`` reads of one entry TE: spec, key function,
    injected-items cell, routes by slot, input log and input seq. The
    seq is per entry (see TEInstance.out_seq for why timestamps are
    per-stream, not per-channel); it also names an injected broadcast's
    request id and picks an unkeyed entry's round-robin slot, so replay
    re-derives both. The log, in seq order, is the upstream backup (§5)
    every route shares: what no checkpoint or barrier has trimmed.

    A checkpoint's trim only leaves a mark (:meth:`mark`); the log
    drops what the marks cover in one pass (:meth:`compact`) once every
    route's slot has marked, once it has doubled since the last pass,
    and whenever it is read: a checkpoint round over n slots walks it
    at most twice, not n times."""

    __slots__ = ("spec", "key_fn", "injected", "routes", "_log", "seq",
                 "router", "rerouted", "marks", "marked", "kept")

    def __init__(self, spec: Any, injected: Any, router: Any) -> None:
        self.spec, self.key_fn, self.injected = (spec, spec.entry_key_fn,
                                                 injected)
        self.routes: list[InputRoute] = []
        self._log: list = []
        self.seq = 0
        #: The router a trim last saw, and the seq it saw it at: inputs
        #: past that seq were delivered under it.
        self.router, self.rerouted = router, 0
        #: Slot -> the highest stamp it checkpointed that the log may
        #: still hold; the slots marked since the last full round; and
        #: the log's length after the last pass.
        self.marks: dict[int, int] = {}
        self.marked: set[int] = set()
        self.kept = 0

    @property
    def log(self) -> list:
        """The log, with every pending mark applied first. Routes hold
        the list itself; they only append to it."""
        if self.marks:
            self.compact()
        return self._log

    @log.setter
    def log(self, log: list) -> None:
        self._log = log

    def mark(self, index: int, up_to_ts: int, router: Any) -> None:
        """Slot ``index`` checkpointed the inputs it served up to
        ``up_to_ts``, under ``router`` (the entry's router now)."""
        if router is not self.router:
            # Apply the marks under the router they were made under.
            self.compact()
            self.router, self.rerouted = router, self.seq
        marks, marked = self.marks, self.marked
        if up_to_ts > marks.get(index, 0):
            marks[index] = up_to_ts
        marked.add(index)
        if len(marked) >= len(self.routes):  # a full round
            marked.clear()
            self.compact()
        elif len(self._log) > 2 * self.kept:
            self.compact()

    def compact(self) -> None:
        """Drop, in place and in one pass, each input the slot it routes
        to now has checkpointed: where it went if delivered under the
        current router (or unkeyed: slots only grow), else where the
        router sends its key. Marks apply to what is logged when they
        are made; later inputs carry higher stamps, so none of them
        is covered."""
        marks, log = self.marks, self._log
        if marks:
            top, key_fn, rerouted = max(marks.values()), self.key_fn, self.rerouted
            partition = self.router.partition
            log[:] = [
                row for row in log
                if row[1] > top or row[1] > marks.get(
                    row[2].dst_instance if key_fn is None or row[1] > rerouted
                    else partition(key_fn(row[0])), 0)]
            marks.clear()
        self.kept = len(log)


class Runtime:
    """Deploys and executes one SDG in-process (the layer facade)."""

    def __init__(self, sdg: SDG, config: RuntimeConfig | None = None) -> None:
        self.sdg = sdg
        self.config = config or RuntimeConfig()
        #: The deployment layer: instances, nodes, partitioners, epochs.
        self.topology = Topology(sdg, self.config)
        #: The transport layer; built at deploy.
        self.transport: Transport | None = None
        #: The dispatch layer; built at deploy.
        self.dispatcher: Dispatcher | None = None
        #: The scheduler; built at deploy. A test may assign a reference
        #: policy before a drain: ``select``, and ``charge`` where a
        #: certified channel serves runs.
        self.scheduler: RoundRobinScheduler | None = None
        #: The execution substrate; resolved from the config at deploy.
        self.substrate: ExecutionSubstrate | None = None
        #: Metrics registry: fresh per runtime unless injected via the
        #: config, so tests never see each other's counts.
        self.metrics = (
            self.config.metrics if self.config.metrics is not None
            else MetricsRegistry()
        )
        #: Structured event bus all layers publish to (always on; an
        #: event is only created when something structural happens).
        self.events = EventBus()
        #: The causal tracer, the wall-clock phase profiler over
        #: ``self.metrics`` and the flight recorder, each None when its
        #: config field is off; and the serve path's one view of them.
        self.tracer = Tracer() if self.config.trace else None
        self.profiler = (ProfileRegistry(self.metrics)
                         if self.config.profile else None)
        self.attach_flight(FlightRecorder(self.config.flight_recorder)
                           if self.config.flight_recorder else None)
        #: Collected payloads of TEs without outgoing dataflows.
        self.results: dict[str, list[Any]] = {}
        self.total_steps = 0
        self._steps_base = 0  # engine_steps_total counts from here
        #: Entry TE -> its :class:`EntryInputs`; filled by deploy, so
        #: before it every ``inject`` is refused.
        self._entries: dict[str, EntryInputs] = {}
        #: TEs without outgoing dataflows; their outputs are results.
        self._terminal_tes: frozenset[str] = frozenset()
        #: Result replay filter (§5), client-side, ``None`` until something
        #: can replay: stamps per (terminal TE, stream), shared by its
        #: channels into every slot; per merge slot, request id -> cause.
        self._result_stamps: dict[ChannelId, StreamStamps] | None = None
        self._result_requests: dict[tuple[str, int], dict[RequestId, tuple]] = {}
        self._step_hooks: list = []
        self._crash_handlers: list = []
        self._deployed = False
        self._detector: BottleneckDetector | None = None
        #: Resolved ProgramCapabilities when ``config.optimize`` is on
        #: (``None`` otherwise — and the relaxed path stays off).
        self.capabilities: Any = None
        #: ``(edge_index, dst_te)`` of every channel certified
        #: ``COALESCIBLE_DISPATCH``; empty keeps every run at length 1.
        self._run_channels: frozenset[tuple[int, str]] = frozenset()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self) -> "Runtime":
        """Validate, allocate and materialise the SDG. Returns self."""
        if self._deployed:
            raise RuntimeExecutionError("runtime already deployed")
        self.sdg.validate()
        self.config.validate(self.sdg)
        self.topology.materialise()
        self.substrate = resolve_substrate(self.config.substrate,
                                           self.config)
        # Static substrate-safety gate: a payload-isolating substrate
        # refuses (or warns about) programs the SDG4xx passes prove
        # unsafe to fork, before any worker exists.
        self._check_substrate_safety()
        self.transport = Transport(
            self.topology,
            metrics=self.metrics,
            tracer=self.tracer,
            clock=lambda: self.total_steps,
        )
        self.dispatcher = Dispatcher(self.sdg, self.topology, self.transport,
                                     metrics=self.metrics)
        if self.profiler is not None:
            # The dispatch phase is the time spent in this seam.
            self.dispatcher.dispatch = self.probe.timed(
                "dispatch", self.dispatcher.dispatch)
        self.scheduler = RoundRobinScheduler()
        self._bind_metrics()
        # One detector for the runtime's lifetime, built from the
        # validated config (not per scale check).
        self._detector = BottleneckDetector(
            threshold=self.config.scale_threshold,
            max_instances=self.config.max_instances,
        )
        self._terminal_tes = frozenset(
            te_name for te_name in self.sdg.tasks
            if not self.dispatcher.successors(te_name))
        for te_name in self._terminal_tes:
            self.results.setdefault(te_name, [])
        if self.config.optimize:
            self._enable_optimizations()
        self._deployed = True
        self._refresh_instance_gauges()
        # Bind last: a distributed substrate forks its workers here and
        # they must inherit the fully deployed topology, the resolved
        # capabilities included.
        self.substrate.bind(self)
        return self

    def _check_substrate_safety(self) -> None:
        """Gate a payload-isolating deploy on the SDG4xx passes.

        Reuses the certificate's findings when the deploy carries
        pre-certified capabilities; otherwise runs the passes over the
        SDG (through the attached source program when the graph came
        from ``translate()``). ``"enforce"`` refuses on error-severity
        findings with the offending call chains rendered in the error;
        ``"warn"`` surfaces everything as a ``RuntimeWarning``.
        """
        mode = self.config.substrate_check
        if mode == "off":
            return
        if not getattr(self.substrate, "isolates_payloads", False):
            return
        caps = self.config.capabilities
        if caps is not None and hasattr(caps, "substrate_findings"):
            findings = list(caps.substrate_findings)
        else:
            from repro.analysis.substrate import deploy_findings

            findings = deploy_findings(self.sdg)
        if not findings:
            return
        from repro.analysis.diagnostics import Severity

        errors = [d for d in findings if d.severity is Severity.ERROR]
        rendered = "\n".join(
            "  " + d.render().replace("\n", "\n  ") for d in findings
        )
        if mode == "enforce" and errors:
            raise RuntimeExecutionError(
                f"substrate_check='enforce': refusing to deploy on the "
                f"{self.substrate.name!r} substrate — "
                f"{len(errors)} substrate-safety error(s):\n{rendered}"
            )
        import warnings

        warnings.warn(
            f"substrate-safety findings on the "
            f"{self.substrate.name!r} substrate "
            f"({len(findings)} finding(s)):\n{rendered}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _enable_optimizations(self) -> None:
        """Resolve the capability certificate and arm coalesced runs.

        Certification is positive-only: a channel the analyzer could
        not prove coalescible simply is not in the certificate and keeps
        serving one envelope per step — an uncertified program runs the
        exact baseline even with ``optimize=True``.
        """
        caps = self.config.capabilities
        if caps is None:
            from repro.analysis.capabilities import certify
            caps = certify(self.sdg)
        self.capabilities = caps
        self._run_channels = frozenset(
            [(INPUT_EDGE, entry) for entry in caps.coalescible_entries]
            + [(index, edge.dst)
               for index, edge in enumerate(self.sdg.dataflows)
               if (edge.src, edge.dst) in caps.coalescible_edges]
        )

    def _bind_metrics(self) -> None:
        """Pre-bind metric children so hot-path updates skip label lookup."""
        m = self.metrics
        self._c_stalls = stalls = m.counter(
            "engine_stall_ticks_total",
            "steps where all pending work sat on throttled nodes").labels()
        # Counted when read, so no per-step or per-item site keeps them.
        m.counter("engine_steps_total", "logical steps (ticks)").computed(
            lambda: self.total_steps - self._steps_base)
        m.counter("scheduler_picks_total",
                  "instance selections, by scheduling policy").computed(
            lambda: self.total_steps - self._steps_base - stalls.value,
            policy=RoundRobinScheduler.name)
        processed = m.counter(
            "engine_items_processed_total", "items processed, by TE")
        for te, history in self.topology.te_history.items():
            processed.computed(partial(served, history), te=te)
        self._c_node_failures = m.counter(
            "engine_node_failures_total", "nodes killed (fault or crash)"
        ).labels()
        self._c_scale_outs = m.counter(
            "engine_scale_outs_total", "reactive/explicit scale-up actions"
        ).labels()
        self._c_coalesced = m.counter(
            "dispatch_coalesced_total",
            "envelopes served in the scheduling step of the one ahead "
            "of them on a certified channel").labels()
        injected = m.counter(
            "engine_items_injected_total",
            "external items injected, by entry TE")
        instances_g = m.gauge(
            "runtime_te_instances", "live instances per TE")
        self._entries = {te: EntryInputs(spec, injected.labels(te=te),
                                         self.topology.routers.get(te))
                         for te, spec in self.sdg.tasks.items()
                         if spec.is_entry}
        self._g_instances = {te: instances_g.labels(te=te)
                             for te in self.sdg.tasks}
        depth = m.gauge("runtime_inbox_depth",
                        "queued envelopes per destination TE")
        for te, slots in self.topology.te_slots.items():
            depth.computed(partial(queued, slots), te=te)
        m.gauge("engine_result_filter_entries", "result-filter records "
                "and their stamps past a gap").computed(
            lambda: self._result_stamps and sum(
                1 + len(held.ahead)
                for held in set(self._result_stamps.values())) or 0)

    def _refresh_instance_gauges(self) -> None:
        """Re-read live instance counts after a structural change."""
        for te, child in self._g_instances.items():
            child.set(len(self.topology.te_instances(te)))

    # ------------------------------------------------------------------
    # Topology facade (instance and node accessors)
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> dict[int, PhysicalNode]:
        """All nodes ever created, dead ones included."""
        return self.topology.nodes

    def te_instances(self, te: str) -> list[TEInstance]:
        """Live instances of TE ``te`` (failed slots omitted)."""
        return self.topology.te_instances(te)

    def te_instance(self, te: str, index: int) -> TEInstance | None:
        return self.topology.te_instance(te, index)

    def te_slot_count(self, te: str) -> int:
        return self.topology.te_slot_count(te)

    def se_instances(self, se: str) -> list[SEInstance]:
        self.pull_state()
        return self.topology.se_instances(se)

    def se_instance(self, se: str, index: int) -> SEInstance | None:
        self.pull_state()
        return self.topology.se_instance(se, index)

    def pull_state(self) -> None:
        """Make this process's SE elements current before a read: a
        substrate that keeps state in its workers fetches it here (its
        optional ``pull_state`` hook). The step path never comes here.
        """
        pull = getattr(self.substrate, "pull_state", None)
        if pull is not None:
            pull()

    def alive_nodes(self) -> list[PhysicalNode]:
        return self.topology.alive_nodes()

    def is_idle(self) -> bool:
        """Whether no envelope is waiting in any live inbox."""
        return self.topology.is_idle()

    def all_te_instances(self) -> Iterator[TEInstance]:
        return self.topology.all_te_instances()

    # ------------------------------------------------------------------
    # External input
    # ------------------------------------------------------------------

    def _require_deployed(self) -> None:
        if not self._deployed:
            raise RuntimeExecutionError(
                "runtime not deployed; call deploy() first"
            )

    def inject(self, entry: str, payload: Any) -> None:
        """Feed one external item to entry TE ``entry`` (§3.1 dataflows).

        The item goes to ``substrate.deliver`` as a plain row with its
        :class:`InputRoute`, found by slot index. In-process the
        envelope is kept in the entry's input log, so a failed entry TE
        can be replayed from "upstream" (§5); a fleet's coordinator
        builds no envelope and logs the row only while a restart may
        replay it.
        """
        inputs = self._entries.get(entry)
        if inputs is None:
            self._require_deployed()
            self.sdg.task(entry)  # KeyError: no such TE
            raise RuntimeExecutionError(f"TE {entry!r} is not an entry point")
        inputs.injected.value += 1
        # One trace per logical injection: a GLOBAL-access broadcast is
        # one item fanned out, so every slot shares the trace id.
        trace_id = (self.tracer.new_trace(self.total_steps)
                    if self.tracer is not None else None)
        request_id = expected = None
        key_fn = inputs.key_fn
        if key_fn is not None:
            index = self.topology.routers[entry].partition(key_fn(payload))
        elif inputs.spec.access is AccessMode.GLOBAL:
            request_id = (INPUT_EDGE, entry, 0, inputs.seq + 1)
            expected, index = self.te_slot_count(entry), 0
        else:
            index = inputs.seq % self.te_slot_count(entry)
        routes = inputs.routes
        # Once, or once per slot of a broadcast; no iterable is allocated.
        while True:
            try:
                route = routes[index]
            except IndexError:
                route = self._input_route(entry, index)
            seq = inputs.seq = inputs.seq + 1
            self.substrate.deliver(route, (payload, seq, route.channel,
                                           request_id, expected, trace_id))
            index += 1
            if expected is None or index == expected:
                return

    def _input_route(self, entry: str, index: int) -> InputRoute:
        """Slot ``index``'s route into ``entry``, opened (with any lower
        slot's) on first use."""
        inputs = self._entries[entry]
        routes = inputs.routes
        while len(routes) <= index:
            routes.append(InputRoute(ChannelId(
                INPUT_EDGE, "__input__", 0, entry, len(routes)), inputs._log))
        return routes[index]

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Serve one run of envelopes on one TE instance; False when idle.

        One turn of :meth:`_drain`, which says what a step is.
        """
        return self._drain(1) == 1

    def _drain(self, limit: int, stop=None) -> int:
        """Take up to ``limit`` steps; returns how many were taken.

        Fewer means idle, or that ``stop()``, asked after each step when
        given, said so. The seams (``scheduler.select``, and
        ``substrate.process`` with the probe around it when a recorder
        is on) are read once per drain, and again after any step hook or
        crash handler ran, so a wrapper or recorder installed between
        calls, or by a hook, sees every later step.

        Instance selection is the scheduler's call; straggler-credit
        throttling (nodes with ``speed < 1``) lives there too. When
        every pending item sits on a throttled node the step still
        counts (a *stall tick*): logical time passes and hooks run,
        which is what lets the failure detector observe a stalled node.

        A step serves a *run*: the head envelope plus, when its channel
        is certified ``COALESCIBLE_DISPATCH`` and it carries no request
        id, the envelopes queued directly behind it on the same channel
        (untagged, at most :data:`RUN_MAX` in all). Every envelope of a
        run takes the same :meth:`_serve` path; a run of one is the
        uncertified case.
        """
        if not self._deployed:
            self._require_deployed()
        steps = 0
        hooks = self._step_hooks
        stale = True
        while steps < limit:
            if stale:
                topology = self.topology
                nodes = topology.nodes
                select = self.scheduler.select
                process = (self.substrate.process if self.probe is NULL_PROBE
                           else self.probe.around(self.substrate.process))
                run_channels = self._run_channels
                stale = False
            # ``Topology.candidates()``, written out while its cache is
            # good.
            candidates = topology._candidates
            if candidates.version != topology.version:
                candidates = topology.candidates()
            if not candidates.ready:
                return steps
            instance, throttled = select(candidates, nodes)
            if instance is None:
                if not throttled:
                    return steps
                self._c_stalls.value += 1
            else:
                inbox = instance.inbox
                envelope = inbox.popleft()
                channel = envelope.channel
                most = RUN_MAX if (
                    run_channels
                    and envelope.request_id is None
                    and (channel.edge_index, channel.dst_te) in run_channels
                ) else 1
                run = 0
                try:
                    while True:
                        run += 1
                        try:
                            process(instance, envelope)
                        except RuntimeExecutionError as exc:
                            if not self._crash_handlers:
                                raise
                            # Supervised mode: a task crash kills its host
                            # node (this envelope and the rest of the inbox
                            # survive upstream and are replayed during
                            # recovery) and the handlers are told, instead
                            # of the whole pipeline aborting.
                            if nodes[instance.node_id].alive:
                                self.fail_node(instance.node_id)
                            for handler in list(self._crash_handlers):
                                handler(self, instance, envelope, exc)
                            stale = True
                            break
                        if run == most or not inbox:
                            break
                        head = inbox[0]
                        if (head.channel != channel
                                or head.request_id is not None):
                            break
                        envelope = inbox.popleft()
                finally:
                    if not inbox:
                        # The other half of ready-set upkeep (appends are
                        # the transport's). After a mid-run crash
                        # ``candidates`` is already stale and this clears
                        # a bit nobody reads.
                        candidates.ready &= ~instance.ready_bit
                if run > 1:
                    self._c_coalesced.value += run - 1
                    # The scheduler admitted one item; charge the
                    # straggler credit for the rest so a run cannot
                    # smuggle work past a throttled node.
                    self.scheduler.charge(nodes[instance.node_id], run - 1)
            steps += 1
            self.total_steps += 1
            if hooks:
                for hook in list(hooks):
                    hook(self)
                stale = True
            if stop is not None and stop():
                return steps
        return steps

    def add_step_hook(self, hook) -> None:
        """Register ``hook(runtime)`` to run after every processed item.

        Hooks drive cross-cutting machinery that must observe logical
        time: periodic checkpoint scheduling, detectors, fault injectors.
        """
        self._step_hooks.append(hook)

    def remove_step_hook(self, hook) -> None:
        self._step_hooks.remove(hook)

    def add_crash_handler(self, handler) -> None:
        """Register ``handler(runtime, instance, envelope, exc)``.

        While at least one handler is registered, a task-code exception
        no longer propagates out of :meth:`step`; the hosting node is
        failed (crash-stop semantics) and every handler is informed —
        the failure detector uses this as its immediate crash report.
        """
        self._crash_handlers.append(handler)

    def remove_crash_handler(self, handler) -> None:
        self._crash_handlers.remove(handler)

    def run_until_idle(self, max_steps: int = 10_000_000) -> int:
        """Drain all pending work; returns the number of items processed.

        Substrate-dispatched: in-process this is the deterministic
        step loop (auto-scale checks between steps); on the
        multiprocess substrate it pumps the coordinator's event loop
        until every worker reports quiescence (the barrier), then
        appends the results the workers reported; state stays there.
        """
        if not self._deployed:
            self._require_deployed()
        return self.substrate.run_until_idle(max_steps)

    def close(self) -> None:
        """Release substrate resources (worker processes, pipes).

        Idempotent; a no-op on the in-process substrate. Distributed
        substrates also shut down automatically when the runtime is
        garbage-collected or the process exits, but tests and services
        should close deterministically.
        """
        if self.substrate is not None:
            self.substrate.shutdown()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:  # closes on a raise too
        self.close()

    def merged_metrics(self):
        """The runtime's metrics with all substrate shards folded in.

        In-process this is ``self.metrics`` itself. On the multiprocess
        substrate each worker keeps its own registry shard; this
        returns a fresh registry merging the coordinator's series with
        every worker's, as of the last barrier — so observability
        output is substrate-agnostic.
        """
        shards = getattr(self.substrate, "metric_shards", None)
        if not shards:
            return self.metrics
        return self.metrics.merged_with(list(shards))

    def merged_profile(self) -> ProfileRegistry | None:
        """The wall-clock phase profile over :meth:`merged_metrics`.

        ``None`` when profiling is off. Phases are metric series, so on
        the multiprocess substrate this view sums the coordinator's
        (serialize / wire-wait / checkpoint) spans with every worker's
        (process / dispatch / ...) spans, retired fleets included.
        """
        if self.profiler is None:
            return None
        return ProfileRegistry(self.merged_metrics())

    def attach_flight(self, flight: FlightRecorder | None) -> None:
        """Record into ``flight`` from the next drain on: rebuild the
        :attr:`probe` (forked workers keep the probe of their deploy)."""
        self.flight = flight
        recorders = (self.tracer, self.profiler, flight)
        self.probe = (NULL_PROBE if all(r is None for r in recorders)
                      else Probe(*recorders, clock=lambda: self.total_steps))

    def count_steps_from(self, step: int) -> None:
        """Set the clock to ``step``, and count steps from 0 there."""
        self.total_steps = self._steps_base = step

    def poll_telemetry(self, timeout: float = 0.0) -> None:
        """Service substrate telemetry without waiting for a barrier.

        On the multiprocess substrate this pumps the coordinator's
        wire once, absorbing piggybacked metric shards and
        trace shards from idle reports — which is what keeps
        :meth:`merged_metrics` fresh while work is still in flight
        (``repro top --watch`` calls this in its loop). A no-op on
        substrates without a ``poll`` hook (in-process telemetry is
        always current).
        """
        poll = getattr(self.substrate, "poll", None)
        if poll is not None:
            poll(timeout)

    def _serve(self, instance: TEInstance,
               envelope: Envelope) -> bool | None:
        """The one per-envelope path (every substrate, every run length),
        bound as the in-process ``substrate.process``.

        Replay dedup, gather, invoke, ``last_seen`` mark, dispatch or
        collect, count — in that order, for a lone envelope and for
        each envelope of a run alike. Returns False if it dropped a
        replay duplicate (then the probe records nothing).
        """
        # The ``StreamKey``, sliced once for the replay dedup and the mark.
        stream = envelope.channel[:3]
        if envelope.ts <= instance.last_seen.get(stream, 0):
            self.topology.nodes[instance.node_id].duplicates_dropped += 1
            return False
        spec = instance.spec
        gathered = spec.is_merge and envelope.request_id is not None
        if gathered:
            payload = self._gather(instance, envelope)
            if payload is None:
                return
        else:
            payload = envelope.payload
        ctx = instance.context
        if instance.crash_next:
            instance.crash_next = False
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] crashed "
                f"mid-item on {payload!r} (injected fault)"
            )
        try:
            returned = spec.fn(ctx, payload)
        except Exception as exc:
            ctx.drain()  # what it emitted before failing dies with it
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] failed on "
                f"{payload!r}: {exc}"
            ) from exc
        # ``ctx.drain()``, written out: one call less per item.
        outputs, ctx._outputs = ctx._outputs, []
        if returned is not None:
            outputs.append(returned)
        if not gathered:
            instance.last_seen[stream] = envelope.ts
        if instance.name not in self._terminal_tes:
            self.dispatcher.dispatch(instance, outputs, envelope)
        # A terminal TE's outputs are results. The result consumer is the
        # most-downstream party: it too discards duplicates regenerated
        # by deterministic replay. A stamp names one item of its stream
        # into this TE whichever slot serves it, so rescaling and 1-to-n
        # restores need no special case; a gathered reply is caused by
        # whichever response completed it, so it goes by request id.
        elif gathered:
            done = self._result_requests.setdefault(instance.key, {})
            if envelope.request_id not in done:
                done[envelope.request_id] = (envelope.channel, envelope.ts)
                self.results[instance.name].extend(outputs)
        elif self._result_stamps is None:
            if outputs:
                self.results[instance.name].extend(outputs)
        elif (self._result_stamps.get(envelope.channel)
              or self._result_stream(envelope.channel)).add(envelope.ts):
            self.results[instance.name].extend(outputs)
        instance.served += 1

    def _gather(self, instance: TEInstance,
                envelope: Envelope) -> list[Any] | None:
        """Accumulate one response behind the merge barrier (§3.2/§4.2).

        Returns the merge TE's input once the barrier is complete, and
        ``None`` while responses are still outstanding.
        """
        request_id = envelope.request_id
        expected = envelope.expected_responses or 1
        gather = instance.pending_gathers.setdefault(
            request_id, GatherState(expected=expected)
        )
        if envelope.payload is not NO_RESPONSE:
            gather.payloads.append(envelope.payload)
        gather.received += 1
        instance.mark_processed(envelope)
        if not gather.complete:
            return None
        del instance.pending_gathers[request_id]
        return gather.payloads

    # ------------------------------------------------------------------
    # Results (a terminal TE's outputs; the rest go to the dispatcher)
    # ------------------------------------------------------------------

    def start_result_filter(self) -> None:
        """Build the result filter, once; each path that can re-deliver,
        re-route or roll back an item calls this first.

        Exact: until then each stamp reaches one slot, once; slots serve
        their channels FIFO; a served terminal item is collected (a
        gathered one by request id); trims cut only at or below a
        checkpointed ``last_seen``. So collected stamps are those at or
        below their slot's ``last_seen``; the rest are *open*, in an input
        log or output buffer, as is the envelope a supervised crash popped.
        Per terminal stream, with ``top`` its highest stamp: ``low =
        min(open) - 1`` (or ``top``) and ``ahead = (low, top] - open``.
        """
        if self._result_stamps is not None:
            return
        self._result_stamps = records = {}
        for te in self._terminal_tes:
            inputs, slots = self._entries.get(te), self.topology.te_slots[te]
            streams = [([(r.channel, inputs.log) for r in inputs.routes[:1]],
                        inputs.seq)] if inputs else []
            streams += [([(c, b) for c, b in p.output_buffers.items()
                          if c.edge_index == e], p.out_seq.get(e, 0))
                        for e, edge in enumerate(self.sdg.dataflows)
                        if edge.dst == te for p in self.te_instances(edge.src)]
            for kept, top in streams:
                if kept:
                    open_ = {env.ts for _, log in kept for env in log
                             if env.ts > slots[env.channel.dst_instance]
                             .last_seen.get(env.channel[:3], 0)}
                    low = min(open_, default=top + 1) - 1
                    records[kept[0][0].reroute(0)] = StreamStamps(
                        low, set(range(low + 1, top + 1)) - open_)

    def _result_stream(self, channel: ChannelId) -> StreamStamps:
        """The stamps of ``channel``'s stream into its TE, any slot."""
        self.start_result_filter()
        stamps = self._result_stamps.setdefault(channel.reroute(0),
                                                StreamStamps())
        self._result_stamps[channel] = stamps
        return stamps

    def trim_result_requests(self, te: str, index: int,
                             last_seen: dict[StreamKey, int]) -> None:
        """Forget the requests whose cause ``last_seen`` covers."""
        done = self._result_requests.get((te, index))
        for request_id, (channel, ts) in list((done or {}).items()):
            if ts <= last_seen.get(channel[:3], 0):
                del done[request_id]

    # ------------------------------------------------------------------
    # Failure injection and replay plumbing (used by repro.recovery)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Kill a node: inboxes, SE contents and output buffers are lost.

        Refused, with the node left alive, where workers hold the state:
        no process would serve or replay a replacement installed here.
        """
        self._refuse_on_workers(f"fail_node({node_id})")
        self.start_result_filter()
        node = self.topology.nodes[node_id]
        was_alive = node.alive
        lost = queued(node.te_instances.values()) if was_alive else 0
        self.topology.fail_node(node_id)
        if was_alive:
            self._c_node_failures.inc()
            self._refresh_instance_gauges()
            self.events.publish(
                "engine", KIND.NODE_FAILED, self.total_steps,
                node_id=node_id, lost_envelopes=lost,
            )
            self.probe.note(self.total_steps, "node_failed",
                            node=node_id, lost=lost)

    def install_replacement(
        self,
        te_replacements: list[TEInstance],
        se_replacements: list[SEInstance],
    ) -> PhysicalNode:
        """Host replacement instances on a fresh node (recovery R-steps).

        Slot lists grow on demand so that m-to-n recovery can restore a
        single failed instance as several new partitioned instances.
        """
        self.start_result_filter()
        node = self.topology.install_replacement(te_replacements,
                                                 se_replacements)
        self._refresh_instance_gauges()
        return node

    def set_partitioner(self, se_name: str,
                        partitioner: HashPartitioner) -> None:
        """Route a partitioned SE by ``partitioner`` from a new epoch on
        (a 1-to-n restore), and publish the repartition."""
        self.start_result_filter()
        self.topology.set_partitioner(se_name, partitioner)
        self.events.publish(
            "engine", KIND.REPARTITION, self.total_steps,
            se=se_name, epoch=self.topology.se_epoch(se_name),
        )

    def se_epoch(self, se_name: str) -> int:
        """The SE's current partitioning epoch (0 until repartitioned)."""
        return self.topology.se_epoch(se_name)

    def replay_rerouted(self, dst_te: str,
                        recovered: set[int]) -> int:
        """Replay all buffered envelopes towards recovered instances.

        Covers both upstream TE output buffers and the client-side input
        log; the receiving instance discards duplicates via
        ``last_seen``. Keyed destinations are recomputed under the
        *current* partitioner — required when a failed SE was restored
        onto a different number of instances (m-to-n recovery, Fig. 4).
        Envelopes whose recomputed destination is not in ``recovered``
        are skipped (their instance never failed). Returns the number of
        envelopes re-delivered.
        """
        self.start_result_filter()
        count = 0
        inputs = self._entries.get(dst_te)
        streams: list[Envelope] = list(inputs.log) if inputs else []
        for producer in self.all_te_instances():
            if not self.nodes[producer.node_id].alive:
                continue
            for channel, buffered in producer.output_buffers.items():
                if channel.dst_te == dst_te:
                    streams.extend(buffered)
        # Deliver in per-stream timestamp order. One logical stream may
        # span several buffered channels after a repartition (the same
        # source injected to different destination indices across
        # epochs); since ``last_seen`` is per *stream*, out-of-order
        # delivery across those channels would make the dedup filter
        # drop genuinely unprocessed items during a full log replay.
        streams.sort(key=lambda e: (e.channel.edge_index,
                                    e.channel.src_te,
                                    e.channel.src_instance, e.ts))
        for envelope in streams:
            index = self._current_index(envelope)
            if index not in recovered:
                continue
            rerouted = envelope.with_channel(
                envelope.channel.reroute(index), envelope.ts
            )
            if self.transport.deliver(rerouted):
                count += 1
        return count

    def replay_from(self, instance: TEInstance) -> int:
        """Re-send a recovered instance's own output buffers downstream."""
        self.start_result_filter()
        count = 0
        for buffered in instance.output_buffers.values():
            for envelope in buffered:
                if self.transport.deliver(envelope):
                    count += 1
        return count

    def trim_stream(self, stream: StreamKey, dst_te: str, dst_index: int,
                    up_to_ts: int) -> None:
        """Trim a producer's output buffer after a downstream checkpoint."""
        edge_index, src_te, src_index = stream
        if edge_index == INPUT_EDGE:
            # An input goes once the slot it routes to *now* checkpointed
            # it, so a split's partitions keep theirs when partition 0
            # checkpoints.
            self._entries[dst_te].mark(dst_index, up_to_ts,
                                       self.topology.routers.get(dst_te))
            return
        producer = self.te_instance(src_te, src_index)
        if producer is not None:
            producer.trim_output_buffer(ChannelId(
                edge_index, src_te, src_index, dst_te, dst_index), up_to_ts)

    # ------------------------------------------------------------------
    # Runtime parallelism (§3.3)
    # ------------------------------------------------------------------

    @property
    def scale_events(self) -> list[tuple[int, str, int]]:
        """(step, te_name, new_instance_count) of each ``scale-out`` event."""
        return [(e.step, e.attrs["te"], e.attrs["instances"])
                for e in self.events.events(kind=KIND.SCALE_OUT)]

    def _maybe_scale(self) -> None:
        for te_name in self._detector.bottlenecks(self):
            try:
                self.scale_up(te_name)
            except RuntimeExecutionError:
                # E.g. a checkpoint is mid-flight on the SE: skip this
                # round; the detector will flag the TE again.
                continue

    def scale_up(self, te_name: str) -> bool:
        """Add one instance to TE ``te_name``, distributing its SE (§3.3).

        Partitioned SEs are re-split across the grown instance set;
        partial SEs gain a fresh replica. Stateless TEs simply gain an
        instance. Returns False when the TE cannot be scaled further.
        Refused where workers hold the SE state: scale-out is not yet a
        control-plane action there.
        """
        self._refuse_on_workers(f"scale_up({te_name!r})")
        self.start_result_filter()
        spec = self.sdg.task(te_name)
        if spec.is_merge:
            return False
        current = self.te_slot_count(te_name)
        if current >= self.config.max_instances:
            return False
        if spec.state is None:
            self.topology.add_stateless_instance(te_name)
        else:
            se_spec = self.sdg.state(spec.state)
            if se_spec.kind is StateKind.PARTIAL:
                self.topology.add_partial_instance(spec.state)
            else:
                # Queued envelopes for the accessing TEs come back from
                # the topology and are re-routed under the new
                # partitioner so keyed items still meet their partition.
                pending = self.topology.repartition(spec.state, current + 1)
                self._resend_after_reroute(pending)
                self.events.publish(
                    "engine", KIND.REPARTITION, self.total_steps,
                    se=spec.state,
                    epoch=self.topology.se_epoch(spec.state),
                    drained=len(pending),
                )
        self._c_scale_outs.inc()
        self._refresh_instance_gauges()
        self.events.publish(
            "engine", KIND.SCALE_OUT, self.total_steps,
            te=te_name, instances=self.te_slot_count(te_name),
        )
        return True

    def _refuse_on_workers(self, action: str) -> None:
        """Raise before ``action`` touches a topology whose nodes live in
        the substrate's workers (a substrate with ``pull_state``)."""
        if getattr(self.substrate, "pull_state", None) is not None:
            raise RuntimeExecutionError(
                f"{action} is not supported on the {self.substrate.name} "
                f"substrate: its workers hold the SE state, and this is "
                f"not a control-plane action"
            )

    def _resend_after_reroute(self, pending: list[Envelope]) -> None:
        """Re-address the envelopes a repartition drained.

        An envelope its old slot would have dropped at serve time (a
        stamp at or below the slot's ``last_seen``, or a second copy of
        one ``(dst TE, stream, stamp)``) is dropped here, and counted as
        that node's ``duplicates_dropped``. Every other one is re-*sent*
        (fresh sequence number on the new channel) rather than
        re-delivered with its old stamp: per-stream timestamps are only
        monotonic towards a fixed destination, so an old stamp arriving
        at a new destination could be mistaken for a duplicate. The
        stale copy leaves the producer-side replay buffer, or the entry's
        input log, to keep recovery consistent; each log is walked once,
        by stamp, since a fresh stamp is above every logged one. A result
        consumer will never see the old stamp again: it counts as
        collected, and if it already was (a replayed copy), so is the new.
        """
        slots, nodes = self.topology.te_slots, self.topology.nodes
        seen: set[tuple[str, StreamKey, int]] = set()
        resent: dict[str, set[int]] = {}
        for envelope in pending:
            channel = envelope.channel
            stream, ts = channel[:3], envelope.ts
            old = slots[channel.dst_te][channel.dst_instance]
            copy = (channel.dst_te, stream, ts)
            if copy in seen or ts <= old.last_seen.get(stream, 0):
                nodes[old.node_id].duplicates_dropped += 1
                continue
            seen.add(copy)
            index = self._current_index(envelope)
            if channel.edge_index == INPUT_EDGE:
                resent.setdefault(channel.dst_te, set()).add(ts)
                inputs = self._entries[channel.dst_te]
                route = self._input_route(channel.dst_te, index)
                fresh = inputs.seq = inputs.seq + 1
                self.substrate.deliver(route, (envelope.payload, fresh,
                                               route.channel) + envelope[3:])
            else:
                producer = self.te_instance(channel.src_te,
                                            channel.src_instance)
                if producer is None:
                    # Producer lost to a failure: deliver with the old
                    # stamp so downstream dedup against a future replay
                    # still works.
                    self.transport.deliver(envelope.with_channel(
                        channel.reroute(index), ts))
                    continue
                buffer = producer.output_buffers.get(channel)
                if buffer is not None and envelope in buffer:
                    buffer.remove(envelope)
                self.transport.send(producer, channel.edge_index,
                                    channel.dst_te, index, envelope.payload,
                                    envelope.request_id,
                                    envelope.expected_responses,
                                    trace_id=envelope.trace_id)
                fresh = producer.out_seq[channel.edge_index]
            if channel.dst_te in self._terminal_tes:
                stamps = self._result_stream(channel)
                if not stamps.add(ts):
                    stamps.add(fresh)
        for te, stale in resent.items():
            log = self._entries[te].log
            log[:] = [e for e in log if e.ts not in stale]

    def _current_index(self, envelope: Envelope) -> int:
        """Where ``envelope`` belongs under the *current* partitioner."""
        channel = envelope.channel
        spec = self.sdg.task(channel.dst_te)
        key_fn = (spec.entry_key_fn if channel.edge_index == INPUT_EDGE
                  else self.sdg.dataflows[channel.edge_index].key_fn)
        if key_fn is not None:
            return self.topology.routers[spec.name].partition(
                key_fn(envelope.payload))
        return min(channel.dst_instance,
                   self.te_slot_count(channel.dst_te) - 1)
