"""The pipelined SDG execution engine (§3.3).

The engine materialises a validated SDG and processes data items
cooperatively (single-threaded, deterministic): ``inject`` feeds
external input to entry TEs and ``run_until_idle`` drains the
pipeline. Since the layered refactor, :class:`Runtime` is a *facade*
over four subsystems, each a seam where a future policy or backend can
plug in:

* :mod:`repro.runtime.deployment` — the :class:`~repro.runtime
  .deployment.Topology` owns instances, nodes, partitioners, epochs;
* :mod:`repro.runtime.scheduler` — pluggable instance-selection
  policies plus the straggler-credit accounting;
* :mod:`repro.runtime.transport` — channels, inbox delivery, payload
  isolation, and backpressure reporting;
* :mod:`repro.runtime.dispatcher` — the four dispatch semantics over a
  deploy-time successor index.

The facade keeps the public API of the original monolithic engine:
``repro.recovery`` and ``repro.chaos`` drive it unchanged.

Determinism note: the paper requires translated programs to be
deterministic so that recovery can re-execute computation (§4.1); the
default :class:`~repro.runtime.scheduler.RoundRobinScheduler` honours
the same contract by processing instances in a fixed rotor order.
"""

from __future__ import annotations

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
    make_envelope,
)
from repro.runtime.instances import (
    GatherState,
    SEInstance,
    StreamKey,
    StreamStamps,
    TEInstance,
)
from repro.runtime.node import PhysicalNode
from repro.runtime.scaling import BottleneckDetector
from repro.runtime.scheduler import Scheduler, resolve_scheduler
from repro.runtime.substrate import (
    ExecutionSubstrate,
    resolve_substrate,
)
from repro.runtime.transport import Transport
from repro.state import HashPartitioner

#: Most envelopes one scheduling step serves on a certified channel.
RUN_MAX = 64


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
        #: The scheduling policy; resolved from the config at deploy.
        self.scheduler: Scheduler | None = None
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
        self._rr: dict[Any, int] = {}
        #: Per-entry global injection counter (see TEInstance.out_seq for
        #: why timestamps are per-stream, not per-channel).
        self._input_seq: dict[str, int] = {}
        #: Entry TE -> (spec, entry key function, injected-items cell);
        #: filled by deploy, so before it every ``inject`` is refused.
        self._entries: dict[str, tuple] = {}
        #: The client-side input log: ``(entry, index)`` -> the interned
        #: input ``ChannelId`` and the envelopes injected on it that no
        #: checkpoint has trimmed yet.
        self._input_routes: dict[tuple[str, int],
                                 tuple[ChannelId, list[Envelope]]] = {}
        #: TEs without outgoing dataflows; their outputs are results.
        self._terminal_tes: frozenset[str] = frozenset()
        #: Result replay filter (§5), client-side like ``results``: stamps
        #: collected per (terminal TE, stream), shared by the stream's
        #: channels into every slot; per merge slot, request id ->
        #: (channel, ts) of the response that completed it.
        self._result_stamps: dict[ChannelId, StreamStamps] = {}
        self._result_requests: dict[tuple[str, int], dict[int, tuple]] = {}
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
        # The substrate is resolved before the transport so its
        # isolation capability can switch off the defensive payload
        # deepcopy (the wire codec serialises every hand-off anyway).
        self.substrate = resolve_substrate(self.config.substrate,
                                           self.config)
        # Static substrate-safety gate: a payload-isolating substrate
        # refuses (or warns about) programs the SDG4xx passes prove
        # unsafe to fork, before any worker exists.
        self._check_substrate_safety()
        self.transport = Transport(
            self.topology,
            capacity=self.config.channel_capacity,
            copy_payloads=self.config.copy_payloads,
            payload_isolated=getattr(self.substrate,
                                     "isolates_payloads", False),
            metrics=self.metrics,
            tracer=self.tracer,
            clock=lambda: self.total_steps,
        )
        self.dispatcher = Dispatcher(self.sdg, self.topology, self.transport,
                                     metrics=self.metrics)
        self.scheduler = resolve_scheduler(self.config.scheduler)
        # An optional policy hook, resolved once. ``select`` is looked
        # up per step: tools rebind it on the deployed scheduler.
        self._charge = getattr(self.scheduler, "charge", None)
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
        self._c_steps = m.counter(
            "engine_steps_total", "logical steps (ticks)").labels()
        self._c_stalls = m.counter(
            "engine_stall_ticks_total",
            "steps where all pending work sat on throttled nodes").labels()
        self._c_picks = m.counter(
            "scheduler_picks_total",
            "instance selections, by scheduling policy").labels(
                policy=getattr(self.scheduler, "name",
                               type(self.scheduler).__name__))
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
        processed = m.counter(
            "engine_items_processed_total", "items processed, by TE")
        instances_g = m.gauge(
            "runtime_te_instances", "live instances per TE")
        self._entries = {te: (spec, spec.entry_key_fn,
                              injected.labels(te=te))
                         for te, spec in self.sdg.tasks.items()
                         if spec.is_entry}
        self._c_processed = {te: processed.labels(te=te)
                             for te in self.sdg.tasks}
        self._g_instances = {te: instances_g.labels(te=te)
                             for te in self.sdg.tasks}
        self._g_inbox = {te: self.transport.inbox_gauge(te)
                         for te in self.sdg.tasks}

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

        Items are buffered source-side like any other dataflow so that a
        failed entry TE can be replayed from "upstream" (here: the
        client-side input log).
        """
        bound = self._entries.get(entry)
        if bound is None:
            self._require_deployed()
            self.sdg.task(entry)  # KeyError: no such TE
            raise RuntimeExecutionError(f"TE {entry!r} is not an entry point")
        spec, key_fn, injected = bound
        injected.value += 1
        # One trace per logical injection: a GLOBAL-access broadcast is
        # one item fanned out, so every slot shares the trace id.
        trace_id = (self.tracer.new_trace(self.total_steps)
                    if self.tracer is not None else None)
        if key_fn is not None:
            self._inject_to(entry, self.topology.keyed_index(
                spec, key_fn(payload)), payload, None, None, trace_id)
        elif spec.access is AccessMode.GLOBAL:
            request_id = self.dispatcher.next_request_id()
            slots = self.te_slot_count(entry)
            for index in range(slots):
                self._inject_to(entry, index, payload, request_id, slots,
                                trace_id)
        else:
            slots = self.te_slot_count(entry)
            rr = self._rr.get(("input", entry), 0)
            self._rr[("input", entry)] = rr + 1
            self._inject_to(entry, rr % slots, payload, None, None, trace_id)

    def _inject_to(self, entry: str, index: int, payload: Any,
                   request_id: int | None, expected: int | None,
                   trace_id: int | None = None) -> None:
        if self.transport.copy_payloads:
            payload = self.transport.prepare_payload(payload)
        route = self._input_routes.get((entry, index))
        if route is None:
            channel = ChannelId(INPUT_EDGE, "__input__", 0, entry, index)
            route = self._input_routes[entry, index] = (channel, [])
        seq = self._input_seq.get(entry, 0) + 1
        self._input_seq[entry] = seq
        envelope = make_envelope((payload, seq, route[0], request_id,
                                  expected, trace_id))
        route[1].append(envelope)
        self.substrate.deliver(envelope)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def blocked_channels(self) -> list[ChannelId]:
        """Channels currently reporting backpressure.

        Empty when ``channel_capacity`` is unset. In-process this is
        the bounded transport's signal (consumed by the bottleneck
        detector alongside inbox depth); on the multiprocess substrate
        it additionally names congested coordinator->worker wire
        channels (``edge_index == WIRE_EDGE``).
        """
        if self.substrate is None:
            return []
        return self.substrate.blocked_channels()

    def step(self) -> bool:
        """Serve one run of envelopes on one TE instance; False when idle.

        Instance selection is the scheduler's call; straggler-credit
        throttling (nodes with ``speed < 1``) lives there too. When
        every pending item sits on a throttled node the step still
        counts (a *stall tick*): logical time passes and hooks run,
        which is what lets the failure detector observe a stalled node.

        A *run* is the head envelope plus, when its channel is
        certified ``COALESCIBLE_DISPATCH`` and it carries no request
        id, the envelopes queued directly behind it on the same
        channel (untagged, at most :data:`RUN_MAX` in all). Every
        envelope of a run takes the same :meth:`_serve` path; a run of
        one is the uncertified case.
        """
        if not self._deployed:
            self._require_deployed()
        candidates = self.topology.candidates()
        if not candidates.ready:
            return False
        nodes = self.topology.nodes
        instance, throttled = self.scheduler.select(candidates, nodes)
        if instance is None:
            if throttled:
                self._c_stalls.value += 1
                self._tick()
                return True
            return False
        self._c_picks.value += 1
        inbox = instance.inbox
        envelope = inbox.popleft()
        channel = envelope.channel
        limit = RUN_MAX if (
            self._run_channels
            and envelope.request_id is None
            and (channel.edge_index, channel.dst_te) in self._run_channels
        ) else 1
        probe = self.probe
        run = 0
        try:
            while True:
                run += 1
                try:
                    self.substrate.process(instance, envelope)
                except RuntimeExecutionError as exc:
                    if not self._crash_handlers:
                        raise
                    # Supervised mode: a task crash kills its host node
                    # (this envelope and the rest of the inbox survive
                    # upstream and are replayed during recovery) and
                    # the handlers are told, instead of the whole
                    # pipeline aborting.
                    if nodes[instance.node_id].alive:
                        self.fail_node(instance.node_id)
                    for handler in list(self._crash_handlers):
                        handler(self, instance, envelope, exc)
                    break
                finally:
                    probe.served()
                if run == limit or not inbox:
                    break
                head = inbox[0]
                if head.channel != channel or head.request_id is not None:
                    break
                envelope = inbox.popleft()
        finally:
            self._g_inbox[instance.name].value -= run
            if not inbox:
                # The other half of ready-set upkeep (appends are the
                # transport's). After a mid-run crash ``candidates`` is
                # already stale and this edits a list nobody reads.
                candidates.discard(instance)
        if run > 1:
            self._c_coalesced.value += run - 1
            # The scheduler admitted one item; charge the straggler
            # credit for the rest so a run cannot smuggle work past a
            # throttled node.
            if self._charge is not None:
                self._charge(nodes[instance.node_id], run - 1)
        # ``_tick()``, written out: without hooks a step pays no call.
        self.total_steps += 1
        self._c_steps.value += 1
        if self._step_hooks:
            for hook in list(self._step_hooks):
                hook(self)
        return True

    def _tick(self) -> None:
        """Advance logical time by one step and run the step hooks."""
        self.total_steps += 1
        self._c_steps.value += 1
        if self._step_hooks:
            for hook in list(self._step_hooks):
                hook(self)

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
        """Record into ``flight`` from the next serve on and rebuild
        :attr:`probe` (forked workers keep the probe of their deploy)."""
        self.flight = flight
        recorders = (self.tracer, self.profiler, flight)
        self.probe = (NULL_PROBE if all(r is None for r in recorders)
                      else Probe(*recorders))

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

    def _serve(self, instance: TEInstance, envelope: Envelope) -> None:
        """The one per-envelope path (every substrate, every run length).

        Replay dedup, probe, gather-or-invoke, ``last_seen`` mark,
        dispatch, count — in that order, for a lone envelope and for
        each envelope of a run alike. :meth:`step` closes the probe's
        spans once this returns or raises.
        """
        # The ``StreamKey``, sliced once for the replay dedup and the mark.
        stream = envelope.channel[:3]
        nodes = self.topology.nodes
        if envelope.ts <= instance.last_seen.get(stream, 0):
            nodes[instance.node_id].duplicates_dropped += 1
            return
        probe = self.probe
        probe.serve(self.total_steps, instance, envelope)
        if instance.spec.is_merge and envelope.request_id is not None:
            gathered = self._gather(instance, envelope)
            if gathered is None:
                return
            outputs = self._invoke(instance, gathered)
        else:
            outputs = self._invoke(instance, envelope.payload)
            instance.last_seen[stream] = envelope.ts
        probe.dispatch()
        if instance.name in self._terminal_tes:
            self._collect_result(instance, outputs, envelope)
        else:
            self.dispatcher.dispatch(instance, outputs, envelope)
        nodes[instance.node_id].items_processed += 1
        instance.processed_count += 1
        self._c_processed[instance.name].value += 1

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

    def _invoke(self, instance: TEInstance, payload: Any) -> list[Any]:
        se_instance = instance.se_instance
        # Stored per item: a restored element or a scale-up shows at once.
        ctx = instance.context
        ctx.state = se_instance.element if se_instance is not None else None
        ctx.n_instances = len(self.topology.te_slots[instance.name])
        if instance.crash_next:
            instance.crash_next = False
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] crashed "
                f"mid-item on {payload!r} (injected fault)"
            )
        try:
            returned = instance.spec.fn(ctx, payload)
        except Exception as exc:
            ctx.drain()  # what it emitted before failing dies with it
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] failed on "
                f"{payload!r}: {exc}"
            ) from exc
        outputs = ctx.drain()
        if returned is not None:
            outputs.append(returned)
        return outputs

    # ------------------------------------------------------------------
    # Results (a terminal TE's outputs; the rest go to the dispatcher)
    # ------------------------------------------------------------------

    def _collect_result(self, instance: TEInstance, outputs: list[Any],
                        cause: Envelope) -> None:
        """Terminal TE: collect outputs, discarding replay duplicates.

        The result consumer is the most-downstream party: it too
        discards duplicates regenerated by deterministic replay. A stamp
        names one item of its stream into this TE whichever slot serves
        it, so rescaling and 1-to-n restores need no special case; a
        gathered reply is caused by whichever response completed it, so
        it goes by request id.
        """
        channel = cause.channel
        if cause.request_id is not None and instance.spec.is_merge:
            done = self._result_requests.setdefault(instance.key, {})
            if cause.request_id in done:
                return
            done[cause.request_id] = (channel, cause.ts)
        elif not (self._result_stamps.get(channel)
                  or self._result_stream(channel)).add(cause.ts):
            return
        self.results[instance.name].extend(outputs)

    def _result_stream(self, channel: ChannelId) -> StreamStamps:
        """The stamps of ``channel``'s stream into its TE, any slot."""
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
        """Kill a node: inboxes, SE contents and output buffers are lost."""
        node = self.topology.nodes[node_id]
        was_alive = node.alive
        lost = 0
        if was_alive:
            for inst in node.te_instances.values():
                depth = len(inst.inbox)
                if depth:
                    lost += depth
                    self.transport.inbox_gauge(inst.name).dec(depth)
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
        node = self.topology.install_replacement(te_replacements,
                                                 se_replacements)
        self._refresh_instance_gauges()
        return node

    def set_partitioner(self, se_name: str,
                        partitioner: HashPartitioner) -> None:
        """Replace the routing partitioner of a partitioned SE.

        Used by m-to-n recovery when a failed SE instance is restored as
        ``n`` partitions, changing the partition count.
        """
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
        count = 0
        streams: list[Envelope] = []
        for channel, buffered in self._input_routes.values():
            if channel.dst_te == dst_te:
                streams.extend(buffered)
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
        count = 0
        for buffered in instance.output_buffers.values():
            for envelope in buffered:
                if self.transport.deliver(envelope):
                    count += 1
        return count

    def trim_stream(self, stream: StreamKey, dst_te: str, dst_index: int,
                    up_to_ts: int) -> int:
        """Trim a producer's output buffer after a downstream checkpoint."""
        edge_index, src_te, src_index = stream
        if edge_index == INPUT_EDGE:
            route = self._input_routes.get((dst_te, dst_index))
            if route is None:
                return 0
            # In place: the inject path holds this very list.
            buffered = route[1]
            keep = [e for e in buffered if e.ts > up_to_ts]
            dropped = len(buffered) - len(keep)
            buffered[:] = keep
            return dropped
        channel = ChannelId(edge_index, src_te, src_index, dst_te, dst_index)
        producer = self.te_instance(src_te, src_index)
        if producer is None:
            return 0
        return producer.trim_output_buffer(channel, up_to_ts)

    def input_buffers_snapshot(self) -> dict[ChannelId, list[Envelope]]:
        return {c: list(b) for c, b in self._input_routes.values()}

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
        Refused on a substrate whose workers hold the SE state (one
        with ``pull_state``): scale-out is not yet a control-plane
        action there.
        """
        if getattr(self.substrate, "pull_state", None) is not None:
            raise RuntimeExecutionError(
                f"scale_up({te_name!r}) is not supported on the "
                f"{self.substrate.name} substrate: its workers hold the "
                f"SE state, and scale-out is not a control-plane action"
            )
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
                for envelope in pending:
                    self.transport.inbox_gauge(
                        envelope.channel.dst_te).dec()
                    self._resend_after_reroute(envelope)
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

    def _resend_after_reroute(self, envelope: Envelope) -> None:
        """Re-address a queued envelope after a repartition.

        The envelope is re-*sent* (fresh sequence number on the new
        channel) rather than re-delivered with its old stamp: per-stream
        timestamps are only monotonic towards a fixed destination, so an
        old stamp arriving at a new destination could be mistaken for a
        duplicate. The stale copy is removed from the producer-side
        replay buffer to keep recovery consistent. A result consumer
        will never see the old stamp again: it counts as collected, and
        if it already was (a replayed or duplicated copy), so is the new.
        """
        channel = envelope.channel
        index = self._current_index(envelope)
        if channel.edge_index == INPUT_EDGE:
            _, buffered = self._input_routes.get(
                (channel.dst_te, channel.dst_instance), (None, ()))
            if envelope in buffered:
                buffered.remove(envelope)
            self._inject_to(channel.dst_te, index, envelope.payload,
                            envelope.request_id,
                            envelope.expected_responses,
                            envelope.trace_id)
            ts = self._input_seq[channel.dst_te]
        else:
            producer = self.te_instance(channel.src_te, channel.src_instance)
            if producer is None:
                # Producer lost to a failure: deliver with the old stamp
                # so downstream dedup against a future replay still works.
                self.transport.deliver(
                    envelope.with_channel(channel.reroute(index), envelope.ts)
                )
                return
            buffer = producer.output_buffers.get(channel)
            if buffer is not None and envelope in buffer:
                buffer.remove(envelope)
            self.transport.send(producer, channel.edge_index,
                                channel.dst_te, index, envelope.payload,
                                envelope.request_id,
                                envelope.expected_responses,
                                trace_id=envelope.trace_id)
            ts = producer.out_seq[channel.edge_index]
        if channel.dst_te in self._terminal_tes:
            stamps = self._result_stream(channel)
            if not stamps.add(envelope.ts):
                stamps.add(ts)

    def _current_index(self, envelope: Envelope) -> int:
        """Where ``envelope`` belongs under the *current* partitioner."""
        channel = envelope.channel
        spec = self.sdg.task(channel.dst_te)
        key_fn = (spec.entry_key_fn if channel.edge_index == INPUT_EDGE
                  else self.sdg.dataflows[channel.edge_index].key_fn)
        if key_fn is not None:
            return self.topology.keyed_index(spec, key_fn(envelope.payload))
        return min(channel.dst_instance,
                   self.te_slot_count(channel.dst_te) - 1)
