"""Runs one workload: identical episodes until the time is spent.

An **episode** is a fresh deployment driven through four phases::

    setup    build/translate, certify, deploy (fork), preload   -> setup_s
    serve    one client, closed loop (or open loop on a         -> latency_*
             seeded schedule when the workload sets due times)
    ingest   one untimed warm-up chunk, then timed chunks:      -> throughput,
             inject a chunk, drain, repeat                         cpu per item
    recover  checkpoint, ops, checkpoint, ops, fail node of     -> checkpoint_s,
             partition 0, recover, drain (in-process only)         recovery_s

and then checked against the workload's oracle. Every episode of a run
replays the same inputs, so set-up time is sampled several times per
run, memory stays bounded by one episode however fast the program is,
and counters and state fingerprints must repeat exactly.

The harness drives public APIs only. In a traced episode it replaces,
on the deployed objects, the bound methods that enter each layer with
timed wrappers (:mod:`spans`); workers are forked inside ``deploy()``
and so never see them — their side of the story comes from the
program's own ``profile=True`` shards and merged counters.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing
import pickle
import resource
import statistics
import time
from typing import Any

from repro.analysis.capabilities import certify
from repro.durability.manifest import state_fingerprint
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.envelope import INPUT_EDGE, ChannelId, Envelope
from repro.runtime.wire import MSG_DELIVER, FrameBuffer, encode_frame

from spans import SPAN_BUDGET, SpanRecorder
from workload_defs import Inputs, Workload

clock = time.perf_counter

#: Counters that must be identical in every episode of a run. Wire
#: frame/byte counts are left out: idle reports depend on timing.
EXACT_COUNTERS = (
    "engine_steps_total", "engine_items_processed_total",
    "engine_items_injected_total", "engine_stall_ticks_total",
    "transport_delivered_total", "transport_refused_total",
    "transport_wire_forwards_total", "dispatch_items_total",
    "dispatch_coalesced_total", "recovery_replayed_envelopes_total",
    "state_journal_mutations_total",
)

#: Envelopes pushed through the offline codec pass.
CODEC_FRAMES = 10_000


def cpu_seconds() -> float:
    """User+system CPU of this process and its live workers so far.

    ``os.times()`` counts children only once they are reaped, and the
    workers live until ``close()``; their on-CPU time is read from
    ``/proc/<pid>/schedstat`` (nanoseconds) instead.
    """
    total = time.process_time()
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/schedstat", encoding="ascii") as fh:
            total += int(fh.read().split()[0]) / 1e9
    return total


def workers_peak_rss_mb() -> float:
    """Sum of the live workers' resident-set high-water marks."""
    total_kb = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


#: Iterations of the calibration kernel, and how long they take on the
#: reference box (this repository's 2-core sandbox) in its fast spells.
KERNEL_ROUNDS = 8_000
REFERENCE_KERNEL_S = 0.0015

#: Request phases re-read the box's speed at least this often.
GAUGE_EVERY_S = 0.05


def slowdown() -> float:
    """How slow the box runs right now, relative to the reference.

    The sandbox's speed moves by tens of percent for seconds at a time
    (other tenants), which no amount of medians inside one run removes.
    So every timed sample is bracketed by this fixed piece of
    interpreter work (dict, tuple, call — what the runtime is made of,
    but none of its code), and reported times are divided by the mean of
    the two readings: "seconds at reference speed".
    """
    start = clock()
    table: dict = {}
    get = table.get
    for i in range(KERNEL_ROUNDS):
        key = ("k", i % 509)
        table[key] = get(key, 0) + 1
    return (clock() - start) / REFERENCE_KERNEL_S


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Episode:
    """One fresh deployment, set up, driven and checked."""

    def __init__(self, workload: Workload, inputs: Inputs, oracle: Any,
                 index: int, traced: bool = False,
                 store_spans: bool = False) -> None:
        self.workload = workload
        self.index = index
        self.inputs = inputs
        self.oracle = oracle
        self.traced = traced
        self.store_spans = store_spans
        self.multiprocess = workload.substrate == "multiprocess"
        self.recorder = SpanRecorder()
        self.runtime: Runtime | None = None
        self.out: dict = {"traced": traced}
        self._candidates = 0
        self._chunk_layers: list[dict] = []

    # -- the episode -----------------------------------------------------

    def run(self) -> dict:
        rec = self.recorder
        try:
            self._setup()
            if self.traced:
                self._wrap_layers()
            phases = [("serve", self._serve), ("ingest", self._ingest)]
            if self.inputs.open_loop:
                phases.insert(1, ("open_loop", self._open_loop))
            if self.workload.recover_se:
                phases.append(("recover", self._recover))
            for name, phase in phases:
                gc.collect()
                rec.wrap(f"phase.{name}", phase)()
            # Taken before the oracle's own probes go through the wrappers.
            self._layers = rec.since({})
            self._check()
            self._collect()
        finally:
            if self.runtime is not None:
                self.runtime.close()
        return self.out

    def _setup(self) -> None:
        w = self.workload
        gc.collect()
        slow0 = slowdown()
        t0 = clock()
        built = self.built = w.build()
        t1 = clock()
        capabilities = certify(built.certify_target) if w.optimize else None
        t2 = clock()
        config = RuntimeConfig(
            se_instances=dict(w.se_instances),
            te_instances=dict(w.te_instances),
            substrate=w.substrate, workers=w.workers,
            optimize=w.optimize, capabilities=capabilities,
            # The only view into forked workers is the program's own
            # phase profiler; untraced episodes leave it off.
            profile=self.traced and self.multiprocess,
        )
        runtime = self.runtime = Runtime(built.sdg, config).deploy()
        t3 = clock()
        self._submit(self.inputs.preload)
        t4 = clock()
        self.out["setup_s"] = (t4 - t0) / ((slow0 + slowdown()) / 2)
        self.out["setup"] = {"translate_s": t1 - t0, "certify_s": t2 - t1,
                             "deploy_s": t3 - t2, "preload_s": t4 - t3}
        self.out["te_instances"] = sum(1 for _ in runtime.all_te_instances())

    def _wrap_layers(self) -> None:
        rec, runtime = self.recorder, self.runtime
        # Kept unwrapped for the barrier probe, which must not count as
        # a drain of the workload.
        self._probe = rec.wrap("multiprocess.barrier",
                               runtime.run_until_idle)
        runtime.inject = rec.wrap("engine.inject", runtime.inject)
        runtime.run_until_idle = rec.wrap("engine.drain",
                                          runtime.run_until_idle)
        if self.multiprocess:
            return
        select = rec.wrap("scheduler.select", runtime.scheduler.select)

        def counting_select(instances, nodes):
            self._candidates += len(instances)
            return select(instances, nodes)

        # Set on the scheduler object itself, so ``charge`` stays.
        runtime.scheduler.select = counting_select
        runtime.substrate.process = rec.wrap("engine.process",
                                             runtime.substrate.process)
        runtime.dispatcher.dispatch = rec.wrap("dispatcher.dispatch",
                                               runtime.dispatcher.dispatch)
        runtime.transport.deliver = rec.wrap("transport.deliver",
                                             runtime.transport.deliver)

    def _submit(self, ops) -> None:
        """Inject every op, then drain."""
        runtime, entries = self.runtime, self.built.entries
        for entry, payload in ops:
            runtime.inject(entries[entry], payload)
        runtime.run_until_idle()

    def _processed(self) -> float:
        return self.runtime.merged_metrics().total(
            "engine_items_processed_total")

    def _span_scope(self, label: str) -> str | None:
        """``label`` if this request's span tree is to be stored."""
        if self.store_spans and len(self.recorder.spans) < SPAN_BUDGET:
            return label
        return None

    def _barrier_probe(self) -> None:
        """Traced multiprocess runs: an empty barrier after each round."""
        if self.traced and self.multiprocess:
            self._probe()

    # -- phases ----------------------------------------------------------

    def _serve(self) -> None:
        """Closed loop, one client: inject, drain, read the reply list."""
        rec, runtime = self.recorder, self.runtime
        entries, replies = self.built.entries, self.built.replies
        results = runtime.results
        latencies = []

        def request(entry, payload):
            runtime.inject(entries[entry], payload)
            runtime.run_until_idle()
            reply_te = replies.get(entry)
            return len(results[reply_te]) if reply_te else 0

        if self.traced:
            request = rec.wrap("request", request)
        gauge = []  # (index of the first request after it, slowdown)
        next_gauge = 0.0
        for index, (entry, payload) in enumerate(self.inputs.requests):
            if clock() >= next_gauge:
                gauge.append((index, slowdown()))
                next_gauge = clock() + GAUGE_EVERY_S
            rec.detail = self._span_scope(f"serve#{index}")
            start = clock()
            request(entry, payload)
            latencies.append(clock() - start)
            rec.detail = None
            self._barrier_probe()
        gauge.append((len(latencies), slowdown()))
        self.out["latencies"] = [
            latency / ((slow0 + slow1) / 2)
            for (first, slow0), (last, slow1) in zip(gauge, gauge[1:])
            for latency in latencies[first:last]]

    def _open_loop(self) -> None:
        """Open loop: inject whatever is due, drain, stamp the round.

        Latency runs from each request's *due* time, so a stall is
        charged to every request it delays.
        """
        rec, runtime = self.recorder, self.runtime
        entries = self.built.entries
        requests = self.inputs.open_loop
        due = self.inputs.due_times(self.index)
        finished = [0.0] * len(requests)
        lags = []

        def round_(first, now):
            index = first
            while index < len(requests) and due[index] <= now:
                entry, payload = requests[index]
                runtime.inject(entries[entry], payload)
                lags.append(clock() - origin - due[index])
                index += 1
            runtime.run_until_idle()
            return index

        if self.traced:
            round_ = rec.wrap("request", round_)
        origin = clock()
        index = 0
        while index < len(requests):
            now = clock() - origin
            if due[index] > now:
                # The load generator may sleep; no task ever does.
                time.sleep(due[index] - now)
                continue
            rec.detail = self._span_scope(f"open#{index}")
            first, index = index, round_(index, now)
            rec.detail = None
            done = clock() - origin
            for served in range(first, index):
                finished[served] = done
        self.out["loadgen"] = {
            "latencies": [f - d for f, d in zip(finished, due)],
            "lags": lags,
            "backlog_end": sum(1 for f in finished if f > due[-1]),
        }

    def _ingest(self) -> None:
        """Timed chunks: inject a chunk, drain; one sample per chunk."""
        rec, runtime = self.recorder, self.runtime
        entries = self.built.entries
        self._submit(self.inputs.warmup)
        gc.collect()

        def ingest_chunk(ops):
            for entry, payload in ops:
                runtime.inject(entries[entry], payload)
            runtime.run_until_idle()

        if self.traced:
            ingest_chunk = rec.wrap("chunk", ingest_chunk)
        samples = []
        for index, ops in enumerate(self.inputs.chunks):
            before = rec.snapshot()
            slow0 = slowdown()
            items0, cpu0, start = self._processed(), cpu_seconds(), clock()
            ingest_chunk(ops)
            end = clock()
            samples.append({"items": self._processed() - items0,
                            "wall_s": end - start,
                            "cpu_s": cpu_seconds() - cpu0,
                            "slowdown": (slow0 + slowdown()) / 2})
            if self.store_spans:
                self._chunk_layers.append(
                    {"scope": f"ingest#{index}", "start": start,
                     "end": end, "layers": rec.since(before)})
            self._barrier_probe()
        self.out["chunks"] = samples

    def _recover(self) -> None:
        """Two checkpoints with ops after each, then kill and restore."""
        rec, runtime = self.recorder, self.runtime
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(runtime, store)
        recovery = RecoveryManager(runtime, store)
        if self.traced:
            manager.begin = rec.wrap("recovery.checkpoint_begin",
                                     manager.begin)
            manager.complete = rec.wrap("recovery.checkpoint_complete",
                                        manager.complete)
            recovery.recover_node = rec.wrap("recovery.restore",
                                             recovery.recover_node)
        ops = self.inputs.recover
        half = len(ops) // 2
        checkpoints = []
        slow0 = slowdown()
        for part in (ops[:half], ops[half:]):
            start = clock()
            manager.checkpoint_all()
            checkpoints.append(clock() - start)
            # The second half lands after the last checkpoint, so the
            # restore below has envelopes to replay.
            self._submit(part)
        victim = runtime.se_instance(self.workload.recover_se, 0).node_id
        start = clock()
        runtime.fail_node(victim)
        recovery.recover_node(victim)
        runtime.run_until_idle()
        recovery_s = clock() - start
        slow = (slow0 + slowdown()) / 2
        self.out["recovery_s"] = recovery_s / slow
        self.out["checkpoint_s"] = statistics.mean(checkpoints) / slow

    # -- checking and collection -------------------------------------------

    def _check(self) -> None:
        inputs = self.inputs
        submitted = (len(inputs.requests) + len(inputs.open_loop)
                     + len(inputs.warmup)
                     + sum(map(len, inputs.chunks)) + len(inputs.recover))
        checks, failed = self.workload.verify(
            self.runtime, self.built, self.oracle,
            lambda op: self._submit([op]))
        self.out["attempted"] = submitted + checks
        self.out["failed"] = failed
        self.out["fingerprint"] = state_fingerprint(self.runtime)

    def _collect(self) -> None:
        runtime, rec, out = self.runtime, self.recorder, self.out
        metrics = runtime.merged_metrics()
        out["counters"] = {name: metrics.total(name)
                           for name in EXACT_COUNTERS}
        layers = self._layers
        out["phase_s"] = {name[6:]: agg["total_s"]
                          for name, agg in layers.items()
                          if name.startswith("phase.")}
        out["wall_s"] = sum(out["phase_s"].values())
        out["self_sum_s"] = sum(agg["self_s"] for agg in layers.values())
        out["workers_rss_mb"] = workers_peak_rss_mb()
        if not self.traced:
            return
        out["layers"] = layers
        out["candidates"] = self._candidates
        out["wire"] = {
            "frames": sum(
                metrics.value("wire_frames_total", direction="send",
                              role=role)
                for role in ("coordinator", "worker")),
            "bytes": sum(
                metrics.value("wire_bytes_total", direction="send",
                              role=role)
                for role in ("coordinator", "worker")),
            "serialize_s": metrics.total("wire_serialize_seconds_total"),
        }
        out["recovery_bytes"] = metrics.total(
            "recovery_checkpoint_bytes_total")
        profile = runtime.merged_profile()
        if profile is not None:
            out["profile"] = profile.breakdown()
            out["coordinator_wire_wait_s"] = runtime.profiler.seconds(
                "wire_wait")
        elements = [inst.element for se in runtime.sdg.states
                    for inst in runtime.se_instances(se)]
        start = clock()
        for element in elements:
            element.to_chunks(2)
        out["state"] = {
            "to_chunks_s": clock() - start,
            "entries": sum(e.entry_count() for e in elements),
            "pickled_bytes": len(pickle.dumps(
                elements, protocol=pickle.HIGHEST_PROTOCOL)),
        }
        if self.store_spans:
            out["trace"] = {"spans": rec.spans,
                            "chunks": self._chunk_layers}


def codec_pass(workload: Workload, inputs: Inputs) -> dict:
    """Encode and decode the workload's own input envelopes, offline."""
    entries = workload.build().entries
    ops = [op for chunk in inputs.chunks for op in chunk] or inputs.requests
    envelopes = [
        Envelope(payload=ops[i % len(ops)][1], ts=i + 1,
                 channel=ChannelId(INPUT_EDGE, "__input__", 0,
                                   entries[ops[i % len(ops)][0]], 0))
        for i in range(CODEC_FRAMES)
    ]
    start = clock()
    frames = [encode_frame((MSG_DELIVER, env)) for env in envelopes]
    encoded = clock()
    buffer = FrameBuffer()
    decoded = sum(1 for frame in frames for _ in buffer.feed(frame))
    end = clock()
    if decoded != CODEC_FRAMES:
        raise RuntimeError(f"codec pass decoded {decoded} frames, "
                           f"expected {CODEC_FRAMES}")
    return {"encode_us_per_frame": (encoded - start) / CODEC_FRAMES * 1e6,
            "decode_us_per_frame": (end - encoded) / CODEC_FRAMES * 1e6}


def run_workload(workload: Workload, seed: int, seconds: float,
                 scale: float, trace: bool) -> dict:
    """Episodes of ``workload`` for ``seconds``; everything measured.

    With ``trace`` the episodes alternate untraced/traced, so the
    tracing overhead is a ratio of interleaved episodes of one process.
    """
    inputs = workload.inputs(seed, scale)
    oracle = workload.oracle(inputs)
    reference = None
    if workload.substrate == "multiprocess":
        # Cross-substrate differential: the same inputs in-process must
        # leave the same state behind.
        twin = dataclasses.replace(workload, substrate="inprocess",
                                   workers=None)
        reference = Episode(twin, inputs, oracle, 0).run()
    codec = codec_pass(workload, inputs) if trace else None
    # The first episode pays for cold imports, page faults after the
    # first fork and an empty allocator; it is checked but not measured.
    warmup = Episode(workload, inputs, oracle, 0).run()
    episodes: list[dict] = []
    started = clock()
    while True:
        traced = trace and len(episodes) % 2 == 1
        store_spans = traced and len(episodes) == 1
        episodes.append(Episode(workload, inputs, oracle, len(episodes),
                                traced, store_spans).run())
        elapsed = clock() - started
        # Stop once the time left is under half an average episode, so
        # runs overshoot and undershoot ``seconds`` equally often.
        if (elapsed + elapsed / len(episodes) / 2 >= seconds
                and not (trace and len(episodes) < 2)):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "seconds": seconds, "trace": trace, "gen_s": inputs.gen_s,
        "measured_s": clock() - started,
        "driver_rss_mb": usage.ru_maxrss / 1024,
        "reference_fingerprint": (reference["fingerprint"]
                                  if reference else None),
        "codec": codec, "warmup": warmup, "episodes": episodes,
    }


# ----------------------------------------------------------------------
# From a run's record to named metrics
# ----------------------------------------------------------------------


def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics, from untraced episodes only.

    Times are at reference speed (see :func:`slowdown`). Throughput and
    CPU are medians over every timed chunk; set-up and latency are
    medians over episodes, latency of each episode's own median: a
    disturbed spell of the host then has to cover half the run's
    episodes, not half its requests, to move the value.
    """
    episodes = [e for e in record["episodes"] if not e["traced"]]
    chunks = [c for e in episodes for c in e["chunks"]]
    return {
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "throughput_items_s": statistics.median(
            c["items"] * c["slowdown"] / c["wall_s"] for c in chunks),
        "cpu_us_per_item": statistics.median(
            c["cpu_s"] / c["slowdown"] / c["items"] for c in chunks) * 1e6,
        "latency_p50_ms": statistics.median(
            percentile(sorted(e["latencies"]), 0.50)
            for e in episodes) * 1e3,
        "peak_rss_mb": record["driver_rss_mb"]
        + max(e["workers_rss_mb"] for e in episodes),
    }


def per_layer(record: dict, workers: int | None) -> dict[str, float]:
    """The per-layer metrics: per-episode means over traced episodes.

    A metric that does not exist on the workload's substrate (barriers
    in-process, the recover phase on workers) reads 0.
    """
    traced = [e for e in record["episodes"] if e["traced"]]
    plain = [e for e in record["episodes"] if not e["traced"]]

    def mean(pick) -> float:
        return statistics.mean(pick(e) for e in traced)

    def layer(name: str, field: str) -> float:
        return mean(lambda e: e["layers"].get(name, {}).get(field, 0))

    def counter(name: str) -> float:
        return mean(lambda e: e["counters"][name])

    def phase(name: str, field: str) -> float:
        return mean(lambda e: e.get("profile", {}).get(name, {})
                    .get(field, 0))

    def open_loop(field: str, q: float) -> float:
        pooled = sorted(x for e in plain if "loadgen" in e
                        for x in e["loadgen"][field])
        return percentile(pooled, q) * 1e3 if pooled else 0.0

    closed = sorted(x for e in plain for x in e["latencies"])

    items = counter("engine_items_processed_total")
    select_calls = layer("scheduler.select", "calls")
    on_workers = workers is not None
    worker_process_s = phase("process", "seconds")
    return {
        "translate.translate_s": mean(lambda e: e["setup"]["translate_s"]),
        "analysis.certify_s": mean(lambda e: e["setup"]["certify_s"]),
        "deployment.deploy_s": mean(lambda e: e["setup"]["deploy_s"]),
        "deployment.te_instances": mean(lambda e: e["te_instances"]),
        "engine.inject_s": layer("engine.inject", "total_s"),
        "engine.inject_calls": layer("engine.inject", "calls"),
        "engine.drain_s": layer("engine.drain", "total_s"),
        "engine.drain_calls": layer("engine.drain", "calls"),
        "engine.steps": counter("engine_steps_total"),
        "engine.items_processed": items,
        "engine.stall_ticks": counter("engine_stall_ticks_total"),
        "engine.process_self_s": layer("engine.process", "self_s"),
        "engine.step_overhead_s": layer("engine.drain", "self_s"),
        "scheduler.select_s": layer("scheduler.select", "total_s"),
        "scheduler.select_calls": select_calls,
        "scheduler.candidates_mean": (
            mean(lambda e: e["candidates"]) / select_calls
            if select_calls else 0.0),
        "transport.deliver_s": layer("transport.deliver", "total_s"),
        "transport.deliver_calls": counter("transport_delivered_total"),
        "transport.coalesced_items": counter("dispatch_coalesced_total"),
        "transport.refused": counter("transport_refused_total"),
        # Workers are out of the wrappers' reach: their dispatch time
        # is what their own profile shards say.
        "dispatcher.dispatch_s": (
            phase("dispatch", "seconds") if on_workers
            else layer("dispatcher.dispatch", "total_s")),
        "dispatcher.dispatch_calls": (
            phase("dispatch", "count") if on_workers
            else layer("dispatcher.dispatch", "calls")),
        "dispatcher.items_out": counter("dispatch_items_total"),
        "multiprocess.barrier_s": layer("multiprocess.barrier", "total_s"),
        "multiprocess.barrier_calls": layer("multiprocess.barrier",
                                            "calls"),
        "multiprocess.wire_wait_s": mean(
            lambda e: e.get("coordinator_wire_wait_s", 0.0)),
        "multiprocess.worker_process_s": worker_process_s,
        "multiprocess.worker_busy_ratio": (
            worker_process_s / (workers * mean(lambda e: e["wall_s"]))
            if on_workers else 0.0),
        "multiprocess.forwards": counter("transport_wire_forwards_total"),
        "wire.frames": mean(lambda e: e["wire"]["frames"]),
        "wire.bytes": mean(lambda e: e["wire"]["bytes"]),
        "wire.serialize_s": mean(lambda e: e["wire"]["serialize_s"]),
        "wire.frames_per_item": mean(lambda e: e["wire"]["frames"]) / items,
        "wire.bytes_per_item": mean(lambda e: e["wire"]["bytes"]) / items,
        "wire.encode_us_per_frame": record["codec"]["encode_us_per_frame"],
        "wire.decode_us_per_frame": record["codec"]["decode_us_per_frame"],
        "state.entries": mean(lambda e: e["state"]["entries"]),
        "state.pickled_bytes": mean(lambda e: e["state"]["pickled_bytes"]),
        "state.journal_mutations": counter("state_journal_mutations_total"),
        "state.to_chunks_s": mean(lambda e: e["state"]["to_chunks_s"]),
        "recovery.checkpoint_s": mean(lambda e: e.get("checkpoint_s", 0.0)),
        "recovery.recovery_s": mean(lambda e: e.get("recovery_s", 0.0)),
        "recovery.checkpoint_begin_s": layer("recovery.checkpoint_begin",
                                             "total_s"),
        "recovery.checkpoint_complete_s": layer(
            "recovery.checkpoint_complete", "total_s"),
        "recovery.checkpoint_bytes": mean(lambda e: e["recovery_bytes"]),
        "recovery.restore_s": layer("recovery.restore", "total_s"),
        "recovery.replayed_envelopes": counter(
            "recovery_replayed_envelopes_total"),
        "obs.traced_wall_ratio": (
            statistics.median(e["wall_s"] for e in traced)
            / statistics.median(e["wall_s"] for e in plain)),
        "loadgen.gen_s": record["gen_s"],
        # Client-side latencies are judged on the episodes the wrappers
        # did not slow: closed loop pooled (reference speed), open loop
        # from due time (raw).
        "loadgen.closed_p95_ms": percentile(closed, 0.95) * 1e3,
        "loadgen.closed_samples": len(closed),
        "loadgen.open_p50_ms": open_loop("latencies", 0.50),
        "loadgen.open_p95_ms": open_loop("latencies", 0.95),
        "loadgen.lag_p95_ms": open_loop("lags", 0.95),
        "loadgen.backlog_end": statistics.mean(
            e.get("loadgen", {}).get("backlog_end", 0) for e in plain),
    }
