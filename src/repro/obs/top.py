"""``repro top``: a terminal dashboard over the live telemetry plane.

The four observability pillars (metrics, traces, profile, flight
recorder) all end in data structures; this module renders them into a
single text frame, the way ``top`` renders ``/proc``. Two modes:

* **one-shot** (``--once``, the default): run the workload to idle and
  print one frame — the post-run summary.
* **watch** (``--watch``): inject the workload, then render frames
  *while it drains*, driving :meth:`Runtime.poll_telemetry` between
  frames so the numbers move. On the multiprocess substrate the poll
  pumps the coordinator wire (absorbing piggybacked worker shards);
  in-process it single-steps the engine for the frame interval.

Everything here reads through substrate-agnostic surfaces
(:meth:`merged_metrics`, :meth:`merged_profile`, ``runtime.flight``),
so the same dashboard works unchanged on both substrates — which is
itself a differential check on the cross-substrate telemetry plumbing.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime

__all__ = ["build_workload", "render_dashboard", "run_top"]

#: Flight-recorder capacity for dashboard runs: enough tail to be
#: useful, small enough to render.
_FLIGHT_CAPACITY = 64

#: Flight lines shown per frame.
_FLIGHT_TAIL = 8


def build_workload(app: str, items: int, n_keys: int = 16):
    """The shared demo workloads: ``(sdg, se_name, entry, payloads)``.

    ``repro run`` and ``repro top`` both build their corpora here, so
    dashboard numbers line up with plain-run output for the same
    ``--app --items``. ``n_keys`` is the kvstore's key-space size.
    """
    if app == "kvstore":
        from repro.testing import build_kv_sdg

        sdg = build_kv_sdg()
        payloads = [("put", f"k{i % n_keys}", i) for i in range(items)]
        return sdg, "table", "serve", payloads
    if app == "wordcount":
        from repro.apps.wordcount import build_wordcount_sdg

        sdg = build_wordcount_sdg()
        words = ("state", "dataflow", "explicit", "imperative",
                 "big", "data", "processing")
        payloads = [
            (i, " ".join(words[(i + j) % len(words)] for j in range(4)))
            for i in range(items)
        ]
        return sdg, "counts", "split", payloads
    raise ValueError(f"unknown app {app!r} (kvstore, wordcount)")


# -- frame rendering -----------------------------------------------------

def _samples(metrics, name: str) -> list[tuple[dict, float]]:
    """``(labels, value)`` pairs of one metric family, or []."""
    for metric in metrics.collect():
        if metric.name == name:
            return [(labels, child.value)
                    for labels, child in metric.samples()]
    return []


def _by_label(metrics, name: str, label: str) -> dict[str, float]:
    """Sum a family's samples grouped by one label's values."""
    grouped: dict[str, float] = {}
    for labels, value in _samples(metrics, name):
        key = labels.get(label, "")
        grouped[key] = grouped.get(key, 0.0) + value
    return grouped


def render_dashboard(runtime: Runtime,
                     flight_limit: int = _FLIGHT_TAIL) -> str:
    """One dashboard frame over a deployed runtime's telemetry."""
    metrics = runtime.merged_metrics()
    substrate = getattr(runtime.substrate, "name", "?")
    head = f"substrate={substrate}"
    workers = getattr(runtime.substrate, "workers", None)
    if substrate == "multiprocess" and workers:
        head += f" workers={workers}"
    lines = [f"repro top — {head} steps={runtime.total_steps}"]

    processed = metrics.total("engine_items_processed_total")
    lines.append(f"items processed: {int(processed)}")
    hot = sorted(_samples(metrics, "engine_items_processed_total"),
                 key=lambda pair: -pair[1])[:5]
    for labels, value in hot:
        where = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        lines.append(f"  {where or '(unlabelled)':<32} {int(value):>8}")

    sent = _by_label(metrics, "wire_frames_total", "direction")
    if sent:  # wire series only exist on the multiprocess substrate
        sent_bytes = _by_label(metrics, "wire_bytes_total", "direction")
        lines.append(
            f"wire: frames send={int(sent.get('send', 0))} "
            f"recv={int(sent.get('recv', 0))}  "
            f"bytes send={int(sent_bytes.get('send', 0))} "
            f"recv={int(sent_bytes.get('recv', 0))}  "
            f"serialize="
            f"{metrics.total('wire_serialize_seconds_total'):.4f}s"
        )
        outbox = _by_label(metrics, "wire_outbox_depth", "worker")
        if outbox:
            depths = " ".join(f"w{wid}={int(depth)}" for wid, depth
                              in sorted(outbox.items()))
            lines.append(f"coordinator outbox depth: {depths}")

    profile = runtime.merged_profile()
    if profile is not None and profile.names():
        lines.append("profile (wall-clock phases):")
        for row in profile.render().splitlines():
            lines.append(f"  {row}")

    flight = runtime.flight
    if flight is not None and len(flight):
        lines.append(f"flight recorder (last {flight_limit}):")
        for row in flight.render(limit=flight_limit).splitlines():
            lines.append(f"  {row}")
    return "\n".join(lines)


# -- the driver ----------------------------------------------------------

def _advance(runtime: Runtime, interval: float) -> None:
    """Let the workload make progress for ~``interval`` seconds.

    Multiprocess: one telemetry pump — workers drain autonomously, the
    coordinator only needs to route and absorb shards. In-process:
    single-step the engine until the interval elapses (or idle).
    """
    if getattr(runtime.substrate, "poll", None) is not None:
        runtime.poll_telemetry(interval)
        return
    deadline = time.perf_counter() + interval
    while time.perf_counter() < deadline and runtime.step():
        pass


def run_top(app: str = "kvstore", items: int = 200,
            substrate: str = "inprocess", workers: int | None = None,
            watch: bool = False, frames: int = 5,
            interval: float = 0.2,
            out: Callable[[str], None] = print) -> int:
    """Run a demo workload and render the dashboard over it."""
    sdg, se_name, entry, payloads = build_workload(app, items)
    config = RuntimeConfig(
        se_instances={se_name: 2},
        substrate=substrate,
        workers=workers,
        profile=True,
        flight_recorder=_FLIGHT_CAPACITY,
    )
    runtime = Runtime(sdg, config).deploy()
    try:
        for payload in payloads:
            runtime.inject(entry, payload)
        if watch:
            for frame in range(max(1, frames)):
                _advance(runtime, interval)
                out(render_dashboard(runtime))
                out("")
        runtime.run_until_idle()
        out(render_dashboard(runtime))
    finally:
        runtime.close()
    return 0
