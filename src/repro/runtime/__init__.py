"""The SDG runtime: materialised, pipelined execution (§3.3).

Unlike scheduled dataflow systems, an SDG is *materialised*: every task
element is instantiated on its node(s) before data flows, items are
pipelined TE-to-TE without intermediate materialisation, and the number
of TE instances changes reactively at runtime in response to bottlenecks
and stragglers.

This package executes SDGs for real, as five layers behind the
:class:`Runtime` facade (see ``docs/architecture.md``):

* **deployment** (:class:`Topology`) — instance materialisation, node
  placement, partitioners and repartition epochs;
* **scheduling** (:class:`RoundRobinScheduler`) — which instance
  serves the next item, plus straggler-credit throttling;
* **transport** (:class:`Transport`) — channels and inbox delivery;
* **dispatch** (:class:`Dispatcher`) — the paper's four routing
  semantics over a deploy-time successor index;
* **substrate** (:class:`ExecutionSubstrate`) — where the step loop
  actually runs: the deterministic in-process loop (default) or
  shared-nothing forked worker processes over the pickle wire
  (:class:`~repro.runtime.multiprocess.MultiprocessSubstrate`).

Logical nodes hold TE and SE instances, dataflow edges become channels
with upstream output buffers (retained for replay-based recovery), and
``@Global`` access is implemented with broadcast + gather barriers.
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.deployment import Topology, WorkerPlacement
from repro.runtime.detector import FailureDetector
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.engine import Runtime
from repro.runtime.envelope import Envelope, NO_RESPONSE
from repro.runtime.scaling import BottleneckDetector
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.substrate import (
    ExecutionSubstrate,
    InProcessSubstrate,
    SUBSTRATES,
    resolve_substrate,
)
from repro.runtime.transport import Channel, Transport

__all__ = [
    "BottleneckDetector",
    "Channel",
    "Dispatcher",
    "Envelope",
    "ExecutionSubstrate",
    "FailureDetector",
    "InProcessSubstrate",
    "NO_RESPONSE",
    "RoundRobinScheduler",
    "Runtime",
    "RuntimeConfig",
    "SUBSTRATES",
    "Topology",
    "Transport",
    "WorkerPlacement",
    "resolve_substrate",
]
