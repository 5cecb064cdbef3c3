"""Durable workload specs: seeded, position-addressable item streams.

A durable run must be able to say "give me items 400..499 of this
workload" in any process incarnation, so the workload here is a pure
function of ``(spec, position)``: the KV stream regenerates a
:class:`~repro.workloads.kv.KVWorkload` from its seed and skips to the
position; the wordcount stream indexes a fixed corpus. Two item
families are exposed:

* :meth:`DurableWorkload.items` — the *mutating* stream the manifest
  positions refer to; every item is injected exactly once across all
  incarnations.
* :meth:`DurableWorkload.probes` — *read-only* requests (KV gets,
  wordcount queries) used to pump logical time while chaos recoveries
  settle. Probes never mutate SE state, so the per-epoch state hash is
  independent of how many pump rounds a particular incarnation needed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.apps.wordcount import build_wordcount_sdg
from repro.errors import DurabilityError
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime
from repro.testing import build_kv_sdg
from repro.workloads import KVWorkload

APPS = ("kvstore", "wordcount")

#: Fixed corpus for the wordcount stream (indexed, not sampled, so the
#: stream is position-addressable without replaying an RNG).
_CORPUS = (
    "the quick brown fox jumps over the lazy dog",
    "state must be made explicit to the processing platform",
    "imperative programs translate to stateful dataflow graphs",
    "checkpoints are chunked and spread over backup nodes",
    "failure recovery replays buffered streams deterministically",
    "a manifest fences every epoch of a durable run",
    "the quick grey wolf walks past the sleeping dog",
    "partitioned state elements hash keys to instances",
)


@dataclass(frozen=True)
class RunSpec:
    """Deployment + workload knobs of a durable run (JSON-stable)."""

    app: str = "kvstore"
    seed: int = 11
    epochs: int = 5
    items_per_epoch: int = 100
    n_keys: int = 120
    read_fraction: float = 0.0
    se_instances: int = 2
    #: Checkpoint cadence (``CheckpointPolicy.full_every``): 1 = every
    #: cycle full, K = re-anchor every K cycles, 0 = deltas forever.
    full_every: int = 4
    #: Wordcount window size (ignored by the KV app).
    window_size: int = 1000
    #: Seconds to sleep inside each epoch between drain and commit —
    #: a test knob that widens the window in which an external SIGKILL
    #: lands mid-epoch. 0 in any non-test run.
    throttle: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "RunSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in record.items() if k in known})


class DurableWorkload:
    """Binds a :class:`RunSpec` to an app's SDG and item streams."""

    def __init__(self, spec: RunSpec) -> None:
        if spec.app not in APPS:
            raise DurabilityError(
                f"unknown durable app {spec.app!r}; supported: {APPS}"
            )
        if spec.epochs < 1 or spec.items_per_epoch < 1:
            raise DurabilityError(
                "a durable run needs epochs >= 1 and items_per_epoch >= 1"
            )
        self.spec = spec

    # -- deployment ------------------------------------------------------

    @property
    def se_name(self) -> str:
        return "table" if self.spec.app == "kvstore" else "counts"

    @property
    def entry_te(self) -> str:
        """The entry TE chaos plans target."""
        return "serve" if self.spec.app == "kvstore" else "split"

    def build_sdg(self):
        if self.spec.app == "kvstore":
            return build_kv_sdg()
        return build_wordcount_sdg(self.spec.window_size)

    def build_runtime(self) -> Runtime:
        # Durable runs pin the in-process substrate: epoch fencing,
        # checkpoint chains and crash-replay all assume the
        # deterministic single-process step loop. The multiprocess
        # substrate is rejected at the CLI; this keeps the invariant
        # even for programmatic callers.
        config = RuntimeConfig(
            se_instances={self.se_name: self.spec.se_instances},
            substrate="inprocess",
        )
        return Runtime(self.build_sdg(), config)

    # -- streams ---------------------------------------------------------

    def items(self, start: int, count: int) -> list[tuple[str, object]]:
        """Mutating items ``start .. start+count-1`` as (entry, payload).

        Regeneration is O(start + count) — the KV RNG must be replayed
        from the seed — which is fine at epoch granularity and keeps the
        stream a pure function of the spec.
        """
        spec = self.spec
        if spec.app == "kvstore":
            workload = KVWorkload(n_keys=spec.n_keys,
                                  read_fraction=spec.read_fraction,
                                  seed=spec.seed)
            ops = list(workload.ops(start + count))[start:]
            return [("serve", (op.kind, op.key, op.value)) for op in ops]
        return [
            ("split", (i, _CORPUS[(i * 7 + spec.seed) % len(_CORPUS)]))
            for i in range(start, start + count)
        ]

    def probes(self, salt: int, count: int) -> list[tuple[str, object]]:
        """Read-only requests to keep logical time moving while settling."""
        spec = self.spec
        if spec.app == "kvstore":
            return [
                ("serve", ("get", f"key{(salt + j) % spec.n_keys}", None))
                for j in range(count)
            ]
        return [
            ("query", (salt + j,
                       _CORPUS[(salt + j) % len(_CORPUS)].split()[0]))
            for j in range(count)
        ]
