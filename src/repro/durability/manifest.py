"""Run manifests: the durable identity of an epoch-driven run.

A *run manifest* is a single JSON document in the run directory that
records everything needed to resume a killed process: the program's
structural fingerprint, the run spec (workload seed, epoch sizing,
deployment knobs), the chaos fault plan, and one :class:`EpochRecord`
per committed epoch — workload position, engine counters, the per-node
checkpoint versions fenced by that commit, the event-log export
watermark and the ``stable_hash`` of all SE state at the boundary.

The manifest is the *fence*: an epoch exists once — and only once —
its record is in the manifest, and the manifest is replaced atomically
(temp file + fsync + ``os.replace`` + directory fsync). A crash at any
instant therefore leaves either epoch K or epoch K-1 committed, never
a half-written document; :func:`atomic_write_json` exposes injectable
crash points (:data:`CRASH_POINTS`) so the property test can prove it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import DurabilityError
from repro.state.base import stable_hash

#: Bump on any incompatible manifest layout change; ``load_manifest``
#: refuses documents written by a different schema.
SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"


class SimulatedCrash(RuntimeError):
    """Raised by :func:`atomic_write_json` at an injected crash point.

    Deliberately *not* an :class:`~repro.errors.SDGError`: production
    code must never catch it by accident — only the crash-consistency
    tests do, to model power loss between two specific syscalls.
    """


#: Every distinct interruption point of the atomic write protocol, in
#: execution order. Crashing at any of them must leave the previous
#: manifest readable; only from ``after-replace`` onward is the new one.
CRASH_POINTS = (
    "before-temp",
    "mid-temp-write",
    "before-temp-fsync",
    "after-temp-fsync",
    "after-replace",
    "after-dir-fsync",
)


def _fsync_dir(path: str) -> None:
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: dict,
                      crash_at: str | None = None) -> None:
    """Replace ``path`` with ``payload`` as JSON, atomically.

    ``crash_at`` (one of :data:`CRASH_POINTS`) aborts the protocol at
    that exact point with :class:`SimulatedCrash`, leaving the
    filesystem as a power cut there would.
    """
    if crash_at is not None and crash_at not in CRASH_POINTS:
        raise ValueError(f"unknown crash point {crash_at!r}")
    if crash_at == "before-temp":
        raise SimulatedCrash(crash_at)
    tmp = path + ".tmp"
    data = json.dumps(payload, indent=2, sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        if crash_at == "mid-temp-write":
            fh.write(data[: len(data) // 2])
            fh.flush()
            raise SimulatedCrash(crash_at)
        fh.write(data)
        fh.flush()
        if crash_at == "before-temp-fsync":
            raise SimulatedCrash(crash_at)
        os.fsync(fh.fileno())
    if crash_at == "after-temp-fsync":
        raise SimulatedCrash(crash_at)
    os.replace(tmp, path)
    if crash_at == "after-replace":
        raise SimulatedCrash(crash_at)
    _fsync_dir(os.path.dirname(path))
    if crash_at == "after-dir-fsync":
        raise SimulatedCrash(crash_at)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def sdg_fingerprint(sdg) -> int:
    """A process-stable structural hash of a translated SDG.

    Covers element names, kinds, route keys (by qualified name), access
    modes, entry/merge flags, key names and dataflow edges: everything
    that determines routing and state layout. Task *code* is excluded
    (function objects have no stable serialisation); the fingerprint
    guards against resuming a manifest with a structurally different
    program, the failure mode that corrupts state silently.
    """
    parts: list = [("sdg", sdg.name)]
    for name in sorted(sdg.states):
        spec = sdg.state(name)
        parts.append(("se", name, spec.kind.value,
                      getattr(spec.route_key, "__qualname__",
                              repr(spec.route_key)),
                      getattr(spec.factory, "__name__", repr(spec.factory))))
    for name in sorted(sdg.tasks):
        spec = sdg.task(name)
        parts.append(("te", name, spec.state, spec.access.value,
                      spec.is_entry, spec.is_merge, spec.entry_key_name))
    for edge in sdg.dataflows:
        parts.append(("edge", edge.src, edge.dst, edge.dispatch.value,
                      edge.key_name))
    return stable_hash(tuple(parts))


def state_fingerprint(runtime) -> int:
    """``stable_hash`` over every entry of every SE of a runtime.

    Entries of one SE are merged across its instances and folded in
    sorted order, so the fingerprint is independent of partition layout
    and of scheduling interleavings — two runs agree iff they applied
    the same set of state mutations. This is the per-epoch hash the
    manifest commits and every resume path must reproduce.
    """
    acc = 0
    for se_name in sorted(runtime.sdg.states):
        entry_hashes: list[int] = []
        for instance in runtime.se_instances(se_name):
            for chunk in instance.element.to_chunks(1):
                entry_hashes.extend(
                    stable_hash((key, value)) for key, value in chunk.items
                )
        entry_hashes.sort()
        acc = stable_hash((acc, se_name, tuple(entry_hashes)))
    return acc


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


@dataclass
class EpochRecord:
    """Everything one committed epoch fences."""

    #: 1-based epoch number.
    epoch: int
    #: Items of the seeded workload stream consumed so far.
    position: int
    #: State fingerprint at the boundary (the resume contract).
    state_hash: int
    #: Engine injection counters, per entry TE (they also place an
    #: unkeyed entry's next item and name an injected broadcast).
    input_seq: dict[str, int] = field(default_factory=dict)
    #: Logical time at the boundary.
    total_steps: int = 0
    #: node id -> checkpoint version fenced by this commit.
    checkpoints: dict[int, int] = field(default_factory=dict)
    #: Whether the fast (checkpoint) resume path may be used: no scale
    #: events and no repartition epochs — instance counts still match a
    #: fresh deployment. Node kills keep the topology *clean* (restores
    #: map by instance key, not node id); scale-ups do not.
    clean_topology: bool = True
    #: Events of this incarnation exported up to the commit.
    events_seq: int = 0
    #: Durable byte offset of ``events.jsonl`` at the commit.
    events_offset: int = 0
    #: Chaos faults not yet executed, serialised.
    pending_faults: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "position": self.position,
            "state_hash": self.state_hash,
            "input_seq": dict(self.input_seq),
            "total_steps": self.total_steps,
            "checkpoints": {str(node): version
                            for node, version in self.checkpoints.items()},
            "clean_topology": self.clean_topology,
            "events_seq": self.events_seq,
            "events_offset": self.events_offset,
            "pending_faults": list(self.pending_faults),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "EpochRecord":
        return cls(
            epoch=record["epoch"],
            position=record["position"],
            state_hash=record["state_hash"],
            input_seq=dict(record.get("input_seq", {})),
            total_steps=record.get("total_steps", 0),
            checkpoints={int(node): version
                         for node, version in
                         record.get("checkpoints", {}).items()},
            clean_topology=record.get("clean_topology", True),
            events_seq=record.get("events_seq", 0),
            events_offset=record.get("events_offset", 0),
            pending_faults=list(record.get("pending_faults", [])),
        )


@dataclass
class RunManifest:
    """The on-disk source of truth for one durable run."""

    run_id: str
    #: Program identity: app name, SDG name, structural fingerprint.
    program: dict
    #: The serialised :class:`~repro.durability.workload.RunSpec`.
    spec: dict
    #: The serialised chaos plan, or None for fault-free runs.
    fault_plan: dict | None = None
    epochs: list[EpochRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def committed_epoch(self) -> int:
        """The highest fenced epoch (0 before the first commit)."""
        return self.epochs[-1].epoch if self.epochs else 0

    @property
    def latest(self) -> EpochRecord | None:
        return self.epochs[-1] if self.epochs else None

    def record_for(self, epoch: int) -> EpochRecord:
        for record in self.epochs:
            if record.epoch == epoch:
                return record
        raise DurabilityError(
            f"run {self.run_id!r} has no committed epoch {epoch} "
            f"(committed up to {self.committed_epoch})"
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "program": dict(self.program),
            "spec": dict(self.spec),
            "fault_plan": self.fault_plan,
            "epochs": [record.to_dict() for record in self.epochs],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RunManifest":
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DurabilityError(
                f"manifest schema version {version!r} is not supported "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return cls(
            run_id=record["run_id"],
            program=dict(record["program"]),
            spec=dict(record["spec"]),
            fault_plan=record.get("fault_plan"),
            epochs=[EpochRecord.from_dict(e)
                    for e in record.get("epochs", [])],
            schema_version=version,
        )


def manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, MANIFEST_NAME)


def write_manifest(run_dir: str, manifest: RunManifest,
                   crash_at: str | None = None) -> None:
    atomic_write_json(manifest_path(run_dir), manifest.to_dict(),
                      crash_at=crash_at)


def load_manifest(run_dir: str) -> RunManifest:
    path = manifest_path(run_dir)
    if not os.path.exists(path):
        raise DurabilityError(
            f"{run_dir!r} is not a durable run directory (no "
            f"{MANIFEST_NAME})"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DurabilityError(
            f"cannot read run manifest {path!r}: {exc}"
        ) from exc
    return RunManifest.from_dict(record)
