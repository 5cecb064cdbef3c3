"""The durable runner: epochs, fenced commits, resume and fork.

:class:`DurableRunner` drives a :class:`~repro.runtime.engine.Runtime`
in *epochs*. Each epoch injects a fixed slice of the seeded workload,
drains the pipeline, waits for any chaos recoveries to settle (pumping
read-only probes so logical time keeps moving), checkpoints every live
node to the run directory's :class:`~repro.recovery.backup
.DiskBackupStore`, exports fresh events to ``events.jsonl``, and only
then *fences* the epoch by atomically replacing ``manifest.json``. A
``kill -9`` at any instant loses at most the uncommitted epoch.

Resume has two rungs:

* **checkpoint (fast) resume** — allowed while the committed topology
  is *clean* (no scale events, no repartitions): a fresh deterministic
  deployment is built and each SE element / TE bookkeeping record from
  the fenced checkpoints is installed onto its instance by ``(name,
  index)`` key — node ids may differ (kills create replacement ids);
  instance keys never do. The restored state's fingerprint must equal
  the committed ``state_hash``, else the rung is abandoned.
* **deterministic replay** — the universal fallback ("rerun = resume"):
  rebuild from epoch 0 and re-execute every committed epoch, verifying
  each boundary hash against the manifest as it is passed.

After a fast restore the backup directory is wiped and every node is
re-checkpointed (a fresh full base): the crashed incarnation's input
log is gone, so the old chains' replay spans are unsound — the
re-anchor makes the boundary itself the recovery baseline. The
manifest's committed record is then rewritten in place with the new
checkpoint versions (same epoch, same state hash), keeping a second
crash in the same epoch on the fast path.

:func:`fork_run` clones a run directory at a committed epoch K by
*hardlinking* the chunk/meta files the epoch-K chains need and
truncating the event log to the fenced offset — cheap what-if
experiments without copying untouched checkpoint data.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from repro.chaos import FaultInjector, FaultPlan, fault_from_dict, fault_to_dict
from repro.durability.manifest import (
    EpochRecord,
    RunManifest,
    load_manifest,
    manifest_path,
    sdg_fingerprint,
    state_fingerprint,
    write_manifest,
)
from repro.durability.workload import DurableWorkload, RunSpec
from repro.errors import DurabilityError, RecoveryError
from repro.obs import JsonlExporter
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.recovery import (
    CheckpointManager,
    CheckpointPolicy,
    DiskBackupStore,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector

BACKUPS_DIR = "backups"
EVENTS_NAME = "events.jsonl"
FLIGHT_NAME = "flight.json"

#: Steps between periodic flight-recorder flushes inside an epoch: the
#: SIGKILL post-mortem window is at most this many steps stale (plus
#: whatever the last epoch fence wrote).
_FLIGHT_FLUSH_STEPS = 2_000

#: Probe-pump rounds allowed per epoch before declaring the run stuck.
_MAX_PUMP_ROUNDS = 500

#: Backup targets per run directory (chunk spreading, Fig. 4's m).
_M_TARGETS = 2


class DurableRunner:
    """Drives one durable run directory; see the module docstring."""

    def __init__(self, run_dir: str, manifest: RunManifest,
                 resume: bool = False) -> None:
        self.run_dir = run_dir
        self.manifest = manifest
        self.spec = RunSpec.from_dict(manifest.spec)
        self.workload = DurableWorkload(self.spec)
        self.plan = (FaultPlan.from_dict(manifest.fault_plan)
                     if manifest.fault_plan else None)
        self.resume_mode = "fresh"
        latest = manifest.latest
        if not resume or latest is None:
            self._build_runtime()
            self._build_stack(pending=None, events_offset=0)
            return
        if latest.clean_topology:
            try:
                self._fast_resume(latest)
                self.resume_mode = "checkpoint"
                return
            except (DurabilityError, RecoveryError):
                pass  # fall through to the universal rung
        self._replay_resume()
        self.resume_mode = "replay"

    # -- construction ----------------------------------------------------

    @classmethod
    def start(cls, run_dir: str, spec: RunSpec,
              plan: FaultPlan | None = None) -> "DurableRunner":
        """Create a new run directory and its epoch-0 manifest."""
        if os.path.exists(manifest_path(run_dir)):
            raise DurabilityError(
                f"{run_dir!r} already holds a run manifest; use resume()"
            )
        os.makedirs(run_dir, exist_ok=True)
        workload = DurableWorkload(spec)
        sdg = workload.build_sdg()
        manifest = RunManifest(
            run_id=os.path.basename(os.path.abspath(run_dir)) or "run",
            program={"app": spec.app, "sdg": sdg.name,
                     "fingerprint": sdg_fingerprint(sdg)},
            spec=spec.to_dict(),
            fault_plan=plan.to_dict() if plan is not None else None,
        )
        write_manifest(run_dir, manifest)
        return cls(run_dir, manifest)

    @classmethod
    def resume(cls, run_dir: str) -> "DurableRunner":
        """Reopen a run directory after a crash (or a clean exit)."""
        return cls(run_dir, load_manifest(run_dir), resume=True)

    def _build_runtime(self) -> None:
        self.runtime = self.workload.build_runtime().deploy()
        fingerprint = sdg_fingerprint(self.runtime.sdg)
        recorded = self.manifest.program.get("fingerprint")
        if fingerprint != recorded:
            raise DurabilityError(
                f"program fingerprint {fingerprint} does not match the "
                f"manifest's {recorded}; refusing to resume a manifest "
                f"written by a structurally different program"
            )

    def _build_stack(self, pending: list[dict] | None,
                     events_offset: int) -> None:
        """Wire store, checkpointing, supervision, chaos and export.

        ``pending=None`` arms the full fault plan (fresh start or
        replay-from-zero); a list re-arms exactly the faults a fenced
        epoch still owed.
        """
        self.store = DiskBackupStore(
            os.path.join(self.run_dir, BACKUPS_DIR), m_targets=_M_TARGETS)
        # The input log is never trimmed: pure log replay must stay
        # sound as the last recovery rung within an epoch.
        self.manager = CheckpointManager(
            self.runtime, self.store, trim_input_log=False,
            policy=CheckpointPolicy(full_every=self.spec.full_every))
        self.recovery = RecoveryManager(self.runtime, self.store)
        self.detector = self.supervisor = self.injector = None
        if self.plan is not None:
            self.detector = FailureDetector(
                self.runtime, heartbeat_timeout=25, check_every=5
            ).install()
            # n_new=1 keeps recovery one-to-one: partition counts (and
            # with them the clean-topology fast path) survive kills.
            self.supervisor = RecoverySupervisor(
                self.detector, self.recovery, n_new=1, backoff_steps=10
            ).install()
            faults = (list(self.plan) if pending is None
                      else [fault_from_dict(f) for f in pending])
            self.injector = FaultInjector(
                self.runtime,
                FaultPlan(faults=list(faults), seed=self.plan.seed),
                store=self.store,
            ).install()
        self.exporter = JsonlExporter(
            os.path.join(self.run_dir, EVENTS_NAME),
            start_offset=events_offset)
        # Durable runs always carry a flight recorder: after a SIGKILL,
        # ``<run_dir>/flight.json`` shows the last envelopes the run
        # served, at most ``_FLIGHT_FLUSH_STEPS`` steps stale. An
        # explicitly configured recorder (flight_recorder=N) is kept.
        if self.runtime.flight is None:
            self.runtime.attach_flight(FlightRecorder(DEFAULT_CAPACITY))
        self._flight_flushed_at = self.runtime.total_steps
        self.runtime.add_step_hook(self._flight_hook)

    def _flight_hook(self, runtime) -> None:
        if runtime.total_steps - self._flight_flushed_at \
                >= _FLIGHT_FLUSH_STEPS:
            self._write_flight()

    def _write_flight(self) -> None:
        """Atomically persist the flight ring next to the manifest."""
        path = os.path.join(self.run_dir, FLIGHT_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"total_steps": self.runtime.total_steps,
                       "entries": self.runtime.flight.dump()}, fh,
                      indent=2)
        os.replace(tmp, path)
        self._flight_flushed_at = self.runtime.total_steps

    def _wipe_backups(self) -> None:
        path = os.path.join(self.run_dir, BACKUPS_DIR)
        if os.path.isdir(path):
            shutil.rmtree(path)

    # -- resume rungs ----------------------------------------------------

    def _fast_resume(self, latest: EpochRecord) -> None:
        """Install fenced checkpoints onto a fresh deployment, by key."""
        self._build_runtime()
        old_store = DiskBackupStore(
            os.path.join(self.run_dir, BACKUPS_DIR), m_targets=_M_TARGETS)
        old_store.reload_from_disk()
        # Discard chains from the crashed epoch (versions above the
        # fence) and chains of nodes that were dead at the commit.
        old_store.prune(latest.checkpoints)
        restorer = RecoveryManager(self.runtime, old_store)
        for node_id in sorted(latest.checkpoints):
            version = latest.checkpoints[node_id]
            meta = next(
                (c for c in old_store.chain(node_id)
                 if c.version == version), None)
            if meta is None:
                raise DurabilityError(
                    f"fenced checkpoint v{version} of node {node_id} is "
                    f"not on disk"
                )
            for se_key in meta.se_chunks:
                spec = self.runtime.sdg.state(se_key[0])
                element = restorer._restore_element(spec, se_key, meta)
                instance = self.runtime.se_instance(*se_key)
                if instance is None:
                    raise DurabilityError(
                        f"fresh deployment has no SE instance {se_key}"
                    )
                self.runtime.topology.set_element(instance, element)
            for te_key, te_meta in meta.te_meta.items():
                instance = self.runtime.te_instance(*te_key)
                if instance is None:
                    raise DurabilityError(
                        f"fresh deployment has no TE instance {te_key}"
                    )
                RecoveryManager._apply_meta(instance, te_meta)
        self.runtime.count_steps_from(latest.total_steps)
        for entry, inputs in self.runtime._entries.items():
            inputs.seq = latest.input_seq.get(entry, 0)
        restored = state_fingerprint(self.runtime)
        if restored != latest.state_hash:
            raise DurabilityError(
                f"restored state hash {restored} does not match the "
                f"fenced hash {latest.state_hash} of epoch {latest.epoch}"
            )
        # Re-anchor: the crashed incarnation's input log is gone, so the
        # old chains' replay spans are unsound. Wipe and take fresh full
        # bases at the boundary, then re-fence the committed record with
        # the new versions (state unchanged — verified above) so another
        # crash in this epoch still finds its checkpoints.
        self._wipe_backups()
        self._build_stack(pending=latest.pending_faults,
                          events_offset=latest.events_offset)
        anchors = self.manager.checkpoint_all()
        latest.checkpoints = {cp.node_id: cp.version for cp in anchors}
        write_manifest(self.run_dir, self.manifest)

    def _replay_resume(self) -> None:
        """Rerun every committed epoch from zero, verifying each fence."""
        self._build_runtime()
        self._wipe_backups()
        self._build_stack(pending=None, events_offset=0)
        for record in self.manifest.epochs:
            replayed = self._execute_epoch(record.epoch, commit=False)
            if replayed.state_hash != record.state_hash:
                raise DurabilityError(
                    f"replay of epoch {record.epoch} reached state hash "
                    f"{replayed.state_hash}, but the manifest fenced "
                    f"{record.state_hash}; the program or workload no "
                    f"longer matches this manifest"
                )

    # -- the epoch loop --------------------------------------------------

    def state_hash(self) -> int:
        return state_fingerprint(self.runtime)

    def run_epoch(self) -> EpochRecord:
        """Execute and fence the next epoch."""
        epoch = self.manifest.committed_epoch + 1
        if epoch > self.spec.epochs:
            raise DurabilityError(
                f"run is complete ({self.spec.epochs} epochs committed)"
            )
        return self._execute_epoch(epoch, commit=True)

    def run(self, on_epoch=None) -> RunManifest:
        """Run to the spec'd epoch count; returns the final manifest."""
        while self.manifest.committed_epoch < self.spec.epochs:
            record = self.run_epoch()
            if on_epoch is not None:
                on_epoch(record)
        return self.manifest

    def _execute_epoch(self, epoch: int, commit: bool) -> EpochRecord:
        spec = self.spec
        start = (epoch - 1) * spec.items_per_epoch
        for entry, payload in self.workload.items(start,
                                                 spec.items_per_epoch):
            self.runtime.inject(entry, payload)
        self.runtime.run_until_idle()
        if commit and spec.throttle:
            # Soak-test knob: hold the epoch open so an external SIGKILL
            # lands between drain and fence.
            time.sleep(spec.throttle)
        self._settle(epoch)
        checkpoints = {cp.node_id: cp.version
                       for cp in self.manager.checkpoint_all()}
        exported_seq, offset = self.exporter.export(self.runtime.events)
        record = EpochRecord(
            epoch=epoch,
            position=start + spec.items_per_epoch,
            state_hash=state_fingerprint(self.runtime),
            input_seq={entry: inputs.seq for entry, inputs
                       in self.runtime._entries.items() if inputs.seq},
            total_steps=self.runtime.total_steps,
            checkpoints=checkpoints,
            clean_topology=self._clean_topology(),
            events_seq=exported_seq,
            events_offset=offset,
            pending_faults=[fault_to_dict(f) for f in
                            (self.injector.pending_faults()
                             if self.injector is not None else [])],
        )
        if commit:
            self.manifest.epochs.append(record)
            write_manifest(self.run_dir, self.manifest)
        self._write_flight()
        return record

    def _settle(self, epoch: int) -> None:
        """Pump read-only probes until every chaos recovery completed.

        Probes mutate nothing, so the boundary state hash does not
        depend on how many rounds this incarnation needed — only on the
        mutating items, which are positionally fixed.
        """
        if self.plan is None:
            return
        rounds = 0
        while not (self.supervisor.settled
                   and not self.detector.unreported_dead_nodes()):
            rounds += 1
            if rounds > _MAX_PUMP_ROUNDS:
                raise DurabilityError(
                    f"epoch {epoch} failed to settle after "
                    f"{_MAX_PUMP_ROUNDS} probe rounds; recovery cycles: "
                    f"{self.supervisor.cycles()}"
                )
            salt = epoch * 100_003 + rounds * 17
            for entry, payload in self.workload.probes(salt, 3):
                self.runtime.inject(entry, payload)
            self.runtime.run_until_idle()
        if self.supervisor.quarantined:
            raise DurabilityError(
                f"epoch {epoch}: nodes {sorted(self.supervisor.quarantined)} "
                f"were quarantined; their partitions cannot be fenced"
            )

    def _clean_topology(self) -> bool:
        if self.runtime.scale_events:
            return False
        return all(self.runtime.se_epoch(se) == 0
                   for se in self.runtime.sdg.states)


# ----------------------------------------------------------------------
# Fork
# ----------------------------------------------------------------------


def _backup_file_version(name: str) -> tuple[int, int] | None:
    """Parse ``node{N}_v{V}_...`` backup filenames; None if unrelated."""
    if not (name.startswith("node") and name.endswith(".pkl")):
        return None
    try:
        node_part, version_part, _rest = name.split("_", 2)
        return int(node_part[len("node"):]), int(version_part[len("v"):])
    except (ValueError, IndexError):
        return None


def fork_run(src_dir: str, dest_dir: str, epoch: int) -> RunManifest:
    """Clone ``src_dir`` at committed epoch K into a new run directory.

    The child manifest keeps the parent's program, spec, fault plan and
    epoch records up to K; the backup files its fenced chains need are
    *hardlinked* (copy-on-nothing — untouched SE chunks are never
    duplicated), and ``events.jsonl`` is truncated at the fenced byte
    offset. Resuming the child then restores — and verifies — the
    parent's epoch-K state hash before diverging.
    """
    manifest = load_manifest(src_dir)
    record = manifest.record_for(epoch)
    if os.path.exists(manifest_path(dest_dir)):
        raise DurabilityError(
            f"{dest_dir!r} already holds a run manifest"
        )
    os.makedirs(dest_dir, exist_ok=True)

    src_backups = os.path.join(src_dir, BACKUPS_DIR)
    if os.path.isdir(src_backups):
        for target in sorted(os.listdir(src_backups)):
            src_target = os.path.join(src_backups, target)
            if not os.path.isdir(src_target):
                continue
            dst_target = os.path.join(dest_dir, BACKUPS_DIR, target)
            os.makedirs(dst_target, exist_ok=True)
            for name in sorted(os.listdir(src_target)):
                parsed = _backup_file_version(name)
                if parsed is None:
                    continue
                node_id, version = parsed
                fence = record.checkpoints.get(node_id)
                if fence is None or version > fence:
                    continue
                src_path = os.path.join(src_target, name)
                dst_path = os.path.join(dst_target, name)
                try:
                    os.link(src_path, dst_path)
                except OSError:
                    shutil.copy2(src_path, dst_path)

    src_events = os.path.join(src_dir, EVENTS_NAME)
    if os.path.exists(src_events) and record.events_offset:
        with open(src_events, "rb") as src:
            head = src.read(record.events_offset)
        with open(os.path.join(dest_dir, EVENTS_NAME), "wb") as dst:
            dst.write(head)

    child = RunManifest(
        run_id=f"{manifest.run_id}~fork{epoch}",
        program=dict(manifest.program),
        spec=dict(manifest.spec),
        fault_plan=manifest.fault_plan,
        epochs=[EpochRecord.from_dict(r.to_dict())
                for r in manifest.epochs[:epoch]],
    )
    write_manifest(dest_dir, child)
    return child
