"""End-to-end tests for the durable epoch runner and its resume rungs."""

import json
import os

import pytest

import repro.durability.runner as runner_mod
from repro.chaos import FaultPlan, KillNode, ScaleUp
from repro.durability import (
    BACKUPS_DIR,
    DurableRunner,
    RunSpec,
    SimulatedCrash,
    load_manifest,
)
from repro.errors import DurabilityError

SPEC = RunSpec(app="kvstore", seed=7, epochs=3, items_per_epoch=50)


def reference_hash(tmp_path, spec=SPEC, plan=None):
    """Final state hash of an uninterrupted run with the same inputs."""
    ref_dir = str(tmp_path / "ref")
    runner = DurableRunner.start(ref_dir, spec, plan=plan)
    runner.run()
    return runner.state_hash()


class TestEpochLoop:
    def test_each_epoch_is_fenced(self, tmp_path):
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        for expected in (1, 2, 3):
            runner.run_epoch()
            on_disk = load_manifest(run_dir)
            assert on_disk.committed_epoch == expected
            record = on_disk.latest
            assert record.position == expected * SPEC.items_per_epoch
            assert record.checkpoints
            assert record.clean_topology
            # The fenced event offset matches the file on disk.
            events = os.path.join(run_dir, "events.jsonl")
            assert os.path.getsize(events) == record.events_offset

    def test_run_past_spec_refused(self, tmp_path):
        runner = DurableRunner.start(str(tmp_path / "run"), SPEC)
        runner.run()
        with pytest.raises(DurabilityError):
            runner.run_epoch()

    def test_start_refuses_existing_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        DurableRunner.start(run_dir, SPEC)
        with pytest.raises(DurabilityError):
            DurableRunner.start(run_dir, SPEC)

    def test_delta_chains_are_kept(self, tmp_path):
        spec = RunSpec(app="kvstore", seed=7, epochs=3,
                       items_per_epoch=50, full_every=0)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, spec)
        runner.run()
        chains = [runner.store.chain(node)
                  for node in runner.manifest.latest.checkpoints]
        kinds = {c.kind for chain in chains for c in chain}
        assert kinds == {"full", "delta"}

    def test_flight_dump_without_a_configured_recorder(self, tmp_path):
        # The runtime is deployed with flight_recorder=0; the runner
        # attaches its own recorder, and the serve path records into it.
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        assert runner.runtime.config.flight_recorder == 0
        runner.run_epoch()
        with open(os.path.join(run_dir, runner_mod.FLIGHT_NAME)) as fh:
            dump = json.load(fh)
        serves = [e for e in dump["entries"] if e["kind"] == "serve"]
        assert serves
        assert serves[-1]["step"] < dump["total_steps"]


class TestResume:
    def test_fast_resume_matches_uninterrupted(self, tmp_path):
        expected = reference_hash(tmp_path)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        runner.run_epoch()
        runner.run_epoch()
        del runner  # the process "dies" between epochs

        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "checkpoint"
        resumed.run()
        assert resumed.state_hash() == expected

    def test_crash_at_the_fence_loses_only_one_epoch(
            self, tmp_path, monkeypatch):
        expected = reference_hash(tmp_path)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        runner.run_epoch()
        boundary = runner.state_hash()

        def dying_fence(run_dir, manifest, crash_at=None):
            raise SimulatedCrash("power cut at the fence")

        monkeypatch.setattr(runner_mod, "write_manifest", dying_fence)
        with pytest.raises(SimulatedCrash):
            runner.run_epoch()  # epoch 2 checkpoints land, fence lost
        monkeypatch.undo()

        resumed = DurableRunner.resume(run_dir)
        assert resumed.manifest.committed_epoch == 1
        assert resumed.resume_mode == "checkpoint"
        assert resumed.state_hash() == boundary
        resumed.run()
        assert resumed.state_hash() == expected

    def test_double_crash_in_one_epoch(self, tmp_path):
        expected = reference_hash(tmp_path)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        runner.run_epoch()
        del runner
        # Crash again before the resumed incarnation commits anything:
        # the re-anchored checkpoints must keep the fast path alive.
        first = DurableRunner.resume(run_dir)
        assert first.resume_mode == "checkpoint"
        del first
        second = DurableRunner.resume(run_dir)
        assert second.resume_mode == "checkpoint"
        second.run()
        assert second.state_hash() == expected

    def test_lost_chunk_falls_back_to_replay(self, tmp_path):
        expected = reference_hash(tmp_path)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        runner.run_epoch()
        runner.run_epoch()
        del runner
        # Destroy one fenced chunk file; the fast rung must notice
        # (missing-chunk verification) and the replay rung take over.
        backups = os.path.join(run_dir, BACKUPS_DIR)
        victims = [os.path.join(root, name)
                   for root, _dirs, names in os.walk(backups)
                   for name in names if "chunk" in name]
        os.unlink(sorted(victims)[0])

        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "replay"
        resumed.run()
        assert resumed.state_hash() == expected

    def test_resume_before_first_commit_is_fresh(self, tmp_path):
        run_dir = str(tmp_path / "run")
        DurableRunner.start(run_dir, SPEC)
        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "fresh"
        resumed.run()
        assert resumed.state_hash() == reference_hash(tmp_path)

    def test_wordcount_round_trip(self, tmp_path):
        spec = RunSpec(app="wordcount", seed=5, epochs=3,
                       items_per_epoch=40)
        expected = reference_hash(tmp_path, spec=spec)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, spec)
        runner.run_epoch()
        del runner
        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "checkpoint"
        resumed.run()
        assert resumed.state_hash() == expected


class TestChaosResume:
    def test_kills_resume_on_the_fast_path(self, tmp_path):
        plan = FaultPlan(
            faults=[KillNode(at_step=40, se="table", index=0),
                    KillNode(at_step=160, se="table", index=1)],
            seed=3)
        expected = reference_hash(tmp_path, plan=plan)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC, plan=plan)
        runner.run_epoch()
        assert not runner.manifest.latest.pending_faults == []
        del runner
        resumed = DurableRunner.resume(run_dir)
        # Node kills keep the topology clean: recovery is one-to-one
        # and restores map by instance key, not node id.
        assert resumed.resume_mode == "checkpoint"
        resumed.run()
        assert resumed.state_hash() == expected

    def test_scale_up_forces_replay(self, tmp_path):
        plan = FaultPlan(faults=[ScaleUp(at_step=60, te="serve")],
                         seed=3)
        expected = reference_hash(tmp_path, plan=plan)
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC, plan=plan)
        runner.run_epoch()
        runner.run_epoch()
        assert not runner.manifest.latest.clean_topology
        del runner
        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "replay"
        resumed.run()
        assert resumed.state_hash() == expected


class TestProgramIdentity:
    def test_different_program_refused(self, tmp_path):
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, SPEC)
        runner.run_epoch()
        del runner
        manifest = load_manifest(run_dir)
        manifest.program["fingerprint"] += 1
        from repro.durability import write_manifest
        write_manifest(run_dir, manifest)
        with pytest.raises(DurabilityError):
            DurableRunner.resume(run_dir)
