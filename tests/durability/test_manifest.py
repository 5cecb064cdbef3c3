"""Unit tests for run manifests, fingerprints and the fault codec."""

import json
import os

import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.chaos import (
    FaultPlan,
    KillNode,
    ScaleUp,
    fault_from_dict,
    fault_to_dict,
    random_plan,
)
from repro.durability import (
    CRASH_POINTS,
    SCHEMA_VERSION,
    EpochRecord,
    RunManifest,
    SimulatedCrash,
    atomic_write_json,
    load_manifest,
    manifest_path,
    sdg_fingerprint,
    write_manifest,
)
from repro.errors import ChaosError, DurabilityError
from repro.testing import build_kv_sdg


def make_manifest(n_epochs=2):
    manifest = RunManifest(
        run_id="t", program={"app": "kvstore", "sdg": "kv",
                             "fingerprint": 42},
        spec={"app": "kvstore", "seed": 1},
    )
    for k in range(1, n_epochs + 1):
        manifest.epochs.append(EpochRecord(
            epoch=k, position=k * 10, state_hash=100 + k,
            input_seq={"serve": k * 10},
            total_steps=k * 50, checkpoints={0: k, 1: k},
            events_seq=k * 3, events_offset=k * 200,
            pending_faults=[fault_to_dict(
                KillNode(at_step=999, se="table", index=0))],
        ))
    return manifest


class TestManifestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        manifest = make_manifest()
        write_manifest(str(tmp_path), manifest)
        loaded = load_manifest(str(tmp_path))
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.committed_epoch == 2
        # node ids survive as ints despite JSON's string keys
        assert loaded.latest.checkpoints == {0: 2, 1: 2}

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(DurabilityError):
            load_manifest(str(tmp_path))

    def test_garbage_manifest_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w") as fh:
            fh.write("{not json")
        with pytest.raises(DurabilityError):
            load_manifest(str(tmp_path))

    def test_wrong_schema_version_refused(self, tmp_path):
        record = make_manifest().to_dict()
        record["schema_version"] = SCHEMA_VERSION + 1
        with open(manifest_path(str(tmp_path)), "w") as fh:
            json.dump(record, fh)
        with pytest.raises(DurabilityError):
            load_manifest(str(tmp_path))

    def test_record_for_unknown_epoch(self):
        manifest = make_manifest(n_epochs=1)
        assert manifest.record_for(1).epoch == 1
        with pytest.raises(DurabilityError):
            manifest.record_for(5)

    def test_record_with_round_robin_cursors_still_loads(self):
        # Older manifests also stored each unkeyed entry's round-robin
        # cursor; the input seq now places those items, so it is ignored.
        record = make_manifest(n_epochs=1).epochs[0].to_dict()
        old = dict(record, input_rr={"serve": 1})
        assert EpochRecord.from_dict(old).to_dict() == record

    def test_empty_manifest_has_epoch_zero(self):
        manifest = RunManifest(run_id="t", program={}, spec={})
        assert manifest.committed_epoch == 0
        assert manifest.latest is None


class TestAtomicWrite:
    def test_writes_and_removes_temp(self, tmp_path):
        path = str(tmp_path / "m.json")
        atomic_write_json(path, {"a": 1})
        assert json.load(open(path)) == {"a": 1}
        assert not os.path.exists(path + ".tmp")

    def test_unknown_crash_point_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            atomic_write_json(str(tmp_path / "m.json"), {},
                              crash_at="nope")

    def test_crash_before_replace_keeps_old(self, tmp_path):
        path = str(tmp_path / "m.json")
        atomic_write_json(path, {"v": 1})
        for point in CRASH_POINTS[:4]:
            with pytest.raises(SimulatedCrash):
                atomic_write_json(path, {"v": 2}, crash_at=point)
            assert json.load(open(path)) == {"v": 1}

    def test_crash_after_replace_has_new(self, tmp_path):
        path = str(tmp_path / "m.json")
        atomic_write_json(path, {"v": 1})
        with pytest.raises(SimulatedCrash):
            atomic_write_json(path, {"v": 2}, crash_at="after-replace")
        assert json.load(open(path)) == {"v": 2}


class TestFingerprints:
    def test_stable_across_builds(self):
        assert sdg_fingerprint(build_kv_sdg()) == \
            sdg_fingerprint(build_kv_sdg())

    def test_differs_across_programs(self):
        assert sdg_fingerprint(build_kv_sdg()) != \
            sdg_fingerprint(build_wordcount_sdg(1000))


class TestFaultCodec:
    def test_fault_round_trip(self):
        for fault in (KillNode(at_step=7, se="table", index=1),
                      ScaleUp(at_step=9, te="count")):
            back = fault_from_dict(fault_to_dict(fault))
            assert back == fault

    def test_plan_round_trip(self):
        plan = random_plan(3, horizon=600, se="table", entry_te="serve")
        back = FaultPlan.from_dict(plan.to_dict())
        assert list(back) == list(plan)
        assert back.seed == plan.seed

    def test_unknown_fault_type_raises(self):
        with pytest.raises(ChaosError):
            fault_from_dict({"type": "MeteorStrike", "at_step": 1})

    def test_bad_fields_raise(self):
        with pytest.raises(ChaosError):
            fault_from_dict({"type": "KillNode", "bogus": 1})
