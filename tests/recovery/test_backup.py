"""Unit tests for checkpoint backup stores."""

import os

import pytest

from repro.errors import RecoveryError
from repro.recovery import BackupStore, DiskBackupStore, NodeCheckpoint
from repro.state import KeyValueMap


def make_checkpoint(node_id=0, version=1, n_entries=30, n_chunks=4):
    kv = KeyValueMap()
    for i in range(n_entries):
        kv.put(f"k{i}", i)
    return NodeCheckpoint(
        node_id=node_id, version=version,
        se_chunks={("table", 0): kv.to_chunks(n_chunks)},
    )


class TestBackupStore:
    def test_save_and_latest(self):
        store = BackupStore(m_targets=2)
        checkpoint = make_checkpoint()
        store.save(checkpoint)
        assert store.latest(0) is checkpoint
        assert store.latest(0) is not None

    def test_latest_of_unknown_node_is_none(self):
        assert BackupStore().latest(99) is None

    def test_new_checkpoint_evicts_old(self):
        store = BackupStore(m_targets=3)
        store.save(make_checkpoint(version=1, n_entries=10))
        store.save(make_checkpoint(version=2, n_entries=20))
        assert store.latest(0).version == 2
        # No stale chunks from version 1 remain.
        chunks = store.chunks_for(0, ("table", 0))
        total = sum(len(c.items) for c in chunks)
        assert total == 20

    def test_chunks_spread_across_targets(self):
        store = BackupStore(m_targets=4)
        store.save(make_checkpoint(n_chunks=8))
        loads = store.target_loads()
        assert sum(loads) == 8
        assert all(load == 2 for load in loads)

    def test_chunks_for_returns_sorted(self):
        store = BackupStore(m_targets=3)
        store.save(make_checkpoint(n_chunks=5))
        chunks = store.chunks_for(0, ("table", 0))
        assert [c.index for c in chunks] == [0, 1, 2, 3, 4]

    def test_zero_targets_rejected(self):
        with pytest.raises(RecoveryError):
            BackupStore(m_targets=0)

    def test_per_node_isolation(self):
        store = BackupStore(m_targets=2)
        store.save(make_checkpoint(node_id=0, n_entries=10))
        store.save(make_checkpoint(node_id=1, n_entries=20))
        assert store.latest(0).state_entries() == 10
        assert store.latest(1).state_entries() == 20


class TestDiskBackupStore:
    def test_roundtrip_through_disk(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(n_entries=25, n_chunks=4))
        # A brand-new store over the same directories must reconstruct
        # the full checkpoint from the files alone.
        fresh = DiskBackupStore(str(tmp_path), m_targets=2)
        fresh.reload_from_disk()
        assert fresh.latest(0) is not None
        chunks = fresh.chunks_for(0, ("table", 0))
        items = {k: v for c in chunks for k, v in c.items}
        assert items == {f"k{i}": i for i in range(25)}

    def test_resave_removes_stale_files(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(n_entries=40, n_chunks=6))
        store.save(make_checkpoint(version=2, n_entries=10, n_chunks=2))
        fresh = DiskBackupStore(str(tmp_path), m_targets=2)
        fresh.reload_from_disk()
        chunks = fresh.chunks_for(0, ("table", 0))
        total = sum(len(c.items) for c in chunks)
        assert total == 10
        assert fresh.latest(0).version == 2


class TestDiskBackupStoreDurability:
    """Crash-consistency of the on-disk chunk layout."""

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(n_entries=30, n_chunks=4))
        leftovers = [name for root, _d, names in os.walk(str(tmp_path))
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_orphaned_temp_file_is_ignored_on_reload(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(n_entries=10, n_chunks=2))
        # A crash between temp-write and rename leaves a .tmp around.
        target_dir = os.path.join(str(tmp_path), "backup0")
        with open(os.path.join(target_dir, "node0_v9_x.pkl.tmp"),
                  "wb") as fh:
            fh.write(b"half a pickle")
        fresh = DiskBackupStore(str(tmp_path), m_targets=2)
        fresh.reload_from_disk()
        assert fresh.latest(0).version == 1

    def test_crash_during_resave_keeps_old_chain_readable(
            self, tmp_path, monkeypatch):
        """The old chain must survive a crash mid-way through a new
        save: files are written via temp+rename *before* stale ones are
        deleted, so an interrupted save leaves at worst both versions,
        never a half-written chunk."""
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(version=1, n_entries=25, n_chunks=4))

        real_replace = os.replace
        calls = {"n": 0}

        def dying_replace(src, dst):
            calls["n"] += 1
            if calls["n"] > 2:
                raise OSError("simulated power cut")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            store.save(make_checkpoint(version=2, n_entries=40,
                                       n_chunks=4))
        monkeypatch.undo()

        fresh = DiskBackupStore(str(tmp_path), m_targets=2)
        fresh.reload_from_disk()
        chunks = fresh.chunks_for(0, ("table", 0), verify=False,
                                  version=1)
        items = {k: v for c in chunks for k, v in c.items}
        assert items == {f"k{i}": i for i in range(25)}

    def test_prune_drops_versions_above_watermark(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=2)
        store.save(make_checkpoint(version=1, n_entries=10))
        removed = store.prune({0: 1})
        assert removed == []
        # Node 5 is not in the watermark map at all: fully dropped.
        store.save(make_checkpoint(node_id=5, version=1, n_entries=5))
        removed = store.prune({0: 1})
        assert removed == [(5, 1)]
        files = [name for root, _d, names in os.walk(str(tmp_path))
                 for name in names]
        assert not any(name.startswith("node5_") for name in files)
        fresh = DiskBackupStore(str(tmp_path), m_targets=2)
        fresh.reload_from_disk()
        assert fresh.latest(5) is None
        assert fresh.latest(0) is not None

    def test_prune_in_memory_store(self):
        store = BackupStore(m_targets=2)
        store.save(make_checkpoint(version=1, n_entries=8))
        store.save(make_checkpoint(node_id=1, version=1, n_entries=8))
        removed = store.prune({0: 1})
        assert removed == [(1, 1)]
        assert store.latest(1) is None
        assert store.latest(0).version == 1
