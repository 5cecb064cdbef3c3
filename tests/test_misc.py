"""Miscellaneous coverage: size accounting, error taxonomy, metadata."""

import pytest

import repro
from repro.errors import (
    AllocationError,
    RecoveryError,
    RuntimeExecutionError,
    SDGError,
    SimulationError,
    StateError,
    TranslationError,
    ValidationError,
)
from repro.recovery import BackupStore, CheckpointManager, CheckpointPolicy
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap, Matrix

from tests.helpers import build_kv_sdg


class TestErrorTaxonomy:
    @pytest.mark.parametrize("error_type", [
        AllocationError, RecoveryError, RuntimeExecutionError,
        SimulationError, StateError, TranslationError, ValidationError,
    ])
    def test_all_errors_are_sdg_errors(self, error_type):
        assert issubclass(error_type, SDGError)
        with pytest.raises(SDGError):
            raise error_type("boom")

    def test_translation_error_line_prefix(self):
        error = TranslationError("bad", lineno=17)
        assert "line 17" in str(error)
        assert error.lineno == 17


class TestSizeAccounting:
    def test_kv_size_linear_in_entries(self):
        kv = KeyValueMap()
        assert kv.estimated_size_bytes() == 0
        for i in range(10):
            kv.put(i, i)
        assert kv.estimated_size_bytes() == 10 * KeyValueMap.BYTES_PER_ENTRY

    def test_matrix_entry_cost(self):
        matrix = Matrix()
        matrix.set_element(0, 0, 1.0)
        matrix.set_element(5, 5, 1.0)
        assert matrix.estimated_size_bytes() == 2 * Matrix.BYTES_PER_ENTRY

    def test_entry_count_is_overlay_aware(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        cut = kv.cut()
        kv.put("b", 2)
        kv.delete("a")
        assert kv.entry_count() == 1 and len(cut.items) == 1


class TestAbortCheckpoint:
    def test_abort_preserves_dirty_writes(self):
        """An abort drops a delta cut and the journal entries it took,
        yet loses no write: the next cycle is a full base holding the
        writes from before and during the aborted one."""
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1}))
        runtime.deploy()
        manager = CheckpointManager(runtime, BackupStore(m_targets=2),
                                    policy=CheckpointPolicy(full_every=0))
        node = runtime.se_instance("table", 0).node_id

        def put(key, value):
            runtime.inject("serve", ("put", key, value))
            runtime.run_until_idle()

        put("before", 1)
        manager.checkpoint(node)
        put("journalled", 2)
        pending = manager.begin(node)  # its delta cut takes this entry
        assert pending.delta and pending.cuts[("table", 0)].items
        put("during", 3)
        manager.abort(pending)
        element = runtime.se_instance("table", 0).element
        assert not element.checkpoint_active
        checkpoint = manager.checkpoint(node)
        assert checkpoint.kind == "full"
        assert sorted(item for chunk in checkpoint.se_chunks[("table", 0)]
                      for item in chunk.items) == [
            ("before", 1), ("during", 3), ("journalled", 2)]


class TestPackageMetadata:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_api_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_is_runnable(self):
        """The package docstring's example must actually work."""
        from repro import Partitioned, SDGProgram, entry
        from repro.state import KeyValueMap as KV

        class Store(SDGProgram):
            table = Partitioned(KV, key="key")

            @entry
            def put(self, key, value):
                self.table.put(key, value)

            @entry
            def get(self, key):
                return self.table.get(key)

        app = Store.launch(table=4)
        app.put("answer", 42)
        app.get("answer")
        app.run()
        assert app.results("get") == [42]
