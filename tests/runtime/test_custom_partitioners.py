"""Hash partitioning through the runtime: auto-scale re-splits it."""

from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


class TestConfigValidation:
    def test_auto_scale_rescales_hash_partitions(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            se_instances={"table": 2},
            auto_scale=True, scale_threshold=4, scale_check_every=1,
        )).deploy()
        for key in range(200):
            runtime.inject("serve", ("put", key, key))
        runtime.run_until_idle()
        assert len(runtime.se_instances("table")) > 2
