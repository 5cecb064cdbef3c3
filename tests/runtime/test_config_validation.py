"""Deploy-time validation of ``RuntimeConfig`` knobs.

A typo'd SE name or a zero scaling interval must fail at ``deploy()``
with a clear message, not be silently ignored (or divide by zero deep
inside the engine).
"""

import dataclasses

import pytest

from repro.errors import RuntimeExecutionError
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.config import SCALAR_KNOBS
from repro.testing import build_kv_sdg


def deploy(config):
    return Runtime(build_kv_sdg(), config).deploy()


class TestScalarKnobs:
    @pytest.mark.parametrize("knob", ["scale_threshold", "max_instances",
                                      "scale_check_every"])
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "16", True, None])
    def test_non_positive_or_non_int_rejected(self, knob, bad):
        config = RuntimeConfig(**{knob: bad})
        with pytest.raises(RuntimeExecutionError, match=knob):
            deploy(config)

    def test_valid_config_deploys(self):
        runtime = deploy(RuntimeConfig(scale_threshold=10,
                                       max_instances=4,
                                       scale_check_every=100,
                                       se_instances={"table": 2}))
        assert len(runtime.se_instances("table")) == 2


class TestInstanceMaps:
    def test_unknown_se_name_rejected(self):
        config = RuntimeConfig(se_instances={"tabel": 2})  # typo
        with pytest.raises(RuntimeExecutionError, match="tabel"):
            deploy(config)

    def test_unknown_te_name_rejected(self):
        config = RuntimeConfig(te_instances={"server": 2})  # typo
        with pytest.raises(RuntimeExecutionError, match="server"):
            deploy(config)

    def test_error_lists_known_names(self):
        config = RuntimeConfig(se_instances={"tabel": 2})
        with pytest.raises(RuntimeExecutionError, match="'table'"):
            deploy(config)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_non_positive_se_count_rejected(self, bad):
        config = RuntimeConfig(se_instances={"table": bad})
        with pytest.raises(RuntimeExecutionError, match="se_instances"):
            deploy(config)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_non_positive_te_count_rejected(self, bad):
        config = RuntimeConfig(te_instances={"serve": bad})
        with pytest.raises(RuntimeExecutionError, match="te_instances"):
            deploy(config)


class TestConfigStaysClosed:
    """Every field is either a scalar knob validated from the table or
    on this list with the check that owns it; a new field must pick."""

    FREE_FORM = {
        "se_instances": "names and counts checked against the SDG",
        "te_instances": "names and counts checked against the SDG",
        "metrics": "registry shape checked",
        "substrate": "resolve_substrate",
        "substrate_check": "one of three names",
        "capabilities": "a ProgramCapabilities certificate",
    }

    #: Values no row may accept, per kind (``None`` only where the kind
    #: is not optional).
    ILLEGAL = {
        "bool": [0, 1, "yes", None],
        "int": [2.5, "16", True, None],
        "optional_int": [2.5, "16", True],
    }

    def test_every_field_is_accounted_for(self):
        fields = {f.name for f in dataclasses.fields(RuntimeConfig)}
        tabled = {knob for knob, _kind, _minimum in SCALAR_KNOBS}
        assert len(fields) == 16
        assert not tabled & set(self.FREE_FORM)
        assert fields == tabled | set(self.FREE_FORM)

    @pytest.mark.parametrize("knob, kind, minimum", SCALAR_KNOBS)
    def test_illegal_values_fail_in_validate(self, knob, kind, minimum):
        illegal = list(self.ILLEGAL[kind])
        if minimum is not None:
            illegal += [minimum - 1, minimum - 4]
        for bad in illegal:
            # multiprocess, so `workers` reaches its own range check.
            config = RuntimeConfig(substrate="multiprocess",
                                   **{knob: bad})
            with pytest.raises(RuntimeExecutionError, match=knob):
                config.validate(build_kv_sdg())
