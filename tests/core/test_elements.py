"""Unit tests for element specs and the task context."""

import pytest

from repro.core import SDG, AccessMode, Dispatch, TaskContext
from repro.core.elements import DataflowEdge, StateKind, TaskElementSpec
from repro.errors import RuntimeExecutionError, ValidationError
from repro.runtime import Runtime
from repro.state import KeyValueMap, Matrix

from tests.helpers import build_kv_sdg, noop


class TestTaskElementSpec:
    def test_access_without_state_rejected(self):
        with pytest.raises(ValueError, match="names no state"):
            TaskElementSpec(name="t", fn=noop, access=AccessMode.LOCAL)

    def test_state_without_access_rejected(self):
        with pytest.raises(ValueError, match="no access mode"):
            TaskElementSpec(name="t", fn=noop, state="s")

    def test_stateless_spec_is_fine(self):
        spec = TaskElementSpec(name="t", fn=noop)
        assert spec.access is AccessMode.NONE


class TestStateElementSpec:
    def test_partitioned_defaults_route_key(self):
        sdg = SDG()
        kv = sdg.add_state("kv", KeyValueMap)
        matrix = sdg.add_state("m", Matrix)
        column = sdg.add_state("c", Matrix, route_key=lambda cell: cell[1])
        assert kv.route_key(("a", 1)) == ("a", 1)
        assert matrix.route_key((3, 9)) == 3
        assert column.route_key((3, 9)) == 9

    def test_partial_has_no_key(self):
        sdg = SDG()
        spec = sdg.add_state("s", KeyValueMap, kind=StateKind.PARTIAL)
        assert spec.route_key is None
        with pytest.raises(ValidationError, match="route_key"):
            sdg.add_state("t", KeyValueMap, kind=StateKind.PARTIAL,
                          route_key=lambda key: key)


class TestDataflowEdge:
    def test_keyed_edge_requires_key_fn(self):
        with pytest.raises(ValueError, match="key_fn"):
            DataflowEdge(src="a", dst="b",
                         dispatch=Dispatch.KEY_PARTITIONED)

    def test_plain_edge_fine(self):
        edge = DataflowEdge(src="a", dst="b",
                            dispatch=Dispatch.ONE_TO_ANY)
        assert edge.key_name is None


class TestTaskContext:
    def test_emit_then_drain(self):
        ctx = TaskContext()
        ctx.emit(1)
        ctx.emit(2)
        assert ctx.drain() == [1, 2]
        assert ctx.drain() == []

    def test_defaults(self):
        ctx = TaskContext()
        assert ctx.state is None
        assert ctx.instance_id == 0
        assert ctx.n_instances == 1


class TestDeployGuards:
    def test_inject_before_deploy_rejected(self):
        runtime = Runtime(build_kv_sdg())
        with pytest.raises(RuntimeExecutionError, match="not deployed"):
            runtime.inject("serve", ("put", 1, 1))

    def test_step_before_deploy_rejected(self):
        runtime = Runtime(build_kv_sdg())
        with pytest.raises(RuntimeExecutionError, match="not deployed"):
            runtime.step()
