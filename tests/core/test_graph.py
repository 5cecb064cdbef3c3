"""Unit tests for the SDG graph container."""

import pytest

from repro.core import SDG, AccessMode, Dispatch
from repro.errors import ValidationError
from repro.state import KeyValueMap

from tests.helpers import build_cf_sdg, build_iterative_sdg, noop


class TestConstruction:
    def test_duplicate_state_rejected(self):
        sdg = SDG()
        sdg.add_state("s", KeyValueMap)
        with pytest.raises(ValidationError):
            sdg.add_state("s", KeyValueMap)

    def test_duplicate_task_rejected(self):
        sdg = SDG()
        sdg.add_task("t", noop)
        with pytest.raises(ValidationError):
            sdg.add_task("t", noop)

    def test_task_and_state_namespaces_are_shared(self):
        sdg = SDG()
        sdg.add_state("x", KeyValueMap)
        with pytest.raises(ValidationError):
            sdg.add_task("x", noop)
        sdg.add_task("y", noop)
        with pytest.raises(ValidationError):
            sdg.add_state("y", KeyValueMap)

    def test_task_with_unknown_state_rejected(self):
        sdg = SDG()
        with pytest.raises(ValidationError):
            sdg.add_task("t", noop, state="nope",
                         access=AccessMode.LOCAL)

    def test_access_mode_without_state_rejected(self):
        sdg = SDG()
        sdg.add_state("s", KeyValueMap)
        with pytest.raises(ValueError):
            sdg.add_task("t", noop, state="s")  # mode NONE but SE named

    def test_dataflow_requires_known_endpoints(self):
        sdg = SDG()
        sdg.add_task("a", noop)
        with pytest.raises(ValidationError):
            sdg.connect("a", "missing")

    def test_keyed_dataflow_requires_key_fn(self):
        sdg = SDG()
        sdg.add_task("a", noop)
        sdg.add_task("b", noop)
        with pytest.raises(ValueError):
            sdg.connect("a", "b", Dispatch.KEY_PARTITIONED)


class TestQueries:
    def test_cf_entries(self):
        sdg = build_cf_sdg()
        assert {t.name for t in sdg.entries()} == {
            "updateUserItem", "getUserVec",
        }

    def test_successors_and_predecessors(self):
        sdg = build_cf_sdg()
        assert [e.dst for e in sdg.successors("getUserVec")] == ["getRecVec"]
        assert [e.src for e in sdg.predecessors("mergeRec")] == ["getRecVec"]

    def test_tasks_accessing(self):
        sdg = build_cf_sdg()
        names = {t.name for t in sdg.tasks_accessing("coOcc")}
        assert names == {"updateCoOcc", "getRecVec"}

    def test_reachability(self):
        sdg = build_cf_sdg()
        assert sdg.reachable_from_entries() == set(sdg.tasks)


class TestCycles:
    def test_acyclic_graph_has_no_cycles(self):
        assert build_cf_sdg().cycles() == []

    def test_two_te_loop_found(self):
        cycles = build_iterative_sdg().cycles()
        assert cycles == [{"stepA", "stepB"}]

    def test_self_loop_found(self):
        sdg = SDG()
        sdg.add_task("t", noop, is_entry=True)
        sdg.connect("t", "t", Dispatch.ONE_TO_ANY)
        assert sdg.cycles() == [{"t"}]

    def test_long_pipeline_no_recursion_blowup(self):
        sdg = SDG()
        n = 2000
        for i in range(n):
            sdg.add_task(f"t{i}", noop, is_entry=(i == 0))
        for i in range(n - 1):
            sdg.connect(f"t{i}", f"t{i+1}")
        assert sdg.cycles() == []


class TestRendering:
    def test_to_dot_mentions_all_elements(self):
        sdg = build_cf_sdg()
        dot = sdg.to_dot()
        for name in list(sdg.tasks) + list(sdg.states):
            assert name in dot
        assert "all_to_one" in dot

    def test_repr(self):
        assert "tasks=5" in repr(build_cf_sdg())

