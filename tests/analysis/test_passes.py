"""End-to-end tests of the sdglint passes over the fixture corpus.

Positive case: every intentionally-broken fixture reports its code with
a span pointing into the fixture file. Negative case: the clean fixture
and every bundled application lint clean, and running the analyzer does
not perturb what ``translate()`` produces.
"""

import inspect

import pytest

from repro import analysis
from repro.analysis.engine import bundled_targets
from repro.core.dispatch import Dispatch
from repro.translate import translate

from tests.analysis.fixtures import (
    aliased_imports,
    backend_bypass,
    clean,
    dead_payload,
    env_access,
    free_function_nondet,
    graphs,
    helper_nondet,
    helper_race,
    key_mismatch,
    laundered_bypass,
    laundered_index_merge,
    operand_swap_merge,
    order_sensitive_merge,
    partial_race,
    process_identity,
    shadowed_builtin,
)


def line_of(module, needle: str) -> int:
    """1-based line number of the first source line containing needle."""
    for index, line in enumerate(inspect.getsource(module).splitlines(), 1):
        if needle in line:
            return index
    raise AssertionError(f"{needle!r} not found in {module.__name__}")


PROGRAM_CASES = [
    (aliased_imports, aliased_imports.AliasedClock, "SDG101", "now()"),
    (env_access, env_access.HostnameTagger, "SDG102", "sck.gethostname"),
    (partial_race, partial_race.PartialRace, "SDG301",
     "self.counters.increment"),
    (order_sensitive_merge, order_sensitive_merge.OrderSensitiveMerge,
     "SDG302", "all_scores[0]"),
    (operand_swap_merge, operand_swap_merge.OperandSwapMerge,
     "SDG302", "acc = cur - acc"),
    (laundered_index_merge, laundered_index_merge.LaunderedIndexMerge,
     "SDG302", "sorted(all_scores"),
    (backend_bypass, backend_bypass.BackendBypass, "SDG303",
     "self.table._backend"),
    (key_mismatch, key_mismatch.KeyDrift, "SDG304", "self.table.delete"),
    (dead_payload, dead_payload.DeadPayload, "SDG305", "def store"),
    # Interprocedural: violations laundered through calls. The first
    # diagnostic is the direct site (helper body) when one exists, or
    # the chained entry-side report for free functions the per-method
    # scans never see.
    (helper_nondet, helper_nondet.JitteredStore, "SDG101",
     "random.random()"),
    (free_function_nondet, free_function_nondet.FreeFunctionNoise,
     "SDG101", "self.table.put(key, noise())"),
    (helper_race, helper_race.HelperRace, "SDG301", "self._stash"),
    (laundered_bypass, laundered_bypass.LaunderedBypass, "SDG303",
     "self._launder(self.table"),
    (process_identity, process_identity.ProcessIdentity, "SDG101",
     "hash(value)"),
]


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "module, program, code, needle",
        PROGRAM_CASES,
        ids=[case[2] for case in PROGRAM_CASES],
    )
    def test_fixture_reports_its_code_at_the_right_span(
        self, module, program, code, needle
    ):
        report = analysis.run(program)
        assert {d.code for d in report.diagnostics} == {code}
        diagnostic = report.by_code(code)[0]
        assert diagnostic.span.file == module.__file__
        assert diagnostic.span.line == line_of(module, needle)

    def test_alias_note_names_the_alias(self):
        report = analysis.run(aliased_imports.AliasedClock)
        message = report.by_code("SDG101")[0].message
        assert "'now'" in message and "'time'" in message

    def test_clean_fixture_is_clean(self):
        report = analysis.run(clean.CleanCounters)
        assert report.clean, report.render_text()

    def test_local_shadow_of_forbidden_builtin_is_clean(self):
        # Regression: a parameter *named* ``open`` is a local value,
        # not the file-opening builtin the §4.1 scan forbids.
        report = analysis.run(shadowed_builtin.ShadowedOpen)
        assert report.clean, report.render_text()

    def test_transitive_reach_is_reported_against_the_entry(self):
        report = analysis.run(helper_nondet.JitteredStore)
        origins = {d.origin for d in report.by_code("SDG101")}
        assert origins == {"_jitter", "put_jittered"}

    @pytest.mark.parametrize("code", sorted(graphs.BROKEN_BUILDERS))
    def test_broken_graph_reports_its_code(self, code):
        report = analysis.run(graphs.BROKEN_BUILDERS[code])
        assert code in {d.code for d in report.diagnostics}, report.render_text()

    def test_error_severity_split(self):
        assert not analysis.run(partial_race.PartialRace).ok
        assert not analysis.run(backend_bypass.BackendBypass).ok
        # Warnings alone leave the report ok (exit 0 in the CLI).
        dead = analysis.run(dead_payload.DeadPayload)
        assert dead.ok and not dead.clean


class TestBundledApps:
    @pytest.mark.parametrize("name", sorted(bundled_targets()))
    def test_every_bundled_app_lints_clean(self, name):
        report = bundled_targets()[name]()
        assert report.clean, report.render_text()


class TestAnalyzerDoesNotPerturbTranslation:
    """The lint front-end must leave ``translate()`` byte-identical."""

    def _shape(self, result):
        sdg = result.sdg
        return {
            "tasks": {
                (te.name, te.state, te.access, te.is_entry, te.is_merge)
                for te in sdg.tasks.values()
            },
            "states": {
                (se.name, se.kind, se.route_key)
                for se in sdg.states.values()
            },
            "dataflows": {
                (e.src, e.dst, e.dispatch, e.key_name)
                for e in sdg.dataflows
            },
            "entries": {
                name: (info.params, info.te_names)
                for name, info in result.entries.items()
            },
        }

    @pytest.mark.parametrize("program", [
        clean.CleanCounters, partial_race.PartialRace,
        key_mismatch.KeyDrift, dead_payload.DeadPayload,
    ])
    def test_same_sdg_with_and_without_sink(self, program):
        strict = translate(program)
        sink = analysis.DiagnosticSink()
        linted = translate(program, sink=sink)
        assert self._shape(strict) == self._shape(linted)

    def test_translated_clean_program_still_runs(self):
        result = translate(clean.CleanCounters)
        fn = result.sdg.task(result.entries["store"].entry_te).fn
        assert callable(fn)
        assert result.entries["store"].params == ["key", "value"]

    def test_keyed_edges_survive_lint_mode(self):
        sink = analysis.DiagnosticSink()
        result = translate(partial_race.PartialRace, sink=sink)
        keyed = [e for e in result.sdg.dataflows
                 if e.dispatch is Dispatch.KEY_PARTITIONED]
        assert keyed and keyed[0].key_name == "key"
