"""The SDG4xx substrate-safety family, end to end.

Four layers, in order: the *passes* (each fork hazard is found, and
only when the opt-in flag asks for it), the *call chains* (laundered
findings render their path in text and JSON), the *certifier*
(``SUBSTRATE_SAFE`` is granted exactly when no error-severity SDG4xx
finding exists), and the *deploy gate* (``substrate_check="enforce"``
statically refuses a hazardous program on the multiprocess substrate
and accepts every bundled app — the CI smoke).
"""

import json
import warnings

import pytest

from repro import analysis
from repro.analysis.capabilities import certify
from repro.analysis.engine import bundled_objects
from repro.cli import main
from repro.errors import RuntimeExecutionError
from repro.runtime import RuntimeConfig

from tests.analysis.fixtures import (
    clean,
    free_function_nondet,
    helper_nondet,
    lambda_state,
    laundered_bypass,
    set_iteration_route,
    shared_global,
)

LAMBDA = "tests.analysis.fixtures.lambda_state:LambdaState"
GLOBAL = "tests.analysis.fixtures.shared_global:SharedGlobal"
HELPER = "tests.analysis.fixtures.helper_nondet:JitteredStore"


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------


class TestPasses:
    @pytest.mark.parametrize("program, code", [
        (lambda_state.LambdaState, "SDG401"),
        (set_iteration_route.SetIterationRoute, "SDG402"),
        (shared_global.SharedGlobal, "SDG403"),
    ], ids=["unpicklable", "nondeterminism", "shared-global"])
    def test_each_hazard_is_found(self, program, code):
        report = analysis.run(program, substrate_safety=True)
        assert {d.code for d in report.diagnostics} == {code}, report.render_text()

    @pytest.mark.parametrize("program", [
        lambda_state.LambdaState,
        set_iteration_route.SetIterationRoute,
        shared_global.SharedGlobal,
    ])
    def test_substrate_passes_are_opt_in(self, program):
        # Perfectly valid in-process: the default pipeline stays quiet.
        assert analysis.run(program).clean

    def test_bundled_apps_are_substrate_clean(self):
        from repro.analysis.engine import bundled_targets
        for name, loader in bundled_targets(substrate_safety=True).items():
            report = loader()
            assert report.clean, f"{name}: {report.render_text()}"

    def test_severities(self):
        unpicklable = analysis.run(lambda_state.LambdaState,
                                   substrate_safety=True)
        assert not unpicklable.ok  # SDG401 is an error
        shared = analysis.run(shared_global.SharedGlobal,
                              substrate_safety=True)
        assert shared.ok and not shared.clean  # SDG403 is a warning


# ---------------------------------------------------------------------------
# Call chains in both renderings
# ---------------------------------------------------------------------------


def line_in_file(module, needle: str) -> int:
    import inspect
    for index, line in enumerate(
        inspect.getsource(module).splitlines(), 1
    ):
        if needle in line:
            return index
    raise AssertionError(f"{needle!r} not in {module.__name__}")


class TestCallChains:
    def test_helper_laundered_finding_renders_the_chain(self):
        report = analysis.run(helper_nondet.JitteredStore)
        [chained] = [d for d in report.by_code("SDG101") if d.chain]
        text = chained.render()
        assert "call chain: put_jittered:" in text
        assert "→ _jitter:" in text

    def test_chain_lines_are_absolute_file_positions(self):
        report = analysis.run(free_function_nondet.FreeFunctionNoise)
        [diag] = report.by_code("SDG101")
        chain = dict(diag.chain)
        assert chain["put_noisy"] == line_in_file(
            free_function_nondet, "self.table.put(key, noise())")
        assert chain["noise"] == line_in_file(
            free_function_nondet, "return random.random()")

    def test_chain_serialises_to_json(self):
        report = analysis.run(laundered_bypass.LaunderedBypass)
        [diag] = report.by_code("SDG303")
        payload = diag.to_dict()
        assert payload["chain"] == [
            {"function": fn, "line": line} for fn, line in diag.chain
        ]
        json.dumps(payload)  # must be JSON-clean

    def test_chained_sdg403_names_the_path(self):
        report = analysis.run(shared_global.SharedGlobal,
                              substrate_safety=True)
        [diag] = report.by_code("SDG403")
        assert "(through _bump)" in diag.message
        assert [fn for fn, _ in diag.chain] == ["record", "_bump"]

    def test_direct_finding_has_no_chain_key(self):
        from tests.analysis.fixtures import process_identity
        report = analysis.run(process_identity.ProcessIdentity)
        for diag in report.by_code("SDG101"):
            assert "chain" not in diag.to_dict()


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class TestCertification:
    def test_hazardous_program_is_refused_the_flag(self):
        caps = certify(lambda_state.LambdaState)
        assert not caps.substrate_safe
        assert "SUBSTRATE_SAFE" not in caps.flags
        assert any(d.code == "SDG401" for d in caps.substrate_findings)

    def test_warning_findings_do_not_cost_the_flag(self):
        caps = certify(shared_global.SharedGlobal)
        assert caps.substrate_safe  # SDG403 is warning-severity
        assert any(d.code == "SDG403" for d in caps.substrate_findings)

    def test_clean_program_is_certified(self):
        caps = certify(clean.CleanCounters)
        assert caps.substrate_safe
        assert caps.flags[-1] == "SUBSTRATE_SAFE"
        assert caps.substrate_findings == ()

    def test_every_bundled_target_is_substrate_safe(self):
        for key, loader in bundled_objects().items():
            target, label = loader()
            caps = certify(target, label.split(":")[-1])
            assert caps.substrate_safe, key

    def test_findings_serialise_in_the_certificate(self):
        payload = certify(lambda_state.LambdaState).to_dict()
        assert payload["substrate_safe"] is False
        [finding] = [f for f in payload["substrate_findings"]
                     if f["code"] == "SDG401"]
        assert "lambda" in finding["message"]


# ---------------------------------------------------------------------------
# The deploy gate
# ---------------------------------------------------------------------------


def multiprocess_config(**overrides):
    config = RuntimeConfig(substrate="multiprocess", workers=2,
                           **overrides)
    return config


class TestDeployGate:
    def test_enforce_refuses_a_hazardous_program(self):
        config = multiprocess_config(substrate_check="enforce")
        with pytest.raises(RuntimeExecutionError) as err:
            lambda_state.LambdaState.launch(config=config, table=2)
        message = str(err.value)
        assert "refusing to deploy" in message
        assert "SDG401" in message

    def test_precertified_capabilities_are_reused(self):
        config = multiprocess_config(substrate_check="enforce")
        config.capabilities = certify(lambda_state.LambdaState)
        with pytest.raises(RuntimeExecutionError, match="SDG401"):
            lambda_state.LambdaState.launch(config=config, table=2)

    def test_warn_mode_surfaces_and_proceeds(self):
        config = multiprocess_config(substrate_check="warn")
        with pytest.warns(RuntimeWarning, match="SDG403"):
            app = shared_global.SharedGlobal.launch(config=config,
                                                    table=2)
        with app.runtime:
            app.record("k", 1)
            app.run()

    def test_off_mode_is_silent(self):
        config = multiprocess_config(substrate_check="off")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            app = lambda_state.LambdaState.launch(config=config, table=2)
        app.runtime.close()

    def test_in_process_substrate_is_never_gated(self):
        # The hazard is multiprocess-specific; in one address space the
        # lambda is a perfectly good value.
        config = RuntimeConfig(substrate_check="enforce")
        app = lambda_state.LambdaState.launch(config=config, table=2)
        with app.runtime:
            app.plan("k", 21)
            app.run()

    def test_bad_mode_is_rejected_at_validation(self):
        from repro.apps import KeyValueStore

        config = RuntimeConfig(substrate_check="sometimes")
        with pytest.raises(Exception, match="substrate_check"):
            KeyValueStore.launch(config=config, table=2)

    def test_certified_app_deploys_under_enforce(self):
        """The CI smoke: a bundled app passes the multiprocess gate."""
        from repro.apps import KeyValueStore

        config = multiprocess_config(substrate_check="enforce")
        app = KeyValueStore.launch(config=config, table=2)
        with app.runtime:
            app.put("k", 7)
            app.run()
            app.get("k")
            app.run()
            assert app.results("get") == [("k", 7)]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_substrate_flag_finds_the_hazard(self, capsys):
        assert main(["lint", LAMBDA, "--substrate-safety"]) == 1
        assert "SDG401" in capsys.readouterr().out

    def test_without_the_flag_the_target_is_clean(self, capsys):
        assert main(["lint", LAMBDA]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warning_findings_respect_fail_on(self, capsys):
        assert main(["lint", GLOBAL, "--substrate-safety"]) == 0
        capsys.readouterr()
        assert main(["lint", GLOBAL, "--substrate-safety",
                     "--fail-on", "warning"]) == 1

    def test_fail_on_warning_applies_to_regular_passes_too(self, capsys):
        dead = "tests.analysis.fixtures.dead_payload:DeadPayload"
        assert main(["lint", dead]) == 0
        capsys.readouterr()
        assert main(["lint", dead, "--fail-on", "warning"]) == 1

    def test_json_chain_round_trips_through_the_cli(self, capsys):
        assert main(["lint", HELPER, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [report] = payload["reports"]
        chains = [d["chain"] for d in report["diagnostics"]
                  if "chain" in d]
        assert chains, report
        assert chains[0][0]["function"] == "put_jittered"

    def test_all_bundled_apps_pass_the_substrate_lint(self, capsys):
        assert main(["lint", "--all", "--substrate-safety",
                     "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "7 target(s), 0 error(s), 0 warning(s)" in out
