"""Tests for the ``repro lint`` CLI subcommand."""

import json
import subprocess
import sys

from repro.cli import main

RACE = "tests.analysis.fixtures.partial_race:PartialRace"
DEAD = "tests.analysis.fixtures.dead_payload:DeadPayload"
CLEAN = "tests.analysis.fixtures.clean:CleanCounters"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
    )


class TestExitCodes:
    def test_error_diagnostic_exits_one(self, capsys):
        assert main(["lint", RACE]) == 1
        out = capsys.readouterr().out
        assert "SDG301" in out
        assert "1 error(s)" in out

    def test_warning_only_exits_zero(self, capsys):
        assert main(["lint", DEAD]) == 0
        out = capsys.readouterr().out
        assert "SDG305" in out

    def test_clean_target_exits_zero(self, capsys):
        assert main(["lint", CLEAN]) == 0
        assert "clean" in capsys.readouterr().out

    def test_all_bundled_apps_clean(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "7 target(s), 0 error(s), 0 warning(s)" in out

    def test_no_targets_is_an_error(self, capsys):
        assert main(["lint"]) == 1
        assert "nothing to lint" in capsys.readouterr().err

    def test_unlintable_class_reports_cleanly(self, capsys):
        assert main(["lint", "repro.state:Vector"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTargets:
    def test_bundled_app_by_name(self, capsys):
        assert main(["lint", "cf"]) == 0
        out = capsys.readouterr().out
        assert "CollaborativeFiltering" in out

    def test_multiple_targets_aggregate(self, capsys):
        assert main(["lint", "cf", RACE]) == 1
        out = capsys.readouterr().out
        assert "2 target(s)" in out and "SDG301" in out


class TestFormats:
    def test_json_format(self, capsys):
        assert main(["lint", RACE, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["targets"] == 1
        assert payload["summary"]["errors"] >= 1
        [report] = payload["reports"]
        codes = {d["code"] for d in report["diagnostics"]}
        assert codes == {"SDG301"}
        [diag] = report["diagnostics"]
        assert diag["file"].endswith("partial_race.py")
        assert isinstance(diag["line"], int)
        assert diag["hint"]

    def test_output_file_written_alongside_text(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["lint", DEAD, "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"report written to {path}" in out
        payload = json.loads(path.read_text())
        assert payload["summary"]["warnings"] >= 1


class TestSubprocess:
    def test_lint_all_via_python_dash_m(self):
        completed = run_cli("lint", "--all")
        assert completed.returncode == 0
        assert "0 error(s)" in completed.stdout

    def test_lint_fixture_exit_code(self):
        completed = run_cli("lint", RACE)
        assert completed.returncode == 1
        assert "SDG301" in completed.stdout


SWAP = "tests.analysis.fixtures.operand_swap_merge:OperandSwapMerge"


class TestCapabilities:
    def test_certified_app_lists_its_grants(self, capsys):
        assert main(["lint", "cf", "--capabilities"]) == 0
        out = capsys.readouterr().out
        assert "capabilities for cf:" in out
        assert "flags: SUBSTRATE_SAFE" in out
        assert "merges:" not in out
        assert "refused (baseline path):" in out

    def test_uncertified_app_keeps_only_substrate_and_the_reason(
            self, capsys):
        assert main(["lint", "kvstore", "--capabilities"]) == 0
        out = capsys.readouterr().out
        assert "flags: SUBSTRATE_SAFE" in out
        assert "non-commutative writes" in out

    def test_edges_render_as_arrows(self, capsys):
        assert main(["lint", "wordcount", "--capabilities"]) == 0
        out = capsys.readouterr().out
        assert "coalescible edges: split -> count" in out

    def test_fixture_target_is_refused_with_its_merge(self, capsys):
        # An order-sensitive merge is the lint pass's business (the
        # SDG302 warning names it); the certificate says nothing about
        # merges either way.
        main(["lint", SWAP, "--capabilities"])
        out = capsys.readouterr().out
        report, _, certificate = out.partition(f"capabilities for {SWAP}:")
        assert "SDG302" in report and "alternating" in report
        assert certificate and "alternating" not in certificate

    def test_json_payload_carries_certificates(self, capsys):
        assert main(["lint", "wordcount", "--capabilities",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        [cert] = payload["capabilities"]
        assert cert["target"] == "wordcount"
        assert cert["flags"] == ["COALESCIBLE_DISPATCH", "SUBSTRATE_SAFE"]
        assert cert["coalescible_edges"] == [["split", "count"]]
        assert cert["coalescible_entries"] == ["query", "split"]

    def test_json_payload_omits_certificates_by_default(self, capsys):
        assert main(["lint", "wordcount", "--format", "json"]) == 0
        assert "capabilities" not in json.loads(capsys.readouterr().out)

    def test_all_bundled_targets_certify(self, capsys):
        assert main(["lint", "--all", "--capabilities"]) == 0
        out = capsys.readouterr().out
        assert out.count("capabilities for ") == 7
