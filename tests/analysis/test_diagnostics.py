"""Unit tests for the diagnostics engine (codes, sinks, reports)."""

import json

from repro.analysis import CODES, Diagnostic, DiagnosticSink, Report, Severity, Span


class TestCodeRegistry:
    def test_every_code_has_name_severity_and_section(self):
        for code, info in CODES.items():
            assert code.startswith("SDG")
            assert info.name
            assert isinstance(info.severity, Severity)
            assert info.summary

    def test_pass_codes_registered(self):
        for code in ("SDG101", "SDG102", "SDG301", "SDG302", "SDG303",
                     "SDG304", "SDG305"):
            assert code in CODES

    def test_validation_codes_registered(self):
        for code in ("SDG201", "SDG202", "SDG203", "SDG211", "SDG212",
                     "SDG213", "SDG221", "SDG222", "SDG231", "SDG232"):
            assert code in CODES

    def test_severity_ranks_order(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank


class TestSpan:
    def test_str_forms(self):
        assert str(Span(file="f.py", line=3, col=7)) == "f.py:3:7"
        assert str(Span(file="f.py", line=3)) == "f.py:3"
        assert str(Span(line=3)) == "<sdg>:3"


class TestSink:
    def test_emit_defaults_severity_from_registry(self):
        sink = DiagnosticSink()
        sink.emit("SDG301", "boom")
        sink.emit("SDG305", "meh")
        assert sink.diagnostics[0].severity is Severity.ERROR
        assert sink.diagnostics[1].severity is Severity.WARNING

    def test_line_base_rebases_class_relative_linenos(self):
        sink = DiagnosticSink(file="prog.py", line_base=40)
        sink.emit("SDG301", "boom", lineno=3)
        span = sink.diagnostics[0].span
        assert span.file == "prog.py"
        assert span.line == 42

    def test_unknown_code_defaults_to_error(self):
        sink = DiagnosticSink()
        diag = sink.emit("SDG999", "unregistered")
        assert diag.severity is Severity.ERROR
        assert diag.name == "SDG999"  # falls back to the raw code


class TestReport:
    def _report(self):
        sink = DiagnosticSink(file="p.py")
        sink.emit("SDG305", "w1", lineno=9)
        sink.emit("SDG301", "e1", lineno=5)
        sink.emit("SDG302", "w2", lineno=2)
        return Report(target="p", diagnostics=sink.diagnostics)

    def test_partitions_and_flags(self):
        report = self._report()
        assert len(report.errors) == 1
        assert len(report.warnings) == 2
        assert not report.ok
        assert not report.clean
        empty = Report(target="p", diagnostics=[])
        assert empty.ok and empty.clean

    def test_sorted_puts_errors_first_then_line_order(self):
        codes = [d.code for d in self._report().sorted()]
        assert codes == ["SDG301", "SDG302", "SDG305"]

    def test_by_code_and_codes(self):
        report = self._report()
        assert {d.code for d in report.by_code("SDG302")} == {"SDG302"}
        assert {d.code for d in report.diagnostics} == {"SDG301", "SDG302", "SDG305"}

    def test_render_text_mentions_every_code(self):
        text = self._report().render_text()
        for code in ("SDG301", "SDG302", "SDG305"):
            assert code in text
        assert "1 error(s)" in text

    def test_json_round_trip(self):
        payload = json.loads(self._report().to_json())
        assert payload["target"] == "p"
        assert payload["summary"] == {"errors": 1, "warnings": 2,
                                      "total": 3}
        assert len(payload["diagnostics"]) == 3
        first = payload["diagnostics"][0]
        assert {"code", "severity", "message", "file", "line"} <= set(first)
        assert first["code"] == "SDG301"  # sorted: errors first

    def test_diagnostic_render_includes_span_and_name(self):
        diag = Diagnostic(
            code="SDG301", severity=Severity.ERROR, message="boom",
            span=Span(file="p.py", line=5),
        )
        rendered = diag.render()
        assert "p.py:5" in rendered
        assert "SDG301" in rendered
        assert CODES["SDG301"].name in rendered
