"""Tests for the py2sdg command-line tool."""

import json
import re
import subprocess
import sys

from repro.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
    )


class TestTranslateCommand:
    def test_translate_cf(self, capsys):
        assert main(["translate",
                     "repro.apps:CollaborativeFiltering"]) == 0
        out = capsys.readouterr().out
        assert "5 task elements" in out
        assert "user_item" in out and "co_occ" in out
        assert "one_to_all" in out and "all_to_one" in out
        assert "add_rating(user, item, rating)" in out

    def test_translate_dot(self, capsys):
        assert main(["translate", "repro.apps:KeyValueStore",
                     "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"table"' in out

    def test_allocate(self, capsys):
        assert main(["allocate",
                     "repro.apps:CollaborativeFiltering"]) == 0
        out = capsys.readouterr().out
        assert "allocation (3 nodes" in out
        assert "node 0:" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SDG" in out and "Piccolo" in out


class TestObsCommand:
    def test_obs_wordcount_report(self, capsys):
        assert main(["obs", "--app", "wordcount", "--items", "60"]) == 0
        out = capsys.readouterr().out
        # >= 12 distinct metric series spanning every layer.
        names = {line.split()[2] for line in out.splitlines()
                 if line.startswith("# TYPE ")}
        assert len(names) >= 12
        for prefix in ("engine_", "transport_", "state_",
                       "recovery_", "chaos_"):
            assert any(n.startswith(prefix) for n in names), prefix
        # The mid-run kill was detected, recovered and traced.
        assert "fault-injected: 1" in out
        assert "recovered at step" in out
        assert "queue wait (logical steps):" in out
        assert "wait=" in out  # per-hop queue-wait breakdowns

    def test_obs_no_trace_no_chaos(self, capsys):
        assert main(["obs", "--app", "kvstore", "--items", "20",
                     "--no-trace", "--no-chaos"]) == 0
        out = capsys.readouterr().out
        assert "tracing disabled" in out
        assert "fault-injected" not in out

    def test_obs_events_export(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["obs", "--app", "wordcount", "--items", "30",
                     "--events", str(path)]) == 0
        import json

        lines = path.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "checkpoint-commit" in kinds
        assert "restore" in kinds


class TestErrors:
    def test_bad_spec_format(self, capsys):
        assert main(["translate", "no-colon"]) == 1
        assert "expected <module>:<Class>" in capsys.readouterr().err

    def test_unknown_module(self, capsys):
        assert main(["translate", "nope.nope:X"]) == 1
        assert "cannot import" in capsys.readouterr().err

    def test_unknown_class(self, capsys):
        assert main(["translate", "repro.apps:Missing"]) == 1
        assert "no class" in capsys.readouterr().err

    def test_untranslatable_class(self, capsys):
        # A class without annotations fails with a TranslationError.
        assert main(["translate", "repro.state:Vector"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSubprocessEntryPoint:
    def test_python_dash_m_repro(self):
        completed = run_cli("translate", "repro.apps:KMeans")
        assert completed.returncode == 0
        assert "accumulators" in completed.stdout

    def test_exit_code_on_error(self):
        completed = run_cli("translate", "garbage")
        assert completed.returncode == 1


class TestDurableCommands:
    def test_run_resume_fork_round_trip(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        fork_dir = str(tmp_path / "fork")
        assert main(["run", "--durable", run_dir, "--epochs", "3",
                     "--items-per-epoch", "30",
                     "--chaos-seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "chaos=on" in out
        assert "3 epochs committed" in out
        final = out.splitlines()[-1]

        assert main(["fork", run_dir, fork_dir, "--epoch", "2"]) == 0
        capsys.readouterr()
        assert main(["resume", fork_dir]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        # The fork converges to the same final state hash.
        assert out.splitlines()[-1].split("hash")[-1] == \
            final.split("hash")[-1]

    def test_resume_of_non_run_dir_errors(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestPlainRun:
    # Recorded from ``repro run`` before it shared ``build_workload``
    # with ``repro top``; the fingerprint does not depend on the hash
    # seed.
    STATE_HASHES = {"kvstore": "733095659398844845",
                    "wordcount": "1878844498916831584"}

    def test_run_prints_the_recorded_state_hash(self, capsys):
        for app, expected in self.STATE_HASHES.items():
            assert main(["run", "--app", app, "--items", "400"]) == 0
            out = capsys.readouterr().out
            assert out.split("state_hash=")[-1].strip() == expected, app


class TestOptimizeFlags:
    def test_run_optimize_matches_baseline_state_hash(self, capsys):
        assert main(["run", "--app", "kvstore", "--items", "80"]) == 0
        baseline = capsys.readouterr().out
        assert main(["run", "--app", "kvstore", "--items", "80",
                     "--optimize"]) == 0
        optimized = capsys.readouterr().out
        assert "processed=80" in optimized
        assert (optimized.split("state_hash=")[-1]
                == baseline.split("state_hash=")[-1])

    def test_durable_run_rejects_optimize(self, capsys, tmp_path):
        assert main(["run", "--durable", str(tmp_path / "run"),
                     "--optimize"]) == 1
        assert "plain runs only" in capsys.readouterr().err

    def test_obs_optimize_reports_the_optimizer_section(self, capsys):
        # Tracing stays on (the default): runs form with it, and every
        # item still gets its own hop.
        assert main(["obs", "--app", "kvstore", "--items", "40",
                     "--no-chaos", "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "-- optimizer --" in out
        assert "capabilities: COALESCIBLE_DISPATCH" in out
        coalesced = int(next(
            line.split(":")[1] for line in out.splitlines()
            if line.strip().startswith("dispatch_coalesced_total:")))
        assert coalesced > 0
        traces, hops = re.search(r"traces: (\d+)  hops: (\d+)",
                                 out).groups()
        assert traces == hops != "0"

    def test_obs_without_optimize_reports_it_off(self, capsys):
        assert main(["obs", "--app", "kvstore", "--items", "20",
                     "--no-trace", "--no-chaos"]) == 0
        out = capsys.readouterr().out
        assert "capabilities: (none) [optimize off]" in out


class TestTopCommand:
    def test_top_once_inprocess(self, capsys):
        assert main(["top", "--once", "--app", "kvstore",
                     "--items", "40"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "items processed: 40" in out
        assert "profile (wall-clock phases)" in out
        assert "flight recorder" in out

    def test_top_once_multiprocess_shows_wire(self, capsys):
        assert main(["top", "--once", "--substrate", "multiprocess",
                     "--workers", "2", "--app", "wordcount",
                     "--items", "30"]) == 0
        out = capsys.readouterr().out
        assert "substrate=multiprocess workers=2" in out
        assert "wire: frames send=" in out
        assert "coordinator outbox depth:" in out
        # Worker phase shards merged into the coordinator's profile.
        assert "process" in out and "serialize" in out

    def test_top_watch_renders_frames(self, capsys):
        assert main(["top", "--watch", "--frames", "2",
                     "--interval", "0.05", "--items", "60"]) == 0
        out = capsys.readouterr().out
        # Two watch frames plus the final post-drain frame.
        assert out.count("repro top") == 3

    def test_top_durable_flight_dump(self, tmp_path, capsys):
        # The durable runner writes the flight ring beside the manifest.
        run_dir = str(tmp_path / "run")
        assert main(["run", "--durable", run_dir, "--epochs", "1",
                     "--items-per-epoch", "20"]) == 0
        capsys.readouterr()
        flight_path = tmp_path / "run" / "flight.json"
        assert flight_path.exists()
        dump = json.loads(flight_path.read_text())
        assert dump["total_steps"] > 0
        assert any(e["kind"] == "serve" for e in dump["entries"])
