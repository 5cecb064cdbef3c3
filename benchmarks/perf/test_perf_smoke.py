"""Smoke test of the benchmark itself (no wall-clock thresholds).

Collected by CI's ``pytest benchmarks`` job, outside tier-1
``testpaths``. Runs the full set once at 1/20 size through the real
command and checks the contract of ``BENCHMARK.json``: every declared
workload and metric is emitted with its unit, the oracles pass, and the
traced self times add up to the traced wall time.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Hang guard for the subprocesses, not a performance threshold.
TIMEOUT = 600

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    results = tmp_path_factory.mktemp("perf") / "smoke.json"
    subprocess.run([*RUN, "--smoke", "--results", str(results)],
                   check=True, cwd=ROOT, timeout=TIMEOUT)
    with open(results, encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    assert list(smoke["workloads"]) == [w["name"]
                                        for w in SPEC["workloads"]]
    for row in smoke["workloads"].values():
        assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                == {k: v["unit"] for k, v in row["end_to_end"].items()})
        assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
                == {k: v["unit"] for k, v in row["per_layer"].items()})
        for summary in row["end_to_end"].values():
            assert summary["median"] > 0
        for metric in row["per_layer"].values():
            assert isinstance(metric["value"], (int, float))


def test_oracles_pass_and_runs_repeat(smoke):
    for name, row in smoke["workloads"].items():
        assert row["attempted"] >= 1, name
        assert row["failed"] == 0, name
        assert row["fingerprints_repeat"], name
        assert row["counters_repeat"], name
    assert smoke["same_state"] and all(smoke["same_state"].values())


def test_traced_self_times_sum_to_the_traced_wall(smoke):
    for name, row in smoke["workloads"].items():
        assert row["trace_check"], name
        for check in row["trace_check"]:
            assert check["self_sum_s"] == pytest.approx(check["wall_s"],
                                                        rel=0.02), name


def test_one_trace_file_per_workload(smoke):
    for name in smoke["workloads"]:
        with open(HERE / "results" / f"trace-{name}.json",
                  encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["workload"] == name
        assert trace["spans"] and trace["chunks"]
        ids = {span["id"] for span in trace["spans"]}
        for span in trace["spans"]:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in ids
            assert span["scope"].startswith(("serve#", "open#"))


def test_single_run_prints_the_contract_line():
    done = subprocess.run(
        [*RUN, "--workload", "kv-inproc", "--seed", "3", "--seconds", "0",
         "--scale", "0.05", "--trace", "0"],
        check=True, cwd=ROOT, capture_output=True, text=True,
        timeout=TIMEOUT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "kv-inproc", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT)
    assert done.returncode != 0
    assert done.stdout == ""
