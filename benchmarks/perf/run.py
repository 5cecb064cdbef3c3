"""The one benchmark command of the SDG runtime.

Run from the repository root::

    python3 benchmarks/perf/run.py                     # every workload, 5 repeats
    python3 benchmarks/perf/run.py --traced            # ... plus one traced run each
    python3 benchmarks/perf/run.py --smoke             # tiny sizes, for CI
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload kv-inproc --seed 11 \\
        --seconds 12 --trace 0                         # one run (BENCHMARK.json)

A single run (``--workload``) checks the program's outputs against the
workload's oracle, prints every metric by name with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
holding exactly the metrics ``BENCHMARK.json`` declares for that mode.
Without ``--workload`` the script runs every workload in fresh
subprocesses of itself and writes one results file (``report.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec: dict, args: argparse.Namespace) -> int:
    """One run of one workload in this process (the driver's contract)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed hash seed keeps dict and set layouts, and so their
        # cost, the same from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {src / 'repro'} is "
                 f"missing (run from a full checkout)")
    sys.path.insert(0, str(src))
    import harness
    from workload_defs import WORKLOADS

    workload = WORKLOADS[args.workload]
    record = harness.run_workload(workload, args.seed, args.seconds,
                                  args.scale, bool(args.trace))
    if args.trace:
        values = harness.per_layer(record, workload.workers)
        declared = spec["per_layer"]
    else:
        values = harness.end_to_end(record)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    episodes = record["episodes"]
    # The warm-up episode is not measured, but it is checked.
    checked = [record["warmup"], *episodes]
    invariants = {
        "fingerprints_repeat": len({e["fingerprint"]
                                    for e in checked}) == 1,
        "counters_repeat": all(e["counters"] == checked[0]["counters"]
                               for e in checked),
        "matches_inprocess": record["reference_fingerprint"] in (
            None, checked[0]["fingerprint"]),
    }
    attempted = sum(e["attempted"] for e in checked)
    failed = (sum(e["failed"] for e in checked)
              + sum(1 for held in invariants.values() if not held))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    if args.trace_out:
        trace = next(e.pop("trace") for e in episodes if "trace" in e)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       **trace}, fh)
    if args.out:
        latency_samples = sum(len(e["latencies"]) for e in episodes
                              if not e["traced"])
        for episode in checked:
            # Raw samples stay out of the results file; the medians and
            # per-episode values above them are kept.
            for bulky in ("latencies", "layers", "trace", "loadgen"):
                episode.pop(bulky, None)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**record, **result, "invariants": invariants,
                       "latency_samples": latency_samples}, fh)

    print(f"{workload.name}: seed {args.seed}, {len(episodes)} episodes "
          f"in {record['measured_s']:.1f} s, {attempted} attempted, "
          f"{failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long (default: one run "
                             "takes run_seconds of BENCHMARK.json, a "
                             "repeat of the full set 3 s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced episodes, report the "
                             "per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size")
    parser.add_argument("--out", help="write the run's full record here")
    parser.add_argument("--trace-out", help="write the span trace here")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--traced", action="store_true",
                        help="full set: add one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="full set at 1/20 size, one episode each")
    parser.add_argument("--results", help="full set: results file "
                        "(default benchmarks/perf/results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results files; exit 1 if B "
                             "regressed against A")
    args = parser.parse_args()
    spec = load_spec()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return run_once(spec, args)
    import report
    if args.compare:
        return report.compare(spec, *args.compare)
    return report.run_set(spec, args)


if __name__ == "__main__":
    sys.exit(main())
