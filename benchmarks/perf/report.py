"""The full set of runs, its results file, and ``--compare``.

``run_set`` runs every workload ``--repeats`` times, each repeat in a
fresh subprocess of ``run.py`` with ``PYTHONHASHSEED=0`` (repeats inside
one process drift as the heap ages), interleaved round-robin across
workloads so a slow spell on a shared host does not land on one row.
An end-to-end value is the median of the repeats, reported with its
quartiles and sample count; ``--traced`` adds one traced run per
workload, which alone feeds the per-layer table and the trace files.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Workload pairs that see identical inputs and must end in identical
#: state (the optimizer's contract).
SAME_STATE = (("kv-wide-inproc", "kv-wide-opt-inproc"),)

#: Sizes of ``--smoke``: one episode per run at a twentieth of the size.
SMOKE_SCALE = 0.05


def environment(args, seconds: float, scale: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    load = os.getloadavg()
    return {
        "git_commit": commit, "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_before": load,
        "PYTHONHASHSEED": "0", "seed": args.seed, "repeats": args.repeats,
        "seconds": seconds, "scale": scale,
        # Another tenant already keeps the cores busy: treat the set's
        # wall-clock numbers with suspicion.
        "noisy": load[0] > (os.cpu_count() or 1),
    }


def child(workload: str, args, seconds: float, scale: float, trace: int,
          scratch: str, trace_out: Path | None = None) -> dict:
    """One run in a fresh interpreter; returns its full record."""
    out = os.path.join(scratch, "record.json")
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--scale", str(scale), "--trace", str(trace), "--out", out]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONHASHSEED": "0"})
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(values: list[float], unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def run_set(spec: dict, args) -> int:
    """Every workload, ``--repeats`` times; write and print the results."""
    if args.smoke:
        args.repeats, args.traced = 1, True
        seconds, scale = 0.0, SMOKE_SCALE
    else:
        seconds = 3.0 if args.seconds is None else args.seconds
        scale = args.scale
    names = [w["name"] for w in spec["workloads"]]
    env = environment(args, seconds, scale)
    RESULTS.mkdir(exist_ok=True)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        for repeat in range(args.repeats):
            for name in names:
                print(f"repeat {repeat + 1}/{args.repeats}: {name}",
                      file=sys.stderr)
                runs[name].append(child(name, args, seconds, scale, 0,
                                        scratch))
        if args.traced:
            for name in names:
                print(f"traced: {name}", file=sys.stderr)
                traced[name] = child(name, args, seconds, scale, 1, scratch,
                                     RESULTS / f"trace-{name}.json")
    env["loadavg_after"] = os.getloadavg()

    workloads = {}
    for name in names:
        records = runs[name] + ([traced[name]] if name in traced else [])
        episodes = [e for r in records for e in r["episodes"]]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        row = {
            "end_to_end": {
                m["name"]: summarise(
                    [r["metrics"][m["name"]]["value"] for r in runs[name]],
                    m["unit"])
                for m in spec["end_to_end"]},
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "fingerprint": episodes[0]["fingerprint"],
            "fingerprints_repeat": len({e["fingerprint"]
                                        for e in episodes}) == 1,
            "counters": episodes[0]["counters"],
            "counters_repeat": all(e["counters"] == episodes[0]["counters"]
                                   for e in episodes),
            "episodes_per_repeat": [len(r["episodes"]) for r in runs[name]],
            "latency_samples_per_repeat": [r["latency_samples"]
                                           for r in runs[name]],
        }
        if name in traced:
            record = traced[name]
            row["per_layer"] = record["metrics"]
            row["trace_check"] = [
                {"wall_s": e["wall_s"], "self_sum_s": e["self_sum_s"]}
                for e in record["episodes"] if e["traced"]]
        workloads[name] = row
    same_state = {
        f"{a}=={b}": workloads[a]["fingerprint"] == workloads[b]["fingerprint"]
        for a, b in SAME_STATE}
    results = {"environment": env, "workloads": workloads,
               "same_state": same_state}
    path = Path(args.results) if args.results else RESULTS / "latest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print_results(results)
    print(f"results written to {path}")
    healthy = (all(same_state.values()) and all(
        row["failed"] == 0 and row["fingerprints_repeat"]
        and row["counters_repeat"] for row in workloads.values()))
    return 0 if healthy else 1


def print_results(results: dict) -> None:
    env = results["environment"]
    print(f"commit {env['git_commit'][:12]}  python {env['python']}  "
          f"nproc {env['nproc']}  load {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}  seed {env['seed']}  "
          f"{env['repeats']} repeats x {env['seconds']} s"
          + ("  NOISY" if env["noisy"] else ""))
    for name, row in results["workloads"].items():
        print(f"\n{name}: failed_ratio {row['failed_ratio']:.3g} "
              f"({row['failed']}/{row['attempted']}), "
              f"fingerprint {row['fingerprint']:#x}"
              f"{'' if row['fingerprints_repeat'] else ' DIFFERS'}, "
              f"counters {'repeat' if row['counters_repeat'] else 'DIFFER'}")
        for metric, s in row["end_to_end"].items():
            print(f"  {metric:<34} {s['median']:>14.6g} {s['unit']:<6} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        for metric, m in row.get("per_layer", {}).items():
            print(f"    {metric:<32} {m['value']:>14.6g} {m['unit']}")
    for pair, equal in results["same_state"].items():
        print(f"\nsame final state {pair}: {equal}")


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Row by row: medians, quartiles, ratio, verdict. 1 if B regressed."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    print(f"A = {path_a}\nB = {path_b}\nratio = B median / A median; "
          f"worse = change of B against A in the metric's bad direction")
    regressed = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a:
            sa = a[workload]["end_to_end"][name]
            sb = b[workload]["end_to_end"][name]
            ratio = sb["median"] / sa["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max((s["q3"] - s["q1"]) / s["median"]
                         for s in (sa, sb))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{name:<20} {workload:<20} "
                  f"A {sa['median']:>11.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]  "
                  f"B {sb['median']:>11.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                  f"ratio {ratio:.3f} (base {sa['median']:.5g} "
                  f"{sa['unit']})  worse {worse:+.1%} / bound {bound:.0%}  "
                  f"spread {spread:.1%}  {verdict}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0
