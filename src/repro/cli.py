"""Command-line interface: the ``py2sdg`` tool.

The paper ships ``java2sdg`` as a standalone translator; this module is
its Python counterpart, invoked as ``python -m repro``:

* ``translate <module>:<Class>`` — run the Fig. 3 pipeline over an
  annotated program class and print the resulting SDG (task elements
  with their state-access edges, and the dataflows with dispatch
  semantics). ``--dot`` emits Graphviz instead.
* ``allocate <module>:<Class>`` — additionally run the four-step
  allocation algorithm (§3.3) and print the node placement.
* ``lint <module>:<Class> | <app-name> | --all`` — run the ``sdglint``
  multi-pass static analyzer and report every finding (state races,
  checkpoint safety, key consistency, dead payloads, plus all the
  restriction/validation invariants) as structured diagnostics;
  ``--format json`` for machine-readable reports, ``--output`` to
  write a JSON report file. Exit status 1 when any error-severity
  diagnostic is found.
* ``table1`` — render the design-space classification of Table 1.
* ``obs`` — run an instrumented benchmark workload (checkpoints,
  failure detection, supervised recovery, optional fault injection)
  and dump the observability report: metrics, events, traces.
* ``top`` — run a demo workload and render the live telemetry
  dashboard (merged metrics, wire counters, wall-clock profile,
  flight-recorder tail) once after the drain, or repeatedly while the
  workload drains with ``--watch``. Works on both substrates.
* ``run`` — execute a workload. Plain runs pick an execution substrate
  (``--substrate inprocess`` or ``--substrate multiprocess --workers
  N``) and print wall time, throughput and the final state hash. With
  ``--durable DIR`` the run is epoch-driven and durable instead: every
  epoch is fenced into ``DIR/manifest.json`` together with checkpoint
  chains and the exported event log, so the process can be killed at
  any instant and picked up again (durable runs pin the in-process
  substrate — deterministic replay is its contract).
* ``resume DIR`` — resume a durable run after a crash (or continue a
  clean exit), via fast checkpoint restore or deterministic replay.
* ``fork SRC DEST --epoch K`` — clone a run directory at committed
  epoch K by hardlinking its checkpoint files.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.core.allocation import allocate
from repro.core.validation import route_key_names
from repro.errors import SDGError
from repro.translate import translate


def _load_class(spec: str) -> type:
    """Resolve ``package.module:ClassName`` to the class object."""
    if ":" not in spec:
        raise SDGError(
            f"expected <module>:<Class>, got {spec!r} "
            f"(e.g. repro.apps:CollaborativeFiltering)"
        )
    module_name, _, class_name = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SDGError(f"cannot import module {module_name!r}: {exc}")
    try:
        return getattr(module, class_name)
    except AttributeError:
        raise SDGError(
            f"module {module_name!r} has no class {class_name!r}"
        )


def _lint_reports(args) -> list:
    """Resolve the lint targets and run the analyzer over each."""
    from repro.analysis import run
    from repro.analysis.engine import bundled_targets

    substrate_safety = getattr(args, "substrate_safety", False)
    bundled = bundled_targets(substrate_safety=substrate_safety)
    if args.all:
        return [load() for load in bundled.values()]
    reports = []
    for spec in args.targets:
        if spec in bundled:
            reports.append(bundled[spec]())
        else:
            try:
                reports.append(run(_load_class(spec), name=spec,
                                   substrate_safety=substrate_safety))
            except TypeError as exc:
                raise SDGError(str(exc))
    return reports


def _capability_reports(args) -> list[dict]:
    """Certify each lint target; the optimizer's view of the program."""
    from repro.analysis.capabilities import certify
    from repro.analysis.engine import bundled_objects

    bundled = bundled_objects()
    certs = []
    if args.all:
        for name, load in bundled.items():
            target, _origin = load()
            certs.append(certify(target, name=name).to_dict())
        return certs
    for spec in args.targets:
        if spec in bundled:
            target, _origin = bundled[spec]()
            certs.append(certify(target, name=spec).to_dict())
        else:
            certs.append(certify(_load_class(spec), name=spec).to_dict())
    return certs


def _render_capabilities(cert: dict) -> str:
    lines = [f"capabilities for {cert['target']}:"]
    flags = ", ".join(cert["flags"]) if cert["flags"] else "(none)"
    lines.append(f"  flags: {flags}")
    rows = [
        ("coalescible entries", cert["coalescible_entries"]),
        ("coalescible edges",
         [f"{src} -> {dst}" for src, dst in cert["coalescible_edges"]]),
    ]
    for label, values in rows:
        if values:
            lines.append(f"  {label}: {', '.join(values)}")
    if cert["refusals"]:
        lines.append("  refused (baseline path):")
        for refusal in cert["refusals"]:
            lines.append(f"    - {refusal}")
    return "\n".join(lines)


def _run_lint(args) -> int:
    reports = _lint_reports(args)
    if not reports:
        raise SDGError(
            "nothing to lint: pass <module>:<Class>, a bundled app "
            "name, or --all"
        )
    payload = {
        "reports": [r.to_dict() for r in reports],
        "summary": {
            "targets": len(reports),
            "errors": sum(len(r.errors) for r in reports),
            "warnings": sum(len(r.warnings) for r in reports),
        },
    }
    if args.capabilities:
        payload["capabilities"] = _capability_reports(args)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render_text())
        for cert in payload.get("capabilities", ()):
            print(_render_capabilities(cert))
            print()
        total_errors = payload["summary"]["errors"]
        total_warnings = payload["summary"]["warnings"]
        print(f"sdglint: {len(reports)} target(s), "
              f"{total_errors} error(s), {total_warnings} warning(s)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        if args.format != "json":
            print(f"report written to {args.output}")
    if payload["summary"]["errors"]:
        return 1
    if (getattr(args, "fail_on", "error") == "warning"
            and payload["summary"]["warnings"]):
        return 1
    return 0


def _describe(result) -> str:
    sdg = result.sdg
    lines = [f"SDG {sdg.name!r}: {len(sdg.tasks)} task elements, "
             f"{len(sdg.states)} state elements, "
             f"{len(sdg.dataflows)} dataflows", ""]
    lines.append("state elements:")
    for se in sdg.states.values():
        names = route_key_names(sdg, se.name)
        key = f" by {'/'.join(names)!r}" if names else ""
        lines.append(f"  {se.name}  ({se.kind.value}{key})")
    lines.append("")
    lines.append("task elements:")
    for te in sdg.tasks.values():
        flags = []
        if te.is_entry:
            flags.append("entry")
        if te.is_merge:
            flags.append("merge")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        access = (f"  --{te.access.value}--> {te.state}"
                  if te.state else "")
        lines.append(f"  {te.name}{access}{suffix}")
    lines.append("")
    lines.append("dataflows:")
    for edge in sdg.dataflows:
        key = f" key={edge.key_name}" if edge.key_name else ""
        lines.append(
            f"  {edge.src} -> {edge.dst}  [{edge.dispatch.value}{key}]"
        )
    lines.append("")
    lines.append("entry methods:")
    for info in result.entries.values():
        lines.append(
            f"  {info.method}({', '.join(info.params)})  "
            f"pipeline: {' -> '.join(info.te_names)}"
        )
    return "\n".join(lines)


def _describe_allocation(result) -> str:
    allocation = allocate(result.sdg)
    lines = ["", f"allocation ({allocation.n_nodes} nodes, "
                 f"four-step algorithm of §3.3):"]
    for node in sorted(allocation.nodes):
        members = sorted(allocation.nodes[node])
        lines.append(f"  node {node}: {', '.join(members)}")
    return "\n".join(lines)


def _durable_spec(args) -> "RunSpec":
    from repro.durability import RunSpec

    return RunSpec(
        app=args.app,
        seed=args.seed,
        epochs=args.epochs,
        items_per_epoch=args.items_per_epoch,
        n_keys=args.n_keys,
        read_fraction=args.read_fraction,
        se_instances=args.se_instances,
        full_every=args.full_every,
        throttle=args.throttle,
    )


def _durable_plan(args, spec):
    """Build the kills-only chaos plan for ``run --chaos-seed``."""
    if args.chaos_seed is None:
        return None
    from repro.chaos import random_plan
    from repro.durability import DurableWorkload

    workload = DurableWorkload(spec)
    horizon = max(200, spec.epochs * spec.items_per_epoch)
    n_kills = min(3, spec.epochs)
    return random_plan(
        args.chaos_seed,
        horizon=horizon,
        se=workload.se_name,
        entry_te=workload.entry_te,
        n_kills=n_kills,
        n_crashes=0,
        n_duplicates=0,
        n_slow=0,
        n_scale_ups=0,
        min_gap=horizon // (n_kills + 2),
    )


def _plain_run(args) -> int:
    """A plain (non-durable) run on the configured substrate."""
    import time

    from repro.durability.manifest import state_fingerprint
    from repro.obs.top import build_workload
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.engine import Runtime

    sdg, se_name, entry, payloads = build_workload(
        args.app, args.items, n_keys=max(1, args.n_keys))
    config = RuntimeConfig(
        se_instances={se_name: args.se_instances},
        substrate=args.substrate,
        workers=args.workers,
        optimize=args.optimize,
    )
    runtime = Runtime(sdg, config).deploy()
    try:
        start = time.perf_counter()
        for payload in payloads:
            runtime.inject(entry, payload)
        runtime.run_until_idle()
        wall = time.perf_counter() - start
        # Logical items, not steps: a step on a certified channel
        # serves a run of items, so the step count under-reports.
        processed = int(
            runtime.merged_metrics().total("engine_items_processed_total")
        )
        fingerprint = state_fingerprint(runtime)
    finally:
        runtime.close()
    workers = ""
    if args.substrate == "multiprocess":
        workers = f" workers={args.workers if args.workers else 2}"
    throughput = args.items / wall if wall > 0 else float("inf")
    print(f"run complete: app={args.app} substrate={args.substrate}"
          f"{workers} items={args.items} processed={processed} "
          f"wall={wall:.3f}s throughput={throughput:.0f} items/s "
          f"state_hash={fingerprint}")
    return 0


def _drive_durable(runner) -> int:
    """Run the epoch loop with per-epoch progress lines."""
    def on_epoch(record):
        print(f"epoch {record.epoch}: position={record.position} "
              f"state_hash={record.state_hash} "
              f"events_offset={record.events_offset}")

    manifest = runner.run(on_epoch=on_epoch)
    print(f"run {manifest.run_id!r} complete: "
          f"{manifest.committed_epoch} epochs committed, "
          f"final state hash {manifest.latest.state_hash}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="py2sdg: translate annotated imperative programs "
                    "to stateful dataflow graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_translate = sub.add_parser(
        "translate", help="translate a program class to an SDG"
    )
    p_translate.add_argument("spec", help="<module>:<Class>")
    p_translate.add_argument("--dot", action="store_true",
                             help="emit Graphviz dot instead of text")

    p_allocate = sub.add_parser(
        "allocate", help="translate and show the node allocation"
    )
    p_allocate.add_argument("spec", help="<module>:<Class>")

    p_lint = sub.add_parser(
        "lint", help="run the sdglint static analyzer and report all "
                     "diagnostics"
    )
    p_lint.add_argument(
        "targets", nargs="*",
        help="<module>:<Class> specs or bundled app names "
             "(cf, kvstore, lr, kmeans, multiclass, wordcount, "
             "pagerank)",
    )
    p_lint.add_argument("--all", action="store_true",
                        help="lint every bundled application")
    p_lint.add_argument("--capabilities", action="store_true",
                        help="also run the capability certifier and "
                             "report the certificates (coalescible "
                             "dispatch, substrate safety) per target")
    p_lint.add_argument("--substrate-safety", action="store_true",
                        dest="substrate_safety",
                        help="also run the SDG4xx fork-hazard passes "
                             "(unpicklable payloads, cross-process "
                             "nondeterminism, shared mutable globals) "
                             "— the same checks the multiprocess "
                             "deploy gate enforces")
    p_lint.add_argument("--fail-on", choices=["error", "warning"],
                        dest="fail_on", default="error",
                        help="severity threshold for a non-zero exit "
                             "code (default: error)")
    p_lint.add_argument("--format", choices=["text", "json"],
                        default="text", help="report format on stdout")
    p_lint.add_argument("--output", metavar="PATH",
                        help="also write the JSON report to PATH")

    sub.add_parser("table1", help="print the Table 1 design space")

    p_obs = sub.add_parser(
        "obs", help="run an instrumented workload and dump "
                    "metrics, events and traces"
    )
    p_obs.add_argument("--app", choices=["wordcount", "kvstore"],
                       default="wordcount", help="workload to run")
    p_obs.add_argument("--items", type=int, default=120,
                       help="workload items to inject")
    p_obs.add_argument("--no-trace", action="store_true",
                       help="disable per-envelope causal tracing")
    p_obs.add_argument("--no-chaos", action="store_true",
                       help="skip the mid-run KillNode fault")
    p_obs.add_argument("--optimize", action="store_true",
                       help="deploy with capability-driven dispatch "
                            "(certified coalescing/folds/RMW batching)")
    p_obs.add_argument("--events", metavar="PATH",
                       help="also write the event bus as JSON lines")

    p_top = sub.add_parser(
        "top", help="run a demo workload and render the telemetry "
                    "dashboard (metrics, wire, profile, flight tail)"
    )
    p_top.add_argument("--app", choices=["kvstore", "wordcount"],
                       default="kvstore", help="workload to run")
    p_top.add_argument("--items", type=int, default=200,
                       help="workload items to inject")
    p_top.add_argument("--substrate",
                       choices=["inprocess", "multiprocess"],
                       default="inprocess",
                       help="execution substrate to dashboard")
    p_top.add_argument("--workers", type=int, default=None,
                       help="worker processes for "
                            "--substrate multiprocess (default 2)")
    mode = p_top.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true",
                      help="render one frame after the drain (default)")
    mode.add_argument("--watch", action="store_true",
                      help="render frames while the workload drains")
    p_top.add_argument("--frames", type=int, default=5,
                       help="frames to render in --watch mode")
    p_top.add_argument("--interval", type=float, default=0.2,
                       help="seconds between --watch frames")

    p_run = sub.add_parser(
        "run", help="execute a workload (plain, or durable with "
                    "--durable DIR)"
    )
    p_run.add_argument("--durable", metavar="DIR", default=None,
                       help="make the run durable and epoch-driven in "
                            "DIR (manifest, checkpoints, event log); "
                            "pins the in-process substrate")
    p_run.add_argument("--substrate",
                       choices=["inprocess", "multiprocess"],
                       default="inprocess",
                       help="execution substrate for a plain run")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes for "
                            "--substrate multiprocess (default 2)")
    p_run.add_argument("--optimize", action="store_true",
                       help="plain runs only: deploy with "
                            "capability-driven dispatch")
    p_run.add_argument("--items", type=int, default=400,
                       help="items to inject in a plain run")
    p_run.add_argument("--app", choices=["kvstore", "wordcount"],
                       default="kvstore", help="workload to run")
    p_run.add_argument("--epochs", type=int, default=5,
                       help="epochs to commit")
    p_run.add_argument("--items-per-epoch", type=int, default=100,
                       help="workload items injected per epoch")
    p_run.add_argument("--seed", type=int, default=11,
                       help="workload seed")
    p_run.add_argument("--n-keys", type=int, default=120,
                       help="KV key space size")
    p_run.add_argument("--read-fraction", type=float, default=0.0,
                       help="KV read fraction")
    p_run.add_argument("--se-instances", type=int, default=2,
                       help="partitions of the app's state element")
    p_run.add_argument("--full-every", type=int, default=4,
                       help="full-checkpoint cadence (0 = deltas "
                            "forever)")
    p_run.add_argument("--chaos-seed", type=int, default=None,
                       help="arm a reproducible kills-only fault plan")
    p_run.add_argument("--throttle", type=float, default=0.0,
                       help="seconds to hold each epoch open before "
                            "the commit (soak-test knob)")

    p_resume = sub.add_parser(
        "resume", help="resume a durable run from its manifest"
    )
    p_resume.add_argument("dir", metavar="DIR",
                          help="durable run directory")

    p_fork = sub.add_parser(
        "fork", help="clone a durable run at a committed epoch "
                     "(hardlinked checkpoints)"
    )
    p_fork.add_argument("src", metavar="SRC",
                        help="source run directory")
    p_fork.add_argument("dest", metavar="DEST",
                        help="new run directory to create")
    p_fork.add_argument("--epoch", type=int, required=True,
                        help="committed epoch to fork at")

    args = parser.parse_args(argv)
    try:
        if args.command == "table1":
            from repro.designspace import render_table

            print(render_table())
        elif args.command == "translate":
            result = translate(_load_class(args.spec))
            print(result.sdg.to_dot() if args.dot
                  else _describe(result))
        elif args.command == "allocate":
            result = translate(_load_class(args.spec))
            print(_describe(result))
            print(_describe_allocation(result))
        elif args.command == "lint":
            return _run_lint(args)
        elif args.command == "obs":
            from repro.obs.runner import render_report, run_workload

            run = run_workload(args.app, args.items,
                               trace=not args.no_trace,
                               chaos=not args.no_chaos,
                               optimize=args.optimize)
            print(render_report(run))
            if args.events:
                with open(args.events, "w", encoding="utf-8") as fh:
                    fh.write(run.runtime.events.to_jsonl())
                print(f"\nevents written to {args.events}")
        elif args.command == "top":
            from repro.obs.top import run_top

            return run_top(
                app=args.app, items=args.items,
                substrate=args.substrate, workers=args.workers,
                watch=args.watch, frames=args.frames,
                interval=args.interval,
            )
        elif args.command == "run":
            if args.durable is None:
                return _plain_run(args)
            if args.substrate != "inprocess" or args.workers is not None:
                raise SDGError(
                    "durable runs pin the in-process substrate "
                    "(deterministic replay is its contract); drop "
                    "--substrate/--workers or drop --durable"
                )
            if args.optimize:
                raise SDGError(
                    "durable runs replay deterministically from their "
                    "manifest; --optimize applies to plain runs only"
                )
            from repro.durability import DurableRunner

            spec = _durable_spec(args)
            plan = _durable_plan(args, spec)
            runner = DurableRunner.start(args.durable, spec, plan=plan)
            print(f"starting durable run in {args.durable} "
                  f"(app={spec.app}, epochs={spec.epochs}, "
                  f"chaos={'on' if plan else 'off'})")
            return _drive_durable(runner)
        elif args.command == "resume":
            from repro.durability import DurableRunner

            runner = DurableRunner.resume(args.dir)
            print(f"resumed {args.dir} via {runner.resume_mode} "
                  f"(committed epoch "
                  f"{runner.manifest.committed_epoch})")
            return _drive_durable(runner)
        elif args.command == "fork":
            from repro.durability import fork_run

            child = fork_run(args.src, args.dest, args.epoch)
            print(f"forked {args.src} at epoch {args.epoch} into "
                  f"{args.dest} (run id {child.run_id!r}); resume it "
                  f"with: repro resume {args.dest}")
    except SDGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
