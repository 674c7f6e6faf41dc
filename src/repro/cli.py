"""Command-line interface.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro compile program.hpf --strategy comb --report --listing
    python -m repro compile program.hpf --all --check
    python -m repro simulate program.hpf --machine SP2 --param n=512
    python -m repro table          # regenerate the Figure 10 count table
    python -m repro charts         # regenerate the Figure 10 time charts
    python -m repro profile        # regenerate the Figure 5 curves
"""

from __future__ import annotations

import argparse
import json
import sys

from .codegen.report import annotated_listing, schedule_report
from .core.context import CompilerOptions
from .core.pipeline import Strategy, compile_program
from .errors import Diagnostic, ReproError
from .machine.model import MACHINES
from .runtime.checker import check_schedule
from .runtime.simulator import simulate


def _parse_params(items: list[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for item in items:
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad --param {item!r}: expected NAME=INT")
        params[name.strip()] = int(value)
    return params


class _CliExit(Exception):
    """Internal: unwind to main() with an exit code (message already
    printed).  Not SystemExit, which tests expect to propagate for
    usage errors like bad --param values."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _read_source(path: str) -> str:
    """Read a source file; a missing file is a one-line diagnostic and
    exit code 2 (usage-style error), not a traceback."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        print(f"error: {path}: no such file", file=sys.stderr)
        raise _CliExit(2) from None
    except IsADirectoryError:
        print(f"error: {path}: is a directory", file=sys.stderr)
        raise _CliExit(2) from None


def _emit_diagnostics(
    diags: list[Diagnostic], filename: str, as_json: bool
) -> None:
    if as_json:
        print(json.dumps(
            {"file": filename, "diagnostics": [d.to_dict() for d in diags]},
            indent=2,
        ))
    else:
        for d in diags:
            print(d.format(filename), file=sys.stderr)


def _pass_options(args: argparse.Namespace) -> CompilerOptions:
    """CompilerOptions from the compile flags, validating pass names."""
    from .core.passes import PIPELINES, registered_passes

    passes = registered_passes()

    def check(name: str, disabling: bool) -> str:
        if name not in passes:
            known = ", ".join(sorted(passes))
            print(f"error: unknown pass {name!r} (known: {known})",
                  file=sys.stderr)
            raise _CliExit(2)
        if disabling and not passes[name].optimization:
            print(f"error: pass {name!r} is structural and cannot be "
                  f"disabled", file=sys.stderr)
            raise _CliExit(2)
        return name

    disabled = tuple(check(n, True) for n in args.disable_pass)
    pipeline = None
    if args.pipeline:
        if args.pipeline in PIPELINES:
            # A named pipeline (orig | nored | comb | exact) expands to
            # its registered pass list.
            pipeline = PIPELINES[args.pipeline]
        else:
            pipeline = tuple(
                check(n.strip(), False)
                for n in args.pipeline.split(",") if n.strip()
            )
    extra: dict = {}
    budget = getattr(args, "solver_budget_ms", None)
    if budget is not None:
        if budget < 0:
            print(f"error: --solver-budget-ms must be >= 0 (got {budget})",
                  file=sys.stderr)
            raise _CliExit(2)
        extra["solver_budget_ms"] = budget
    machine = getattr(args, "machine", None)
    if machine is not None:
        extra["machine"] = machine
    threshold = getattr(args, "threshold_bytes", None)
    if threshold is not None:
        if threshold <= 0:
            print(f"error: --threshold-bytes must be > 0 (got {threshold})",
                  file=sys.stderr)
            raise _CliExit(2)
        extra["combine_threshold_bytes"] = threshold
    try:
        return CompilerOptions(
            strict=args.strict,
            disabled_passes=disabled,
            pass_pipeline=pipeline,
            **extra,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _CliExit(2) from None


def cmd_compile(args: argparse.Namespace) -> int:
    options = _pass_options(args)
    if args.list_passes:
        from .core.passes import format_pass_list, list_passes

        print(format_pass_list(list_passes(options)))
        return 0
    if not args.file:
        print("error: compile: a source file is required "
              "(or use --list-passes)", file=sys.stderr)
        return 2
    source = _read_source(args.file)
    params = _parse_params(args.param)
    strategies = list(Strategy) if args.all else [Strategy.parse(args.strategy)]
    from .core.passes import registered_passes

    known_passes = registered_passes()
    dump_after = tuple(args.dump_after)
    for name in dump_after:
        if name not in known_passes:
            known = ", ".join(sorted(known_passes))
            print(f"error: unknown pass {name!r} (known: {known})",
                  file=sys.stderr)
            return 2

    # Recovery pre-pass: surface every syntax error in one run (up to
    # --max-errors) instead of stopping at the first.
    from .frontend.parser import parse_recovering

    _program, errors = parse_recovering(source, max_errors=args.max_errors)
    if errors:
        _emit_diagnostics(
            [e.diagnostic() for e in errors], args.file, args.diagnostics_json
        )
        return 1

    diagnostics: list[Diagnostic] = []
    trace_records: list[dict] = []
    machine_output = args.diagnostics_json or args.trace_json
    for strategy in strategies:
        try:
            result = compile_program(
                source, params or None, strategy, options,
                dump_after=dump_after, dump_stream=sys.stderr,
            )
        except ReproError as exc:
            diagnostics.append(exc.diagnostic())
            if args.diagnostics_json:
                _emit_diagnostics(diagnostics, args.file, as_json=True)
            elif args.trace_json:
                print(exc.diagnostic().format(args.file), file=sys.stderr)
            else:
                _emit_diagnostics(diagnostics, args.file, as_json=False)
            return 1
        diagnostics.extend(d.diagnostic() for d in result.degradations)
        trace_records.append({
            "strategy": strategy.value,
            "call_sites": result.call_sites(),
            "passes": [t.to_dict() for t in result.pass_traces],
        })
        if machine_output:
            continue  # machine output only: suppress the human report
        for event in result.degradations:
            print(event.diagnostic().format(args.file), file=sys.stderr)
        print(f"== strategy {strategy.value}: {result.call_sites()} call "
              f"sites {result.call_sites_by_kind()}")
        if args.report:
            print(schedule_report(result))
        if args.listing:
            print(annotated_listing(result))
        if args.check:
            stats = check_schedule(result)
            print(f"   schedule verified: {stats.deliveries} deliveries, "
                  f"{stats.reads_checked} reads checked")
        print()
    if args.diagnostics_json:
        _emit_diagnostics(diagnostics, args.file, as_json=True)
    if args.trace_json:
        print(json.dumps(
            {"file": args.file, "strategies": trace_records}, indent=2
        ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    params = _parse_params(args.param)
    machine = MACHINES[args.machine]
    base = None
    for strategy in Strategy:
        result = compile_program(source, params or None, strategy)
        report = simulate(result, machine)
        if base is None:
            base = report.total_time
        print(
            f"  {strategy.value:6s}: total {report.total_time:9.4f}s "
            f"(norm {report.total_time / base:4.2f})  "
            f"comm {report.comm_time:9.4f}s  "
            f"{report.messages_per_proc} msgs/proc"
        )
    return 0


def cmd_table(_args: argparse.Namespace) -> int:
    from .evaluation.fig10_table import build_table, format_table

    print(format_table(build_table()))
    return 0


def cmd_charts(_args: argparse.Namespace) -> int:
    from .evaluation.fig10_charts import format_chart, run_all

    for chart in run_all():
        print(format_chart(chart))
        print()
    return 0


def cmd_profile(_args: argparse.Namespace) -> int:
    from .evaluation.fig5_profile import format_profile, run_all

    for profile in run_all():
        print(format_profile(profile))
        print()
    return 0


def cmd_reproduce(_args: argparse.Namespace) -> int:
    from .evaluation.reproduce import main as reproduce_main

    return reproduce_main()


def cmd_batch(args: argparse.Namespace) -> int:
    from .perf.batch import BatchCompiler, BatchJob, RetryPolicy, benchmark_jobs

    if args.benchmarks:
        jobs = benchmark_jobs(strategies=[s.value for s in Strategy])
    elif args.files:
        params = _parse_params(args.param)
        jobs = [
            BatchJob(
                name=path,
                source=_read_source(path),
                params=params or None,
                strategy=args.strategy,
            )
            for path in args.files
        ]
    else:
        raise SystemExit("batch: give source files or --benchmarks")

    policy = RetryPolicy(
        timeout=args.timeout,
        max_retries=args.retries,
        quarantine_after=args.quarantine_after,
    )
    # --ndjson streams one JSON object per completed job as it lands
    # (fresh compiles at completion, cache hits at delivery), so long
    # batch runs are observable mid-flight; stdout stays pure NDJSON.
    on_result = None
    if args.ndjson:
        def on_result(res):  # noqa: ANN001 - BatchResult
            print(json.dumps(
                {"kind": "result", "ok": res.ok, **res.as_dict()},
                sort_keys=True,
            ), flush=True)
    compiler = BatchCompiler(
        workers=args.workers, policy=policy, checkpoint_path=args.checkpoint,
        cache_dir=args.cache_dir, on_result=on_result,
    )
    for round_no in range(args.repeat):
        results = compiler.run(jobs)
        if args.ndjson:
            continue
        if round_no == 0 or args.repeat > 1:
            print(f"-- round {round_no + 1}")
            for r in results:
                tag = "cache" if r.from_cache else f"{r.elapsed * 1000:5.1f}ms"
                if r.error:
                    print(f"  [FAIL] {r.name}: {r.error}")
                else:
                    print(
                        f"  [{tag}] {r.name}: {r.call_sites} call sites "
                        f"{r.call_sites_by_kind}"
                    )
    s = compiler.stats
    if args.ndjson:
        print(json.dumps({
            "kind": "summary",
            "jobs": s.jobs, "compiled": s.compiled,
            "cache_hits": s.cache_hits, "deduped": s.deduped,
            "errors": s.errors, "elapsed_s": round(s.elapsed, 4),
            "hit_rate": round(s.hit_rate, 4),
            "timeouts": s.timeouts, "retries": s.retries,
            "quarantined": s.quarantined, "resumed": s.resumed,
            "cache": compiler.cache.stats.as_dict(),
        }, sort_keys=True), flush=True)
        return 1 if s.errors else 0
    extras = ""
    if s.timeouts or s.retries or s.quarantined or s.resumed:
        extras = (
            f", {s.timeouts} timeouts, {s.retries} retries, "
            f"{s.quarantined} quarantined, {s.resumed} resumed"
        )
    print(
        f"== {s.jobs} jobs: {s.compiled} compiled, {s.cache_hits} cache hits, "
        f"{s.deduped} deduped, {s.errors} errors in {s.elapsed:.3f}s "
        f"(hit rate {s.hit_rate:.0%}){extras}"
    )
    if args.cache_dir:
        cs = compiler.cache.stats
        print(
            f"   cache tiers: {cs.memory_hits} memory, {cs.disk_hits} disk, "
            f"{cs.misses} misses, {cs.corrupt} corrupt"
        )
    return 1 if s.errors else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import run_server

    return run_server(args)


def cmd_run(args: argparse.Namespace) -> int:
    """Compile one program and execute it on simulated ranks through a
    message-passing backend, optionally under chaos fault injection, or
    on the direct-copy path (``--transport direct``)."""
    source = _read_source(args.file)
    params = _parse_params(args.param)
    strategy = Strategy.parse(args.strategy)
    diagnostics: list[Diagnostic] = []
    try:
        result = compile_program(source, params or None, strategy)
    except ReproError as exc:
        _emit_diagnostics(
            [exc.diagnostic()], args.file, args.diagnostics_json
        )
        return 1
    diagnostics.extend(d.diagnostic() for d in result.degradations)

    from .runtime.spmd import execute_spmd

    try:
        arrays, stats = execute_spmd(
            result,
            seed=args.seed,
            transport=None if args.transport == "direct" else args.transport,
            watchdog_s=args.watchdog,
            chaos=args.chaos_spec,
            max_rank_restarts=args.max_rank_restarts,
        )
    except ValueError as exc:  # bad --chaos-spec, or chaos on inline/direct
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for event in stats.degradations:
        diagnostics.append(Diagnostic(
            code=event["code"],
            severity="warning",
            message=(
                f"{event['backend']} transport degraded "
                f"({event['reason']}): {event['detail']}; fallback: "
                f"{event['fallback']}"
            ),
            phase="runtime",
        ))
    if args.diagnostics_json:
        _emit_diagnostics(diagnostics, args.file, as_json=True)
        return 0
    for d in diagnostics:
        print(d.format(args.file), file=sys.stderr)
    print(f"== executed on {args.transport} "
          f"({len(arrays)} arrays/scalars assembled)")
    report = stats.as_dict()
    # What the transport sent, beside what the schedule is charged: on a
    # program without reductions the two pairs agree.  (Nothing goes on
    # a wire on the direct path.)
    if stats.wire is not None:
        report["wire_frames"] = stats.wire.messages
        report["wire_bytes"] = stats.wire.bytes_sent
    for key in (
        "messages", "bytes_moved", "wire_frames", "wire_bytes",
        "reductions", "faults_injected", "faults_detected", "retransmits",
        "rank_restarts",
    ):
        if key in report:
            print(f"   {key:16s} {report[key]}")
    if stats.degradations:
        print(f"   degradations     {len(stats.degradations)} "
              f"(codes {sorted({d['code'] for d in stats.degradations})})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global communication analysis and optimization "
        "(PLDI 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a mini-HPF program")
    p.add_argument("file", nargs="?",
                   help="mini-HPF source file (optional with --list-passes)")
    p.add_argument("--strategy", default="comb",
                   help="orig | nored | comb (default comb)")
    p.add_argument("--all", action="store_true",
                   help="compile with all three strategies")
    p.add_argument("--param", action="append", default=[], metavar="NAME=INT")
    p.add_argument("--report", action="store_true",
                   help="print the communication schedule")
    p.add_argument("--listing", action="store_true",
                   help="print the annotated scalarized program")
    p.add_argument("--check", action="store_true",
                   help="verify the schedule by concrete execution")
    p.add_argument("--strict", action="store_true",
                   help="disable fault boundaries: a failing optimization "
                        "pass aborts instead of degrading to Latest")
    p.add_argument("--max-errors", type=int, default=10, metavar="N",
                   help="stop after N syntax errors (default 10)")
    p.add_argument("--diagnostics-json", action="store_true",
                   help="emit diagnostics (errors and degradation "
                        "warnings) as JSON on stdout")
    p.add_argument("--trace-json", action="store_true",
                   help="emit the per-pass trace (wall time, degradation, "
                        "stats) as JSON on stdout")
    p.add_argument("--dump-after", action="append", default=[],
                   metavar="PASS",
                   help="dump entries/CommSet/schedule state to stderr "
                        "after PASS runs (repeatable)")
    p.add_argument("--disable-pass", action="append", default=[],
                   metavar="NAME",
                   help="skip the named optimization pass (repeatable; "
                        "structural passes cannot be disabled)")
    p.add_argument("--pipeline", default=None, metavar="A,B,C",
                   help="run a named pipeline (orig|nored|comb|exact) or "
                        "this comma-separated pass list instead of the "
                        "strategy's default pipeline")
    p.add_argument("--solver-budget-ms", type=int, default=None,
                   metavar="MS",
                   help="anytime budget for the exact placement search "
                        "(--pipeline exact); the solver always returns its "
                        "best incumbent, the greedy comb schedule at worst "
                        "(default 1000)")
    p.add_argument("--machine", default=None, metavar="NAME",
                   help="machine model the combining threshold is derived "
                        f"from: {' | '.join(sorted(MACHINES))} (default SP2)")
    p.add_argument("--threshold-bytes", type=int, default=None, metavar="N",
                   help="override the machine-derived combining threshold "
                        "(ablations; default: derive from --machine)")
    p.add_argument("--list-passes", action="store_true",
                   help="list registered passes with their paper section "
                        "and enabled state, then exit")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="simulate all three versions")
    p.add_argument("file")
    p.add_argument("--machine", choices=sorted(MACHINES), default="SP2")
    p.add_argument("--param", action="append", default=[], metavar="NAME=INT")
    p.set_defaults(func=cmd_simulate)

    sub.add_parser("table", help="Figure 10 message-count table").set_defaults(
        func=cmd_table
    )
    sub.add_parser("charts", help="Figure 10 normalized-time charts").set_defaults(
        func=cmd_charts
    )
    sub.add_parser("profile", help="Figure 5 bandwidth profiles").set_defaults(
        func=cmd_profile
    )
    sub.add_parser(
        "reproduce", help="run every paper check and print PASS/FAIL"
    ).set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "batch", help="batch-compile many programs with result caching"
    )
    p.add_argument("files", nargs="*", help="mini-HPF source files")
    p.add_argument("--benchmarks", action="store_true",
                   help="compile the paper's benchmark programs instead")
    p.add_argument("--strategy", default="comb",
                   help="orig | nored | comb (default comb; files only)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=INT")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (1 = serial, default)")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the batch N times (demonstrates result caching)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-job wall-clock timeout (forces pooled "
                        "execution; default none)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per failing job after a timeout or "
                        "worker crash (default 2)")
    p.add_argument("--quarantine-after", type=int, default=3, metavar="N",
                   help="failed attempts before an input is quarantined "
                        "(default 3)")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="persist results to FILE as they land; a killed "
                        "run restarted with the same FILE resumes there")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed disk cache shared across runs "
                        "(and with the compile service)")
    p.add_argument("--ndjson", action="store_true",
                   help="stream one JSON object per completed job to "
                        "stdout (plus a final summary object) instead of "
                        "the human report")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve", help="asyncio compile server: POST mini-HPF sources to "
                      "/v1/compile (or JSON-RPC /rpc), get schedules, "
                      "diagnostics, and pass traces back"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377,
                   help="listen port (0 = ephemeral; default 8377)")
    p.add_argument("--workers", type=int, default=2,
                   help="compile process-pool size (0 = one compile at a "
                        "time on one in-process thread, for tests; "
                        "default 2)")
    p.add_argument("--memory-budget", type=int,
                   default=64 * 1024 * 1024, metavar="BYTES",
                   help="in-memory schedule-cache budget (default 64 MiB)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed disk cache tier, shared with "
                        "'repro batch --cache-dir'")
    p.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS",
                   help="per-compile wall-clock timeout (default 120)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries after a timeout or worker crash (default 2)")
    p.add_argument("--quarantine-after", type=int, default=3, metavar="N",
                   help="failed attempts before a program key is "
                        "quarantined (default 3)")
    p.add_argument("--quota-rate", type=float, default=None, metavar="R",
                   help="per-tenant token-bucket refill rate in "
                        "requests/second (default: unlimited)")
    p.add_argument("--quota-burst", type=float, default=8.0, metavar="B",
                   help="per-tenant burst size (default 8)")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="distinct in-flight compilations before "
                        "backpressure 429s (default 1024)")
    p.add_argument("--access-log", default=None, metavar="FILE",
                   help="NDJSON access log: one JSON object per response "
                        "('-' = stdout, 'none' = disabled; default none)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "run", help="compile and execute on simulated ranks through a "
                    "message-passing backend, optionally under chaos "
                    "fault injection, or on the direct-copy path"
    )
    p.add_argument("file")
    p.add_argument("--strategy", default="comb",
                   help="placement strategy (default comb)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=INT")
    p.add_argument("--transport", default="threaded",
                   choices=("direct", "inline", "threaded", "multiprocess"),
                   help="message-passing backend, or 'direct' for the "
                        "direct-copy path with no transport (default "
                        "threaded)")
    p.add_argument("--chaos-spec", default=None, metavar="SPEC",
                   help="arm deterministic fault injection: comma-separated "
                        "KEY=VALUE pairs, e.g. "
                        "'seed=7,drop=0.05,corrupt=0.02,crash=1.0,"
                        "crash_budget=1'")
    p.add_argument("--max-rank-restarts", type=int, default=None,
                   metavar="N",
                   help="rank restarts before degrading to the inline "
                        "backend (default 2)")
    p.add_argument("--watchdog", type=float, default=30.0, metavar="SECONDS",
                   help="deadlock watchdog timeout (default 30)")
    p.add_argument("--seed", type=int, default=12345,
                   help="initial-data seed (default 12345)")
    p.add_argument("--diagnostics-json", action="store_true",
                   help="emit compile and runtime diagnostics (including "
                        "W07xx degradation events) as JSON on stdout")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliExit as exc:
        return exc.code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        # Safety net for paths opened outside _read_source.
        print(f"error: {exc.filename or exc}: no such file", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
