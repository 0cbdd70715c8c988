"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``study``
    Run the full eight-campaign study and print every table and figure.
``campaign``
    Run a single campaign and print its row, crash causes, latency.
``profile``
    Print the kernel usage profile the code campaign targets.
``disasm``
    Disassemble a kernel function on either architecture.
``report``
    Regenerate the EXPERIMENTS.md-style paper-vs-measured report.
``store``
    Inspect a durable result store: ``ls``, ``verify``, ``export``.
``replay``
    Deterministically re-execute one journaled experiment with the
    flight recorder armed, verify it against the journal, and
    optionally dump the trace (``--trace``), diff against the clean
    twin (``--diff``), or print the three-stage breakdown
    (``--stages``).
``faults``
    List the registered fault models (``repro faults list``): name,
    multiplicity, spatial shape, retrigger schedule, targeted
    structures, and the spec digest joining campaign identity.
``static``
    Run the static error-sensitivity analyzer (CFG + liveness +
    encoding-corruption prediction) over one or both kernel images;
    ``--validate N`` also runs an N-injection dynamic code campaign
    and prints the predicted-vs-measured confusion matrix.

``serve``
    Run the campaign service daemon: an asyncio HTTP/JSON API that
    queues submitted campaigns per tenant (FIFO + priority, round-
    robin fairness), runs them on the sharded engine through the
    durable store, streams progress (NDJSON/SSE), and serves stored
    results to concurrent readers.
``submit`` / ``jobs`` / ``cancel``
    Thin clients for a running service (``--url``).

``campaign`` and ``study`` take ``--store DIR`` to journal results
durably as they complete, ``--resume`` to continue (or top up) a
stored campaign, and ``--progress`` for periodic injected/total lines.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from repro.core.config import StudyConfig
from repro.injection.campaign import (
    ARCHES, Campaign, CampaignConfig, CampaignKnobs, run_campaign,
)
from repro.injection.outcomes import CampaignKind

#: the campaign knobs the campaign-running commands expose as flags
#: (dump_loss_probability stays a library and service field)
CLI_KNOBS = ("seed", "ops", "exec_mode", "checkpoints", "fault_model")


def _add_knobs(parser: argparse.ArgumentParser,
               names=CLI_KNOBS, config=CampaignKnobs) -> None:
    """One ``--flag`` per knob, with its default, type, choices and
    help taken from the knob table."""
    table = {spec_field.name: spec_field for spec_field in fields(config)}
    for name in names:
        spec = table[name].metadata["knob"]
        allowed = spec.allowed()
        parser.add_argument(
            "--" + name.replace("_", "-"), type=spec.type,
            default=table[name].default,
            choices=list(allowed) if allowed else None,
            help=spec.help + " (default: %(default)s)")


def _knob_args(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in CLI_KNOBS}


def _add_common(parser: argparse.ArgumentParser,
                knobs=("seed", "ops")) -> None:
    parser.add_argument("--arch", choices=list(ARCHES), default="x86",
                        help="target platform (default: x86/P4)")
    _add_knobs(parser, knobs)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="campaign worker processes (default 1 = serial; any "
        "value gives bit-identical results)")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="DIR",
        help="durable result store: journal every result as it "
        "completes (crash-safe, resumable)")
    parser.add_argument(
        "--resume", action="store_true",
        help="continue or top up a stored campaign (requires --store)")
    parser.add_argument(
        "--progress", action="store_true",
        help="print periodic injected/total progress lines")


def _progress_printer(label: str = ""):
    """A ``Campaign.run(progress_callback=)`` batch callback printing
    ~20 periodic ``done/total`` lines (batches are ignored — the
    service consumes them; the CLI only prints the tick)."""
    state = {"last": 0}

    def callback(done: int, total: int, batch=None) -> None:
        step = max(1, total // 20)
        if done >= total or done - state["last"] >= step:
            state["last"] = done
            print(f"{label}{done}/{total} injected", file=sys.stderr)

    return callback


def _check_store_args(args: argparse.Namespace) -> None:
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store DIR")


def _config(build, **kwargs):
    """Build a config; a rejected value is a one-line exit, not a
    traceback."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    return _config(CampaignConfig, arch=args.arch,
                   kind=CampaignKind(args.kind), count=args.count,
                   **_knob_args(args))


def cmd_study(args: argparse.Namespace) -> int:
    from repro.core.study import Study
    _check_store_args(args)
    config = _config(StudyConfig, scale=args.scale, workers=args.workers,
                     store=args.store, resume=args.resume,
                     **_knob_args(args))
    study = Study(config)
    for arch in ARCHES:
        for kind in CampaignKind:
            count = config.campaign_count(arch, kind)
            print(f"running {arch}/{kind.value} ({count} injections)...",
                  file=sys.stderr)
            progress = _progress_printer(f"  {arch}/{kind.value}: ") \
                if args.progress else None
            study.run_campaign(arch, kind, progress_callback=progress)
    print(study.render_all())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.figures import render_distribution
    from repro.analysis.latency import BUCKET_LABELS, latency_percentages
    from repro.analysis.tables import build_row, render_table
    _check_store_args(args)
    config = _campaign_config(args)
    kind = config.kind
    outcome = Campaign(config).run(
        workers=args.workers, store=args.store, resume=args.resume,
        progress_callback=_progress_printer() if args.progress else None)
    row = build_row(kind, outcome.results)
    print(render_table([row],
                       "Pentium 4" if args.arch == "x86" else "PPC G4"))
    print()
    print(render_distribution(outcome.results,
                              f"{kind.value} crash causes", args.arch))
    print()
    percentages = latency_percentages(outcome.results)
    print("latency:  " + "  ".join(
        f"{label}:{percentages[label]:.0f}%" for label in BUCKET_LABELS
        if percentages[label]))
    if kind is CampaignKind.CODE:
        from repro.analysis.sensitivity import render_sensitivity
        from repro.injection.campaign import CampaignContext
        image = CampaignContext.get(config.arch, config.seed,
                                    config.ops).base_machine.image
        print()
        print(render_sensitivity(outcome.results, image,
                                 f"{args.arch} code campaign"))
    if args.json:
        from repro.analysis.export import dump_results
        count = dump_results(outcome.results, args.json)
        print(f"\nwrote {count} records to {args.json}")
    return 0


def cmd_faults_list(args: argparse.Namespace) -> int:
    from repro.faults import DEFAULT_MODEL, available_models, get_model
    print(f"{'model':<14} {'digest':<14} description")
    for name in available_models():
        model = get_model(name)
        spec = model.spec
        line = f"{name:<14} {spec.digest()[:12]:<14} {spec.describe()}"
        if name == DEFAULT_MODEL:
            line += "  [default]"
        print(line)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.workload.probe import probe_clean_run
    from repro.workload.profiler import profile_kernel
    profile = profile_kernel(probe_clean_run(args.arch, seed=args.seed,
                                             ops=args.ops))
    total = sum(profile.counts.values()) or 1
    print(f"kernel usage profile ({args.arch}, {profile.samples} "
          f"samples):")
    accumulated = 0.0
    for name, count in sorted(profile.counts.items(),
                              key=lambda kv: -kv[1]):
        share = 100.0 * count / total
        accumulated += share
        print(f"  {name:<24} {share:5.1f}%   (cum {accumulated:5.1f}%)")
        if accumulated >= 99.5:
            break
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.kernel.build import build_kernel
    image = build_kernel(args.arch)
    info = image.functions.get(args.function)
    if info is None:
        print(f"no kernel function named {args.function!r}; "
              f"try one of: {', '.join(sorted(image.functions)[:12])} ...",
              file=sys.stderr)
        return 1
    code = image.text_bytes[info.addr - image.text_base:
                            info.addr - image.text_base + info.size]
    if args.arch == "x86":
        from repro.x86.disasm import disassemble_range
        lines = disassemble_range(code, info.addr, count=10_000)
    else:
        from repro.ppc.disasm import disassemble_range
        lines = disassemble_range(code, info.addr, count=10_000)
    print(f"{args.function} [{info.subsystem}] @ {info.addr:#010x}, "
          f"{info.size} bytes:")
    for line in lines:
        print("  " + line)
    return 0


def cmd_static(args: argparse.Namespace) -> int:
    from repro.static.predictor import analyze_kernel
    from repro.static.report import compare_rates
    arches = ("x86", "ppc") if args.arch == "both" else (args.arch,)
    reports = []
    for arch in arches:
        print(f"analyzing {arch} kernel image...", file=sys.stderr)
        report = analyze_kernel(arch, taint=args.taint)
        reports.append(report)
        print(report.render())
        print(f"  histogram digest: {report.digest()}")
        print()
    if len(reports) > 1:
        print(compare_rates(reports))
    if args.validate:
        from repro.analysis.validate_static import (
            distance_latency_probe, validate_code_campaign,
        )
        for report in reports:
            print(f"\nrunning {args.validate}-injection dynamic code "
                  f"campaign on {report.arch}...", file=sys.stderr)
            outcome = run_campaign(
                report.arch, CampaignKind.CODE, count=args.validate,
                seed=args.seed, ops=args.ops, workers=args.workers,
                progress_callback=_progress_printer() if args.progress
                else None)
            validation = validate_code_campaign(outcome.results,
                                                report)
            print(validation.render())
            if args.taint:
                print(f"probing distance-vs-latency agreement on "
                      f"{report.arch} (traced)...", file=sys.stderr)
                agreement = distance_latency_probe(
                    report.arch, seed=args.seed, ops=args.ops,
                    per_distance=2, max_distance=8)
                print(agreement.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from examples.generate_experiments_report import main as report_main
    report_main()
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.trace.dissect import (
        dissect_traces, render_dissection,
    )
    from repro.trace.replay import ReplayDivergence, Replayer
    try:
        replayer = Replayer(args.store, args.campaign)
        outcome = replayer.replay(args.index, mode="full")
    except ReplayDivergence as exc:
        print(f"DIVERGED: {exc}", file=sys.stderr)
        return 1
    result = outcome.replayed
    print(f"{args.campaign}[{args.index}]: {result.outcome.value}"
          + (f" ({result.cause.value})" if result.cause else "")
          + (f", latency {result.latency} cycles"
             if result.latency is not None else "")
          + " — matches journal")
    if args.trace:
        count = outcome.recorder.write_jsonl(args.trace)
        print(f"wrote {count} trace events to {args.trace}")
    wants_dissection = args.diff or args.stages
    if wants_dissection and outcome.spec is None:
        print("experiment was screened (never ran a machine): "
              "nothing to dissect")
        return 0
    if wants_dissection:
        _twin, twin_recorder = replayer.clean_twin(args.index,
                                                   mode="full")
        dissection = dissect_traces(outcome.recorder.events,
                                    twin_recorder.events,
                                    result=result,
                                    arch=replayer.config.arch)
        if args.diff:
            print()
            print(render_dissection(dissection))
        if args.stages:
            print()
            if dissection.stages is None:
                print("no crash in the trace: no stages to report")
            else:
                b = dissection.stages
                print(f"three-stage breakdown ({replayer.config.arch}):")
                print(f"  stage 1 (to exception):      {b.stage1:>12}")
                print(f"  stage 2 (hardware exception):{b.stage2:>12}")
                print(f"  stage 3 (software handler):  {b.stage3:>12}")
                print(f"  total (== latency):          {b.total:>12}")
    return 0


def _store_errors(handler):
    """Store subcommands: a missing or corrupt store is exit 1 with a
    one-line message on stderr, never a traceback."""
    import functools

    @functools.wraps(handler)
    def wrapped(args: argparse.Namespace) -> int:
        from repro.store import (
            JournalCorruption, ManifestError, StoreError,
        )
        try:
            return handler(args)
        except (StoreError, ManifestError, JournalCorruption) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return wrapped


@_store_errors
def cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore
    store = CampaignStore(args.dir, create=False)
    ids = store.campaign_ids()
    if not ids:
        print(f"no campaigns in {args.dir}")
        return 0
    print(f"{'campaign':<34} {'arch':<5} {'kind':<9} {'count':>7} "
          f"{'done':>7}  code-version")
    for campaign_id, manifest in zip(ids, store.campaigns()):
        done = len(store.results(campaign_id))
        print(f"{campaign_id:<34} {manifest.arch:<5} "
              f"{manifest.kind:<9} {manifest.count:>7} {done:>7}  "
              f"{manifest.code_version}")
    return 0


@_store_errors
def cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore
    store = CampaignStore(args.dir, create=False)
    ids = [args.campaign] if args.campaign else store.campaign_ids()
    status = 0
    for campaign_id in ids:
        report = store.verify(campaign_id)
        if report.ok:
            print(f"{campaign_id}: ok ({report.records} records)")
        else:
            status = 1
            print(f"{campaign_id}: {len(report.problems)} problem(s)")
            for problem in report.problems:
                print(f"  - {problem}")
    return status


@_store_errors
def cmd_store_export(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore
    store = CampaignStore(args.dir, create=False)
    count = store.export(args.campaign, args.output)
    print(f"wrote {count} records to {args.output}")
    return 0


def _service_client(args):
    from repro.service.client import ServiceClient
    return ServiceClient(args.url)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_daemon
    return run_daemon(store=args.store, workers=args.workers,
                      host=args.host, port=args.port)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError
    from repro.service.protocol import config_to_payload
    payload = config_to_payload(_campaign_config(args))
    client = _service_client(args)
    try:
        out = client.submit(payload, tenant=args.tenant,
                            priority=args.priority,
                            workers=args.workers)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    job = out["job"]
    note = " (deduped onto existing job)" if out.get("deduped") else ""
    print(f"{job['id']} {job['state']}{note}")
    if not args.wait:
        return 0

    def on_event(event):
        if event.get("event") == "progress":
            print(f"  {event['done']}/{event['total']} injected",
                  file=sys.stderr)

    try:
        final = client.wait(job["id"], timeout=args.timeout,
                            on_event=on_event)
    except (OSError, ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = f"{final['id']} {final['state']}"
    if final.get("digest"):
        line += f" digest={final['digest']}"
    if final.get("error"):
        line += f" error={final['error']}"
    print(line)
    return 0 if final["state"] == "done" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError
    try:
        views = _service_client(args).jobs(tenant=args.tenant,
                                           state=args.state)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not views:
        print("no jobs")
        return 0
    print(f"{'job':<12} {'tenant':<12} {'state':<10} "
          f"{'progress':>12}  digest")
    for view in views:
        progress = f"{view['done']}/{view['total']}" \
            if view["total"] else "-"
        digest = (view.get("digest") or "")[:16]
        print(f"{view['id']:<12} {view['tenant']:<12} "
              f"{view['state']:<10} {progress:>12}  {digest}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError
    try:
        job = _service_client(args).cancel(args.job)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{job['id']} {job['state']}")
    return 0


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="campaign service base URL "
        "(default http://127.0.0.1:8321)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DSN 2004 kernel error-sensitivity reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the full study")
    _add_knobs(study, ("scale",), StudyConfig)
    _add_knobs(study)
    _add_workers(study)
    _add_store(study)
    study.set_defaults(func=cmd_study)

    campaign = sub.add_parser("campaign", help="run one campaign")
    _add_common(campaign, CLI_KNOBS)
    campaign.add_argument("--kind", required=True,
                          choices=[kind.value for kind in CampaignKind])
    campaign.add_argument("-n", "--count", type=int, default=100)
    campaign.add_argument("--json", metavar="PATH",
                          help="also dump results as JSON lines")
    _add_workers(campaign)
    _add_store(campaign)
    campaign.set_defaults(func=cmd_campaign)

    store = sub.add_parser("store",
                           help="inspect a durable result store")
    store_sub = store.add_subparsers(dest="action", required=True)
    store_ls = store_sub.add_parser("ls", help="list campaigns")
    store_ls.add_argument("dir")
    store_ls.set_defaults(func=cmd_store_ls)
    store_verify = store_sub.add_parser(
        "verify", help="validate manifests, checksums, coverage")
    store_verify.add_argument("dir")
    store_verify.add_argument("--campaign", metavar="ID",
                              help="verify one campaign only")
    store_verify.set_defaults(func=cmd_store_verify)
    store_export = store_sub.add_parser(
        "export", help="dump one campaign as plain result JSONL")
    store_export.add_argument("dir")
    store_export.add_argument("campaign", metavar="ID")
    store_export.add_argument("output", metavar="OUT.jsonl")
    store_export.set_defaults(func=cmd_store_export)

    serve = sub.add_parser(
        "serve", help="run the campaign service daemon")
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="durable result store the service "
                       "schedules into (created if missing)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="total worker slots; each job occupies "
                       "its requested worker count (default 2)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = OS-assigned)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a campaign to a running service")
    _add_common(submit, CLI_KNOBS)
    submit.add_argument("--kind", required=True,
                        choices=[kind.value for kind in CampaignKind])
    submit.add_argument("-n", "--count", type=_positive_int,
                        default=100)
    submit.add_argument("--tenant", default="default",
                        help="tenant name for fair queueing")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner within the tenant")
    submit.add_argument("--workers", type=_positive_int, default=1,
                        help="worker slots (shard processes) the job "
                        "requests")
    submit.add_argument("--wait", action="store_true",
                        help="stream progress and block until the "
                        "job finishes")
    submit.add_argument("--timeout", type=float, default=3600.0,
                        help="--wait timeout in seconds")
    _add_url(submit)
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser("jobs", help="list service jobs")
    jobs.add_argument("--tenant", help="filter by tenant")
    jobs.add_argument("--state",
                      choices=["queued", "running", "done", "failed",
                               "cancelled"],
                      help="filter by state")
    _add_url(jobs)
    jobs.set_defaults(func=cmd_jobs)

    cancel = sub.add_parser("cancel", help="cancel a service job")
    cancel.add_argument("job", metavar="JOB_ID")
    _add_url(cancel)
    cancel.set_defaults(func=cmd_cancel)

    replay = sub.add_parser(
        "replay", help="re-execute one journaled experiment, traced")
    replay.add_argument("store", metavar="STORE",
                        help="store directory the campaign lives in")
    replay.add_argument("campaign", metavar="CAMPAIGN",
                        help="campaign id (see `store ls`)")
    replay.add_argument("index", type=int, metavar="INDEX",
                        help="global experiment index")
    replay.add_argument("--trace", metavar="OUT.jsonl",
                        help="dump the full trace as JSONL")
    replay.add_argument("--diff", action="store_true",
                        help="diff against the clean twin: infection "
                        "set and propagation chain")
    replay.add_argument("--stages", action="store_true",
                        help="print the three-stage cycles-to-crash "
                        "breakdown")
    replay.set_defaults(func=cmd_replay)

    faults = sub.add_parser("faults",
                            help="inspect registered fault models")
    faults_sub = faults.add_subparsers(dest="action", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list registered fault models")
    faults_list.set_defaults(func=cmd_faults_list)

    profile = sub.add_parser("profile", help="kernel usage profile")
    _add_common(profile)
    profile.set_defaults(func=cmd_profile)

    disasm = sub.add_parser("disasm", help="disassemble a kernel fn")
    _add_common(disasm)
    disasm.add_argument("function")
    disasm.set_defaults(func=cmd_disasm)

    report = sub.add_parser("report",
                            help="paper-vs-measured report (stdout)")
    report.set_defaults(func=cmd_report)

    static = sub.add_parser(
        "static", help="static error-sensitivity analysis")
    static.add_argument("--arch", choices=["x86", "ppc", "both"],
                        default="both")
    _add_knobs(static, ("seed", "ops"))
    static.add_argument(
        "--taint", action="store_true",
        help="run the interprocedural taint engine: per-bit "
        "propagation verdicts (sink/dead/escape), distance-to-sink "
        "bounds, and taint-proven-masked bits")
    static.add_argument(
        "--validate", type=_positive_int, metavar="N",
        help="also run an N-injection dynamic code campaign per arch "
        "and print the predicted-vs-measured confusion matrix "
        "(with --taint: plus the distance-vs-latency agreement "
        "check)")
    static.add_argument("--progress", action="store_true",
                        help="print periodic injected/total lines")
    _add_workers(static)
    static.set_defaults(func=cmd_static)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
