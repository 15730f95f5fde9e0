"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro table2 --sets 10 --workers 4
    python -m repro table1 --sizes 5 10 15
    python -m repro fig5
    python -m repro study run table2 --arg n_sets=10 --workers 4
    python -m repro study run plan.json --format csv
    python -m repro study axes
    python -m repro campaign --scenarios 20 --workers 4
    python -m repro campaign --backend dist --dist-dir /shared/q \
        --spawn-workers 4
    python -m repro campaign-worker --dir /shared/q
    python -m repro check src --fix-hints
    python -m repro all            # everything, default scales

Each subcommand prints the same rows/series the paper reports; scales
default to quick settings (paper-scale runs are tracked under the
fidelity-ledger item in ROADMAP.md).
Sweep-shaped subcommands accept ``--workers N`` to spread their
scenarios over a multiprocessing pool — results are bit-identical to
sequential runs.  ``campaign --backend dist`` runs the same sweep as
the broker of a distributed fleet (workers join via
``campaign-worker``), still bit-identical.  ``study`` runs
declarative :mod:`repro.api` plans — builtin (``study plans``) or
from a JSON plan file (``study export`` writes one).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import faults
from .analysis.tables import format_table
from .api import ResultFrame
from .api import plans as study_plans
from .campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    install_env_plugins,
    known_schemes,
    spawn_seeds,
)
from .campaign.distributed import (
    DistributedRunner,
    run_directory_worker,
    run_tcp_worker,
)


def _run_plans(args, *plans) -> str:
    """Run builtin study plans on the command's runner and render the
    paper's rows."""
    with _runner(args) as runner:
        return "\n\n".join(
            plan.run(runner=runner).format() for plan in plans
        )


def _cmd_table1(args) -> str:
    return _run_plans(
        args,
        study_plans.table1_plan(
            sizes=tuple(args.sizes),
            graphs_per_size=args.graphs_per_size,
            seed=args.seed,
        ),
    )


def _cmd_table2(args) -> str:
    return _run_plans(
        args,
        study_plans.table2_plan(
            n_sets=args.sets, n_graphs=args.graphs, seed=args.seed
        ),
    )


def _cmd_fig4(args) -> str:
    return study_plans.fig4().format()


def _cmd_fig5(args) -> str:
    return study_plans.fig5().format()


def _cmd_fig6(args) -> str:
    return _run_plans(
        args,
        study_plans.fig6_plan(
            graph_counts=tuple(args.counts),
            sets_per_point=args.sets,
            seed=args.seed,
            utilization=args.utilization,
        ),
    )


def _cmd_ratecapacity(args) -> str:
    return _run_plans(args, study_plans.rate_capacity_plan())


def _cmd_coherence(args) -> str:
    return _run_plans(args, study_plans.model_coherence_plan())


def _cmd_ablations(args) -> str:
    return _run_plans(
        args,
        *(
            builder(seed=args.seed)
            for builder in (
                study_plans.ablation_estimator_plan,
                study_plans.ablation_freqset_plan,
                study_plans.ablation_dvs_plan,
                study_plans.ablation_feasibility_plan,
            )
        ),
    )


def _parse_endpoint(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"error: endpoint {text!r} must look like HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"error: bad port in endpoint {text!r}") from None


def _parse_autoscale(text):
    lo, sep, hi = text.partition(":")
    try:
        bounds = (int(lo), int(hi if sep else lo))
    except ValueError:
        bounds = None
    if bounds is None or not (0 <= bounds[0] <= bounds[1]) or (
        bounds[1] < 1
    ):
        raise SystemExit(
            f"error: --autoscale {text!r} must look like MIN:MAX "
            "with 0 <= MIN <= MAX and MAX >= 1"
        )
    return bounds


def _arm_cli_faults(args) -> bool:
    """Arm the ``--inject-faults`` plan, if the command carries one.

    Returns whether a plan was installed (the caller uninstalls it).
    """
    path = getattr(args, "inject_faults", None)
    if not path:
        return False
    try:
        faults.install(faults.FaultPlan.load(path))
    except Exception as exc:
        raise SystemExit(
            f"error: cannot load fault plan {path!r}: {exc}"
        ) from None
    return True


#: Runner settings of a command that has no flag for them: the
#: library defaults.
_RUNNER_DEFAULTS = dict(
    workers=1,
    backend="local",
    dist_dir=None,
    listen=None,
    spawn_workers=0,
    autoscale=None,
    lease_timeout=60.0,
    heartbeat=15.0,
    chunk=1,
    result_timeout=None,
    max_retries=0,
    spec_timeout=None,
    on_error="raise",
)


@contextlib.contextmanager
def _runner(args, cache=None):
    """The runner a sweep command executes on, closed afterwards.

    Every sweep subcommand and ``study run`` build their runner here:
    a local pool of ``--workers`` or, with ``--backend dist``, the
    broker of a worker fleet attached over ``--dist-dir`` or
    ``--listen``.  ``cache`` is consulted and filled by either.  The
    containment flags configure either backend, and an
    ``--inject-faults`` plan stays armed only while the runner is open,
    so one CLI invocation never leaks it into library callers of
    :func:`main`.
    """
    opts = argparse.Namespace(**{**_RUNNER_DEFAULTS, **vars(args)})
    containment = dict(
        max_retries=opts.max_retries,
        on_error=opts.on_error,
        spec_timeout=opts.spec_timeout,
    )
    armed = _arm_cli_faults(args)
    try:
        if opts.backend == "local":
            if opts.autoscale:
                raise SystemExit("error: --autoscale needs --backend dist")
            runner = CampaignRunner(opts.workers, cache=cache, **containment)
        else:
            runner = _dist_runner(opts, cache, containment)
        try:
            yield runner
        finally:
            if isinstance(runner, DistributedRunner):
                runner.close()
    finally:
        if armed:
            faults.uninstall()


def _dist_runner(opts, cache, containment) -> DistributedRunner:
    if (opts.dist_dir is None) == (opts.listen is None):
        raise SystemExit(
            "error: --backend dist needs exactly one of --dist-dir/--listen"
        )
    transport = (
        {"workdir": opts.dist_dir}
        if opts.dist_dir is not None
        else {"listen": _parse_endpoint(opts.listen)}
    )
    autoscale = (
        _parse_autoscale(opts.autoscale) if opts.autoscale else None
    )
    if (
        opts.spawn_workers == 0
        and autoscale is None
        and opts.result_timeout is None
    ):
        print(
            "note: no --spawn-workers/--autoscale and no "
            "--result-timeout; the broker will wait indefinitely for "
            "external workers to attach",
            file=sys.stderr,
        )
    return DistributedRunner(
        cache=cache,
        n_local_workers=opts.spawn_workers,
        autoscale=autoscale,
        lease_timeout=opts.lease_timeout,
        heartbeat=opts.heartbeat,
        chunk_size=opts.chunk,
        result_timeout=opts.result_timeout,
        **containment,
        **transport,
    )


def _cmd_campaign(args) -> str:
    """Run a seeded scenario campaign and print per-scheme aggregates.

    Spawns ``--scenarios`` independent child seeds from ``--seed`` via
    ``numpy.random.SeedSequence`` and runs every ``--schemes`` entry on
    each seeded workload (one hyperperiod, battery-evaluated), across
    ``--workers`` processes — or, with ``--backend dist``, across a
    worker fleet attached over ``--dist-dir`` (shared directory) or
    ``--listen`` (TCP); ``--spawn-workers K`` forks K local workers so
    one command is a self-contained fleet.  Results are cached on disk
    keyed by spec content hash (``--cache-dir``, default
    ``~/.cache/repro/campaign``; disable with ``--no-cache``), so
    re-running an unchanged campaign is free, and re-running an
    interrupted one (a crashed broker included) runs only the
    scenarios the cache does not hold yet.  Aggregates are
    bit-identical for any worker count and either backend.
    """
    if args.scenarios < 1:
        raise SystemExit("error: --scenarios must be >= 1")
    if not args.schemes:
        raise SystemExit("error: --schemes must name at least one scheme")
    known = known_schemes()
    for scheme in args.schemes:
        if scheme not in known:
            raise SystemExit(
                f"error: unknown scheme {scheme!r}; known: {', '.join(known)}"
            )
    seeds = spawn_seeds(args.seed, args.scenarios)
    specs = [
        ScenarioSpec(
            scheme=scheme,
            n_graphs=args.graphs,
            utilization=args.utilization,
            seed=s,
            battery=args.battery,
            # Record misses instead of aborting the campaign: the
            # look-ahead schemes can legitimately overcommit near
            # worst-case actuals, and the misses column should say so.
            on_miss="record",
        )
        for s in seeds
        for scheme in args.schemes
    ]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with _runner(args, cache) as runner:
        campaign = runner.run(specs)
    rows = []
    if campaign.results:  # empty when every spec was quarantined
        grouped = ResultFrame.from_results(campaign.results).group_by(
            "scheme"
        )
        mean, low, high, p50 = (
            {row["scheme"]: row for row in reduced.to_rows()}
            for reduced in (
                grouped.mean(),
                grouped.min(),
                grouped.max(),
                grouped.percentile(50.0),
            )
        )
        rows = [
            [
                scheme,
                mean[scheme]["lifetime_min"],
                low[scheme]["lifetime_min"],
                high[scheme]["lifetime_min"],
                p50[scheme]["lifetime_min"],
                mean[scheme]["delivered_mah"],
                mean[scheme]["misses"],
            ]
            for scheme in args.schemes
            # every scenario of a missing scheme was quarantined
            if scheme in mean
        ]
    table = format_table(
        ["Scheme", "Life mean", "min", "max", "p50", "mAh mean", "misses"],
        rows,
        title=(
            f"Campaign — {args.scenarios} scenarios x "
            f"{len(args.schemes)} schemes (root seed {args.seed})"
        ),
        precision=1,
    )
    if args.no_footer:
        return table
    footer = (
        f"{len(specs)} scenarios, {campaign.n_workers} worker(s), "
        f"{campaign.wall_time_s:.2f}s wall, {campaign.cache_hits} cache "
        f"hit(s)"
    )
    if campaign.requeued:
        footer += f", {campaign.requeued} requeued"
    if campaign.retried:
        footer += f", {campaign.retried} retried"
    if campaign.quarantined:
        footer += f", {campaign.quarantined} quarantined"
    knobs = []
    if args.max_retries:
        knobs.append(f"max-retries={args.max_retries}")
    if args.spec_timeout is not None:
        knobs.append(f"spec-timeout={args.spec_timeout:g}s")
    if args.on_error != "raise":
        knobs.append(f"on-error={args.on_error}")
    if args.inject_faults:
        knobs.append(f"inject-faults={args.inject_faults}")
    if knobs:
        footer += "\nfault containment: " + ", ".join(knobs)
    if campaign.failures:
        quarantined = ", ".join(
            str(i) for i in campaign.failures.quarantined_indices
        )
        footer += f"\nquarantined spec indices: [{quarantined}]"
    return table + "\n" + footer


def _cmd_campaign_worker(args) -> str:
    """Serve a campaign broker as one worker process.

    Attach to a shared-directory queue (``--dir``, also usable across
    hosts via any shared mount) or a TCP broker (``--connect
    HOST:PORT``).  The worker leases work units, executes them with
    the exact seeds the broker assigned, streams results back, and
    exits on broker shutdown, after ``--max-tasks`` units, or after
    ``--idle-timeout`` seconds without work.
    """
    if (args.dir is None) == (args.connect is None):
        raise SystemExit(
            "error: campaign-worker needs exactly one of --dir/--connect"
        )
    # Custom schemes/batteries registered declaratively on the broker
    # arrive as a JSON snapshot in $REPRO_PLUGINS.
    install_env_plugins()
    # A broker running under --inject-faults ships its armed plan in
    # $REPRO_FAULT_PLAN; a worker may also arm one directly.
    faults.install_env_plan()
    _arm_cli_faults(args)
    options = dict(
        poll=args.poll,
        max_tasks=args.max_tasks,
        idle_timeout=args.idle_timeout,
        heartbeat=args.heartbeat,
    )
    if args.dir is not None:
        executed = run_directory_worker(args.dir, **options)
    else:
        host, port = _parse_endpoint(args.connect)
        executed = run_tcp_worker(
            host, port, reconnect_grace=args.reconnect_grace, **options
        )
    return f"campaign-worker: executed {executed} work unit(s)"


# ----------------------------------------------------------------------
# study — declarative repro.api plans
# ----------------------------------------------------------------------
def _parse_plan_args(pairs) -> dict:
    """``k=v`` overrides for a builtin plan builder (JSON-typed)."""
    overrides = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: --arg {pair!r} must look like name=value"
            )
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw  # bare strings (e.g. estimator=oracle)
        overrides[key] = value
    return overrides


def _resolve_plan(args):
    """A StudyPlan from a builtin name or a JSON plan file."""
    from .api import load_plan, plans

    name = args.plan
    if name in plans.PLAN_BUILDERS:
        try:
            return plans.build_plan(name, **_parse_plan_args(args.arg))
        except TypeError:
            import inspect

            valid = sorted(
                inspect.signature(
                    plans.PLAN_BUILDERS[name]
                ).parameters
            )
            raise SystemExit(
                f"error: bad --arg for plan {name!r}; valid names: "
                f"{', '.join(valid)}"
            ) from None
    if name.endswith(".json"):
        if args.arg:
            raise SystemExit(
                "error: --arg overrides only apply to builtin plans; "
                "edit the plan file instead"
            )
        return load_plan(name)
    raise SystemExit(
        f"error: {name!r} is neither a builtin plan "
        f"({', '.join(sorted(plans.PLAN_BUILDERS))}) nor a .json "
        "plan file"
    )


def _cmd_study_run(args) -> str:
    """Execute a study plan and print its report.

    ``PLAN`` is a builtin plan name (see ``study plans``; scale
    overrides via repeatable ``--arg name=value``) or a path to a
    JSON plan file (``study export`` writes one).  ``--format
    report`` prints the plan's rendered tables (builtin plans print
    the same bytes as their classic subcommand), ``csv`` the
    full typed result frame, ``json`` frame + execution telemetry.
    """
    from .api import Study

    plan = _resolve_plan(args)
    cache = (
        ResultCache(args.cache_dir) if args.cache_dir is not None else None
    )
    with _runner(args, cache) as runner:
        result = Study(plan, runner=runner).run()
    if args.format == "csv":
        return result.frame.to_csv().rstrip("\n")
    if args.format == "json":
        return json.dumps(
            {
                "plan": plan.to_json(),
                "telemetry": result.campaign.telemetry,
                "frame": result.frame.to_json(),
            },
            indent=1,
            sort_keys=False,
        )
    return result.format()


def _cmd_study_axes(args) -> str:
    """List every registered axis value a sweep can name."""
    from .api import known_names, load_entry_points
    from .campaign.spec import _SPEC_TYPES
    from dataclasses import fields as dc_fields

    load_entry_points()
    lines = ["Registered axes (repro.campaign.registry):"]
    for kind, names in known_names().items():
        lines.append(f"  {kind}: {', '.join(names)}")
    lines.append("")
    lines.append("Spec kinds and their sweepable fields:")
    for kind, cls in _SPEC_TYPES.items():
        names = ", ".join(f.name for f in dc_fields(cls))
        lines.append(f"  {kind}: {names}")
    return "\n".join(lines)


def _cmd_study_plans(args) -> str:
    """List the builtin study plans."""
    from .api import plans

    lines = ["Builtin plans (study run NAME [--arg k=v ...]):"]
    for name in sorted(plans.PLAN_BUILDERS):
        plan = plans.build_plan(name)
        specs = len(plan.sweep.expand())
        lines.append(
            f"  {name:22s} {plan.description} "
            f"({specs} specs at default scale)"
        )
    return "\n".join(lines)


def _cmd_study_export(args) -> str:
    """Write a builtin plan (with overrides) as a JSON plan file.

    The file round-trips through ``study run plan.json``: same sweep,
    same seeds, same spec hashes — the paper-table renderer is code
    and is not serialized, so a file-run prints the generic frame
    summary (or use ``--format csv``).
    """
    from .api import plans

    plan = plans.build_plan(args.plan, **_parse_plan_args(args.arg))
    text = json.dumps(plan.to_json(), indent=2) + "\n"
    if args.out is None:
        return text.rstrip("\n")
    with open(args.out, "w") as handle:
        handle.write(text)
    return f"wrote {args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the tables and figures of 'Battery Aware Dynamic "
            "Scheduling for Periodic Task Graphs' (Rao et al., 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="energy vs exhaustive optimal")
    p.add_argument("--sizes", type=int, nargs="+", default=list(range(5, 16)))
    p.add_argument("--graphs-per-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_table1)

    def add_containment_flags(p) -> None:
        """Fault-containment knobs shared by campaign/study commands."""
        p.add_argument(
            "--max-retries", type=int, default=0,
            help="retry a failed spec this many times (deterministic "
            "seeded backoff) before quarantining or aborting",
        )
        p.add_argument(
            "--spec-timeout", type=float, default=None,
            help="per-spec execution deadline in seconds; a timeout "
            "counts as a retryable failure",
        )
        p.add_argument(
            "--on-error", choices=("raise", "quarantine"),
            default="raise",
            help="what to do with a spec that exhausts its retry "
            "budget: abort the campaign (raise) or quarantine it "
            "into the failure report and keep the rest",
        )
        p.add_argument(
            "--inject-faults", default=None, metavar="PLAN.json",
            help="arm a seeded repro.faults injection plan for this "
            "run (chaos/robustness testing)",
        )

    def add_driver_backend(p) -> None:
        """Distributed-backend flags shared by every fleet-capable
        sweep command."""
        p.add_argument(
            "--backend", choices=("local", "dist"), default="local",
            help="run the sweep on a local pool or a distributed fleet",
        )
        p.add_argument(
            "--dist-dir", default=None,
            help="dist backend: shared work-queue directory",
        )
        p.add_argument(
            "--spawn-workers", type=int, default=0,
            help="dist backend: worker subprocesses to fork on this host",
        )
        p.add_argument(
            "--result-timeout", type=float, default=None,
            help="dist backend: fail if no result arrives for this long",
        )

    p = sub.add_parser("table2", help="charge delivered + battery lifetime")
    p.add_argument("--sets", type=int, default=5)
    p.add_argument("--graphs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_driver_backend(p)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("fig4", help="LTF vs STF motivational example")
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="EDF vs pUBS+feasibility traces")
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("fig6", help="ordering schemes vs near-optimal")
    p.add_argument("--counts", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--utilization", type=float, default=0.85)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_driver_backend(p)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("ratecapacity", help="load vs delivered capacity")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_ratecapacity)

    p = sub.add_parser(
        "study",
        help="declarative repro.api studies: run plans, list axes",
    )
    ssub = p.add_subparsers(dest="study_command", required=True)

    sp = ssub.add_parser(
        "run",
        help="run a builtin plan or a JSON plan file",
        description=_cmd_study_run.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sp.add_argument(
        "plan",
        help="builtin plan name (see 'study plans') or path/to/plan.json",
    )
    sp.add_argument(
        "--arg", action="append", metavar="NAME=VALUE",
        help="builtin-plan scale override (repeatable; JSON-typed)",
    )
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument(
        "--format", choices=("report", "csv", "json"), default="report",
        help="report: the plan's rendered tables; csv/json: the frame",
    )
    sp.add_argument(
        "--cache-dir", default=None,
        help="attach a content-hash result cache at this directory",
    )
    add_driver_backend(sp)
    add_containment_flags(sp)
    sp.set_defaults(fn=_cmd_study_run)

    sp = ssub.add_parser(
        "axes", help="list registered schemes/batteries/... and fields"
    )
    sp.set_defaults(fn=_cmd_study_axes)

    sp = ssub.add_parser("plans", help="list builtin study plans")
    sp.set_defaults(fn=_cmd_study_plans)

    sp = ssub.add_parser(
        "export",
        help="write a builtin plan as a JSON plan file",
        description=_cmd_study_export.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sp.add_argument("plan", help="builtin plan name")
    sp.add_argument(
        "--arg", action="append", metavar="NAME=VALUE",
        help="builtin-plan scale override (repeatable; JSON-typed)",
    )
    sp.add_argument(
        "-o", "--out", default=None, help="output path (default: stdout)"
    )
    sp.set_defaults(fn=_cmd_study_export)

    p = sub.add_parser("coherence", help="battery model agreement (Figs 2-3)")
    p.set_defaults(fn=_cmd_coherence)

    p = sub.add_parser("ablations", help="all four design-choice ablations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_ablations)

    p = sub.add_parser(
        "campaign",
        help="seeded scenario campaign (parallel, cached, deterministic)",
        description=_cmd_campaign.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--scenarios", type=int, default=10,
        help="number of independent seeded workloads",
    )
    p.add_argument("--graphs", type=int, default=4)
    p.add_argument("--utilization", type=float, default=0.7)
    p.add_argument(
        "--schemes", nargs="+",
        default=["EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2"],
        help="campaign-registry scheme names to run per scenario",
    )
    p.add_argument("--battery", default="stochastic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default ~/.cache/repro/campaign "
        "or $REPRO_CAMPAIGN_CACHE)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (with --backend dist this also "
        "disables crash recovery: a rerun starts over)",
    )
    add_driver_backend(p)
    p.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="dist backend: TCP endpoint to serve workers on",
    )
    p.add_argument(
        "--lease-timeout", type=float, default=60.0,
        help="dist backend: seconds without lease renewal before a "
        "claim is assumed dead and requeued",
    )
    p.add_argument(
        "--heartbeat", type=float, default=15.0,
        help="dist backend: lease-renewal interval passed to spawned "
        "workers (keeps long scenarios from being requeued)",
    )
    p.add_argument(
        "--chunk", type=int, default=1,
        help="dist backend: tasks per lease; >1 amortizes claim "
        "overhead for very short scenarios (a worker runs its whole "
        "chunk unless the broker takes the lease back)",
    )
    p.add_argument(
        "--autoscale", default=None, metavar="MIN:MAX",
        help="dist backend: grow/shrink the local worker fleet with "
        "the backlog (overrides --spawn-workers)",
    )
    p.add_argument(
        "--no-footer", action="store_true",
        help="omit the wall-clock footer (for byte-exact output diffs)",
    )
    add_containment_flags(p)
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser(
        "campaign-worker",
        help="serve a distributed campaign broker as one worker",
        description=_cmd_campaign_worker.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--dir", default=None,
        help="shared work-queue directory published by the broker",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="TCP broker endpoint to lease work from",
    )
    p.add_argument("--poll", type=float, default=0.05)
    p.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after executing this many work units",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=None,
        help="exit after this many seconds without work (default: never)",
    )
    p.add_argument(
        "--heartbeat", type=float, default=15.0,
        help="renew the current lease every this many seconds while "
        "a scenario executes (guards against false requeues)",
    )
    p.add_argument(
        "--reconnect-grace", type=float, default=0.0,
        help="TCP only: seconds to keep retrying a refused connection "
        "after the broker was reached once (lets a broker restarted "
        "on the same endpoint keep its fleet)",
    )
    p.add_argument(
        "--inject-faults", default=None, metavar="PLAN.json",
        help="arm a seeded repro.faults injection plan in this worker "
        "(chaos/robustness testing)",
    )
    p.set_defaults(fn=_cmd_campaign_worker)

    p = sub.add_parser(
        "check",
        help="static determinism & concurrency analyzer "
        "(python -m repro check --help)",
        add_help=False,
    )
    p.set_defaults(fn=None)

    p = sub.add_parser("all", help="every table and figure, quick scales")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        # Dispatched before argparse: the analyzer owns its whole
        # flag namespace (argparse.REMAINDER drops leading flags).
        from .check.cli import main as check_main

        return check_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "all":
        order = [
            ("table1", _cmd_table1),
            ("table2", _cmd_table2),
            ("fig4", _cmd_fig4),
            ("fig5", _cmd_fig5),
            ("fig6", _cmd_fig6),
            ("ratecapacity", _cmd_ratecapacity),
            ("coherence", _cmd_coherence),
        ]
        for name, fn in order:
            sub_args = build_parser().parse_args(
                [name] if name not in ("table1", "table2", "fig6")
                else [name, "--seed", str(args.seed)]
            )
            print(fn(sub_args))
            print()
        return 0
    print(args.fn(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
