"""``python -m repro`` — the scenario-catalog command line.

Subcommands::

    python -m repro list                     # the scenario catalog
    python -m repro run --scenario NAME      # run + print + save report
    python -m repro run --all                # every catalog entry
    python -m repro report [NAME ...]        # re-render saved reports
    python -m repro cache fsck               # verify cache envelopes
    python -m repro cache gc                 # sweep tmp/quarantine litter
    python -m repro knobs                    # the runtime knob registry
    python -m repro serve                    # resident campaign daemon
    python -m repro submit --scenario NAME   # run via the daemon

``run`` executes through the campaign engine, so ``REPRO_WORKERS``
controls the fan-out and ``REPRO_CACHE_DIR`` the result cache; results
are bit-identical for any worker count and replay from a warm cache
without recomputation.  ``--unit-timeout``/``--max-retries``/
``--strict`` arm the campaign's fault tolerance (hung units are killed
and retried, failing units retried then quarantined); an interrupted
run (SIGINT/SIGTERM) exits 130 with every completed unit in the cache
— re-run the same command to resume.  Reports land in ``REPRO_REPORT_DIR``
(default ``<repo>/.repro_reports``) as JSON documents embedding the
exact scenario that produced them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import (
    CampaignError,
    CampaignInterrupted,
    ResultCache,
    default_cache_dir,
)
from .config import CORE_ENGINE_CHOICES, SOC_SCHED_CHOICES
from .errors import ConfigurationError
from .runtime import knobs
from .sched.backend import BACKEND_CHOICES
from .scenarios import (
    CATALOG,
    default_report_dir,
    get_scenario,
    load_result,
    render_catalog,
    render_report,
    run_scenario,
    saved_results,
)


def _cmd_list(args: argparse.Namespace) -> int:
    print(render_catalog(list(CATALOG.values())))
    return 0


def _scaled(scenario, args: argparse.Namespace):
    """Apply the CLI's quick-scaling overrides to a catalog scenario."""
    return scenario.scaled(instructions=args.instructions,
                           repeats=args.repeats, sets=args.sets)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.all:
        names = list(CATALOG)
    elif args.scenario:
        names = args.scenario
    else:
        print("run: pass --scenario NAME (repeatable) or --all",
              file=sys.stderr)
        return 2
    cache = None if args.no_cache else "auto"
    # the override exports the sink via the environment, so campaign
    # worker processes spawned below inherit it
    with knobs.env_override("log_json", args.log_json or None):
        for name in names:
            scenario = _scaled(get_scenario(name), args)
            try:
                result = run_scenario(scenario, workers=args.workers,
                                      cache=cache, seed=args.seed,
                                      backend=args.backend,
                                      soc_sched=args.soc_sched,
                                      engine=args.engine,
                                      unit_timeout=args.unit_timeout,
                                      max_retries=args.max_retries,
                                      strict=args.strict or None)
            except CampaignInterrupted as exc:
                print(f"interrupted: {exc}; re-run to resume from the "
                      "cache", file=sys.stderr)
                return 130
            except CampaignError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(result.render())
            if not args.dry_run:
                path = result.save(args.report_dir)
                print(f"saved {path}")
            stats = result.stats
            if stats.quarantined:
                print(f"WARNING: {stats.quarantined} unit(s) "
                      f"quarantined after {stats.max_retries} "
                      "retry/retries — results are partial (re-run to "
                      "retry, or --strict to fail)", file=sys.stderr)
            print(f"({stats.computed} computed, {stats.cached} cached, "
                  f"{stats.workers} worker(s), {stats.seconds:.2f}s)\n")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    root = args.cache_dir or default_cache_dir()
    cache = ResultCache(root)
    if args.cache_command == "fsck":
        report = cache.fsck()
        print(json.dumps({"cache_dir": str(root), **report}, indent=1))
        return 1 if report["quarantined"] else 0
    report = cache.gc(tmp_max_age_s=args.tmp_age,
                      quarantine_max_age_s=args.quarantine_age)
    print(json.dumps({"cache_dir": str(root), **report}, indent=1))
    return 0


def _cmd_knobs(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(knobs.describe(), indent=1))
    else:
        print(knobs.knob_table())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ReproService, ServiceError
    with knobs.env_override("log_json", args.log_json or None):
        service = ReproService(workers=args.workers,
                               cache=None if args.no_cache else "auto")
        try:
            if args.pipe:
                return service.serve_pipe()
            return service.serve_socket(args.socket)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _print_submit_result(response: dict) -> int:
    """Render one finished job the same way ``run`` prints a scenario."""
    state = response.get("state")
    if not response.get("ok") or state != "done":
        detail = response.get("error") or f"job ended {state}"
        print(f"error: {detail}", file=sys.stderr)
        return 1
    doc = response["result"]
    print(render_report(doc))
    if response.get("saved"):
        print(f"saved {response['saved']}")
    stats = doc.get("stats") or {}
    print(f"({stats.get('computed', 0)} computed, "
          f"{stats.get('cached', 0)} cached, "
          f"{stats.get('workers', 1)} worker(s), "
          f"{stats.get('seconds', 0.0):.2f}s)\n")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceUnavailable
    from .service.client import ServiceClient
    if args.all:
        names = list(CATALOG)
    elif args.scenario:
        names = args.scenario
    elif not (args.status or args.shutdown):
        print("submit: pass --scenario NAME (repeatable), --all, "
              "--status or --shutdown", file=sys.stderr)
        return 2
    else:
        names = []
    client = ServiceClient(args.socket)
    try:
        client.connect(retries=1)
        if args.status:
            response = client.request("status")
            for job in response.get("jobs", []):
                print(json.dumps(job, sort_keys=True))
        status = 0
        job_ids = []
        for name in names:
            response = client.request(
                "submit", scenario=name, seed=args.seed,
                instructions=args.instructions, repeats=args.repeats,
                sets=args.sets)
            if not response.get("ok"):
                print(f"error: {response.get('error')}", file=sys.stderr)
                return 1
            job_ids.append(response["job"])
            print(f"submitted {name} as {response['job']}",
                  file=sys.stderr)
        if args.no_wait:
            for job_id in job_ids:
                print(job_id)
        else:
            for job_id in job_ids:
                response = client.request("result", job=job_id,
                                          timeout=args.timeout)
                status = _print_submit_result(response) or status
        if args.shutdown:
            client.request("shutdown")
        return status
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_report(args: argparse.Namespace) -> int:
    directory = args.report_dir or default_report_dir()
    names = args.names or saved_results(directory)
    if not names:
        print(f"no saved reports under {directory}; "
              "run `python -m repro run --scenario NAME` first",
              file=sys.stderr)
        return 1
    status = 0
    for name in names:
        try:
            doc = load_result(name, directory)
        except FileNotFoundError:
            print(f"no saved report for {name!r} under {directory}",
                  file=sys.stderr)
            status = 1
            continue
        print(render_report(doc))
        print()
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run named experiment scenarios through the "
                    "parallel campaign engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario catalog")

    run = sub.add_parser("run", help="run scenarios and save reports")
    run.add_argument("--scenario", action="append", metavar="NAME",
                     help="catalog scenario to run (repeatable)")
    run.add_argument("--all", action="store_true",
                     help="run every catalog scenario")
    run.add_argument("--workers", type=int, default=None,
                     help="campaign workers (default REPRO_WORKERS "
                          "or cpu_count)")
    run.add_argument("--backend", default=None,
                     choices=BACKEND_CHOICES,
                     help="schedulability backend for sched scenarios "
                          "(default REPRO_SCHED_BACKEND or auto: numpy "
                          "when installed, else pure python; verdicts "
                          "are backend-invariant)")
    run.add_argument("--soc-sched", default=None,
                     choices=SOC_SCHED_CHOICES,
                     help="co-simulation scheduler for co-sim scenarios "
                          "(default REPRO_SOC_SCHED or auto = heap; "
                          "'loop' is the round-scan oracle; results "
                          "are scheduler-invariant)")
    run.add_argument("--engine", default=None,
                     choices=CORE_ENGINE_CHOICES,
                     help="core execution engine tier "
                          "(default REPRO_CORE_ENGINE or auto = decoded; "
                          "'interp' is the reference interpreter; "
                          "results are engine-invariant)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's built-in seed")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the campaign result cache")
    run.add_argument("--unit-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-unit wall-clock timeout; hung units are "
                          "killed and retried (default "
                          "REPRO_UNIT_TIMEOUT or none)")
    run.add_argument("--max-retries", type=int, default=None,
                     metavar="N",
                     help="retries per failing unit before quarantine "
                          "(default REPRO_MAX_RETRIES or 0)")
    run.add_argument("--strict", action="store_true",
                     help="fail the run if any unit is quarantined "
                          "(default REPRO_CAMPAIGN_STRICT or degrade "
                          "gracefully)")
    run.add_argument("--dry-run", action="store_true",
                     help="print the tables without saving a report")
    run.add_argument("--log-json", default=None, metavar="SINK",
                     help="structured JSON-lines event sink for this "
                          "run: 'stderr' or a file path to append "
                          "(default REPRO_LOG_JSON or off; events "
                          "never perturb results)")
    run.add_argument("--report-dir", default=None,
                     help="report directory (default REPRO_REPORT_DIR "
                          "or <repo>/.repro_reports)")
    run.add_argument("--instructions", type=int, default=None,
                     help="override target_instructions (quick scaling)")
    run.add_argument("--repeats", type=int, default=None,
                     help="override fault-injection repeats")
    run.add_argument("--sets", type=int, default=None,
                     help="override sched sets_per_point")

    serve = sub.add_parser(
        "serve", help="run the resident campaign service daemon "
                      "(JSON-lines protocol; see EXPERIMENTS.md)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="unix-domain socket to listen on (default "
                            "REPRO_SERVE_SOCKET or "
                            "<repo>/.repro_serve.sock)")
    serve.add_argument("--pipe", action="store_true",
                       help="speak the protocol over stdin/stdout "
                            "instead of a socket (tests, CI)")
    serve.add_argument("--workers", type=int, default=None,
                       help="campaign workers per job (default "
                            "REPRO_WORKERS or cpu_count)")
    serve.add_argument("--no-cache", action="store_true",
                       help="run without the result cache (disables "
                            "cached replay and restart resume)")
    serve.add_argument("--log-json", default=None, metavar="SINK",
                       help="structured JSON-lines event sink "
                            "(default REPRO_LOG_JSON or off)")

    submit = sub.add_parser(
        "submit", help="submit scenarios to a running serve daemon")
    submit.add_argument("--scenario", action="append", metavar="NAME",
                        help="catalog scenario to submit (repeatable)")
    submit.add_argument("--all", action="store_true",
                        help="submit every catalog scenario")
    submit.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket (default REPRO_SERVE_SOCKET)")
    submit.add_argument("--seed", type=int, default=None,
                        help="override the scenario's built-in seed")
    submit.add_argument("--instructions", type=int, default=None,
                        help="override target_instructions "
                             "(quick scaling)")
    submit.add_argument("--repeats", type=int, default=None,
                        help="override fault-injection repeats")
    submit.add_argument("--sets", type=int, default=None,
                        help="override sched sets_per_point")
    submit.add_argument("--no-wait", action="store_true",
                        help="print job ids and return instead of "
                             "waiting for results")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="max wait per job result (default: forever)")
    submit.add_argument("--status", action="store_true",
                        help="print the daemon's job table")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon for a graceful "
                             "drain-and-manifest stop afterwards")

    report = sub.add_parser("report", help="re-render saved reports")
    report.add_argument("names", nargs="*", metavar="NAME",
                        help="scenario names (default: all saved)")
    report.add_argument("--report-dir", default=None,
                        help="report directory to read")

    knobs_cmd = sub.add_parser(
        "knobs", help="list every runtime knob with current value, "
                      "source and help (from the registry)")
    knobs_cmd.add_argument("--json", action="store_true",
                           help="machine-readable registry dump")

    cache = sub.add_parser(
        "cache", help="maintain the campaign result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    fsck = cache_sub.add_parser(
        "fsck", help="verify every entry's checksum envelope; corrupt "
                     "entries move to quarantine (exit 1 if any)")
    gc = cache_sub.add_parser(
        "gc", help="sweep leaked writer tmp files and aged quarantine")
    for sub_cmd in (fsck, gc):
        sub_cmd.add_argument("--cache-dir", default=None,
                             help="cache root (default REPRO_CACHE_DIR "
                                  "or <repo>/.repro_cache)")
    from .campaign.cache import GC_QUARANTINE_MAX_AGE_S, GC_TMP_MAX_AGE_S
    gc.add_argument("--tmp-age", type=float,
                    default=GC_TMP_MAX_AGE_S, metavar="SECONDS",
                    help="max age of *.tmp.<pid> writer litter "
                         "(default 1 hour)")
    gc.add_argument("--quarantine-age", type=float,
                    default=GC_QUARANTINE_MAX_AGE_S, metavar="SECONDS",
                    help="max age of quarantined corpses "
                         "(default 7 days)")

    args = parser.parse_args(argv)
    handler = {"list": _cmd_list, "run": _cmd_run,
               "report": _cmd_report, "cache": _cmd_cache,
               "knobs": _cmd_knobs, "serve": _cmd_serve,
               "submit": _cmd_submit}[args.command]
    try:
        # fail fast on misspelled REPRO_* names or malformed values
        # before any work starts
        knobs.check_env()
        return handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
