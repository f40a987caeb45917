"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — available experiments and benchmarks.
* ``run <experiment> [opts]``   — regenerate one figure and print its table
                                  (e.g. ``python -m repro run fig15 --scale 0.05``).
* ``compare <benchmark> [opts]``— one SW-vs-HW collection on one profile.
* ``area``                      — print the Fig. 22 area tables.
* ``run-all [--jobs N] [--out EXPERIMENTS.md] [--only ids]
  [--timeout S] [--retries N] [--keep-going] [--shard-figures]``
                                — regenerate the full figure set, fanning
                                  experiments across a persistent worker
                                  pool with per-task timeouts, bounded
                                  retries, per-axis-value cells
                                  (``--shard-figures``), and the
                                  ``REPRO_SIM_CACHE`` content-addressed
                                  result cache (rerunning against the
                                  same cache resumes an interrupted run).
* ``trace <figure|profile> [opts]``
                                — capture a cycle-stamped trace of one GC
                                  and export it (Chrome trace / JSONL / CSV).
* ``fault-drill [--spec kind:component[:nth|:@cycle],...] [opts]``
                                — inject hardware faults into one collection,
                                  print the watchdog diagnosis, and verify
                                  the software-fallback recovery against the
                                  fault-free oracle.
* ``fleet [--policy dedicated,shared,software] [--lbo] [opts]``
                                — simulate the multi-tenant fleet and print
                                  the SLO report (and optionally the
                                  lower-bound-overhead table).
* ``fleet --faults SPEC``       — arm the fleet fault plane (crashed /
                                  browned-out / slow units and tenants)
                                  and print the degraded-mode resilience
                                  table: availability, failovers, retry
                                  wait, fallback tax.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.harness.figures import FIGURES
    from repro.workloads.profiles import DACAPO_PROFILES
    print("experiments:")
    for name, figure in FIGURES.items():
        doc = (figure.runner.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:16s} {doc}")
    print("\nbenchmark profiles:")
    for name, profile in DACAPO_PROFILES.items():
        print(f"  {name:10s} {profile.description.split(':')[0]}")
    return 0


def _cmd_run(args) -> int:
    from repro.harness.figures import FIGURES, bind
    figure = FIGURES.get(args.experiment)
    if figure is None:
        print(f"unknown experiment {args.experiment!r}; try `list`",
              file=sys.stderr)
        return 2
    kwargs = {name: value for name, value in
              (("scale", args.scale), ("seed", args.seed))
              if value is not None}
    # Bind each flag alone, so the refusal names the one the runner lacks.
    for name, value in kwargs.items():
        try:
            bind(args.experiment, {name: value})
        except TypeError:
            print(f"{args.experiment} takes no --{name}", file=sys.stderr)
            return 2
    try:
        result = figure.runner(**kwargs)
    except ValueError as exc:
        flags = " ".join(f"--{name} {value}" for name, value in kwargs.items())
        print(f"{args.experiment} {flags}: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0


def _cmd_compare(args) -> int:
    from repro.harness.runners import run_gc_comparison
    from repro.workloads.profiles import DACAPO_PROFILES
    profile = DACAPO_PROFILES.get(args.benchmark)
    if profile is None:
        print(f"unknown benchmark {args.benchmark!r}; try `list`",
              file=sys.stderr)
        return 2
    try:
        comp = run_gc_comparison(profile, scale=args.scale, seed=args.seed)
    except ValueError as exc:
        print(f"{args.benchmark} --scale {args.scale} --seed {args.seed}: "
              f"{exc}", file=sys.stderr)
        return 2
    print(comp.summary())
    print(f"overall speedup: {comp.overall_speedup:.2f}x")
    return 0


def _cmd_area(_args) -> int:
    from repro.harness.experiments import fig22
    print(fig22().render())
    return 0


def _cmd_run_all(args) -> int:
    import time

    from repro.harness.diskcache import CAP_VARS, max_mb_from_env, sim_store
    from repro.harness.faults import FaultSpecError
    from repro.harness.parallel import (
        SuiteRunError,
        default_jobs,
        digests,
        run_suite,
        write_report,
    )

    # Count constraints first, as _cmd_fleet does: a negative --timeout
    # would put every deadline in the past, 0 would silently disable it,
    # and negative --retries/--jobs would be clamped without a word.
    for flag, value in (("--jobs", args.jobs), ("--retries", args.retries)):
        if value < 0:
            print(f"{flag} must be at least 0 (got {value})",
                  file=sys.stderr)
            return 2
    if args.timeout is not None and not args.timeout > 0:
        print(f"--timeout must be greater than 0 seconds "
              f"(got {args.timeout:g})", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs else default_jobs()
    only = args.only.split(",") if args.only else None
    store = sim_store()
    if store.bypassed:
        # The one case where a rerun against the cache recomputes
        # everything; say so rather than let it look like a cold cache.
        print("sim cache: bypassed (REPRO_HWFAULTS is armed)", flush=True)
    t0 = time.time()
    try:
        # Parse the cache caps here, not on a worker's first write.
        for var in CAP_VARS:
            max_mb_from_env(var)
        runs = run_suite(jobs=jobs, only=only,
                         progress=lambda msg: print(msg, flush=True),
                         timeout=args.timeout, retries=args.retries,
                         keep_going=args.keep_going,
                         shard_figures=args.shard_figures)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (FaultSpecError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except SuiteRunError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        if store.directory is not None:
            print(f"completed cells are cached in {store.directory}; "
                  "rerun with the same REPRO_SIM_CACHE to continue",
                  file=sys.stderr)
        return 1
    elapsed = time.time() - t0
    if args.out:
        write_report(runs, args.out)
        print(f"wrote {args.out}")
    if args.digests:
        for exp_id, digest in digests(runs).items():
            print(f"{exp_id:20s} {digest}")
    busy = sum(run.elapsed for run in runs)
    retried = [r for r in runs if r.attempts > 1 and r.ok]
    failed = [r for r in runs if not r.ok]
    print(f"{len(runs)} experiments in {elapsed:.0f}s wall "
          f"({busy:.0f}s of simulation on {jobs} worker(s))")
    hits = sum(r.cache_hits for r in runs)
    misses = sum(r.cache_misses for r in runs)
    if hits or misses:
        print(f"sim cache: {hits} hit(s), {misses} simulated "
              f"cell(s)")
    ahead = sum(r.base_runs_ahead for r in runs)
    if ahead:
        print(f"fleet base runs: {ahead} simulated ahead of their cells")
    if retried:
        print(f"{len(retried)} recovered after retries: "
              + ", ".join(f"{r.exp_id} x{r.attempts}" for r in retried))
    for run in failed:
        print(f"FAILED {run.exp_id} after {run.attempts} attempt(s): "
              f"{run.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from repro.engine.trace import write_chrome_trace, write_csv, write_jsonl
    from repro.harness.tracing import render_summary, trace_collection
    from repro.workloads.profiles import ScaleError

    try:
        capture = trace_collection(args.target, scale=args.scale,
                                   seed=args.seed, collectors=args.collector)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ScaleError as exc:
        print(f"{args.target} --scale {args.scale}: {exc}", file=sys.stderr)
        return 2
    print(render_summary(capture))
    if args.out:
        if args.format == "chrome":
            write_chrome_trace(capture.events, args.out, meta={
                "target": capture.target, "profile": capture.profile,
                "scale": capture.scale, "seed": capture.seed,
                "digest": capture.digest,
            })
        elif args.format == "jsonl":
            write_jsonl(capture.events, args.out)
        else:
            write_csv(capture.events, args.out)
        print(f"wrote {args.out} ({args.format}, {len(capture.bus)} events)")
    if args.digest:
        print(capture.digest)
    return 0


def _cmd_fault_drill(args) -> int:
    import os

    from repro.core.config import GCUnitConfig
    from repro.core.driver import HWGCDriver
    from repro.engine.faultplane import (
        ENV_VAR,
        HWFaultSpecError,
        parse_hwfault_spec,
    )
    from repro.heap.verify import heap_digest
    from repro.workloads import DACAPO_PROFILES, HeapGraphBuilder
    from repro.workloads.profiles import ScaleError

    profile = DACAPO_PROFILES.get(args.benchmark)
    if profile is None:
        print(f"unknown benchmark {args.benchmark!r}; try `list`",
              file=sys.stderr)
        return 2
    if args.relocate_blocks < 0:
        print(f"--relocate-blocks must be at least 0 "
              f"(got {args.relocate_blocks})", file=sys.stderr)
        return 2
    try:
        profile.scaled_objects(args.scale)
    except ScaleError as exc:
        print(f"{args.benchmark} --scale {args.scale}: {exc}",
              file=sys.stderr)
        return 2
    spec = args.spec or os.environ.get(ENV_VAR, "").strip() or "drop:dram"
    try:
        plane = parse_hwfault_spec(spec)
    except HWFaultSpecError as exc:
        print(exc, file=sys.stderr)
        return 2

    def fresh():
        built = HeapGraphBuilder(profile, scale=args.scale,
                                 seed=args.seed).build()
        # The drill arms its plane explicitly on the faulted run only; an
        # env-armed plane would otherwise also hit the reference run.
        env_plane = built.heap.memsys.stats.hwfaults
        if env_plane is not None:
            env_plane.uninstall()
        return built

    # Fault-free reference: the logical heap state recovery must converge
    # to (a fallback from a concurrent cycle restores the pre-cycle
    # snapshot and finishes STW, so the STW reference applies there too).
    built = fresh()
    heap = built.heap
    driver = HWGCDriver(heap, GCUnitConfig())
    driver.init_device()
    clean = driver.run_gc_safe()
    if clean.outcome != "hardware":
        print(f"fault-free reference run degraded: {clean.reason()}",
              file=sys.stderr)
        return 1
    heap.prune_dead(heap.reachable())
    reference = heap_digest(heap)
    print(f"fault-free reference digest: {reference}")

    built = fresh()
    heap = built.heap
    oracle = heap.reachable()
    plane.install(heap.memsys.stats, heap.memsys.phys)
    driver = HWGCDriver(heap, GCUnitConfig())
    driver.init_device()
    if args.mode == "concurrent":
        from repro.workloads.mutator import ConcurrentMutator

        mutator = ConcurrentMutator(built, seed=args.seed)
        safe = driver.run_gc_safe(mode="concurrent", mutator=mutator,
                                  relocate_blocks=args.relocate_blocks)
    else:
        safe = driver.run_gc_safe()
    print(f"armed:   {spec} (mode: {args.mode})")
    print(f"fired:   {'; '.join(str(f) for f in safe.faults) or 'nothing'}")
    print(f"outcome: {safe.outcome} ({safe.reason()})")
    if safe.stall is not None:
        print(f"diagnosis: {safe.stall}")
    if safe.outcome == "hardware" and args.mode == "concurrent":
        # The mutator ran during marking, so the pre-GC oracle no longer
        # applies; the valid identity is the handshake oracle the cycle
        # itself was verified against.
        live_ok = heap.reachable() == safe.result.oracle
        digest_ok = safe.verification is not None and safe.verification.ok
        print(f"live set == handshake oracle: {live_ok}")
        print(f"software verification passed: {digest_ok}")
    else:
        live_ok = heap.reachable() == oracle
        heap.prune_dead(heap.reachable())
        digest_ok = heap_digest(heap) == reference
        print(f"recovered live set == oracle: {live_ok}")
        print(f"recovered heap digest == reference: {digest_ok}")
    if not (live_ok and digest_ok):
        return 1
    if args.expect_fallback and not safe.fallback:
        print("expected a fallback but the hardware run survived "
              "(fault absorbed); try a different --spec trigger",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args) -> int:
    import hashlib

    from repro.fleet.admission import POLICIES, resolve_policy
    from repro.fleet.faults import FleetFaultSpec, FleetFaultSpecError
    from repro.harness.diskcache import CAP_VARS, max_mb_from_env
    from repro.harness.experiments import (
        fleet_lbo,
        fleet_resilience,
        fleet_slo,
    )

    # Count constraints first: the shared DRAM tax divides by --units and
    # the replay horizon multiplies by --queries, so zero/negative values
    # crash deep in the simulation with errors that name neither the flag
    # nor the bound (a negative --dram-tax shrinks pauses into ill-formed
    # windows; a negative --shed-intervals silently meant "never shed").
    # Mirror the policy-validation style: exit 2, state the constraint.
    # Each check is written so that NaN fails it too.
    for flag, value, bound, ok in (
            ("--units", args.units, "at least 1", args.units >= 1),
            ("--tenants", args.tenants, "at least 1", args.tenants >= 1),
            ("--queries", args.queries, "at least 1", args.queries >= 1),
            ("--warmup", args.warmup, "at least 0", args.warmup >= 0),
            ("--gcs", args.gcs, "at least 1", args.gcs >= 1),
            ("--scale", args.scale, "greater than 0", args.scale > 0),
            ("--dram-tax", args.dram_tax, "at least 0", args.dram_tax >= 0),
            ("--shed-intervals", args.shed_intervals, "at least 0",
             args.shed_intervals >= 0)):
        if not ok:
            print(f"{flag} must be {bound} (got {value})", file=sys.stderr)
            return 2
    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    if not policies:
        # Mirror suite.select(): an empty selection must not silently
        # simulate nothing.
        print("empty policy selection; "
              f"valid policies: {', '.join(POLICIES)}", file=sys.stderr)
        return 2
    try:
        for policy in policies:
            resolve_policy(policy)
        # Base runs are stored in REPRO_SIM_CACHE: parse its cap up front.
        for var in CAP_VARS:
            max_mb_from_env(var)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.faults is not None:
        try:
            faults = FleetFaultSpec.parse(args.faults)
            faults.validate(args.units, args.tenants)
        except FleetFaultSpecError as exc:
            print(exc, file=sys.stderr)
            return 2
        result = fleet_resilience(
            scale=args.scale, seed=args.seed, n_gcs=args.gcs,
            n_tenants=args.tenants, n_queries=args.queries,
            warmup=args.warmup, n_units=args.units,
            dram_tax=args.dram_tax,
            rosters=((args.faults.strip() or "no faults", args.faults),))
        rendered = result.render()
        print(rendered)
        if args.digest:
            print(hashlib.sha256(rendered.encode()).hexdigest())
        return 0
    result = fleet_slo(scale=args.scale, seed=args.seed, n_gcs=args.gcs,
                       n_tenants=args.tenants, n_queries=args.queries,
                       warmup=args.warmup, policies=tuple(policies),
                       n_units=args.units, dram_tax=args.dram_tax,
                       shed_backlog_intervals=args.shed_intervals)
    rendered = result.render()
    print(rendered)
    if args.lbo:
        print()
        print(fleet_lbo(scale=args.scale, seed=args.seed,
                        n_gcs=args.gcs).render())
    if args.digest:
        print(hashlib.sha256(rendered.encode()).hexdigest())
    return 0


def main(argv=None) -> int:
    from repro.harness.figures import FIGURES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'A Hardware Accelerator for Tracing "
        "Garbage Collection' (ISCA 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments and profiles")
    run_parser = sub.add_parser("run", help="regenerate one figure")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", type=float, default=None)
    run_parser.add_argument("--seed", type=int, default=None)
    cmp_parser = sub.add_parser("compare", help="SW vs HW on one profile")
    cmp_parser.add_argument("benchmark")
    cmp_parser.add_argument("--scale", type=float, default=0.03)
    cmp_parser.add_argument("--seed", type=int, default=1)
    sub.add_parser("area", help="print the area model (Fig. 22)")
    all_parser = sub.add_parser(
        "run-all", help="regenerate the full figure set (parallel)")
    all_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (0 = all cores)")
    all_parser.add_argument("--out", default=None, metavar="EXPERIMENTS.md",
                            help="write the assembled report here")
    all_parser.add_argument("--only", default=None,
                            help="comma-separated experiment ids")
    all_parser.add_argument("--digests", action="store_true",
                            help="print per-figure determinism fingerprints")
    all_parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="kill and reschedule a figure that runs "
                            "longer than this (jobs > 1 only)")
    all_parser.add_argument("--retries", type=int, default=0,
                            help="retry a crashed/failed/hung figure up to "
                            "N times (exponential backoff)")
    all_parser.add_argument("--shard-figures", action="store_true",
                            help="also split shardable-axis figures ("
                            + ", ".join(exp_id for exp_id, figure
                                        in FIGURES.items() if figure.shard)
                            + ") into one task "
                            "per axis value on the --jobs workers; "
                            "digests are unchanged")
    all_parser.add_argument("--keep-going", action="store_true",
                            help="on exhausted retries, annotate the "
                            "report and continue instead of aborting "
                            "(exit status is still non-zero)")
    trace_parser = sub.add_parser(
        "trace", help="capture a cycle-stamped trace of one collection")
    trace_parser.add_argument("target",
                              help="figure id (fig16) or profile (avrora)")
    trace_parser.add_argument("--scale", type=float, default=None)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--out", default=None, metavar="FILE",
                              help="write the event stream here")
    trace_parser.add_argument("--format", default="chrome",
                              choices=("chrome", "jsonl", "csv"),
                              help="export format (chrome://tracing JSON, "
                              "JSONL, or CSV)")
    trace_parser.add_argument("--collector", default="both",
                              choices=("both", "hw", "sw"),
                              help="which collector(s) to trace")
    trace_parser.add_argument("--digest", action="store_true",
                              help="print the stream's sha256 fingerprint")
    drill_parser = sub.add_parser(
        "fault-drill",
        help="inject hardware faults and verify the safety-net recovery")
    drill_parser.add_argument("--spec", default=None,
                              help="fault spec, same grammar as "
                              "REPRO_HWFAULTS: kind:component[:nth|:@cycle]"
                              "[,...] (kinds: drop/delay/corrupt/stuck; "
                              "components: dram/tlb/marker/markqueue/"
                              "sweeper). Defaults to $REPRO_HWFAULTS, "
                              "else drop:dram")
    drill_parser.add_argument("--benchmark", default="luindex",
                              help="workload profile to drill on")
    drill_parser.add_argument("--scale", type=float, default=0.008)
    drill_parser.add_argument("--seed", type=int, default=13)
    drill_parser.add_argument("--expect-fallback", action="store_true",
                              help="fail unless the fault actually forced "
                              "the software fallback")
    drill_parser.add_argument("--mode", default="stw",
                              choices=("stw", "concurrent"),
                              help="drill a stop-the-world collection or a "
                              "concurrent one (mutator racing the mark)")
    drill_parser.add_argument("--relocate-blocks", type=int, default=0,
                              metavar="N",
                              help="concurrent mode: evacuate N blocks in "
                              "the relocation prologue")
    fleet_parser = sub.add_parser(
        "fleet", help="simulate the multi-tenant fleet under SLO")
    fleet_parser.add_argument("--policy", default="dedicated,shared,software",
                              help="comma-separated GC scheduling policies "
                              "(dedicated, shared, software)")
    fleet_parser.add_argument("--tenants", type=int, default=4,
                              help="fleet size (mixed DaCapo profiles)")
    fleet_parser.add_argument("--units", type=int, default=1,
                              help="accelerator GC units behind the "
                              "shared-policy admission queue")
    fleet_parser.add_argument("--queries", type=int, default=3000,
                              help="length of the open-loop arrival stream")
    fleet_parser.add_argument("--warmup", type=int, default=150,
                              help="global queries discarded as warm-up")
    fleet_parser.add_argument("--gcs", type=int, default=2,
                              help="collections per tenant base run")
    fleet_parser.add_argument("--scale", type=float, default=0.015)
    fleet_parser.add_argument("--seed", type=int, default=1)
    fleet_parser.add_argument("--dram-tax", type=float, default=0.25,
                              help="shared-DRAM contention service-rate tax")
    fleet_parser.add_argument("--shed-intervals", type=int, default=0,
                              metavar="N",
                              help="shed a query arriving > N intervals "
                              "behind (0 = never shed)")
    fleet_parser.add_argument("--faults", default=None, metavar="SPEC",
                              help="arm the fleet fault plane and print "
                              "the resilience table instead: comma-"
                              "separated kind:target[@cycle][+duration]"
                              "[xfactor], kinds crash/brownout/slow, "
                              "targets u<N>/t<N> (shared policy)")
    fleet_parser.add_argument("--lbo", action="store_true",
                              help="also print the lower-bound-overhead "
                              "(Cai et al.) table")
    fleet_parser.add_argument("--digest", action="store_true",
                              help="print the SLO table's sha256 "
                              "fingerprint")
    args = parser.parse_args(argv)
    return {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "area": _cmd_area,
        "run-all": _cmd_run_all,
        "trace": _cmd_trace,
        "fault-drill": _cmd_fault_drill,
        "fleet": _cmd_fleet,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
