"""``repro fleet`` — serve and load-test the sharded fleet.

Subcommands
-----------
``serve``
    Start an N-shard fleet, answer a short self-test of Zipf-user
    traffic, and print the fleet metrics snapshot.
``loadgen``
    Drive a fleet with heavy-tailed open-loop Zipf-user traffic and
    print the client report plus the fleet metrics snapshot.  Exits
    non-zero if any routed request failed to reach a terminal outcome
    (the ``make fleet-smoke`` zero-dropped-on-shutdown assertion).

Both build the fleet in-process.  ``--engine sim`` uses the
calibrated-delay shard engine (scaling/SLO behaviour without the DSP
cost); ``--engine service`` runs real warm verification services per
shard.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.errors import ConfigurationError


def add_fleet_parser(subparsers) -> None:
    """Attach the ``fleet`` command tree to the root CLI parser."""
    fleet = subparsers.add_parser(
        "fleet", help="user-sharded async serving fleet"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--shards", type=int, default=2,
        help="service shards in the fleet",
    )
    common.add_argument(
        "--engine", choices=["sim", "service"], default="sim",
        help=(
            "shard engine: sim (calibrated-delay capacity model) or "
            "service (real warm verification workers)"
        ),
    )
    common.add_argument(
        "--workers", type=int, default=1,
        help="initial warm workers per shard",
    )
    common.add_argument(
        "--max-workers", type=int, default=4,
        help=(
            "autoscaling ceiling per shard "
            "(equal to --workers disables growth)"
        ),
    )
    common.add_argument(
        "--users", type=int, default=100_000,
        help="synthetic user population size",
    )
    common.add_argument(
        "--zipf-s", type=float, default=1.1, metavar="S",
        help="Zipf exponent of user activity",
    )
    common.add_argument(
        "--rate", type=float, default=100.0, metavar="RPS",
        help="mean open-loop arrival rate",
    )
    common.add_argument(
        "--slo-p95-ms", type=float, default=150.0, metavar="MS",
        help="rolling-p95 SLO target per shard",
    )
    common.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="fleet-wide per-request deadline",
    )
    common.add_argument(
        "--failover", type=int, default=1,
        help="neighbor shards tried when the owner is down",
    )
    common.add_argument(
        "--queue-capacity", type=int, default=16,
        help="per-shard admission-queue bound",
    )
    common.add_argument(
        "--service-time-ms", type=float, default=6.0, metavar="MS",
        help="sim engine: per-request service time",
    )
    common.add_argument(
        "--segmenter", choices=["none", "fast"], default="fast",
        help=(
            "service engine: BLSTM segmenter recipe workers warm up "
            "with (none skips segmentation)"
        ),
    )
    common.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "artifact-store directory: per-user profiles (and "
            "segmenter weights) are published/loaded there "
            "(default: $REPRO_STORE_DIR)"
        ),
    )
    common.add_argument("--seed", type=int, default=0)
    actions = fleet.add_subparsers(dest="fleet_command", required=True)

    serve = actions.add_parser(
        "serve", help="start a fleet and answer a short self-test",
        parents=[common],
    )
    serve.add_argument(
        "--requests", type=int, default=24,
        help="self-test requests to answer before exiting",
    )

    loadgen = actions.add_parser(
        "loadgen", help="heavy-tailed Zipf-user load against a fleet",
        parents=[common],
    )
    loadgen.add_argument(
        "--requests", type=int, default=200,
        help="total requests to issue",
    )
    loadgen.add_argument(
        "--alpha", type=float, default=2.5,
        help="Pareto shape of interarrival gaps (> 1)",
    )
    loadgen.add_argument(
        "--priority-fraction", type=float, default=0.1,
        help="fraction of requests marked protected-priority",
    )


def _build_front_door(args: argparse.Namespace):
    """Front door + shard factory from the parsed common flags."""
    from repro.fleet.frontdoor import FleetConfig, FleetFrontDoor
    from repro.fleet.profiles import registry_profile_loader
    from repro.fleet.shard import (
        SimulatedEngineConfig,
        service_shard_factory,
        simulated_shard_factory,
    )
    from repro.fleet.slo import Autoscaler, AutoscalerConfig, SloConfig
    from repro.store.cli import resolve_store_dir

    slo = SloConfig(target_p95_s=args.slo_p95_ms / 1e3)
    autoscaler_config = AutoscalerConfig(
        min_workers=min(args.workers, args.max_workers),
        max_workers=max(args.workers, args.max_workers),
    )

    def autoscaler_factory() -> Autoscaler:
        return Autoscaler(autoscaler_config, slo)

    if args.engine == "sim":
        factory = simulated_shard_factory(
            engine_config=SimulatedEngineConfig(
                n_workers=args.workers,
                service_time_s=args.service_time_ms / 1e3,
                queue_capacity=args.queue_capacity,
            ),
            slo=slo,
            autoscaler_factory=autoscaler_factory,
        )
    else:
        from repro.serve import PipelineSpec, ServiceConfig

        store_dir = resolve_store_dir(args.store_dir)
        if args.segmenter == "none":
            spec = PipelineSpec(use_segmenter=False)
        else:
            spec = PipelineSpec(
                segmenter_seed=args.seed,
                n_speakers=2,
                n_per_phoneme=3,
                epochs=3,
                store_dir=store_dir,
            )
        profile_loader = None
        if store_dir is not None:
            from repro.store import ModelRegistry

            profile_loader = registry_profile_loader(
                ModelRegistry(store_dir)
            )
        factory = service_shard_factory(
            spec,
            ServiceConfig(
                n_workers=args.workers,
                queue_capacity=args.queue_capacity,
                backpressure="reject",
                default_deadline_s=args.deadline,
            ),
            profile_loader=profile_loader,
            slo=slo,
            autoscaler_factory=autoscaler_factory,
        )
    config = FleetConfig(
        n_shards=args.shards,
        failover=args.failover,
        default_deadline_s=args.deadline,
        slo=slo,
    )
    return FleetFrontDoor(factory, config)


def _print_outcome(report, metrics) -> int:
    from repro.fleet.metrics import format_fleet_metrics

    degraded = (
        f" ({report.n_degraded} degraded)" if report.n_degraded else ""
    )
    print(
        f"fleet: {report.n_issued} issued, "
        f"{report.n_served} served{degraded}, "
        f"{report.n_rerouted} rerouted, "
        f"{report.n_rejected} rejected, {report.n_shed} shed, "
        f"{report.n_failed} failed in {report.wall_s:.2f}s "
        f"({report.throughput_rps:.2f} req/s)"
    )
    if report.latencies_s:
        print(
            "latency p50/p95/p99: "
            f"{report.latency_percentile(50) * 1e3:.1f} / "
            f"{report.latency_percentile(95) * 1e3:.1f} / "
            f"{report.latency_percentile(99) * 1e3:.1f} ms"
        )
    print(format_fleet_metrics(metrics))
    if metrics.n_unresolved != 0:
        print(
            f"error: {metrics.n_unresolved} request(s) never reached "
            "a terminal outcome (dropped on shutdown?)"
        )
        return 1
    return 0


def _run(args: argparse.Namespace, loadgen_config) -> int:
    from repro.fleet.loadgen import run_fleet_loadgen

    try:
        front_door = _build_front_door(args)
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None
    print(
        f"Starting {args.shards} shard(s) x {args.workers} worker(s) "
        f"({args.engine} engine)..."
    )
    with front_door:
        report = run_fleet_loadgen(front_door, loadgen_config)
        metrics = front_door.metrics()
    return _print_outcome(report, metrics)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Dispatch one ``fleet`` subcommand; returns the exit code."""
    from repro.fleet.loadgen import FleetLoadgenConfig

    try:
        if args.fleet_command == "serve":
            config = FleetLoadgenConfig(
                n_requests=args.requests,
                users=args.users,
                zipf_s=args.zipf_s,
                rate_rps=args.rate,
                seed=args.seed,
                deadline_s=args.deadline,
                pool_size=min(args.requests, 6),
            )
        else:
            config = FleetLoadgenConfig(
                n_requests=args.requests,
                users=args.users,
                zipf_s=args.zipf_s,
                rate_rps=args.rate,
                pareto_alpha=args.alpha,
                priority_fraction=args.priority_fraction,
                seed=args.seed,
                deadline_s=args.deadline,
            )
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None
    return _run(args, config)
