"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Simulate one legitimate command and one thru-barrier replay attack
    and print the defense's verdicts (the quickstart, as a CLI).
``select``
    Run the offline barrier-effect-sensitive phoneme selection and
    print the selected set.
``evaluate``
    Run a scaled-down Fig. 9-style experiment for one attack kind and
    print AUC/EER for the full system and both baselines.
``attack-study``
    Run the Table I-style VA vulnerability study.
``serve``
    Start the in-process online verification service, answer a few
    self-test requests, and print the metrics snapshot.
``loadgen``
    Drive the service with a synthetic closed- or open-loop load and
    print latency percentiles plus the service metrics snapshot.
``store verify``
    Checksum every entry of the segmenter weight store; exit 1 on any
    corruption.  ``serve`` and ``loadgen`` read/publish trained
    segmenters there via ``--store-dir``.
``redteam curve``
    Run the adaptive-adversary robustness curve: budgeted optimizing
    attackers vs the deployed detector, hardened and unhardened.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    from repro.acoustics.materials import list_materials

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the ICDCS 2022 thru-barrier voice-attack "
            "defense"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="legit vs replay-attack demo")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--text", default="alexa unlock the back door",
        help="voice command text (must be in the lexicon)",
    )

    select = sub.add_parser(
        "select", help="offline sensitive-phoneme selection"
    )
    select.add_argument("--seed", type=int, default=99)
    select.add_argument(
        "--segments", type=int, default=24,
        help="renditions per phoneme",
    )

    evaluate = sub.add_parser(
        "evaluate", help="scaled-down ROC experiment for one attack"
    )
    evaluate.add_argument(
        "attack",
        nargs="?",
        default=None,
        choices=["random", "replay", "synthesis", "hidden_voice"],
        help=(
            "attack kind to evaluate (optional with --scenario, "
            "which carries its own default)"
        ),
    )
    evaluate.add_argument(
        "--scenario", default=None, metavar="NAME",
        help=(
            "registered scenario pack: attack x material x channel "
            "graph x detector config under one name (e.g. "
            "ultrasound-solid, metamaterial-barrier; an unknown name "
            "errors with the full list)"
        ),
    )
    evaluate.add_argument(
        "--material", default=None, metavar="KEY",
        help=(
            "override the barrier material in every room "
            f"(one of: {', '.join(list_materials())})"
        ),
    )
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--commands", type=int, default=3)
    evaluate.add_argument("--attacks", type=int, default=3)
    evaluate.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes for campaign scoring "
            "(0 = one per CPU core; results are identical for any count)"
        ),
    )

    study = sub.add_parser(
        "attack-study", help="Table I-style VA vulnerability study"
    )
    study.add_argument("--attempts", type=int, default=10)
    study.add_argument("--seed", type=int, default=77)
    study.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes for the device x SPL cells "
            "(0 = one per CPU core; results are identical for any count)"
        ),
    )

    for name, help_text in (
        ("serve", "online verification service self-test"),
        ("loadgen", "synthetic load against the in-process service"),
    ):
        serving = sub.add_parser(name, help=help_text)
        serving.add_argument("--seed", type=int, default=0)
        serving.add_argument(
            "--workers", type=int, default=2,
            help="warm verification workers (>= 1)",
        )
        serving.add_argument(
            "--queue-capacity", type=int, default=64,
            help="bound of the admission queue (submit blocks when full)",
        )
        serving.add_argument(
            "--batch-size", type=int, default=8,
            help="largest micro-batch dispatched to one worker",
        )
        serving.add_argument(
            "--segmenter",
            choices=["none", "fast", "paper"],
            default="fast",
            help=(
                "BLSTM segmenter recipe workers warm up with: none "
                "(skip segmentation), fast (tiny training set), paper "
                "(full recipe; slow startup without a store)"
            ),
        )
        serving.add_argument(
            "--scenario", default=None, metavar="NAME",
            help=(
                "registered scenario pack workers build their sensor "
                "and detector config from (e.g. ultrasound-solid, "
                "metamaterial-barrier); part of the batch-"
                "compatibility fingerprint"
            ),
        )
        serving.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help=(
                "artifact-store directory: workers load trained "
                "segmenter weights instead of retraining, and publish "
                "them after a cold start (default: $REPRO_STORE_DIR)"
            ),
        )
        serving.add_argument(
            "--no-store", action="store_true",
            help=(
                "ignore --store-dir and $REPRO_STORE_DIR; always "
                "train in-process"
            ),
        )
        serving.add_argument(
            "--threshold", type=float, default=None,
            help=(
                "detector decision threshold (default: score-only "
                "verdicts; required for --threshold-jitter)"
            ),
        )
        serving.add_argument(
            "--threshold-jitter", type=float, default=0.0, metavar="J",
            help=(
                "randomized defense: per-session threshold jitter "
                "(+-J around --threshold; 0 = deterministic detector)"
            ),
        )
        serving.add_argument(
            "--subset-fraction", type=float, default=1.0, metavar="F",
            help=(
                "randomized defense: per-session sensitive-phoneme "
                "fraction (1.0 = full paper set)"
            ),
        )
        if name == "serve":
            serving.add_argument(
                "--requests", type=int, default=6,
                help="self-test requests to answer before exiting",
            )
        else:
            serving.add_argument(
                "--requests", type=int, default=50,
                help="total requests to issue",
            )
            serving.add_argument(
                "--mode", choices=["closed", "open"], default="closed",
                help="closed loop (concurrency) or open loop (rate)",
            )
            serving.add_argument(
                "--concurrency", type=int, default=4,
                help="closed-loop client count",
            )
            serving.add_argument(
                "--rate", type=float, default=20.0, metavar="RPS",
                help="open-loop arrival rate",
            )

    store = sub.add_parser("store", help="check the segmenter weight store")
    actions = store.add_subparsers(dest="store_command", required=True)
    verify = actions.add_parser(
        "verify", help="checksum every entry; exit 1 on any corruption"
    )
    verify.add_argument(
        "--dir", dest="store_dir", default=None,
        help="store root directory (default: $REPRO_STORE_DIR)",
    )

    from repro.redteam.cli import add_redteam_parser

    add_redteam_parser(sub)
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.attacks import AttackScenario, ReplayAttack
    from repro.core import DefensePipeline
    from repro.core.segmentation import train_default_segmenter
    from repro.eval.rooms import ROOM_A
    from repro.phonemes import SyntheticCorpus, phonemize

    print("Training segmenter...")
    pipeline = DefensePipeline(
        segmenter=train_default_segmenter(seed=args.seed)
    )
    corpus = SyntheticCorpus(n_speakers=4, seed=args.seed + 1)
    scenario = AttackScenario(room_config=ROOM_A)
    user = corpus.speakers[0]
    utterance = corpus.utterance(
        phonemize(args.text), speaker=user, rng=args.seed + 2
    )
    va, wearable = scenario.legitimate_recordings(
        utterance, spl_db=70.0, rng=args.seed + 3
    )
    legit = pipeline.score(va, wearable, rng=args.seed + 4)
    attack = ReplayAttack(corpus, user).generate(
        command=args.text, rng=args.seed + 5
    )
    va, wearable = scenario.attack_recordings(
        attack, spl_db=75.0, rng=args.seed + 6
    )
    attacked = pipeline.score(va, wearable, rng=args.seed + 7)
    print(f"legitimate score : {legit:.3f}")
    print(f"attack score     : {attacked:.3f}")
    print(
        "verdict          : attack detected"
        if attacked < legit - 0.2
        else "verdict          : inconclusive (rerun with more data)"
    )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core.phoneme_selection import (
        PhonemeSelectionConfig,
        PhonemeSelector,
    )
    from repro.phonemes.inventory import PAPER_SELECTED_PHONEMES

    selector = PhonemeSelector(
        config=PhonemeSelectionConfig(n_segments=args.segments),
        seed=args.seed,
    )
    result = selector.run()
    print(
        f"selected {len(result.selected)}/37: "
        f"{sorted(result.selected)}"
    )
    print(f"rejected: {sorted(result.rejected)}")
    match = set(result.selected) == set(PAPER_SELECTED_PHONEMES)
    print(f"matches the paper's 31-phoneme set: {match}")
    return 0


def _resolve_workers(count: int) -> Optional[int]:
    """Map the --workers flag to a worker count (``None`` = one per
    CPU core).

    Rejects negatives up front, before any expensive setup runs.
    """
    if count < 0:
        raise SystemExit(f"error: --workers must be >= 0, got {count}")
    return None if count == 0 else count


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.attacks.base import AttackKind
    from repro.core.segmentation import PhonemeSegmenter
    from repro.errors import ConfigurationError
    from repro.eval.campaign import CampaignConfig, DetectorBank
    from repro.eval.experiment import run_attack_experiment
    from repro.eval.reporting import format_runner_stats
    from repro.eval.runner import CampaignRunner

    spec = None
    if args.scenario is not None:
        from repro.scenarios import get_scenario

        try:
            spec = get_scenario(args.scenario)
        except ConfigurationError as error:
            raise SystemExit(f"error: {error}") from None
    attack_name = args.attack or (spec.attack if spec else None)
    if attack_name is None:
        raise SystemExit(
            "error: give an attack kind or --scenario NAME"
        )
    rooms = spec.rooms() if spec is not None else None
    if args.material is not None and spec is not None and spec.material:
        # Workers re-resolve the scenario by name and re-apply its
        # material, so a CLI override could never win; refuse loudly
        # instead of losing silently.
        raise SystemExit(
            f"error: scenario {spec.name!r} pins material "
            f"{spec.material!r}; --material cannot override it"
        )
    if args.material is not None:
        from repro.acoustics.materials import get_material
        from repro.eval.rooms import ROOMS

        try:
            override = get_material(args.material)
        except ConfigurationError as error:
            raise SystemExit(f"error: {error}") from None
        rooms = [
            replace(room, barrier=override)
            for room in (rooms if rooms is not None else ROOMS.values())
        ]

    workers = _resolve_workers(args.workers)
    # The campaign scores oracle segments, which come from the
    # alignments and the sensitive set alone: an untrained segmenter
    # scores exactly as a trained one would.
    segmenter = PhonemeSegmenter()
    detectors = DetectorBank(
        segmenter=segmenter,
        pipeline=(
            spec.build_pipeline(segmenter=segmenter)
            if spec is not None
            else None
        ),
    )
    config = CampaignConfig(
        n_commands_per_participant=args.commands,
        n_attacks_per_kind=args.attacks,
        seed=args.seed,
        scenario=args.scenario,
        **(
            {"attack_spl_db": spec.attack_spl_db}
            if spec is not None
            else {}
        ),
    )
    if spec is not None:
        print(f"Scenario {spec.name}: {spec.description}")
        print(f"  fingerprint: {spec.fingerprint}")
    print("Running the campaign (this takes a few minutes)...")
    result = run_attack_experiment(
        AttackKind(attack_name),
        rooms=rooms,
        config=config,
        detectors=detectors,
        runner=CampaignRunner(n_workers=workers),
    )
    for detector, metrics in result.metrics.items():
        print(f"{detector:20}: {metrics}")
    if result.stats is not None:
        print(format_runner_stats(result.stats))
    return 0


def _attack_study_cell(payload) -> int:
    """Successful trigger count for one (device, SPL) cell.

    Module-level and fully derived from the payload's seed so cells can
    run in worker processes and still match a serial run exactly.
    """
    seed, name, spec, level, attempts = payload

    from repro.acoustics.propagation import propagate
    from repro.attacks import AttackScenario, ReplayAttack
    from repro.eval.rooms import ROOM_A
    from repro.phonemes import SyntheticCorpus
    from repro.utils.rng import child_rng, derive_seed
    from repro.va import VoiceAssistantDevice

    import numpy as np

    corpus = SyntheticCorpus(n_speakers=2, seed=seed)
    scenario = AttackScenario(room_config=ROOM_A)
    replay = ReplayAttack(corpus, corpus.speakers[0])
    rng = np.random.default_rng(derive_seed(seed, name, level))
    successes = 0
    for attempt in range(attempts):
        attack = replay.generate(
            command=spec.wake_word,
            rng=child_rng(rng, f"gen-{attempt}"),
        )
        interior = scenario.channel.transmit(
            attack.waveform, attack.sample_rate, level,
            rng=child_rng(rng, f"barrier-{attempt}"),
        )
        device = VoiceAssistantDevice(spec)
        successes += device.try_trigger(
            propagate(interior, attack.sample_rate, 2.0),
            attack.sample_rate,
            rng=child_rng(rng, f"trigger-{attempt}"),
        ).triggered
    return successes


def _cmd_attack_study(args: argparse.Namespace) -> int:
    from repro.va import VA_DEVICES

    levels = (65.0, 75.0)
    payloads = [
        (args.seed, name, spec, level, args.attempts)
        for name, spec in VA_DEVICES.items()
        for level in levels
    ]
    from repro.runtime import map_units

    counts, _ = map_units(
        _attack_study_cell, payloads, _resolve_workers(args.workers)
    )

    print(f"{'device':14} {'65 dB':>8} {'75 dB':>8}")
    for index, name in enumerate(VA_DEVICES):
        row = counts[index * len(levels) : (index + 1) * len(levels)]
        print(
            f"{name:14} {row[0]:>5}/{args.attempts} "
            f"{row[1]:>5}/{args.attempts}"
        )
    return 0


def _resolve_service_config(args: argparse.Namespace):
    """Validate serving arguments up front, before any worker warms.

    Invalid bounds (zero ``--queue-capacity``, ``--batch-size``, ...)
    raise
    :class:`repro.errors.ConfigurationError` inside
    ``ServiceConfig``; this maps them to the same ``SystemExit``
    shape as the negative ``--workers`` rejection.
    """
    from repro.errors import ConfigurationError
    from repro.serve import ServiceConfig

    try:
        return ServiceConfig(
            n_workers=args.workers,
            queue_capacity=args.queue_capacity,
            max_batch_size=args.batch_size,
        )
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None


def _resolve_pipeline_spec(args: argparse.Namespace):
    """Map ``--segmenter {none,fast,paper}`` to a worker recipe.

    ``--store-dir`` (or ``$REPRO_STORE_DIR``) threads the artifact
    store into the spec so workers load published weights instead of
    retraining; ``--no-store`` forces in-process training.
    """
    from repro.serve import PipelineSpec

    from repro.errors import ConfigurationError

    store_dir = None
    if not args.no_store:
        store_dir = _resolve_store_dir(args.store_dir)
    hardening_kwargs = dict(
        threshold=args.threshold,
        threshold_jitter=args.threshold_jitter,
        subset_fraction=args.subset_fraction,
        scenario=getattr(args, "scenario", None),
    )
    try:
        if args.segmenter == "none":
            return PipelineSpec(
                use_segmenter=False, **hardening_kwargs
            )
        if args.segmenter == "fast":
            return PipelineSpec(
                segmenter_seed=args.seed,
                n_speakers=2,
                n_per_phoneme=3,
                epochs=3,
                store_dir=store_dir,
                **hardening_kwargs,
            )
        return PipelineSpec(
            segmenter_seed=args.seed,
            store_dir=store_dir,
            **hardening_kwargs,
        )
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None


def _resolve_store_dir(explicit: Optional[str]) -> Optional[str]:
    """``--dir``/``--store-dir`` value, falling back to the env var."""
    return explicit or os.environ.get("REPRO_STORE_DIR") or None


def _print_store_report(spec) -> None:
    """One-line artifact-store summary after a serving run."""
    if spec.store_dir is None:
        return
    from repro.core.segmentation import training_run_count
    from repro.store import ArtifactStore

    n_entries = len(ArtifactStore(spec.store_dir).verify())
    print(
        f"store: {spec.store_dir} ({n_entries} artifact(s), "
        f"{training_run_count()} trained)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.eval.reporting import format_service_metrics
    from repro.serve import (
        LoadgenConfig,
        VerificationService,
        build_recording_pool,
        run_loadgen,
    )

    config = _resolve_service_config(args)
    spec = _resolve_pipeline_spec(args)
    try:
        selftest = LoadgenConfig(
            n_requests=args.requests,
            concurrency=min(args.requests, 4),
            seed=args.seed,
        )
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None
    # The recording pool is client material: build it before the
    # service's clock starts.
    pool = build_recording_pool(
        seed=args.seed, pool_size=min(args.requests, 6)
    )
    print(f"Warming {config.n_workers} worker(s)...")
    with VerificationService(spec, config) as service:
        report = run_loadgen(service, selftest, pool=pool)
        metrics = service.metrics()
        print(
            f"self-test: {report.n_served}/{report.n_issued} served, "
            f"{report.n_failed} failed"
        )
        _print_store_report(spec)
    print(format_service_metrics(metrics))
    return 1 if report.n_failed else 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.eval.reporting import format_service_metrics
    from repro.serve import (
        LoadgenConfig,
        VerificationService,
        build_recording_pool,
        run_loadgen,
    )

    config = _resolve_service_config(args)
    spec = _resolve_pipeline_spec(args)
    try:
        loadgen_config = LoadgenConfig(
            n_requests=args.requests,
            mode=args.mode,
            concurrency=args.concurrency,
            rate_rps=args.rate,
            seed=args.seed,
        )
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None
    # The recording pool is client material: build it before the
    # service's clock starts.
    pool = build_recording_pool(seed=args.seed)
    print(f"Warming {config.n_workers} worker(s)...")
    with VerificationService(spec, config) as service:
        report = run_loadgen(service, loadgen_config, pool=pool)
        metrics = service.metrics()
    print(
        f"loadgen[{report.mode}]: {report.n_issued} issued, "
        f"{report.n_served} served, "
        f"{report.n_failed} failed in {report.wall_s:.2f}s "
        f"({report.throughput_rps:.2f} req/s)"
    )
    _print_store_report(spec)
    if report.latencies_s:
        print(
            "latency p50/p95/p99: "
            f"{report.latency_percentile(50) * 1e3:.1f} / "
            f"{report.latency_percentile(95) * 1e3:.1f} / "
            f"{report.latency_percentile(99) * 1e3:.1f} ms"
        )
    print(format_service_metrics(metrics))
    return 1 if report.n_failed else 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    store_dir = _resolve_store_dir(args.store_dir)
    if store_dir is None:
        raise SystemExit(
            "error: no store directory; pass --dir or set REPRO_STORE_DIR"
        )
    report = ArtifactStore(store_dir).verify()
    bad = 0
    for fingerprint, problem in report:
        if problem is None:
            print(f"ok      {fingerprint}")
        else:
            bad += 1
            print(f"CORRUPT {fingerprint}: {problem}")
    print(f"verified {len(report)} artifact(s), {bad} corrupt")
    return 1 if bad else 0


def _cmd_redteam(args: argparse.Namespace) -> int:
    from repro.redteam.cli import cmd_redteam

    return cmd_redteam(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "select": _cmd_select,
        "evaluate": _cmd_evaluate,
        "attack-study": _cmd_attack_study,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "store": _cmd_store,
        "redteam": _cmd_redteam,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
