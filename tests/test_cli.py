"""CLI entry points (fast commands only)."""

from types import SimpleNamespace

import pytest

from repro.cli import main


def test_select_command(capsys):
    exit_code = main(["select", "--segments", "8", "--seed", "42"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "selected" in captured
    assert "rejected" in captured


def test_attack_study_command(capsys):
    exit_code = main(["attack-study", "--attempts", "3", "--seed", "5"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Google Home" in captured
    assert "iPhone" in captured


@pytest.mark.slow
def test_demo_command(capsys):
    exit_code = main(["demo", "--seed", "3"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "attack detected" in captured


def test_serve_command(capsys):
    exit_code = main(
        [
            "serve",
            "--segmenter", "none",
            "--workers", "2",
            "--requests", "4",
            "--seed", "11",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "self-test: 4/4 served" in captured
    assert "p50 ms" in captured
    assert "queue-wait" in captured


def test_loadgen_command(capsys):
    exit_code = main(
        [
            "loadgen",
            "--segmenter", "none",
            "--workers", "2",
            "--requests", "8",
            "--concurrency", "4",
            "--seed", "11",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "loadgen[closed]: 8 issued, 8 served" in captured
    assert "latency p50/p95/p99" in captured


def test_redteam_curve_reports_hardening_and_surrogate_fallback(capsys):
    """The hardened arm deploys the flags' defenses, and the fallback
    of the surrogate attacker to gradient-free search is counted per
    arm (both arms fall back within 14 queries at this seed)."""
    exit_code = main(
        [
            "redteam", "curve",
            "--mode", "surrogate",
            "--budgets", "0", "14",
            "--population", "1",
            "--bands", "4",
            "--slices", "2",
            "--probe-episodes", "1",
            "--eval-episodes", "4",
            "--workers", "1",
            "--seed", "3",
            "--jitter", "0.08",
            "--subset-fraction", "0.5",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "hardened arm: jitter ±0.080, phoneme subset 50%" in captured
    assert (
        "surrogate fell back to gradient-free search: "
        "unhardened 1 of 1 members, hardened 1 of 1 members"
    ) in captured


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "0"],
        ["--queue-capacity", "0"],
        ["--batch-size", "0"],
        ["--batch-size", "-1"],
    ],
)
@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_serving_invalid_durations_exit_early(command, flags):
    """Bad bounds die before any worker warms up."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--segmenter", "none", *flags])
    assert "error:" in str(excinfo.value)


def test_loadgen_invalid_rate_exits():
    with pytest.raises(SystemExit) as excinfo:
        main(["loadgen", "--segmenter", "none", "--rate", "0"])
    assert "error:" in str(excinfo.value)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_evaluate_workers_zero_means_one_per_core(monkeypatch):
    """``--workers 0`` hands the runner ``None``: one worker per core."""
    import repro.eval.experiment as experiment

    runners = []

    def fake_experiment(kind, rooms, config, detectors, runner):
        runners.append(runner)
        return SimpleNamespace(metrics={}, stats=None)

    monkeypatch.setattr(experiment, "run_attack_experiment", fake_experiment)
    assert main(["evaluate", "replay", "--workers", "0"]) == 0
    [runner] = runners
    assert runner.n_workers is None


def test_redteam_curve_workers_follow_evaluate_rule(monkeypatch):
    """``redteam curve --workers`` rejects negatives and reads ``0`` as
    one worker per core, like ``evaluate``."""
    import repro.redteam.campaign as campaign

    counts = []

    class Reached(Exception):
        pass

    def fake_map_units(fn, units, n_workers):
        counts.append(n_workers)
        raise Reached

    monkeypatch.setattr(campaign, "map_units", fake_map_units)
    curve = ["redteam", "curve", "--budgets", "0", "--threshold", "0.5"]
    with pytest.raises(SystemExit) as excinfo:
        main(curve + ["--workers", "-3"])
    assert str(excinfo.value.code).startswith(
        "error: --workers must be >= 0"
    )
    assert counts == []
    with pytest.raises(Reached):
        main(curve + ["--workers", "0"])
    assert counts == [None]


@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_recording_pool_is_built_before_the_service_starts(
    command, monkeypatch
):
    """Client material is built outside the service's clock, so the
    service's req/s and loadgen's count the same serving time."""
    import repro.serve as serve

    calls = []
    build_pool = serve.build_recording_pool
    start = serve.VerificationService.start

    def recording_build_pool(*args, **kwargs):
        calls.append("pool")
        return build_pool(*args, **kwargs)

    def recording_start(self):
        calls.append("start")
        return start(self)

    monkeypatch.setattr(serve, "build_recording_pool", recording_build_pool)
    monkeypatch.setattr(serve.VerificationService, "start", recording_start)
    exit_code = main(
        [command, "--segmenter", "none", "--workers", "1",
         "--requests", "2", "--seed", "11"]
    )
    assert exit_code == 0
    assert calls == ["pool", "start"]
