"""CLI entry points (fast commands only)."""

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
            "--executor", "inline",
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
        ["--deadline", "nan"],
        ["--batch-size", "0"],
        ["--deadline", "-1"],
        ["--policy", "block", "--deadline", "0"],
        ["--batch-size", "-1"],
    ],
)
@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_serving_invalid_durations_exit_early(command, flags):
    """Bad bounds/durations die before any worker warms up."""
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
