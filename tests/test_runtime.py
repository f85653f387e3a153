"""Runtime layer: executors, inline fallback, determinism."""

import pickle

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.errors import ConfigurationError, WorkerError
from repro.eval.campaign import CampaignConfig, DetectorBank
from repro.eval.participants import ParticipantPool
from repro.eval.rooms import ROOM_A
from repro.eval.runner import CampaignRunner
from repro.phonemes.corpus import SyntheticCorpus
from repro.runtime import (
    EXECUTOR_KINDS,
    Runtime,
    capture_stage_events,
)


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad unit {x}")


def _die_in_worker(payload):
    """Kill the hosting process iff it is a pool child, else succeed."""
    import os

    parent_pid, x = payload
    if os.getpid() != parent_pid:
        os._exit(1)
    return x + 1


class TestExecutorsBasic:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_map_preserves_submission_order(self, kind):
        runtime = Runtime(kind, n_workers=2)
        try:
            assert runtime.map_units(_double, list(range(8))) == [
                2 * x for x in range(8)
            ]
            assert runtime.realized_kind == kind
            assert not runtime.fell_back
        finally:
            runtime.shutdown()

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_array_payload_crosses_bitwise(self, kind):
        """A batch-sized array (well over 64 KiB) survives the pool
        boundary bit for bit, by plain pickle in process mode."""
        audio = np.random.default_rng(0).standard_normal(48_397)
        runtime = Runtime(kind, n_workers=1)
        try:
            [back] = runtime.map_units(_double, [audio])
            assert runtime.realized_kind == kind
        finally:
            runtime.shutdown()
        assert back.dtype == audio.dtype
        assert back.tobytes() == (audio * 2).tobytes()

    def test_submit_returns_future(self):
        with Runtime("inline") as runtime:
            assert runtime.submit(_double, 21).result() == 42

    def test_initializer_runs_inline(self):
        seen = []
        with Runtime("inline", initializer=seen.append, initargs=(7,)):
            pass
        assert seen == [7]

    def test_invalid_kind_and_workers(self):
        with pytest.raises(ConfigurationError):
            Runtime("fiber")
        with pytest.raises(ConfigurationError):
            Runtime("thread", n_workers=0)


class TestErrorPropagation:
    def test_inline_and_thread_raise_original(self):
        for kind in ("inline", "thread"):
            runtime = Runtime(kind, n_workers=2)
            try:
                with pytest.raises(ValueError):
                    runtime.map_units(_boom, [1])
            finally:
                runtime.shutdown()

    def test_process_wraps_errors_picklable(self):
        runtime = Runtime("process", n_workers=2)
        try:
            with pytest.raises(WorkerError) as excinfo:
                runtime.map_units(_boom, [5])
        finally:
            runtime.shutdown()
        error = excinfo.value
        assert error.error_type == "ValueError"
        assert "bad unit 5" in error.message
        clone = pickle.loads(pickle.dumps(error))
        assert clone.error_type == error.error_type
        assert clone.message == error.message

    def test_worker_error_round_trip(self):
        original = WorkerError.from_exception(KeyError("missing"))
        clone = pickle.loads(pickle.dumps(original))
        assert clone.error_type == "KeyError"
        assert isinstance(clone, WorkerError)
        # Idempotent wrapping.
        assert WorkerError.from_exception(original) is original


class TestFallbackLadder:
    def test_midrun_worker_death_demotes(self):
        # The pool comes up fine, then every child dies on its first
        # unit (BrokenProcessPool mid-run); map_units keeps the batch
        # alive by finishing the remaining units inline, where the
        # same payloads succeed.
        import os

        runtime = Runtime("process", n_workers=2)
        parent = os.getpid()
        try:
            with capture_stage_events() as captured:
                result = runtime.map_units(
                    _die_in_worker, [(parent, 1), (parent, 2), (parent, 3)]
                )
            assert result == [2, 3, 4]
            assert runtime.realized_kind == "inline"
            assert runtime.fell_back
        finally:
            runtime.shutdown()
        [event] = [e for e in captured.events if e.scope == "runtime"]
        assert event.fallback == "inline"
        assert event.error == "BrokenProcessPool"

    def test_thread_pool_failure_raises(self, monkeypatch):
        import repro.runtime.executor as executor_module

        def broken(*args, **kwargs):
            raise OSError("no threads available")

        monkeypatch.setattr(executor_module, "ThreadPoolExecutor", broken)
        runtime = Runtime("thread", n_workers=2)
        with pytest.raises(OSError):
            runtime.map_units(_double, [1])
        assert not runtime.fell_back

    def test_unspawnable_campaign_pool_finishes_serially(
        self, tiny_campaign, monkeypatch
    ):
        import repro.runtime.executor as executor_module

        pool, detectors, config, corpus = tiny_campaign
        serial = CampaignRunner(n_workers=1).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
            corpus=corpus,
        )

        def broken(*args, **kwargs):
            raise OSError("no processes available")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", broken)
        with capture_stage_events() as captured:
            result = CampaignRunner(n_workers=2, executor="process").run(
                [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
                corpus=corpus,
            )
        assert _campaign_digest(result) == _campaign_digest(serial)
        assert result.stats.mode == "process-pool+serial-fallback"
        [event] = [e for e in captured.events if e.scope == "runtime"]
        assert event.fallback == "inline"
        assert event.error == "OSError"


@pytest.fixture(scope="module")
def tiny_campaign():
    """A two-unit campaign small enough to run under every executor."""
    pool = ParticipantPool(n_participants=4, seed=11)
    detectors = DetectorBank(segmenter=None, include_baselines=False)
    config = CampaignConfig(
        n_commands_per_participant=1, n_attacks_per_kind=1, seed=12
    )
    corpus = SyntheticCorpus(speakers=pool.speakers, seed=config.seed)
    return pool, detectors, config, corpus


def _campaign_digest(result):
    import hashlib

    payload = repr(
        (sorted(result.scores.legit.items()),
         sorted(
             (kind.value, scores)
             for kind, scores in result.scores.attacks.items()
         ))
    ).encode()
    return hashlib.sha256(payload).hexdigest()


class TestCrossExecutorDeterminism:
    def test_identical_digests_across_all_runtimes(self, tiny_campaign):
        pool, detectors, config, corpus = tiny_campaign
        digests = {}
        modes = {}
        serial = CampaignRunner(n_workers=1).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
            corpus=corpus,
        )
        digests["serial"] = _campaign_digest(serial)
        modes["serial"] = serial.stats.mode
        for kind in ("inline", "thread", "process"):
            result = CampaignRunner(n_workers=2, executor=kind).run(
                [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
                corpus=corpus,
            )
            digests[kind] = _campaign_digest(result)
            modes[kind] = result.stats.mode
        assert len(set(digests.values())) == 1, digests
        assert modes["serial"] == "serial"
        assert modes["inline"] == "serial"
        assert modes["thread"] == "thread-pool"
        assert modes["process"] == "process-pool"
