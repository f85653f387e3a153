"""Runtime layer: inline vs process mapping, inline fallback,
determinism."""

import pickle
import threading

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.errors import ConfigurationError, WorkerError
from repro.eval.campaign import CampaignConfig, DetectorBank
from repro.eval.participants import ParticipantPool
from repro.eval.rooms import ROOM_A
from repro.eval.runner import CampaignRunner
from repro.phonemes.corpus import SyntheticCorpus
from repro.runtime import capture_stage_events, map_units
from repro.serve import (
    PipelineSpec,
    RequestStatus,
    ServiceConfig,
    VerificationRequest,
    VerificationService,
)
import repro.serve.workers as workers_module


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad unit {x}")


def _request():
    audio = np.random.default_rng(0).standard_normal(8_000)
    return VerificationRequest(va_audio=audio, wearable_audio=audio)


def _service(n_workers):
    return VerificationService(
        PipelineSpec(use_segmenter=False), ServiceConfig(n_workers=n_workers)
    )


def _die_in_worker(payload):
    """Kill the hosting process iff it is a pool child, else succeed."""
    import os

    parent_pid, x = payload
    if os.getpid() != parent_pid:
        os._exit(1)
    return x + 1


#: Worker counts that select each execution path.
PATHS = pytest.mark.parametrize(
    "n_workers", [1, 2], ids=["inline", "process"]
)


class TestExecutorsBasic:
    @PATHS
    def test_map_preserves_submission_order(self, n_workers):
        results, fell_back = map_units(_double, list(range(8)), n_workers)
        assert results == [2 * x for x in range(8)]
        assert not fell_back

    @PATHS
    def test_array_payload_crosses_bitwise(self, n_workers):
        """A batch-sized array (well over 64 KiB) survives the pool
        boundary bit for bit, by plain pickle in process mode."""
        audio = np.random.default_rng(0).standard_normal(48_397)
        (back, _), fell_back = map_units(_double, [audio, audio], n_workers)
        assert not fell_back
        assert back.dtype == audio.dtype
        assert back.tobytes() == (audio * 2).tobytes()

    def test_submit_returns_future(self):
        # Serve's worker threads resolve the future submit hands back.
        with _service(n_workers=1) as service:
            response = service.submit(_request()).result()
        assert response.status is RequestStatus.SERVED

    def test_initializer_runs_inline(self):
        seen = []
        map_units(_double, [1, 2], 1, initializer=seen.append, initargs=(7,))
        assert seen == [7]

    def test_invalid_kind_and_workers(self):
        # The worker count is the only option; serve's legacy
        # worker_mode field accepts its one kind alone.
        for n_workers in (0, -1, float("nan")):
            with pytest.raises(ConfigurationError):
                map_units(_double, [1], n_workers)
        with pytest.raises(ConfigurationError):
            ServiceConfig(worker_mode="process")


class TestErrorPropagation:
    def test_inline_and_thread_raise_original(self, monkeypatch):
        # One worker, or one unit, runs inline.
        for n_workers in (1, 2):
            with pytest.raises(ValueError):
                map_units(_boom, [1], n_workers)
        # Serve's worker threads carry the original exception too, into
        # the failed response; they look execute_batch up on its module
        # at call time.
        monkeypatch.setattr(workers_module, "execute_batch", _boom)
        with _service(n_workers=2) as service:
            response = service.verify(_request())
        assert response.status is RequestStatus.FAILED
        assert response.error.startswith("ValueError: bad unit")

    def test_process_wraps_errors_picklable(self):
        with pytest.raises(WorkerError) as excinfo:
            map_units(_boom, [5, 5], 2)
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

        parent = os.getpid()
        with capture_stage_events() as captured:
            result, fell_back = map_units(
                _die_in_worker, [(parent, 1), (parent, 2), (parent, 3)], 2
            )
        assert result == [2, 3, 4]
        assert fell_back
        [event] = [e for e in captured.events if e.scope == "runtime"]
        assert event.fallback == "inline"
        assert event.error == "BrokenProcessPool"

    def test_thread_pool_failure_raises(self, monkeypatch):
        # Only a process pool falls back: serve's worker threads that
        # cannot start fail the service start.
        def broken(thread):
            raise OSError("no threads available")

        monkeypatch.setattr(threading.Thread, "start", broken)
        service = _service(n_workers=2)
        with pytest.raises(OSError):
            service.start()
        with pytest.raises(ConfigurationError):
            service.submit(_request())

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
            result = CampaignRunner(n_workers=2).run(
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
    """A two-unit campaign small enough to run inline and in processes."""
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
        for label, n_workers in (("serial", 1), ("process", 2)):
            result = CampaignRunner(n_workers=n_workers).run(
                [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
                corpus=corpus,
            )
            digests[label] = _campaign_digest(result)
            modes[label] = result.stats.mode
        assert len(set(digests.values())) == 1, digests
        assert modes == {"serial": "serial", "process": "process-pool"}
