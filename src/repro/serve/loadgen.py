"""Synthetic load generator for the verification service.

Builds a deterministic pool of (VA, wearable) recording pairs — a mix
of legitimate commands and thru-barrier replay attacks from the
synthetic corpus — then replays them against a
:class:`~repro.serve.service.VerificationService` in one of two
classic load-testing shapes:

``closed``
    ``concurrency`` clients issue requests back-to-back; offered load
    adapts to service speed (throughput measurement).
``open``
    Requests arrive on a fixed schedule at ``rate_rps`` regardless of
    completions (latency-under-offered-load measurement; backpressure
    behaviour becomes visible here).

Request seeds are derived per index with
:func:`repro.utils.rng.derive_seed`, so a loadgen run's verdicts are
reproducible and independent of scheduling order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.service import VerificationService
from repro.utils.rng import derive_seed
from repro.utils.stats import percentile as _shared_percentile

#: Command texts cycled through when generating the recording pool
#: (all phonemizable with the command lexicon).
_POOL_COMMANDS = (
    "alexa unlock the back door",
    "ok google open the garage door",
    "ok google lock the front door",
)


@dataclass
class LoadgenConfig:
    """Shape and size of one load-generation run."""

    n_requests: int = 50
    mode: str = "closed"
    concurrency: int = 4
    rate_rps: float = 20.0
    seed: int = 0
    pool_size: int = 6
    attack_fraction: float = 0.5
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.mode not in ("closed", "open"):
            raise ConfigurationError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not self.rate_rps > 0:
            raise ConfigurationError(
                f"rate_rps must be > 0, got {self.rate_rps}"
            )
        if self.pool_size < 1:
            raise ConfigurationError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigurationError(
                f"attack_fraction must lie in [0, 1], "
                f"got {self.attack_fraction}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )


@dataclass
class RecordingPool:
    """Pre-generated request material cycled through by the clients."""

    pairs: List[Tuple[np.ndarray, np.ndarray, bool]] = field(
        default_factory=list
    )

    def pair(self, index: int) -> Tuple[np.ndarray, np.ndarray, bool]:
        """(va, wearable, is_attack) for request ``index``."""
        return self.pairs[index % len(self.pairs)]


def build_recording_pool(
    seed: int = 0,
    pool_size: int = 6,
    attack_fraction: float = 0.5,
) -> RecordingPool:
    """Generate a deterministic mix of legitimate and attack pairs."""
    from repro.attacks import AttackScenario, ReplayAttack
    from repro.eval.rooms import ROOM_A
    from repro.phonemes import SyntheticCorpus, phonemize

    corpus = SyntheticCorpus(
        n_speakers=2, seed=derive_seed(seed, "loadgen-corpus")
    )
    user = corpus.speakers[0]
    scenario = AttackScenario(room_config=ROOM_A)
    replay = ReplayAttack(corpus, user)
    n_attacks = int(round(pool_size * attack_fraction))
    pairs: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    for index in range(pool_size):
        is_attack = index < n_attacks
        command = _POOL_COMMANDS[index % len(_POOL_COMMANDS)]
        if is_attack:
            attack = replay.generate(
                command=command,
                rng=derive_seed(seed, "loadgen-attack", index),
            )
            va, wearable = scenario.attack_recordings(
                attack,
                spl_db=75.0,
                rng=derive_seed(seed, "loadgen-attack-rec", index),
            )
        else:
            utterance = corpus.utterance(
                phonemize(command),
                speaker=user,
                text=command,
                rng=derive_seed(seed, "loadgen-utt", index),
            )
            va, wearable = scenario.legitimate_recordings(
                utterance,
                spl_db=70.0,
                rng=derive_seed(seed, "loadgen-legit-rec", index),
            )
        pairs.append((va, wearable, is_attack))
    return RecordingPool(pairs=pairs)


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run.

    ``n_issued == n_served + n_rejected + n_shed + n_failed`` always
    holds — a request has exactly one terminal status (pinned by the
    serving tests).
    """

    mode: str
    n_issued: int = 0
    n_served: int = 0
    n_degraded: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_failed: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of loadgen wall clock."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_served / self.wall_s

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (seconds) over served requests."""
        return _shared_percentile(self.latencies_s, percentile)

    def account(self, response: VerificationResponse) -> None:
        """Fold one response into the tallies (thread-unsafe; lock)."""
        if response.status is RequestStatus.SERVED:
            self.n_served += 1
            if response.degraded:
                self.n_degraded += 1
            self.latencies_s.append(response.total_s)
        elif response.status is RequestStatus.SHED:
            self.n_shed += 1
        elif response.status is RequestStatus.REJECTED:
            self.n_rejected += 1
        else:
            self.n_failed += 1


def _make_request(
    config: LoadgenConfig, pool: RecordingPool, index: int
) -> VerificationRequest:
    va, wearable, is_attack = pool.pair(index)
    kind = "attack" if is_attack else "legit"
    return VerificationRequest(
        va_audio=va,
        wearable_audio=wearable,
        seed=derive_seed(config.seed, "request", index),
        request_id=f"{kind}-{index}",
        deadline_s=config.deadline_s,
    )


def run_loadgen(
    service: VerificationService,
    config: Optional[LoadgenConfig] = None,
    pool: Optional[RecordingPool] = None,
) -> LoadgenReport:
    """Drive ``service`` with synthetic traffic and tally outcomes.

    The service must already be started.  Returns the client-side
    report; compare with ``service.metrics()`` for the server-side
    view.
    """
    config = config or LoadgenConfig()
    pool = pool or build_recording_pool(
        seed=config.seed,
        pool_size=config.pool_size,
        attack_fraction=config.attack_fraction,
    )
    report = LoadgenReport(mode=config.mode)
    report_lock = threading.Lock()
    start = time.monotonic()

    def issue(index: int) -> Optional[object]:
        request = _make_request(config, pool, index)
        with report_lock:
            report.n_issued += 1
        try:
            return service.submit(request)
        except ServiceOverloadError:
            with report_lock:
                report.n_rejected += 1
            return None

    if config.mode == "closed":
        counter = {"next": 0}
        counter_lock = threading.Lock()

        def client() -> None:
            while True:
                with counter_lock:
                    index = counter["next"]
                    if index >= config.n_requests:
                        return
                    counter["next"] = index + 1
                future = issue(index)
                if future is None:
                    continue
                response = future.result()
                with report_lock:
                    report.account(response)

        threads = [
            threading.Thread(target=client, name=f"loadgen-{i}")
            for i in range(config.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:  # open loop
        interval = 1.0 / config.rate_rps
        futures = []
        for index in range(config.n_requests):
            target = start + index * interval
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            future = issue(index)
            if future is not None:
                futures.append(future)
        for future in futures:
            response = future.result()
            with report_lock:
                report.account(response)

    report.wall_s = time.monotonic() - start
    return report
