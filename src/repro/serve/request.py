"""Request/response types of the online verification service.

A :class:`VerificationRequest` carries the two device recordings plus
scenario metadata for one voice command; the service answers with a
:class:`VerificationResponse` holding the :class:`DefenseVerdict` and
per-stage wall-clock timings.  Requests are grouped into micro-batches
by :attr:`VerificationRequest.batch_key` — only requests with the same
audio rate and pipeline-affecting flags may share a batch, because they
are executed by the same warm pipeline instance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.pipeline import DefenseVerdict
from repro.errors import ConfigurationError
from repro.phonemes.corpus import Utterance


class RequestStatus(enum.Enum):
    """Terminal outcome of one verification request."""

    SERVED = "served"
    FAILED = "failed"


@dataclass
class VerificationRequest:
    """One online verification job.

    Attributes
    ----------
    va_audio / wearable_audio:
        The voice assistant's and wearable's recordings of the command.
    seed:
        Integer seed for the request's cross-domain sensing replays.
        The verdict is a pure function of (pipeline spec, recordings,
        seed), so the same request is answered identically by any
        worker in any batch — and by a direct
        :meth:`repro.core.pipeline.DefensePipeline.analyze` call.
    request_id:
        Caller-chosen identifier echoed in the response.
    audio_rate:
        Sampling rate of both recordings.
    wearer_moving:
        Simulate body-motion interference during the wearable replay
        (changes the pipeline configuration, hence part of the batch
        key).
    oracle_utterance:
        Optional ground-truth alignment for ablation-style serving.
    """

    va_audio: np.ndarray
    wearable_audio: np.ndarray
    seed: int = 0
    request_id: str = ""
    audio_rate: float = 16_000.0
    wearer_moving: bool = False
    oracle_utterance: Optional[Utterance] = None

    def __post_init__(self) -> None:
        if not 0 < self.audio_rate < math.inf:
            raise ConfigurationError(
                f"audio_rate must be finite and > 0, got {self.audio_rate}"
            )
        self.va_audio = np.asarray(self.va_audio, dtype=np.float64)
        self.wearable_audio = np.asarray(
            self.wearable_audio, dtype=np.float64
        )

    @property
    def batch_key(self) -> Tuple[float, bool]:
        """Batch-compatibility class of this request.

        Requests in one micro-batch run through one pipeline instance,
        so everything that selects the pipeline configuration must be
        part of this key.
        """
        return (float(self.audio_rate), bool(self.wearer_moving))


@dataclass
class VerificationResponse:
    """Service answer for one request.

    Attributes
    ----------
    request_id:
        Echo of the request's identifier.
    status:
        Terminal outcome.  ``SERVED`` always carries a verdict;
        ``FAILED`` never does.
    verdict:
        The defense's decision for served requests.
    stage_timings_s:
        Per-pipeline-stage wall-clock seconds (see
        :data:`repro.core.pipeline.PIPELINE_STAGES`).
    queue_wait_s / total_s:
        Time from submission to dispatch (queued, including any wait
        for a free worker), and submission-to-response latency.
    error:
        Failure description for ``FAILED``.
    """

    request_id: str
    status: RequestStatus
    verdict: Optional[DefenseVerdict] = None
    stage_timings_s: Dict[str, float] = field(default_factory=dict)
    queue_wait_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request produced a verdict."""
        return self.status is RequestStatus.SERVED
