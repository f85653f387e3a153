"""Request/response types of the online verification service.

A :class:`VerificationRequest` carries the two device recordings of
one voice command; the service answers with a
:class:`VerificationResponse` holding the :class:`DefenseVerdict` and
per-stage wall-clock timings.  Both recordings are at 16 kHz, the rate
of the service's one warm pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.pipeline import DefenseVerdict
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
    oracle_utterance:
        Optional ground-truth alignment for ablation-style serving.
    """

    va_audio: np.ndarray
    wearable_audio: np.ndarray
    seed: int = 0
    request_id: str = ""
    oracle_utterance: Optional[Utterance] = None

    def __post_init__(self) -> None:
        self.va_audio = np.asarray(self.va_audio, dtype=np.float64)
        self.wearable_audio = np.asarray(
            self.wearable_audio, dtype=np.float64
        )


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
