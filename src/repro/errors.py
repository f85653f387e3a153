"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class SignalError(ReproError):
    """A signal does not satisfy the preconditions of an operation.

    Raised, for example, when a signal is empty, has the wrong
    dimensionality, or is too short for the requested transform.
    """


class SynthesisError(ReproError):
    """Speech synthesis could not produce the requested sound."""


class ModelError(ReproError):
    """A neural-network model is malformed, untrained, or incompatible."""


class ProtocolError(ReproError):
    """A distributed-protocol invariant was violated during simulation."""


class CalibrationError(ReproError):
    """Detector calibration failed (e.g., degenerate score distributions)."""


class WorkerError(ReproError):
    """Picklable surrogate for an exception raised inside a pool worker.

    Process workers may raise exceptions whose types or constructor
    arguments do not survive the pickle trip back to the parent (or
    worse, poison the result channel).  The runtime layer therefore
    wraps every error that crosses a process-pool boundary in this
    type, which carries the original class name, message, and formatted
    traceback as plain strings and is guaranteed to round-trip through
    pickle.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        traceback_text: str = "",
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            type(self),
            (self.error_type, self.message, self.traceback_text),
        )

    @classmethod
    def from_exception(cls, error: BaseException) -> "WorkerError":
        """Wrap ``error`` (idempotent for existing ``WorkerError``s)."""
        if isinstance(error, WorkerError):
            return error
        import traceback

        return cls(
            error_type=type(error).__name__,
            message=str(error),
            traceback_text="".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
        )


class BudgetExceededError(ReproError):
    """An optimizing attacker exhausted its oracle query budget.

    Raised by :class:`repro.redteam.ScoreOracle` when a query would
    exceed the per-attacker budget.  The optimizer drivers treat it as
    the normal termination signal for a budget-bounded run; seeing it
    escape means an attacker queried outside its accounted loop.
    """


class ServiceOverloadError(ReproError):
    """The online verification service could not admit a request.

    Raised only by a ``put`` on a closed
    :class:`~repro.serve.queue.BoundedRequestQueue`: a ``submit`` after
    the service began stopping, or one still blocked on a full queue
    when it did.
    """


class StoreError(ReproError):
    """The artifact store could not complete an operation.

    Raised for values with no stable fingerprint and non-bytes
    payloads.  *Corrupt entries* do not raise on the read path:
    :meth:`repro.store.ArtifactStore.get` quarantines them and reports
    a miss so callers fall back to retraining.
    """
