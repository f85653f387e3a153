"""Typed model registry on top of the artifact store.

:class:`ModelRegistry` is the train-once/serve-many facade the serving
stack talks to.  :meth:`ModelRegistry.segmenter` follows this protocol:

1. fingerprint the full production recipe (kind, config, seed, store
   schema version),
2. :meth:`~repro.store.artifact.ArtifactStore.get_or_create` under the
   entry's cross-process lock — so N workers cold-starting together
   run exactly one training,
3. decode the payload through :mod:`repro.store.adapters`; a payload
   that passes its checksum but fails decoding (stale format) is
   quarantined and the artifact is recomputed — the registry never
   crashes a caller because of a bad cache entry,
4. degrade to direct computation when the store itself is unusable
   (unwritable root, disk errors), with a logged warning.

Determinism makes all of this safe: training is a pure function of
its integer seed and config, so a store-loaded artifact is bitwise
identical to a freshly computed one.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.segmentation import (
    PhonemeSegmenter,
    SegmenterConfig,
    train_default_segmenter,
)
from repro.errors import ModelError
from repro.phonemes.inventory import PAPER_SELECTED_PHONEMES
from repro.store import adapters
from repro.store.artifact import ArtifactKey, ArtifactStore
from repro.store.fingerprint import artifact_fingerprint

logger = logging.getLogger(__name__)

#: Artifact kind managed by the registry.
KIND_SEGMENTER = "segmenter"

# Process-wide load/train accounting, reported by the serving CLI and
# asserted by ``make store-smoke`` ("second run trains zero models").
_COUNTERS = {"trained": 0, "loaded": 0}
_COUNTERS_LOCK = threading.Lock()


def registry_counters() -> Dict[str, int]:
    """Snapshot of artifacts trained vs loaded by this process."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def _record(event: str) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[event] += 1


class ModelRegistry:
    """Load-or-train facade for trained segmenter weights.

    Parameters
    ----------
    store:
        An :class:`ArtifactStore`, or a store root directory (string or
        path) from which one is built.
    """

    def __init__(
        self, store: Union[ArtifactStore, str, Path]
    ) -> None:
        if isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)

    # ------------------------------------------------------------------
    # Segmenter weights
    # ------------------------------------------------------------------

    def segmenter(
        self,
        seed: Optional[int] = None,
        n_speakers: int = 8,
        n_per_phoneme: int = 12,
        epochs: int = 12,
    ) -> Tuple[PhonemeSegmenter, bool]:
        """Trained segmenter for the default recipe; ``(model, trained)``.

        ``trained`` is ``True`` only when this call actually ran the
        training producer (store miss and lock won); a load is
        millisecond-cheap and bitwise identical.
        """
        if seed is not None:
            seed = int(seed)
        recipe = {
            "seed": seed,
            "n_speakers": int(n_speakers),
            "n_per_phoneme": int(n_per_phoneme),
            "epochs": int(epochs),
        }
        key = ArtifactKey(
            KIND_SEGMENTER,
            artifact_fingerprint(
                KIND_SEGMENTER,
                schema_version=self.store.schema_version,
                config=SegmenterConfig(),
                sensitive_phonemes=sorted(PAPER_SELECTED_PHONEMES),
                sample_rate=16_000.0,
                **recipe,
            ),
        )

        def produce() -> bytes:
            model = train_default_segmenter(
                seed=seed,
                n_speakers=n_speakers,
                n_per_phoneme=n_per_phoneme,
                epochs=epochs,
            )
            return adapters.encode_segmenter(model)

        payload, created = self._get_or_create(key, produce, meta=recipe)
        segmenter = self._decode(
            key,
            payload,
            created,
            produce,
            adapters.decode_segmenter,
        )
        return segmenter, created

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _get_or_create(
        self,
        key: ArtifactKey,
        produce: Callable[[], bytes],
        meta: Dict[str, object],
    ) -> Tuple[bytes, bool]:
        """Store round-trip with graceful degradation to direct compute."""
        try:
            payload, created = self.store.get_or_create(
                key, produce, meta=meta
            )
        except OSError as error:
            logger.warning(
                "artifact store %s unusable (%s: %s); computing %s "
                "without the store",
                self.store.root,
                type(error).__name__,
                error,
                key,
            )
            return produce(), True
        _record("trained" if created else "loaded")
        return payload, created

    def _decode(
        self,
        key: ArtifactKey,
        payload: bytes,
        created: bool,
        produce: Callable[[], bytes],
        decoder: Callable[[bytes], object],
    ):
        """Decode, quarantining-and-recomputing undecodable cache hits."""
        try:
            return decoder(payload)
        except ModelError as error:
            if created:
                # This process just produced the payload; the format
                # itself is broken — do not mask a programming error.
                raise
            logger.warning(
                "stored artifact %s failed to decode (%s); "
                "quarantining and recomputing",
                key,
                error,
            )
            self.store.quarantine_entry(key)
            payload, _ = self._get_or_create(key, produce, meta={})
            return decoder(payload)
