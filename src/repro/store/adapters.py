"""Byte codec between the store and trained segmenter weights.

The :class:`~repro.store.artifact.ArtifactStore` deals in opaque bytes;
the registry stores segmenter weights as the ``.npz`` produced by
:meth:`PhonemeSegmenter.save` (BLSTM parameters + architecture meta +
feature standardization statistics), written into a memory buffer.

Decoding failures raise :class:`repro.errors.ModelError`; the registry
maps it to the quarantine-and-retrain fallback.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.core.segmentation import PhonemeSegmenter, SegmenterConfig
from repro.errors import ModelError
from repro.utils.rng import SeedLike


def encode_segmenter(segmenter: PhonemeSegmenter) -> bytes:
    """Trained segmenter → ``.npz`` bytes."""
    buffer = io.BytesIO()
    segmenter.save(buffer)
    return buffer.getvalue()


def decode_segmenter(
    payload: bytes,
    sensitive_phonemes=None,
    config: Optional[SegmenterConfig] = None,
    sample_rate: float = 16_000.0,
    rng: SeedLike = None,
) -> PhonemeSegmenter:
    """``.npz`` bytes → ready-to-serve segmenter.

    The constructor arguments must match the recipe the weights were
    trained under (the registry fingerprints them into the artifact
    key, so a store hit guarantees they do).  Architecture mismatches
    are still re-checked against the archive's meta by
    :meth:`PhonemeSegmenter.load_weights`.
    """
    kwargs = {}
    if sensitive_phonemes is not None:
        kwargs["sensitive_phonemes"] = sensitive_phonemes
    segmenter = PhonemeSegmenter(
        config=config, sample_rate=sample_rate, rng=rng, **kwargs
    )
    try:
        segmenter.load_weights(io.BytesIO(payload))
    except (OSError, ValueError, KeyError, EOFError) as error:
        raise ModelError(
            f"segmenter payload is not a readable archive: {error}"
        ) from error
    return segmenter
