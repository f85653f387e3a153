"""Content-addressed artifact store and model registry.

Persists the defense's one expensive artifact — trained BLSTM
segmenter weights — keyed by deterministic fingerprints of (kind,
config, seed, schema version).  Turns service cold start from
minutes of per-worker training into a millisecond weight load; the
one-trainer-many-loaders file-locking protocol guarantees N workers
racing on an empty store train exactly once.  See DESIGN.md
§ "Artifact store & model registry".
"""

from repro.store.artifact import (
    ArtifactInfo,
    ArtifactKey,
    ArtifactStore,
)
from repro.store.fingerprint import (
    SCHEMA_VERSION,
    artifact_fingerprint,
    payload_checksum,
)
from repro.store.locks import FileLock
from repro.store.registry import (
    KIND_SEGMENTER,
    ModelRegistry,
    registry_counters,
)

__all__ = [
    "ArtifactInfo",
    "ArtifactKey",
    "ArtifactStore",
    "FileLock",
    "KIND_SEGMENTER",
    "ModelRegistry",
    "SCHEMA_VERSION",
    "artifact_fingerprint",
    "payload_checksum",
    "registry_counters",
]
