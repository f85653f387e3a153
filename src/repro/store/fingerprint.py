"""Deterministic artifact fingerprints.

An artifact's identity is the SHA-256 digest of a *canonical token*
built from (artifact kind, configuration, training seed, store schema
version).  The token is a printable string with a stable rendering for
every value kind the library's configs use — dataclasses, numpy arrays
and scalars, sets, floats — so the same recipe maps to the same entry
across processes, machines, and Python hash seeds.

Bump :data:`SCHEMA_VERSION` whenever the *meaning* of stored payloads
changes (serialization format, training recipe semantics, feature
definitions): old entries then simply stop being addressable and the
next load falls back to retraining under the new version.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Mapping, Sequence

import numpy as np

from repro.errors import StoreError

#: Version of the on-disk artifact schema.  Part of every fingerprint
#: and of the store's directory layout (``<root>/v<SCHEMA_VERSION>/``).
#: Version 2: phoneme synthesis filters at fast FFT lengths, which
#: changes the segmenter's training corpus and so its trained weights.
#: Version 3: harmonics are summed as a Horner polynomial, not a sine
#: matrix, which again changes the training corpus and the weights.
SCHEMA_VERSION = 3

#: Hex digest length used for entry directory names.  32 hex chars of
#: SHA-256 (128 bits) keeps paths short while making collisions
#: practically impossible.
_DIGEST_CHARS = 32


def canonical_token(value: object) -> str:
    """Render ``value`` into a stable, unambiguous string.

    Floats use ``repr`` (shortest round-trip), mappings sort by key,
    sets sort by token, dataclasses render as ``ClassName{field=...}``
    in field order, and numpy values render via their Python
    equivalents.  Raises :class:`StoreError` for types with no stable
    rendering (arbitrary objects whose ``repr`` embeds addresses).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, np.generic):
        return canonical_token(value.item())
    if isinstance(value, np.ndarray):
        return f"ndarray{value.shape}:{canonical_token(value.tolist())}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}="
            f"{canonical_token(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}{{{fields}}}"
    if isinstance(value, Mapping):
        items = ",".join(
            f"{canonical_token(key)}:{canonical_token(value[key])}"
            for key in sorted(value, key=str)
        )
        return f"{{{items}}}"
    if isinstance(value, (frozenset, set)):
        return f"{{{','.join(sorted(canonical_token(v) for v in value))}}}"
    if isinstance(value, Sequence):
        return f"[{','.join(canonical_token(item) for item in value)}]"
    raise StoreError(
        f"cannot fingerprint a value of type {type(value).__name__}; "
        "pass primitives, dataclasses, mappings, sequences, or arrays"
    )


def artifact_fingerprint(
    kind: str,
    schema_version: int = SCHEMA_VERSION,
    **parts: object,
) -> str:
    """Hex fingerprint of an artifact recipe.

    ``parts`` carries the recipe (config dataclass, seed, sizes, ...);
    keys are sorted so call-site keyword order is irrelevant.
    """
    if not kind or any(c in kind for c in "/\\. "):
        raise StoreError(
            f"artifact kind must be a path-safe name, got {kind!r}"
        )
    token = "|".join(
        [f"kind={kind}", f"schema={int(schema_version)}"]
        + [
            f"{name}={canonical_token(parts[name])}"
            for name in sorted(parts)
        ]
    )
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return digest[:_DIGEST_CHARS]


def payload_checksum(payload: bytes) -> str:
    """Full SHA-256 hex digest of an artifact payload."""
    return hashlib.sha256(payload).hexdigest()
