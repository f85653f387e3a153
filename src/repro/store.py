"""Load-or-train cache for trained segmenter weights.

The defense's one trained model, the § V-B BLSTM phoneme segmenter,
persists here so a new process loads its weights in milliseconds
instead of retraining.  The module deals in bytes only; encoding and
decoding the weights is the caller's (see
:func:`repro.core.segmentation.load_or_train_segmenter`).

An entry's address is a deterministic fingerprint of its training
recipe (:func:`artifact_fingerprint`), so the same recipe maps to the
same entry across processes, machines and Python hash seeds.  The same
fingerprint scheme names scenario specs.

Layout (all under one root directory)::

    <root>/
      v<SCHEMA_VERSION>/segmenter/<fingerprint>/
        payload.bin   artifact bytes
        meta.json     schema version, fingerprint, SHA-256, size
      locks/<fingerprint>.lock
      quarantine/<fingerprint>[-<n>]/

Guarantees:

* **Atomic publication** — entries are staged in a temp directory and
  renamed into place, so readers never observe a half-written entry.
* **Integrity on read** — ``payload.bin`` is checked against the size
  and SHA-256 recorded in ``meta.json`` on every :meth:`~ArtifactStore.get`;
  a mismatch (or unreadable or schema-mismatched metadata) quarantines
  the entry and reports a miss, so callers fall back to retraining.
* **One producer under contention** — :meth:`~ArtifactStore.get_or_create`
  holds the entry's advisory file lock around the produce-and-publish
  critical section; processes racing on an empty store train once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import threading
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.errors import ModelError, StoreError

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: Version of the on-disk schema.  Part of every fingerprint and of the
#: store's directory layout (``<root>/v<SCHEMA_VERSION>/``).  Bump it
#: whenever the *meaning* of stored payloads changes (serialization
#: format, training recipe semantics): old entries then stop being
#: addressable and the next load retrains.
#: Version 2: phoneme synthesis filters at fast FFT lengths, which
#: changes the segmenter's training corpus and so its trained weights.
#: Version 3: harmonics are summed as a Horner polynomial, not a sine
#: matrix, which again changes the training corpus and the weights.
SCHEMA_VERSION = 3

#: Hex digest length used for entry directory names.  32 hex chars of
#: SHA-256 (128 bits) keeps paths short while making collisions
#: practically impossible.
_DIGEST_CHARS = 32

_PAYLOAD_NAME = "payload.bin"
_META_NAME = "meta.json"
_REQUIRED_META_KEYS = ("schema_version", "fingerprint", "sha256", "n_bytes")

T = TypeVar("T")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


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


def artifact_fingerprint(kind: str, **parts: object) -> str:
    """Hex fingerprint of ``kind`` plus a recipe, under this schema.

    ``parts`` carries the recipe (config dataclass, seed, sizes, ...);
    keys are sorted so call-site keyword order is irrelevant.
    """
    token = "|".join(
        [f"kind={kind}", f"schema={SCHEMA_VERSION}"]
        + [
            f"{name}={canonical_token(parts[name])}"
            for name in sorted(parts)
        ]
    )
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return digest[:_DIGEST_CHARS]


# ----------------------------------------------------------------------
# Locking
# ----------------------------------------------------------------------

# Fallback registry: one process-wide lock per lock-file path.
_FALLBACK_LOCKS: Dict[str, threading.Lock] = {}
_FALLBACK_REGISTRY_LOCK = threading.Lock()


class FileLock:
    """Exclusive, blocking advisory lock on ``path``.

    POSIX ``flock`` locks are attached to the open file description, so
    two *threads* opening the lock file independently exclude each
    other just like two processes do.  Without ``fcntl`` the lock
    degrades to a per-process ``threading.Lock``: concurrent processes
    then risk duplicate (identical, because training is
    seed-deterministic) work, never corruption, because publication
    stays atomic.  Not reentrant; one instance per acquisition.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None
        self._fallback: Optional[threading.Lock] = None

    def acquire(self) -> None:
        if self._fd is not None or self._fallback is not None:
            raise RuntimeError("FileLock is not reentrant")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - off-POSIX degradation
            with _FALLBACK_REGISTRY_LOCK:
                lock = _FALLBACK_LOCKS.setdefault(
                    str(self.path), threading.Lock()
                )
            lock.acquire()
            self._fallback = lock
            return
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        if self._fallback is not None:  # pragma: no cover - off-POSIX
            self._fallback.release()
            self._fallback = None
            return
        if self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ArtifactStore:
    """Fingerprint-addressed payloads under one root directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def entry_dir(self, fingerprint: str) -> Path:
        """Directory that holds (or would hold) ``fingerprint``'s entry."""
        return self._data_dir / fingerprint

    @property
    def _data_dir(self) -> Path:
        # ``segmenter/`` keeps stores written by earlier releases,
        # which filed entries by kind, readable.
        return self.root / f"v{SCHEMA_VERSION}" / "segmenter"

    def lock(self, fingerprint: str) -> FileLock:
        """Advisory cross-process lock guarding one entry."""
        return FileLock(self.root / "locks" / f"{fingerprint}.lock")

    def get(self, fingerprint: str) -> Optional[bytes]:
        """Payload bytes, or ``None`` on a miss.

        A present-but-invalid entry is moved to the quarantine area and
        reported as a miss.
        """
        entry = self.entry_dir(fingerprint)
        if not entry.is_dir():
            return None
        payload, problem = self._read_validated(fingerprint, entry)
        if problem is not None:
            self._quarantine(fingerprint, entry)
        return payload

    def put(self, fingerprint: str, payload: bytes) -> Path:
        """Publish ``payload`` atomically, replacing any existing entry."""
        if not isinstance(payload, bytes):
            raise StoreError(
                f"payload must be bytes, got {type(payload).__name__}"
            )
        entry = self.entry_dir(fingerprint)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = entry.parent / f".tmp-{fingerprint}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            (staging / _PAYLOAD_NAME).write_bytes(payload)
            record = {
                "schema_version": SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "n_bytes": len(payload),
            }
            (staging / _META_NAME).write_text(
                json.dumps(record, indent=2, sort_keys=True)
            )
            if entry.exists():
                shutil.rmtree(entry)
            os.rename(staging, entry)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    def get_or_create(
        self, fingerprint: str, producer: Callable[[], bytes]
    ) -> Tuple[bytes, bool]:
        """Load the entry, or run ``producer`` exactly once and publish.

        Returns ``(payload, created)``; ``created`` is ``True`` only for
        the caller that ran ``producer``.  Among concurrent callers
        (threads or processes) racing on a missing entry, one produces;
        the rest block on the entry lock and then load its payload.
        """
        payload = self.get(fingerprint)
        if payload is not None:
            return payload, False
        with self.lock(fingerprint):
            # A concurrent producer may have published while we waited.
            payload = self.get(fingerprint)
            if payload is not None:
                return payload, False
            payload = producer()
            self.put(fingerprint, payload)
            return payload, True

    def quarantine_entry(self, fingerprint: str) -> None:
        """Move an entry whose payload failed to *decode* to quarantine.

        :meth:`get` quarantines checksum and schema failures itself;
        this is for a checksum-valid payload the caller cannot decode,
        so the broken entry stops shadowing the retrain fallback.
        """
        entry = self.entry_dir(fingerprint)
        with self.lock(fingerprint):
            if entry.is_dir():
                self._quarantine(fingerprint, entry)

    def verify(self) -> List[Tuple[str, Optional[str]]]:
        """Integrity-check every entry without quarantining.

        Returns ``(fingerprint, problem)`` pairs sorted by fingerprint;
        ``problem`` is ``None`` for a healthy entry and a reason
        otherwise.
        """
        if not self._data_dir.is_dir():
            return []
        return [
            (entry.name, self._read_validated(entry.name, entry)[1])
            for entry in sorted(self._data_dir.iterdir())
            if entry.is_dir() and not entry.name.startswith(".tmp-")
        ]

    def _read_validated(
        self, fingerprint: str, entry: Path
    ) -> Tuple[Optional[bytes], Optional[str]]:
        """(payload, problem) for one entry; problem=None means valid."""
        try:
            record = json.loads((entry / _META_NAME).read_text())
        except OSError:
            return None, "metadata file missing or unreadable"
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "metadata is not valid JSON"
        if not isinstance(record, dict) or any(
            name not in record for name in _REQUIRED_META_KEYS
        ):
            return None, "metadata is missing required keys"
        if record["schema_version"] != SCHEMA_VERSION:
            return None, (
                f"schema version {record['schema_version']} != "
                f"store schema {SCHEMA_VERSION}"
            )
        if record["fingerprint"] != fingerprint:
            return None, "metadata does not match the entry's address"
        try:
            payload = (entry / _PAYLOAD_NAME).read_bytes()
        except OSError:
            return None, "payload file missing or unreadable"
        if len(payload) != record["n_bytes"]:
            return None, (
                f"payload is {len(payload)} bytes, "
                f"metadata says {record['n_bytes']}"
            )
        if hashlib.sha256(payload).hexdigest() != record["sha256"]:
            return None, "payload failed its SHA-256 checksum"
        return payload, None

    def _quarantine(self, fingerprint: str, entry: Path) -> None:
        """Move a corrupt entry aside; never raises on the read path."""
        quarantine_dir = self.root / "quarantine"
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            for attempt in range(1000):
                name = f"{fingerprint}-{attempt}" if attempt else fingerprint
                target = quarantine_dir / name
                if not target.exists():
                    os.rename(entry, target)
                    return
            shutil.rmtree(entry)  # pragma: no cover - 1000 quarantines
        except OSError:  # pragma: no cover - best-effort cleanup
            shutil.rmtree(entry, ignore_errors=True)


def load_or_create(
    root,
    fingerprint: str,
    produce: Callable[[], bytes],
    decode: Callable[[bytes], T],
) -> T:
    """Decoded artifact from the store at ``root``, producing it on a miss.

    ``decode`` raises :class:`ModelError` for a payload it cannot read;
    a stored payload that fails to decode is quarantined and produced
    again.  An unusable root (unwritable, a file in the way) produces
    without the store and logs a warning.
    """
    store = ArtifactStore(root)
    payload, created = _get_or_create(store, fingerprint, produce)
    if not created:
        try:
            return decode(payload)
        except ModelError as error:
            logger.warning(
                "stored artifact %s failed to decode (%s); "
                "quarantining and retraining",
                fingerprint,
                error,
            )
        store.quarantine_entry(fingerprint)
        payload, _ = _get_or_create(store, fingerprint, produce)
    return decode(payload)


def _get_or_create(
    store: ArtifactStore, fingerprint: str, produce: Callable[[], bytes]
) -> Tuple[bytes, bool]:
    try:
        return store.get_or_create(fingerprint, produce)
    except OSError as error:
        logger.warning(
            "artifact store %s unusable (%s: %s); training %s without "
            "the store",
            store.root,
            type(error).__name__,
            error,
            fingerprint,
        )
        return produce(), True
