"""Content-addressed on-disk artifact store.

Layout (all under one root directory)::

    <root>/
      v<schema>/<kind>/<fingerprint>/
        payload.bin   artifact bytes
        meta.json     checksum + provenance (see below)
        last_used     empty touch file; its mtime is the LRU clock
      locks/<kind>-<fingerprint>.lock
      quarantine/<kind>-<fingerprint>-<n>/

Guarantees:

* **Atomic publication** — entries are staged in a temp directory and
  renamed into place, so readers never observe a half-written entry.
* **Integrity on read** — ``payload.bin`` is checked against the
  SHA-256 recorded in ``meta.json`` on every :meth:`get`; a mismatch
  (or unreadable/schema-mismatched metadata) quarantines the entry and
  reports a miss, so callers fall back to recomputing.  Corruption
  never crashes the load path.
* **One producer under contention** — :meth:`get_or_create` holds the
  entry's advisory file lock around the produce-and-publish critical
  section; concurrent processes racing on an empty store perform the
  expensive computation exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ArtifactIntegrityError, StoreError
from repro.store.fingerprint import (
    SCHEMA_VERSION,
    payload_checksum,
)
from repro.store.locks import FileLock

_PAYLOAD_NAME = "payload.bin"
_META_NAME = "meta.json"
_LAST_USED_NAME = "last_used"

#: meta.json keys every valid entry must carry.
_REQUIRED_META_KEYS = (
    "schema_version",
    "kind",
    "fingerprint",
    "sha256",
    "n_bytes",
)


@dataclass(frozen=True)
class ArtifactKey:
    """Address of one artifact: its kind plus recipe fingerprint."""

    kind: str
    fingerprint: str

    def __post_init__(self) -> None:
        for part, name in ((self.kind, "kind"), (self.fingerprint, "fingerprint")):
            if not part or any(c in part for c in "/\\. "):
                raise StoreError(
                    f"artifact {name} must be path-safe, got {part!r}"
                )

    def __str__(self) -> str:
        return f"{self.kind}/{self.fingerprint}"


@dataclass(frozen=True)
class ArtifactInfo:
    """Metadata snapshot of one stored entry (no payload)."""

    key: ArtifactKey
    n_bytes: int
    sha256: str
    created_at: float
    last_used_at: float
    path: Path
    meta: Dict[str, object] = field(default_factory=dict)


class ArtifactStore:
    """Content-addressed artifact store rooted at a directory.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    schema_version:
        On-disk schema generation; entries written under other versions
        are invisible (and removable via :meth:`gc`-less manual cleanup
        or a fresh root).
    """

    def __init__(
        self,
        root,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.schema_version = int(schema_version)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def _data_dir(self) -> Path:
        return self.root / f"v{self.schema_version}"

    def entry_dir(self, key: ArtifactKey) -> Path:
        """Directory that holds (or would hold) ``key``'s entry."""
        return self._data_dir / key.kind / key.fingerprint

    def _lock_path(self, key: ArtifactKey) -> Path:
        return self.root / "locks" / f"{key.kind}-{key.fingerprint}.lock"

    def lock(self, key: ArtifactKey) -> FileLock:
        """Advisory cross-process lock guarding ``key``'s entry."""
        return FileLock(self._lock_path(key))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def contains(self, key: ArtifactKey) -> bool:
        """Whether an entry directory exists (no integrity check)."""
        return self.entry_dir(key).is_dir()

    def get(self, key: ArtifactKey) -> Optional[bytes]:
        """Payload bytes, or ``None`` on miss.

        A present-but-invalid entry (checksum mismatch, truncated or
        unparseable metadata, wrong schema version) is moved to the
        quarantine area and reported as a miss — the caller's fallback
        is to recompute and re-publish.
        """
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return None
        payload, problem = self._read_validated(key, entry)
        if problem is not None:
            self._quarantine(key, entry)
            return None
        self._touch_last_used(entry)
        return payload

    def info(self, key: ArtifactKey) -> Optional[ArtifactInfo]:
        """Metadata for one entry, or ``None`` when absent."""
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return None
        return self._info_from_dir(key, entry)

    def entries(self) -> List[ArtifactInfo]:
        """All readable entries, sorted by (kind, fingerprint)."""
        found: List[ArtifactInfo] = []
        if not self._data_dir.is_dir():
            return found
        for kind_dir in sorted(self._data_dir.iterdir()):
            if not kind_dir.is_dir():
                continue
            for entry in sorted(kind_dir.iterdir()):
                if not entry.is_dir():
                    continue
                key = ArtifactKey(kind_dir.name, entry.name)
                info = self._info_from_dir(key, entry)
                if info is not None:
                    found.append(info)
        return found

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(
        self,
        key: ArtifactKey,
        payload: bytes,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Publish ``payload`` under ``key`` atomically.

        The entry is staged in a temp directory next to its final
        location and renamed into place; a concurrent reader sees
        either no entry or the complete one.  Replaces any existing
        entry for the same key.
        """
        if not isinstance(payload, bytes):
            raise StoreError(
                f"payload must be bytes, got {type(payload).__name__}"
            )
        entry = self.entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = entry.parent / f".tmp-{key.fingerprint}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            (staging / _PAYLOAD_NAME).write_bytes(payload)
            record = {
                "schema_version": self.schema_version,
                "kind": key.kind,
                "fingerprint": key.fingerprint,
                "sha256": payload_checksum(payload),
                "n_bytes": len(payload),
                "created_at": time.time(),
                "meta": dict(meta or {}),
            }
            (staging / _META_NAME).write_text(
                json.dumps(record, indent=2, sort_keys=True)
            )
            (staging / _LAST_USED_NAME).touch()
            if entry.exists():
                shutil.rmtree(entry)
            os.rename(staging, entry)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    def get_or_create(
        self,
        key: ArtifactKey,
        producer: Callable[[], bytes],
        meta: Optional[Dict[str, object]] = None,
    ) -> Tuple[bytes, bool]:
        """Load ``key``, or run ``producer`` exactly once and publish.

        Returns ``(payload, created)`` where ``created`` is ``True``
        only for the caller that actually ran ``producer``.  Among N
        concurrent callers (threads or processes) racing on a missing
        entry, exactly one produces; the rest block on the entry lock
        and then load the published payload.
        """
        payload = self.get(key)
        if payload is not None:
            return payload, False
        with self.lock(key):
            # Double-check under the lock: a concurrent producer may
            # have published while this caller waited.
            payload = self.get(key)
            if payload is not None:
                return payload, False
            payload = producer()
            self.put(key, payload, meta=meta)
            return payload, True

    def quarantine_entry(self, key: ArtifactKey) -> bool:
        """Move ``key``'s entry to quarantine (decode-failure path).

        :meth:`get` quarantines checksum/schema failures on its own;
        this hook is for callers whose *decoding* of a checksum-valid
        payload fails (e.g. an archive numpy cannot parse), so the
        broken entry stops shadowing the retrain fallback.
        """
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return False
        with self.lock(key):
            if not entry.is_dir():
                return False
            return self._quarantine(key, entry) is not None

    def delete(self, key: ArtifactKey) -> bool:
        """Remove one entry; returns whether anything was removed."""
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return False
        with self.lock(key):
            if not entry.is_dir():
                return False
            shutil.rmtree(entry)
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def verify(self) -> List[Tuple[ArtifactKey, Optional[str]]]:
        """Integrity-check every entry without quarantining.

        Returns ``(key, problem)`` pairs; ``problem`` is ``None`` for
        healthy entries and a human-readable reason otherwise.
        """
        report: List[Tuple[ArtifactKey, Optional[str]]] = []
        if not self._data_dir.is_dir():
            return report
        for kind_dir in sorted(self._data_dir.iterdir()):
            if not kind_dir.is_dir():
                continue
            for entry in sorted(kind_dir.iterdir()):
                if not entry.is_dir() or entry.name.startswith(".tmp-"):
                    continue
                key = ArtifactKey(kind_dir.name, entry.name)
                _, problem = self._read_validated(key, entry)
                report.append((key, problem))
        return report

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        dry_run: bool = False,
    ) -> List[ArtifactInfo]:
        """Evict least-recently-used entries beyond the given bounds.

        Both bounds may be given; eviction continues until the store
        satisfies every one.  Returns the evicted entries' metadata
        (oldest first).  With ``dry_run`` nothing is deleted — the
        returned list is what a real run *would* evict, which the CLI
        sums into per-kind reclaimable bytes.
        """
        if max_bytes is None and max_entries is None:
            return []
        for bound, name in (
            (max_bytes, "max_bytes"),
            (max_entries, "max_entries"),
        ):
            if bound is not None and bound < 0:
                raise StoreError(f"{name} must be >= 0, got {bound}")
        survivors = sorted(
            self.entries(), key=lambda info: info.last_used_at
        )
        total = sum(info.n_bytes for info in survivors)
        evicted: List[ArtifactInfo] = []
        while survivors and (
            (max_bytes is not None and total > max_bytes)
            or (max_entries is not None and len(survivors) > max_entries)
        ):
            victim = survivors.pop(0)
            if dry_run or self.delete(victim.key):
                evicted.append(victim)
            total -= victim.n_bytes
        return evicted

    def export_archive(
        self,
        archive_path,
        kinds: Optional[List[str]] = None,
    ) -> List[ArtifactKey]:
        """Write entries (optionally filtered by kind) to a tar.gz."""
        archive_path = Path(archive_path)
        exported: List[ArtifactKey] = []
        entries = [
            info
            for info in self.entries()
            if kinds is None or info.key.kind in kinds
        ]
        with tarfile.open(archive_path, "w:gz") as archive:
            for info in entries:
                arcname = (
                    f"v{self.schema_version}/"
                    f"{info.key.kind}/{info.key.fingerprint}"
                )
                for name in (_PAYLOAD_NAME, _META_NAME):
                    archive.add(
                        info.path / name, arcname=f"{arcname}/{name}"
                    )
                exported.append(info.key)
        return exported

    def import_archive(
        self, archive_path, overwrite: bool = False
    ) -> List[ArtifactKey]:
        """Import entries from :meth:`export_archive` output.

        Every imported payload is checksum-verified against its
        metadata before publication; a corrupt member raises
        :class:`ArtifactIntegrityError` (imports are explicit integrity
        boundaries, unlike the quarantine-and-miss read path).
        Existing entries are kept unless ``overwrite`` is set.
        """
        archive_path = Path(archive_path)
        if not archive_path.is_file():
            raise StoreError(f"archive not found: {archive_path}")
        imported: List[ArtifactKey] = []
        with tarfile.open(archive_path, "r:gz") as archive:
            members: Dict[str, Dict[str, bytes]] = {}
            for member in archive.getmembers():
                if not member.isfile():
                    continue
                parts = Path(member.name).parts
                if (
                    len(parts) != 4
                    or ".." in parts
                    or parts[0] != f"v{self.schema_version}"
                    or parts[3] not in (_PAYLOAD_NAME, _META_NAME)
                ):
                    continue
                handle = archive.extractfile(member)
                if handle is None:  # pragma: no cover - dir members
                    continue
                entry_id = f"{parts[1]}/{parts[2]}"
                members.setdefault(entry_id, {})[parts[3]] = handle.read()
        for entry_id, files in sorted(members.items()):
            kind, fingerprint = entry_id.split("/")
            key = ArtifactKey(kind, fingerprint)
            payload = files.get(_PAYLOAD_NAME)
            meta_bytes = files.get(_META_NAME)
            if payload is None or meta_bytes is None:
                raise ArtifactIntegrityError(
                    f"archive entry {entry_id} is incomplete"
                )
            try:
                record = json.loads(meta_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ArtifactIntegrityError(
                    f"archive entry {entry_id} has unreadable metadata"
                ) from error
            if record.get("sha256") != payload_checksum(payload):
                raise ArtifactIntegrityError(
                    f"archive entry {entry_id} failed its checksum"
                )
            if self.contains(key) and not overwrite:
                continue
            self.put(key, payload, meta=record.get("meta") or {})
            imported.append(key)
        return imported

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _read_validated(
        self, key: ArtifactKey, entry: Path
    ) -> Tuple[Optional[bytes], Optional[str]]:
        """(payload, problem) for one entry; problem=None means valid."""
        meta_path = entry / _META_NAME
        try:
            record = json.loads(meta_path.read_text())
        except OSError:
            return None, "metadata file missing or unreadable"
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "metadata is not valid JSON"
        if not isinstance(record, dict) or any(
            name not in record for name in _REQUIRED_META_KEYS
        ):
            return None, "metadata is missing required keys"
        if int(record["schema_version"]) != self.schema_version:
            return None, (
                f"schema version {record['schema_version']} != "
                f"store schema {self.schema_version}"
            )
        if (
            record["kind"] != key.kind
            or record["fingerprint"] != key.fingerprint
        ):
            return None, "metadata does not match the entry's address"
        try:
            payload = (entry / _PAYLOAD_NAME).read_bytes()
        except OSError:
            return None, "payload file missing or unreadable"
        if len(payload) != int(record["n_bytes"]):
            return None, (
                f"payload is {len(payload)} bytes, "
                f"metadata says {record['n_bytes']}"
            )
        if payload_checksum(payload) != record["sha256"]:
            return None, "payload failed its SHA-256 checksum"
        return payload, None

    def _quarantine(self, key: ArtifactKey, entry: Path) -> Optional[Path]:
        """Move a corrupt entry aside; never raises on the read path."""
        quarantine_dir = self.root / "quarantine"
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            base = f"{key.kind}-{key.fingerprint}"
            for attempt in range(1000):
                target = quarantine_dir / (
                    base if attempt == 0 else f"{base}-{attempt}"
                )
                if not target.exists():
                    os.rename(entry, target)
                    return target
            shutil.rmtree(entry)  # pragma: no cover - 1000 quarantines
        except OSError:  # pragma: no cover - best-effort cleanup
            shutil.rmtree(entry, ignore_errors=True)
        return None

    def quarantined(self) -> List[Path]:
        """Directories currently sitting in quarantine."""
        quarantine_dir = self.root / "quarantine"
        if not quarantine_dir.is_dir():
            return []
        return sorted(p for p in quarantine_dir.iterdir() if p.is_dir())

    def _info_from_dir(
        self, key: ArtifactKey, entry: Path
    ) -> Optional[ArtifactInfo]:
        meta_path = entry / _META_NAME
        try:
            record = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        try:
            last_used = (entry / _LAST_USED_NAME).stat().st_mtime
        except OSError:
            last_used = float(record.get("created_at", 0.0))
        return ArtifactInfo(
            key=key,
            n_bytes=int(record.get("n_bytes", 0)),
            sha256=str(record.get("sha256", "")),
            created_at=float(record.get("created_at", 0.0)),
            last_used_at=last_used,
            path=entry,
            meta=dict(record.get("meta") or {}),
        )

    def _touch_last_used(self, entry: Path) -> None:
        marker = entry / _LAST_USED_NAME
        try:
            marker.touch()
            os.utime(marker, None)
        except OSError:  # pragma: no cover - read path must not fail
            pass
