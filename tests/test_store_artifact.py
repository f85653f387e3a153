"""Segmenter weight store: fingerprints, atomicity, integrity, verify."""

import json
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cli import main
from repro.errors import StoreError
from repro.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    artifact_fingerprint,
    canonical_token,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def put_entry(store, fingerprint="abc123", payload=b"data"):
    store.put(fingerprint, payload)
    return fingerprint


def quarantined(store):
    """Entries the store has moved aside."""
    quarantine_dir = store.root / "quarantine"
    if not quarantine_dir.is_dir():
        return []
    return sorted(quarantine_dir.iterdir())


@dataclass(frozen=True)
class Probe:
    gain: float
    name: str


class TestFingerprint:
    """Scenario and weight addresses must not drift between releases."""

    VALUE = {
        "z": np.arange(3),
        "a": [1, 2.5, None, True],
        "s": frozenset({"b", "a"}),
        "b": b"\x01\xff",
        "p": Probe(0.1, "x"),
        "g": np.float32(0.5),
    }

    def test_canonical_token_golden(self):
        assert canonical_token(self.VALUE) == (
            "{'a':[1,2.5,None,True],'b':bytes:01ff,'g':0.5,"
            "'p':Probe{gain=0.1,name='x'},'s':{'a','b'},"
            "'z':ndarray(3,):[0,1,2]}"
        )

    def test_artifact_fingerprint_golden(self):
        assert SCHEMA_VERSION == 3
        assert (
            artifact_fingerprint("probe", value=self.VALUE, seed=7)
            == "86699057878888b6dce20ac1a72a5d8d"
        )

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(StoreError, match="fingerprint"):
            canonical_token(object())


class TestPutGet:
    def test_round_trip(self, store):
        key = put_entry(store, payload=b"\x00\x01payload")
        assert store.get(key) == b"\x00\x01payload"

    def test_miss_returns_none(self, store):
        assert store.get("missing") is None
        assert quarantined(store) == []

    def test_put_requires_bytes(self, store):
        with pytest.raises(StoreError, match="bytes"):
            store.put("abc", "not-bytes")

    def test_put_replaces_existing_entry(self, store):
        key = put_entry(store, payload=b"old")
        store.put(key, b"new")
        assert store.get(key) == b"new"

    def test_reads_entries_with_extra_metadata(self, store):
        """Entries written with kind and provenance fields still load."""
        key = put_entry(store, payload=b"weights")
        entry = store.entry_dir(key)
        record = json.loads((entry / "meta.json").read_text())
        record.update(kind="segmenter", created_at=0.0, meta={"seed": 1})
        (entry / "meta.json").write_text(json.dumps(record))
        (entry / "last_used").touch()
        assert store.get(key) == b"weights"
        assert store.verify() == [(key, None)]


class TestCorruption:
    """Invalid entries quarantine and report a miss — never crash."""

    def assert_quarantined_miss(self, store, key):
        assert store.get(key) is None
        assert not store.entry_dir(key).exists()
        assert len(quarantined(store)) == 1

    def test_flipped_payload_byte(self, store):
        key = put_entry(store, payload=b"payload-bytes")
        payload_path = store.entry_dir(key) / "payload.bin"
        raw = bytearray(payload_path.read_bytes())
        raw[0] ^= 0xFF
        payload_path.write_bytes(bytes(raw))
        self.assert_quarantined_miss(store, key)

    def test_truncated_payload(self, store):
        key = put_entry(store, payload=b"payload-bytes")
        payload_path = store.entry_dir(key) / "payload.bin"
        payload_path.write_bytes(payload_path.read_bytes()[:-3])
        self.assert_quarantined_miss(store, key)

    def test_missing_payload(self, store):
        key = put_entry(store)
        (store.entry_dir(key) / "payload.bin").unlink()
        self.assert_quarantined_miss(store, key)

    def test_wrong_schema_version(self, store):
        key = put_entry(store)
        meta_path = store.entry_dir(key) / "meta.json"
        record = json.loads(meta_path.read_text())
        record["schema_version"] = SCHEMA_VERSION + 41
        meta_path.write_text(json.dumps(record))
        self.assert_quarantined_miss(store, key)

    def test_unparseable_metadata(self, store):
        key = put_entry(store)
        (store.entry_dir(key) / "meta.json").write_text("{not json")
        self.assert_quarantined_miss(store, key)

    def test_metadata_missing_keys(self, store):
        key = put_entry(store)
        (store.entry_dir(key) / "meta.json").write_text("{}")
        self.assert_quarantined_miss(store, key)

    def test_metadata_address_mismatch(self, store):
        key = put_entry(store)
        meta_path = store.entry_dir(key) / "meta.json"
        record = json.loads(meta_path.read_text())
        record["fingerprint"] = "somebody-else"
        meta_path.write_text(json.dumps(record))
        self.assert_quarantined_miss(store, key)

    def test_quarantine_names_never_collide(self, store):
        for _ in range(3):
            key = put_entry(store)
            (store.entry_dir(key) / "meta.json").write_text("{}")
            assert store.get(key) is None
        assert len(quarantined(store)) == 3

    def test_healthy_entries_unaffected(self, store):
        bad = put_entry(store, fingerprint="bad")
        good = put_entry(store, fingerprint="good", payload=b"fine")
        (store.entry_dir(bad) / "meta.json").write_text("{}")
        assert store.get(bad) is None
        assert store.get(good) == b"fine"


class TestGetOrCreate:
    def test_miss_produces_and_publishes(self, store):
        calls = []

        def produce():
            calls.append(1)
            return b"produced"

        payload, created = store.get_or_create("abc", produce)
        assert (payload, created) == (b"produced", True)
        payload, created = store.get_or_create("abc", produce)
        assert (payload, created) == (b"produced", False)
        assert len(calls) == 1

    def test_threads_racing_produce_once(self, store):
        calls = []
        barrier = threading.Barrier(4)
        results = []

        def produce():
            calls.append(1)
            time.sleep(0.05)
            return b"expensive"

        def worker():
            barrier.wait()
            results.append(store.get_or_create("contended", produce))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert sum(created for _, created in results) == 1
        assert {payload for payload, _ in results} == {b"expensive"}


class TestVerify:
    def test_reports_without_quarantining(self, store):
        good = put_entry(store, fingerprint="good")
        bad = put_entry(store, fingerprint="bad", payload=b"data")
        payload_path = store.entry_dir(bad) / "payload.bin"
        payload_path.write_bytes(b"tampered-data")
        report = dict(store.verify())
        assert report[good] is None
        assert "checksum" in report[bad] or "bytes" in report[bad]
        # verify() is read-only: the broken entry is still on disk.
        assert store.entry_dir(bad).is_dir()
        assert quarantined(store) == []

    def test_cli_exits_one_on_a_flipped_payload_byte(self, store, capsys):
        key = put_entry(store, payload=b"payload-bytes")
        argv = ["store", "verify", "--dir", str(store.root)]
        assert main(argv) == 0
        assert "verified 1 artifact(s), 0 corrupt" in capsys.readouterr().out
        payload_path = store.entry_dir(key) / "payload.bin"
        raw = bytearray(payload_path.read_bytes())
        raw[0] ^= 0xFF
        payload_path.write_bytes(bytes(raw))
        assert main(argv) == 1
        assert f"CORRUPT {key}" in capsys.readouterr().out
