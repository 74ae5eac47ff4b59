"""Tests for the durable wear ledger (WAL + snapshots)."""

import errno
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    LedgerCorruptionError,
    LedgerWriteError,
)
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.protocol import encode_frame
from tests.service._canonical import reference_json, wal_records


def _wal_bytes(ledger: WearLedger) -> bytes:
    with open(ledger.wal_path, "rb") as handle:
        return handle.read()


class TestAppend:
    def test_batch_assigns_consecutive_seqs(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        assert ledger.append({"op": "provision", "tenant": "a"}) == 0
        assert ledger.append_batch(
            [{"op": "access", "tenant": "a"},
             {"op": "access", "tenant": "b"}]) == [1, 2]
        assert ledger.next_seq == 3
        ledger.close()

    def test_records_are_one_json_object_per_line(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.append_batch([{"op": "access", "tenant": "a"},
                             {"op": "access", "tenant": "b"}])
        ledger.close()
        lines = _wal_bytes(ledger).decode().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_replay_refuses_an_open_ledger(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.open_for_append()
        with pytest.raises(ConfigurationError):
            ledger.replay()
        ledger.close()


class TestWriteFailure:
    def test_failed_write_stops_the_ledger(self, tmp_path, failing_wal):
        ledger = WearLedger(str(tmp_path))
        ledger.append({"op": "provision", "tenant": "a"})
        ledger.write_snapshot(0, [])
        wal = _wal_bytes(ledger)
        snapshot = (tmp_path / "snapshot.json").read_bytes()
        failing_wal[0].armed = True
        with pytest.raises(LedgerWriteError) as failed:
            ledger.append({"op": "access", "tenant": "a"})
        assert failed.value.__cause__.errno == errno.ENOSPC
        assert ledger.failure is failed.value
        # Every later write is refused before it touches a file.
        for write in (lambda: ledger.append({"op": "access", "tenant": "a"}),
                      lambda: ledger.write_snapshot(1, []),
                      ledger.rotate_segment):
            with pytest.raises(LedgerWriteError):
                write()
        ledger.close()
        assert _wal_bytes(ledger) == wal
        assert (tmp_path / "snapshot.json").read_bytes() == snapshot
        assert not (tmp_path / "archive").exists()
        fresh = WearLedger(str(tmp_path))
        _, records = fresh.replay()
        assert [record["seq"] for record in records] == [0]
        fresh.close()


class TestSingleWriter:
    def test_second_live_instance_is_refused(self, tmp_path):
        first = WearLedger(str(tmp_path))
        first.open_for_append()
        second = WearLedger(str(tmp_path))
        with pytest.raises(ConfigurationError):
            second.open_for_append()
        with pytest.raises(ConfigurationError):
            second.replay()
        first.close()

    def test_lock_is_released_on_close(self, tmp_path):
        first = WearLedger(str(tmp_path))
        first.append({"op": "provision", "tenant": "a"})
        first.close()
        second = WearLedger(str(tmp_path))
        _, records = second.replay()
        assert len(records) == 1
        second.open_for_append()
        second.close()

    def test_replay_then_append_holds_one_lock(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.replay()
        ledger.open_for_append()
        ledger.append({"op": "provision", "tenant": "a"})
        ledger.close()


class TestReplay:
    def test_roundtrip(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.append({"op": "provision", "tenant": "a"})
        ledger.append({"op": "access", "tenant": "a"})
        ledger.close()

        fresh = WearLedger(str(tmp_path))
        snapshot, records = fresh.replay()
        assert snapshot is None
        assert [r["op"] for r in records] == ["provision", "access"]
        assert fresh.next_seq == 2

    def test_empty_directory_replays_empty(self, tmp_path):
        snapshot, records = WearLedger(str(tmp_path)).replay()
        assert snapshot is None
        assert records == []

    def test_non_contiguous_seq_is_corruption(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        with open(ledger.wal_path, "w") as handle:
            handle.write('{"op":"access","seq":0,"tenant":"a"}\n')
            handle.write('{"op":"access","seq":2,"tenant":"a"}\n')
        with pytest.raises(LedgerCorruptionError):
            ledger.replay()

    def test_missing_op_is_corruption(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        with open(ledger.wal_path, "w") as handle:
            handle.write('{"seq":0,"tenant":"a"}\n')
        with pytest.raises(LedgerCorruptionError):
            ledger.replay()

    @pytest.mark.parametrize("first", [
        b'{"op":"access","tenant":"a"}',
        b'{"op":"access","seq":"0","tenant":"a"}',
    ], ids=["missing", "string"])
    def test_first_seq_that_is_not_an_int_is_corruption(self, tmp_path,
                                                        first):
        ledger = WearLedger(str(tmp_path))
        wal = first + b'\n{"op":"access","seq":1,"tenant":"a"}\n'
        with open(ledger.wal_path, "wb") as handle:
            handle.write(wal)
        with pytest.raises(LedgerCorruptionError, match="no integer seq"):
            ledger.replay()
        ledger.close()
        assert _wal_bytes(ledger) == wal


class TestTornTail:
    def _seed_wal(self, tmp_path) -> WearLedger:
        ledger = WearLedger(str(tmp_path))
        ledger.append_batch([{"op": "access", "tenant": "a"},
                             {"op": "access", "tenant": "b"}])
        ledger.close()
        return ledger

    def test_unterminated_final_line_is_truncated(self, tmp_path):
        ledger = self._seed_wal(tmp_path)
        good = _wal_bytes(ledger)
        with open(ledger.wal_path, "ab") as handle:
            handle.write(b'{"op":"access","seq":2,"ten')
        fresh = WearLedger(str(tmp_path))
        _, records = fresh.replay()
        assert [r["seq"] for r in records] == [0, 1]
        assert _wal_bytes(fresh) == good
        assert fresh.next_seq == 2

    def test_unparseable_final_complete_line_is_truncated(self, tmp_path):
        ledger = self._seed_wal(tmp_path)
        good = _wal_bytes(ledger)
        with open(ledger.wal_path, "ab") as handle:
            handle.write(b'{"op":"access","broken\n')
        fresh = WearLedger(str(tmp_path))
        _, records = fresh.replay()
        assert [r["seq"] for r in records] == [0, 1]
        assert _wal_bytes(fresh) == good

    def test_append_resumes_after_truncation(self, tmp_path):
        ledger = self._seed_wal(tmp_path)
        with open(ledger.wal_path, "ab") as handle:
            handle.write(b"torn")
        fresh = WearLedger(str(tmp_path))
        fresh.replay()
        assert fresh.append({"op": "access", "tenant": "c"}) == 2
        fresh.close()
        lines = _wal_bytes(fresh).decode().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2]

    def test_mid_file_damage_is_not_absorbed(self, tmp_path):
        ledger = self._seed_wal(tmp_path)
        raw = _wal_bytes(ledger).splitlines(keepends=True)
        with open(ledger.wal_path, "wb") as handle:
            handle.write(b"garbage not json\n")
            handle.writelines(raw)
        with pytest.raises(LedgerCorruptionError):
            WearLedger(str(tmp_path)).replay()


class TestSnapshots:
    def test_snapshot_roundtrip(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.append({"op": "provision", "tenant": "a"})
        ledger.write_snapshot(0, [{"tenant": "a", "served": 0}])
        ledger.close()
        snapshot, records = WearLedger(str(tmp_path)).replay()
        assert snapshot["meta"]["last_seq"] == 0
        assert snapshot["results"] == [{"tenant": "a", "served": 0}]
        assert len(records) == 1

    def test_snapshot_ahead_of_wal_is_corruption(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        ledger.append({"op": "provision", "tenant": "a"})
        ledger.write_snapshot(5, [])
        ledger.close()
        with pytest.raises(LedgerCorruptionError):
            WearLedger(str(tmp_path)).replay()

    def test_foreign_checkpoint_kind_rejected(self, tmp_path):
        from repro.sim.checkpoint import save_checkpoint

        ledger = WearLedger(str(tmp_path))
        save_checkpoint(ledger.snapshot_path,
                        meta={"kind": "campaign", "last_seq": 0},
                        results=[])
        with pytest.raises(LedgerCorruptionError):
            ledger.replay()

    def test_snapshot_of_another_format_is_refused_untouched(self,
                                                           tmp_path):
        # A snapshot without ``format`` (as written before snapshots were
        # self-contained) is refused before the WAL is read, so not even
        # its torn tail is truncated.
        from repro.sim.checkpoint import save_checkpoint

        ledger = WearLedger(str(tmp_path))
        ledger.append_batch([{"op": "access", "tenant": "a"}] * 2)
        ledger.close()
        save_checkpoint(ledger.snapshot_path,
                        meta={"kind": "svc-snapshot", "last_seq": 1},
                        results=[])
        with open(ledger.wal_path, "ab") as handle:
            handle.write(b'{"op":"access","seq":2,"ten')
        before = _wal_bytes(ledger)
        with pytest.raises(LedgerCorruptionError, match="format None") \
                as excinfo:
            WearLedger(str(tmp_path)).replay()
        assert excinfo.value.path == ledger.snapshot_path
        assert _wal_bytes(ledger) == before

    def test_corruption_error_carries_context(self, tmp_path):
        ledger = WearLedger(str(tmp_path))
        with open(ledger.wal_path, "w") as handle:
            handle.write('{"op":"access","seq":7,"tenant":"a"}\n')
        with pytest.raises(LedgerCorruptionError) as excinfo:
            ledger.replay()
        assert excinfo.value.path == ledger.wal_path
        assert os.path.exists(ledger.wal_path)


class TestSegmentRotation:
    def _seed(self, tmp_path, records=4):
        ledger = WearLedger(str(tmp_path))
        ledger.open_for_append()
        ledger.append_batch([{"op": "access", "tenant": "a"}
                             for _ in range(records)])
        return ledger

    def test_rotation_seals_the_wal_and_replay_resumes(self, tmp_path):
        ledger = self._seed(tmp_path)
        ledger.write_snapshot(3, [{"tenant": "a"}])
        segment = ledger.rotate_segment()
        assert segment is not None
        assert os.path.basename(segment) == "segment-00000000-00000003.jsonl"
        assert _wal_bytes(ledger) == b""
        assert ledger.active_base == 4
        ledger.append({"op": "access", "tenant": "a"})
        ledger.close()
        reopened = WearLedger(str(tmp_path))
        snapshot, records = reopened.replay()
        assert snapshot["meta"]["last_seq"] == 3
        assert [r["seq"] for r in records] == [4]
        assert reopened.next_seq == 5
        archived = reopened.archived_records()
        assert [r["seq"] for r in archived] == [0, 1, 2, 3]

    def test_empty_active_segment_is_a_noop(self, tmp_path):
        ledger = self._seed(tmp_path)
        ledger.write_snapshot(3, [])
        assert ledger.rotate_segment() is not None
        assert ledger.rotate_segment() is None
        ledger.close()

    def test_rotation_requires_a_covering_snapshot(self, tmp_path):
        ledger = self._seed(tmp_path)
        ledger.write_snapshot(2, [])  # one record short
        with pytest.raises(ConfigurationError):
            ledger.rotate_segment()
        ledger.close()

    def test_rotation_requires_an_open_wal(self, tmp_path):
        ledger = self._seed(tmp_path)
        ledger.write_snapshot(3, [])
        ledger.close()
        with pytest.raises(ConfigurationError):
            ledger.rotate_segment()

    def test_repeated_rotations_chain_contiguously(self, tmp_path):
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        first = ledger.rotate_segment()
        ledger.append_batch([{"op": "access", "tenant": "a"}] * 3)
        ledger.write_snapshot(4, [])
        second = ledger.rotate_segment()
        ledger.close()
        assert os.path.basename(first) == "segment-00000000-00000001.jsonl"
        assert os.path.basename(second) == "segment-00000002-00000004.jsonl"
        reopened = WearLedger(str(tmp_path))
        snapshot, records = reopened.replay()
        assert records == []
        assert reopened.next_seq == 5
        assert [r["seq"] for r in reopened.archived_records()] \
            == [0, 1, 2, 3, 4]

    def test_archive_gap_is_corruption(self, tmp_path):
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        first = ledger.rotate_segment()
        ledger.append_batch([{"op": "access", "tenant": "a"}] * 2)
        ledger.write_snapshot(3, [])
        ledger.rotate_segment()
        ledger.close()
        os.unlink(first)
        with pytest.raises(LedgerCorruptionError):
            WearLedger(str(tmp_path)).replay()

    def test_torn_active_tail_after_rotation_is_truncated(self, tmp_path):
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        ledger.rotate_segment()
        ledger.append({"op": "access", "tenant": "a"})
        ledger.close()
        with open(ledger.wal_path, "ab") as handle:
            handle.write(b'{"op":"access","seq":3,"ten')
        reopened = WearLedger(str(tmp_path))
        _, records = reopened.replay()
        assert [r["seq"] for r in records] == [2]
        assert reopened.next_seq == 3

    def test_missing_active_wal_is_only_legal_at_the_boundary(self,
                                                              tmp_path):
        # Crash window: rotation renamed the WAL away but the fresh one
        # was never created.  Legal iff the snapshot covers the archive.
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        ledger.rotate_segment()
        ledger.close()
        os.unlink(ledger.wal_path)
        reopened = WearLedger(str(tmp_path))
        snapshot, records = reopened.replay()
        assert records == []
        assert reopened.next_seq == 2

    def test_missing_active_wal_past_the_boundary_is_corruption(
            self, tmp_path):
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        ledger.rotate_segment()
        ledger.append({"op": "access", "tenant": "a"})
        # A later snapshot covers seq 2, which lives only in the active
        # WAL; losing that WAL is then a detectable gap (unlike the
        # rotation crash window, where the archive ends exactly at the
        # snapshot boundary).
        ledger.write_snapshot(2, [])
        ledger.close()
        os.unlink(ledger.wal_path)
        with pytest.raises(LedgerCorruptionError):
            WearLedger(str(tmp_path)).replay()

    def test_archive_without_snapshot_is_corruption(self, tmp_path):
        ledger = self._seed(tmp_path, records=2)
        ledger.write_snapshot(1, [])
        ledger.rotate_segment()
        ledger.close()
        os.unlink(ledger.snapshot_path)
        with pytest.raises(LedgerCorruptionError):
            WearLedger(str(tmp_path)).replay()


#: Tenants whose WAL records stretch the encoder: non-ASCII, quote,
#: backslash and control characters in names, a seed past 2**64, an
#: RS tenant, and nested ``faults`` and ``capacity`` objects.
REFERENCE_TENANTS = (
    {"tenant": "t\u00e9nant-\U0001f600", "seed": 2 ** 64 + 7,
     "scheme": "rs", "faults": None,
     "capacity": {"horizon": 500, "refuse_probability": 0.05}},
    {"tenant": 'q"uote\\slash', "seed": 3, "scheme": "shamir",
     "faults": {"misfire_rate": 0.125, "timeout_rate": 0.0625,
                "temperature_c": 85.5},
     "capacity": None},
    {"tenant": "ctl\x01\t\u2028", "seed": 11, "scheme": "shamir",
     "faults": {"corruption_rate": 0.25},
     "capacity": {"warn_probability": 1e-7, "horizon": 2 ** 40}},
)

#: Rounds over :data:`REFERENCE_TENANTS` (by index; -1 is unknown): bare
#: names, keyed and traced items, and a retry answered from retention.
REFERENCE_ROUNDS = (
    ((0, "r\u00e9-1", "tr\x00ace"), (1, "r-1", None)),
    ((2, None, None), (0, "r\u00e9-1", "retry"), (-1, "x", None)),
    ((1, 'r"2', "\U0001f600"), (2, "r\\3", "\x1f\x7f"), (0, None, None)),
    ((0, "r-4", None), (1, None, "only-trace"), (2, None, None)),
)

#: The WAL :func:`_reference_history` wrote while each line was its own
#: ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` call.
REFERENCE_WAL = (
    b'{"alpha":6.666666666666667,"beta":5.0,"capacity":{"horizon":500,'
    b'"refuse_probability":0.05},"copies":2,"faults":null,"k":2,"n":5,'
    b'"op":"provision","scheme":"rs",'
    b'"secret":"030405060708090a0b0c0d0e0f101112",'
    b'"seed":18446744073709551623,"seq":0,'
    b'"tenant":"t\\u00e9nant-\\ud83d\\ude00"}\n'
    b'{"alpha":6.666666666666667,"beta":5.0,"capacity":null,"copies":2,'
    b'"faults":{"misfire_rate":0.125,"temperature_c":85.5,'
    b'"timeout_rate":0.0625},"k":2,"n":5,"op":"provision",'
    b'"scheme":"shamir","secret":"030405060708090a0b0c0d0e0f101112",'
    b'"seed":3,"seq":1,"tenant":"q\\"uote\\\\slash"}\n'
    b'{"alpha":6.666666666666667,"beta":5.0,'
    b'"capacity":{"horizon":1099511627776,"warn_probability":1e-07},'
    b'"copies":2,"faults":{"corruption_rate":0.25},"k":2,"n":5,'
    b'"op":"provision","scheme":"shamir",'
    b'"secret":"030405060708090a0b0c0d0e0f101112","seed":11,"seq":2,'
    b'"tenant":"ctl\\u0001\\t\\u2028"}\n'
    b'{"op":"access","rid":"r\\u00e9-1","seq":3,'
    b'"tenant":"t\\u00e9nant-\\ud83d\\ude00","trace":"tr\\u0000ace"}\n'
    b'{"op":"access","rid":"r-1","seq":4,"tenant":"q\\"uote\\\\slash"}\n'
    b'{"op":"access","seq":5,"tenant":"ctl\\u0001\\t\\u2028"}\n'
    b'{"op":"access","rid":"r\\"2","seq":6,"tenant":"q\\"uote\\\\slash",'
    b'"trace":"\\ud83d\\ude00"}\n'
    b'{"op":"access","rid":"r\\\\3","seq":7,'
    b'"tenant":"ctl\\u0001\\t\\u2028","trace":"\\u001f\\u007f"}\n'
    b'{"op":"access","seq":8,"tenant":"t\\u00e9nant-\\ud83d\\ude00"}\n'
    b'{"op":"access","rid":"r-4","seq":9,'
    b'"tenant":"t\\u00e9nant-\\ud83d\\ude00"}\n'
    b'{"op":"access","seq":10,"tenant":"q\\"uote\\\\slash",'
    b'"trace":"only-trace"}\n'
    b'{"op":"access","seq":11,"tenant":"ctl\\u0001\\t\\u2028"}\n'
)


def _reference_history(directory: str) -> tuple[WearHub, list[bytes]]:
    """Serve :data:`REFERENCE_ROUNDS` on a fresh hub; close its ledger."""
    hub = WearHub(WearLedger(directory))
    hub.recover()
    frames = []
    for tenant in REFERENCE_TENANTS:
        request = {"op": "provision", "alpha": 20 / 3, "beta": 5.0,
                   "n": 5, "k": 2, "copies": 2,
                   "secret": bytes(range(3, 19)).hex()}
        request.update(tenant)
        frames.append(encode_frame(hub.provision(request)))
    names = [tenant["tenant"] for tenant in REFERENCE_TENANTS] + ["ghost"]
    for items in REFERENCE_ROUNDS:
        round_items = [(names[i], rid, trace) if trace is not None
                       else (names[i], rid) if rid is not None
                       else names[i] for i, rid, trace in items]
        responses = hub.serve_round(round_items)
        frames.extend(encode_frame(responses[names[i]]) for i, _, _ in items)
    hub.ledger.close()
    return hub, frames


class TestCanonicalFormat:
    """WAL lines are pinned to the reference encoding, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.lists(wal_records, min_size=1, max_size=4),
                            min_size=1, max_size=3))
    def test_every_line_is_the_reference_encoding(self, batches):
        expected = []
        with tempfile.TemporaryDirectory() as directory:
            ledger = WearLedger(directory)
            for records in batches:
                for record, seq in zip(records,
                                       ledger.append_batch(records)):
                    stamped = dict(record, seq=seq)
                    expected.append(reference_json(stamped).encode("utf-8"))
            ledger.close()
            wal = _wal_bytes(ledger)
        assert wal == b"".join(line + b"\n" for line in expected)
        assert wal.isascii()

    def test_a_reference_wal_replays_to_the_same_hub(self, tmp_path):
        live, frames = _reference_history(str(tmp_path / "live"))
        assert _wal_bytes(live.ledger) == REFERENCE_WAL
        assert live.idempotent_replays == 1
        assert any(b"unknown-tenant" in frame for frame in frames)
        old = tmp_path / "old"
        old.mkdir()
        (old / "wal.jsonl").write_bytes(REFERENCE_WAL)
        recovered = WearHub(WearLedger(str(old)))
        assert recovered.recover() == REFERENCE_WAL.count(b"\n")
        recovered.ledger.close()
        assert recovered.wear_gauges() == live.wear_gauges()
        assert recovered.status()["tenants"] == live.status()["tenants"]
        assert list(recovered._responses.items()) \
            == list(live._responses.items())
