"""WAL durability tests: framing, recovery, and crash-consistent replay.

Three ISSUE-mandated properties, checked with hypothesis over random
record streams and byte-level damage:

1. **replay is idempotent** — replaying a journal twice yields exactly
   the state of replaying it once (log level: identical record
   sequences; engine level: bitwise-identical layouts);
2. **any byte-level truncation of a valid log replays a prefix** —
   never garbage, never an error, never records out of order;
3. **snapshot + compaction preserve replayed state bitwise** — the
   snapshot payload plus the surviving post-floor records reconstruct
   the full pre-compaction sequence.

Plus the concrete crash-shaped cases: torn-tail quarantine, journal
-before-apply (a failed append mutates nothing), engine and stream
restarts bitwise-equal to an uninterrupted control, the cluster
monitor's capped exponential respawn backoff, and a SIGKILLed cluster
owner that respawns, replays its journal and gets its keys back.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import grid2d
from repro.service import engine as engine_mod
from repro.service import (
    LayoutEngine,
    LayoutRequest,
    ServiceError,
    UpdateRequest,
)
from repro.wal import (
    WriteAheadLog,
    crc32c,
    edge_diff,
    encode_record,
    scan_records,
)
from repro.wal.records import HEADER


def _loader(name, scale, seed):
    if name == "grid":
        return grid2d(8, 8)
    raise KeyError(name)


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("graph_loader", _loader)
    kwargs.setdefault("workers", 1)
    return LayoutEngine(wal_dir=str(tmp_path / "wal"), **kwargs)


def _layout(engine, **over):
    req = LayoutRequest(graph="grid", scale="tiny", s=6, **over)
    resp = engine.submit(req)
    return resp.fingerprint, np.asarray(resp.result.coords)


# ---------------------------------------------------------------------------
# record framing


class TestRecords:
    def test_crc32c_known_answer(self):
        # The canonical Castagnoli check vector (RFC 3720 appendix).
        assert crc32c(b"123456789") == 0xE3069283

    def test_roundtrip(self):
        payloads = [f"record-{i}".encode() * (i + 1) for i in range(20)]
        blob = b"".join(encode_record(p) for p in payloads)
        scan = scan_records(blob)
        assert scan.payloads == payloads
        assert scan.valid_end == len(blob)
        assert not scan.corrupt

    def test_flipped_byte_stops_scan(self):
        payloads = [b"alpha", b"beta", b"gamma"]
        blob = bytearray(b"".join(encode_record(p) for p in payloads))
        second = len(encode_record(b"alpha"))
        blob[second + HEADER.size + 1] ^= 0xFF  # damage record 2's body
        scan = scan_records(bytes(blob))
        assert scan.payloads == [b"alpha"]
        assert scan.valid_end == second
        assert scan.corrupt


# ---------------------------------------------------------------------------
# hypothesis properties


_records = st.lists(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["update", "publish", "register"]),
         "payload": st.text(max_size=40)}
    ),
    min_size=1,
    max_size=12,
)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_replay_is_idempotent(self, records, tmp_path_factory):
        root = tmp_path_factory.mktemp("wal")
        log = WriteAheadLog(str(root), fsync="off")
        for rec in records:
            log.append(dict(rec))
        log.close()
        # Replaying twice (same handle) and recovering twice (two
        # "process restarts") must all yield the identical sequence.
        reopened = WriteAheadLog(str(root), fsync="off")
        first = reopened.replay()
        assert reopened.replay().records == first.records
        reopened.close()
        again = WriteAheadLog(str(root), fsync="off")
        assert again.replay().records == first.records
        again.close()
        assert [
            {k: v for k, v in r.items() if k != "lsn"}
            for r in first.records
        ] == records

    @settings(max_examples=25, deadline=None)
    @given(records=_records, data=st.data())
    def test_truncation_replays_a_prefix(self, records, data):
        payloads = [
            json.dumps(rec, sort_keys=True).encode() for rec in records
        ]
        blob = b"".join(encode_record(p) for p in payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        scan = scan_records(blob[:cut])
        assert scan.payloads == payloads[: len(scan.payloads)]
        assert scan.valid_end <= cut

    @settings(max_examples=25, deadline=None)
    @given(records=_records, data=st.data())
    def test_snapshot_compact_preserves_state(
        self, records, data, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("wal")
        # Tiny segments force rotation so compaction has files to drop.
        log = WriteAheadLog(str(root), fsync="off", segment_bytes=256)
        lsns = [log.append(dict(rec)) for rec in records]
        floor_idx = data.draw(
            st.integers(min_value=0, max_value=len(records) - 1)
        )
        # The snapshot captures everything up to and including floor_idx.
        log.snapshot(
            {"upto": records[: floor_idx + 1]}, floor=lsns[floor_idx]
        )
        log.close()
        replay = WriteAheadLog(str(root), fsync="off").replay()
        assert replay.snapshot == {"upto": records[: floor_idx + 1]}
        tail = [
            {k: v for k, v in r.items() if k != "lsn"}
            for r in replay.records
            if r["lsn"] > replay.floor
        ]
        # snapshot payload + surviving tail == the full original sequence
        assert replay.snapshot["upto"] + tail == records


# ---------------------------------------------------------------------------
# the log itself


class TestWriteAheadLog:
    def test_rotation_and_replay(self, tmp_path):
        log = WriteAheadLog(str(tmp_path), fsync="off", segment_bytes=128)
        for i in range(40):
            log.append({"type": "update", "i": i})
        assert log.stats()["rotations"] > 0
        log.close()
        replay = WriteAheadLog(str(tmp_path), fsync="off").replay()
        assert [r["i"] for r in replay.records] == list(range(40))

    def test_corrupt_tail_is_quarantined_not_fatal(self, tmp_path):
        log = WriteAheadLog(str(tmp_path), fsync="off")
        for i in range(5):
            log.append({"i": i})
        log.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x7fgarbage-torn-tail")
        reopened = WriteAheadLog(str(tmp_path), fsync="off")
        assert reopened.stats()["corrupt_records"] >= 1
        assert [r["i"] for r in reopened.replay().records] == list(range(5))
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())
        # The log keeps accepting appends after recovery, and the next
        # recovery sees them.
        reopened.append({"i": 5})
        reopened.close()
        final = WriteAheadLog(str(tmp_path), fsync="off").replay()
        assert [r["i"] for r in final.records] == list(range(6))

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")
        always = WriteAheadLog(str(tmp_path / "a"), fsync="always")
        always.append({"x": 1})
        assert always.stats()["fsyncs"] >= 1
        always.close()


class TestEdgeDiff:
    def test_insert_delete_roundtrip(self):
        from repro.stream import DynamicGraph, edge_delta

        base = grid2d(6, 6)
        dyn = DynamicGraph(base)
        dyn.apply(edge_delta(inserts=[(0, 20), (1, 30)], deletes=[(0, 1)]))
        inserts, deletes = edge_diff(base, dyn.to_csr())
        assert sorted(tuple(r[:2]) for r in inserts) == [(0, 20), (1, 30)]
        assert sorted(map(tuple, deletes)) == [(0, 1)]
        # Applying the diff to a fresh base reproduces the edited graph.
        redo = DynamicGraph(grid2d(6, 6))
        redo.apply(edge_delta(inserts=inserts, deletes=deletes))
        assert np.array_equal(redo.to_csr().indptr, dyn.to_csr().indptr)
        assert np.array_equal(redo.to_csr().indices, dyn.to_csr().indices)


# ---------------------------------------------------------------------------
# engine integration


class TestEngineReplay:
    UPDATES = [
        {"inserts": ((0, 9), (2, 17))},
        {"deletes": ((0, 1),)},
        {"inserts": ((3, 40),), "pins": {5: (0.25, -0.5)}},
    ]

    def _apply_all(self, engine):
        for body in self.UPDATES:
            engine.update(UpdateRequest(graph="grid", scale="tiny", **body))

    def test_restart_is_bitwise_identical(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            fp, coords = _layout(eng)
            epoch = eng.stats()["wal"]["last_lsn"]
            assert epoch > 0
        with _engine(tmp_path) as replayed:
            assert replayed.stats()["wal"]["replays"] == 1
            fp2, coords2 = _layout(replayed)
        assert fp2 == fp
        assert np.array_equal(coords2, coords)
        # Control: an uninterrupted engine given the same updates agrees.
        with LayoutEngine(graph_loader=_loader, workers=1) as control:
            self._apply_all(control)
            fp3, coords3 = _layout(control)
        assert fp3 == fp
        assert np.array_equal(coords3, coords)

    def test_replay_twice_equals_once(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            fp, coords = _layout(eng)
        with _engine(tmp_path):
            pass  # replay #1, journal untouched (no new updates)
        with _engine(tmp_path) as again:
            fp2, coords2 = _layout(again)
        assert (fp2, np.array_equal(coords2, coords)) == (fp, True)

    def test_snapshot_compaction_then_restart(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "WAL_SNAPSHOT_EVERY", 2)
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            assert eng.stats()["wal"]["snapshots"] >= 1
            fp, coords = _layout(eng)
        with _engine(tmp_path) as replayed:
            fp2, coords2 = _layout(replayed)
            wal = replayed.stats()["wal"]
        assert fp2 == fp and np.array_equal(coords2, coords)
        # Compaction dropped journal work: fewer records replayed than
        # were ever appended.
        assert wal["replayed_records"] < wal["last_lsn"]

    def test_torn_tail_recovers_valid_prefix(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
        segment = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        with open(segment, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff\xff\xff")
        with _engine(tmp_path) as replayed:
            wal = replayed.stats()["wal"]
            assert wal["corrupt_records"] >= 1
            fp, coords = _layout(replayed)
        # The damaged record was the last update; the prefix (first two
        # updates) must replay exactly.
        with LayoutEngine(graph_loader=_loader, workers=1) as control:
            for body in self.UPDATES[:-1]:
                control.update(
                    UpdateRequest(graph="grid", scale="tiny", **body)
                )
            fp2, coords2 = _layout(control)
        assert fp2 == fp
        assert np.array_equal(coords2, coords)

    def test_failed_append_mutates_nothing(self, tmp_path, monkeypatch):
        with _engine(tmp_path) as eng:
            eng.update(
                UpdateRequest(graph="grid", scale="tiny", inserts=((0, 9),))
            )
            before = _layout(eng)

            def broken_append(record):
                raise OSError("disk full")

            monkeypatch.setattr(eng._wal, "append", broken_append)
            with pytest.raises(ServiceError, match="write-ahead log"):
                eng.update(
                    UpdateRequest(
                        graph="grid", scale="tiny", inserts=((1, 30),)
                    )
                )
            # Journal-before-apply: the rejected update changed nothing.
            assert _layout(eng)[0] == before[0]

    def test_replay_touches_no_telemetry(self, tmp_path):
        with _engine(tmp_path) as eng:
            self._apply_all(eng)
            counters = eng.stats()["counters"]
            assert counters["updates"] == len(self.UPDATES)
            assert counters["constraints.pin_edits"] == 1
        with _engine(tmp_path) as replayed:
            counters = replayed.stats()["counters"]
            assert replayed.stats()["wal"]["replayed_records"] >= 3
        # Replay rebuilds state; it is not traffic.
        assert counters.get("updates", 0) == 0
        assert "constraints.pin_edits" not in counters

    def test_failed_snapshot_does_not_fail_the_update(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(engine_mod, "WAL_SNAPSHOT_EVERY", 1)

        def broken_snapshot(self, payload, *, floor=None):
            raise OSError("disk full")

        monkeypatch.setattr(WriteAheadLog, "snapshot", broken_snapshot)
        with caplog.at_level("WARNING", logger="repro.service.engine"):
            with _engine(tmp_path) as eng:
                # Applied and journaled before the checkpoint ran, so the
                # update must be acknowledged rather than invite a retry.
                for i in range(2):
                    resp = eng.update(
                        UpdateRequest(
                            graph="grid", scale="tiny", inserts=((i, 9 + i),)
                        )
                    )
                    assert resp.epoch == i + 1
                assert eng.stats()["counters"]["wal.snapshot_errors"] == 2
        warnings = [
            r for r in caplog.records if "snapshot failed" in r.getMessage()
        ]
        assert len(warnings) == 1
        monkeypatch.undo()
        with _engine(tmp_path) as replayed:
            resp = replayed.update(
                UpdateRequest(graph="grid", scale="tiny", inserts=((5, 40),))
            )
        assert resp.epoch == 3

    def test_publish_epoch_survives_restart(self, tmp_path):
        with _engine(tmp_path) as eng:
            eng.update(
                UpdateRequest(graph="grid", scale="tiny", inserts=((0, 9),))
            )
            resp = eng.submit(LayoutRequest(graph="grid", scale="tiny", s=6))
            fp_before = resp.fingerprint
            # An async refinement publication bumps the epoch — that bump
            # must be journaled like any other mutation.
            assert (
                eng.publish_layout(
                    "grid", "tiny", 0, "parhde", {"s": 6}, resp.result
                )
                is not None
            )
            fp_after, _ = _layout(eng)
            assert fp_after != fp_before
        with _engine(tmp_path) as replayed:
            assert _layout(replayed)[0] == fp_after


# ---------------------------------------------------------------------------
# stream sessions


class TestStreamWal:
    def _deltas(self):
        from repro.stream import edge_delta

        return [
            edge_delta(inserts=[(0, 20)]),
            edge_delta(inserts=[(1, 30)], deletes=[(0, 1)]),
            edge_delta(deletes=[(0, 20)]),
        ]

    def test_journaled_session_matches_control(self, tmp_path):
        from repro.stream import StreamSession

        g = grid2d(8, 8)
        control = StreamSession(g, 6, seed=1)
        session = StreamSession(g, 6, seed=1, wal=str(tmp_path / "w"))
        for delta in self._deltas():
            control.update(delta)
            session.update(delta)
        assert np.array_equal(
            session.snapshot_result().coords, control.snapshot_result().coords
        )
        session.close()

    def test_resume_wal_bitwise(self, tmp_path):
        from repro.stream import StreamSession

        g = grid2d(8, 8)
        session = StreamSession(g, 6, seed=1, wal=str(tmp_path / "w"))
        for delta in self._deltas():
            session.update(delta)
        coords = np.array(session.snapshot_result().coords)
        epoch = session.epoch
        session.close()
        resumed = StreamSession.resume_wal(grid2d(8, 8), str(tmp_path / "w"))
        assert resumed.epoch == epoch
        assert np.array_equal(resumed.snapshot_result().coords, coords)
        assert resumed.wal_stats()["replays"] == 1
        resumed.close()

    def test_resume_keeps_repair_relayout_decisions(
        self, tmp_path, monkeypatch
    ):
        import repro.stream.session as session_mod
        from repro.stream import StreamPolicy, StreamSession, edge_delta

        # Diagonal shortcuts on a 12x12 grid give a mix of drift
        # relayouts, repairs and staleness relayouts.
        policy = StreamPolicy(staleness_limit=5)
        deltas = [edge_delta(inserts=[(i, i + 13)]) for i in range(20)]
        control = StreamSession(grid2d(12, 12), 6, policy=policy)
        expected = [control.update(d) for d in deltas]
        assert {u.reason for u in expected} >= {"repair", "staleness"}

        # Checkpoints land after updates 3, 6 and 9; the last one is
        # mid-way through a run of repairs, and one record follows it.
        monkeypatch.setattr(session_mod, "WAL_SNAPSHOT_EVERY", 3)
        wal = str(tmp_path / "w")
        writer = StreamSession(grid2d(12, 12), 6, policy=policy, wal=wal)
        for d in deltas[:10]:
            writer.update(d)
        writer.close()
        resumed = StreamSession.resume_wal(grid2d(12, 12), wal, policy=policy)
        assert resumed.epoch == 10
        for want, d in zip(expected[10:], deltas[10:]):
            got = resumed.update(d)
            assert (got.mode, got.reason) == (want.mode, want.reason)
            assert np.allclose(got.coords, want.coords, atol=1e-12)
        resumed.close()

    def test_corrupt_checkpoint_falls_back_to_fresh(
        self, tmp_path, monkeypatch, caplog
    ):
        import repro.stream.session as session_mod
        from repro.stream import StreamSession

        # Checkpoint after every update, so the newest one holds an
        # edited graph.
        monkeypatch.setattr(session_mod, "WAL_SNAPSHOT_EVERY", 1)
        wal = tmp_path / "w"
        session = StreamSession(grid2d(8, 8), 6, seed=1, wal=str(wal))
        for delta in self._deltas():
            session.update(delta)
        session.close()
        for frame in wal.glob("frame-*.npz"):
            frame.write_bytes(b"not an archive")
        with caplog.at_level("WARNING", logger="repro.stream.session"):
            resumed = StreamSession.resume_wal(
                grid2d(8, 8), str(wal), s=6, seed=1
            )
            # Fresh means the initial graph, not the checkpoint's.
            assert resumed.epoch == 0
            assert np.array_equal(resumed.graph.indices, grid2d(8, 8).indices)
            resumed.close()
            # The fresh session checkpointed over the corpse, so the
            # next resume restores it without a warning.
            again = StreamSession.resume_wal(grid2d(8, 8), str(wal))
            again.close()
        warnings = [
            r for r in caplog.records if "checkpoint" in r.getMessage()
        ]
        assert len(warnings) == 1

    def test_checkpoint_failure_warns_once_and_counts(
        self, tmp_path, monkeypatch, caplog
    ):
        import repro.stream.session as session_mod
        from repro.core import serialize
        from repro.stream import StreamSession, edge_delta

        def broken(result, path):
            raise OSError("disk full")

        monkeypatch.setattr(serialize, "save_layout", broken)
        monkeypatch.setattr(session_mod, "WAL_SNAPSHOT_EVERY", 1)
        with caplog.at_level("WARNING", logger="repro.stream.session"):
            session = StreamSession(
                grid2d(8, 8), 6, seed=1, wal=str(tmp_path / "w")
            )
            for i in range(3):
                session.update(edge_delta(inserts=[(0, 20 + i)]))
        assert session.stats["checkpoint_failures"] == 4
        warnings = [
            r for r in caplog.records if "checkpoint" in r.getMessage()
        ]
        assert len(warnings) == 1  # log-once; the counter does the rest
        session.close()


# ---------------------------------------------------------------------------
# cluster respawn backoff


class TestRespawnBackoff:
    def test_failed_restarts_back_off_exponentially(self, monkeypatch):
        import time as _time

        from repro.cluster import ClusterRouter

        router = ClusterRouter(
            2, restart_backoff=0.5, restart_backoff_cap=2.0
        )
        worker = router._workers[0]
        monkeypatch.setattr(router, "_spawn", lambda w: None)
        monkeypatch.setattr(
            router,
            "_await_ready",
            lambda w, ready: setattr(w, "state", "dead"),
        )
        delays = []
        for _ in range(4):
            t0 = _time.monotonic()
            router._respawn(worker)
            delays.append(worker.next_restart_at - t0)
        assert worker.restart_failures == 4
        # 0.5, 1.0, 2.0, then capped at 2.0 (cap < 0.5 * 2**3).
        for got, want in zip(delays, (0.5, 1.0, 2.0, 2.0)):
            assert got == pytest.approx(want, abs=0.05)
        # The monitor's gate: no retry before next_restart_at.
        assert _time.monotonic() < worker.next_restart_at

        # A successful restart resets the streak and the gate.
        monkeypatch.setattr(
            router,
            "_await_ready",
            lambda w, ready: setattr(w, "state", "up"),
        )
        router._respawn(worker)
        assert worker.restart_failures == 0
        assert worker.next_restart_at == 0.0


# ---------------------------------------------------------------------------
# cluster: a respawned owner replays its journal and gets its keys back


class TestClusterWalRespawn:
    def test_respawned_owner_serves_post_update_epochs(self, tmp_path):
        import signal
        import time

        from repro.cluster import ClusterRouter

        graph = {"graph": "barth", "scale": "tiny", "seed": 0}
        router = ClusterRouter(
            2,
            compute_threads=1,
            cache_mb=16.0,
            heartbeat_interval=0.2,
            wal_dir=str(tmp_path / "wal"),
        ).start()
        try:
            for i in range(3):
                up = router.update(
                    {**graph, "inserts": [[0, 10 + 2 * i], [1, 11 + 2 * i]]}
                )
                assert up["epoch"] == i + 1
            owner = router.owner_of("barth", "tiny", 0)
            restarts = router.telemetry.counter("router.restarts")
            os.kill(router._workers[owner].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while restarts.value < 1 or router.alive_workers < 2:
                assert time.monotonic() < deadline, "owner never respawned"
                time.sleep(0.1)
            # The key returns to its ring owner, whose journal holds the
            # three acknowledged updates: the next one is epoch 4.
            assert router.owner_of("barth", "tiny", 0) == owner
            up = router.update({**graph, "inserts": [[0, 16], [1, 17]]})
            assert up["epoch"] == 4
        finally:
            router.close()
