"""Durability: WAL journal, manifests, and crash recovery.

Unit layers (the sqlite journal's replay, torn WAL tail, CRC check and
fsync policies, atomic writes, manifests) are tested directly against
temp directories; the service integration tests exercise the real
admission path — journal an intent, "crash" by never settling it,
reopen, :meth:`LabelingService.recover` — including the
replay-idempotency contract through the single-flight result cache.
"""

import json
import os
import shutil
import sqlite3
import stat

import pytest

from repro.durability import (
    Journal,
    JournalCorrupt,
    RunManifest,
    atomic_write_bytes,
)
from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService, LabelingSpec


@pytest.fixture(scope="module")
def predictor(zoo, space):
    # Durability semantics do not depend on agent quality; an untrained
    # network keeps this module independent of the slow trained fixture.
    agent = make_agent(
        "dueling_dqn", obs_dim=len(space), n_actions=len(zoo) + 1, hidden_size=32
    )
    return AgentPredictor(agent, len(zoo))


@pytest.fixture(scope="module")
def engine(zoo, predictor, world_config):
    return LabelingEngine(zoo, predictor, world_config)


@pytest.fixture(scope="module")
def items(splits):
    _, test = splits
    return test.items[:24]


# -- unit: the journal --------------------------------------------------------


class TestJournal:
    def test_pending_is_admitted_minus_terminaled_across_reopen(self, tmp_path):
        with Journal(tmp_path, fsync="none") as journal:
            seqs = [
                journal.log_admission(f"item-{i}", "spec", None)
                for i in range(5)
            ]
            journal.log_terminal(seqs[0], "completed")
            journal.log_terminal(seqs[3], "failed")
        reopened = Journal(tmp_path, fsync="none")
        entries = reopened.pending_entries()
        assert [e.seq for e in entries] == [seqs[1], seqs[2], seqs[4]]
        assert [e.item for e in entries] == ["item-1", "item-2", "item-4"]
        assert reopened.stats().replayed == 3
        # seq stays monotonic across restarts
        assert reopened.log_admission("item-5", "spec", None) > max(seqs)
        reopened.close()

    def test_buffered_rows_span_several_statements(self, tmp_path):
        # More appends between flushes than one INSERT or DELETE carries.
        with Journal(tmp_path, fsync="batch") as journal:
            seqs = [journal.log_admission(i, "spec", None) for i in range(900)]
            for seq in seqs[::3]:  # settled while still buffered
                journal.log_terminal(seq, "completed")
            live = [seq for seq in seqs if seq % 3 != 1]
            assert [e.seq for e in journal.pending_entries()] == live
            journal.flush()
            for seq in live[::2]:  # settled after their rows were written
                journal.log_terminal(seq, "completed")
            assert journal.pending_count == len(live[1::2])
        with Journal(tmp_path, fsync="batch") as reopened:
            entries = reopened.pending_entries()
            assert [e.seq for e in entries] == live[1::2]
            assert [e.item for e in entries] == [seq - 1 for seq in live[1::2]]

    def test_committed_admissions_survive_a_torn_wal_tail(self, tmp_path):
        live, crashed = tmp_path / "live", tmp_path / "crashed"
        journal = Journal(live, fsync="batch")
        seqs = [
            journal.log_admission(f"item-{i}", "spec", None) for i in range(3)
        ]
        journal.flush()
        # The disk as a SIGKILL leaves it: the committed rows live only in
        # the WAL, and a crash mid-commit left a partial frame after them.
        crashed.mkdir()
        for name in (Journal.FILENAME, f"{Journal.FILENAME}-wal"):
            shutil.copy(live / name, crashed / name)
        journal.close()
        with open(crashed / f"{Journal.FILENAME}-wal", "ab") as fh:
            fh.write(bytes(range(256)) * 17)  # more than one 4 KiB frame
        with Journal(crashed, fsync="batch") as reopened:
            assert reopened.stats().replayed == 3
            entries = reopened.pending_entries()
            assert [e.seq for e in entries] == seqs
            assert [e.item for e in entries] == ["item-0", "item-1", "item-2"]

    def test_flipped_payload_byte_raises_journal_corrupt(self, tmp_path):
        with Journal(tmp_path, fsync="none") as journal:
            for i in range(3):
                journal.log_admission(f"item-{i}", "spec", None)
        with sqlite3.connect(tmp_path / Journal.FILENAME) as db:
            (payload,) = db.execute(
                "SELECT payload FROM pending WHERE seq = 2"
            ).fetchone()
            flipped = bytearray(payload)
            flipped[len(flipped) // 2] ^= 0xFF
            db.execute(
                "UPDATE pending SET payload = ? WHERE seq = 2", (bytes(flipped),)
            )
        db.close()
        with Journal(tmp_path, fsync="none") as reopened:
            with pytest.raises(JournalCorrupt, match="admission 2 fails its CRC"):
                reopened.pending_entries()

    def test_segment_format_directory_is_refused(self, tmp_path):
        (tmp_path / "segment-00000001.wal").write_bytes(b"owed admissions")
        (tmp_path / "checkpoint.json").write_text("{}")
        with pytest.raises(
            JournalCorrupt, match=r"checkpoint\.json, segment-00000001\.wal"
        ):
            Journal(tmp_path)
        # no empty journal was started beside the files it could not read
        assert not (tmp_path / Journal.FILENAME).exists()

    def test_fsync_batch_counts_on_flush_only(self, tmp_path):
        journal = Journal(tmp_path, fsync="batch")
        journal.log_admission("item", "spec", None)
        journal.log_admission("item2", "spec", None)
        assert journal.stats().fsyncs == 0
        journal.flush()
        assert journal.stats().fsyncs == 1
        journal.flush()  # nothing dirty: no second fsync
        assert journal.stats().fsyncs == 1
        journal.close()

    def test_fsync_counts_every_append_under_always_none_under_none(
        self, tmp_path
    ):
        with Journal(tmp_path / "always", fsync="always") as journal:
            seq = journal.log_admission("item", "spec", None)
            journal.log_admission("item2", "spec", None)
            journal.log_terminal(seq, "completed")
            journal.flush()  # every append already committed on its own
            assert journal.stats().fsyncs == 3
        with Journal(tmp_path / "none", fsync="none") as journal:
            seq = journal.log_admission("item", "spec", None)
            journal.flush()
            journal.log_terminal(seq, "completed")
            journal.flush()
            assert journal.stats().fsyncs == 0
        with Journal(tmp_path / "none", fsync="none") as reopened:
            assert reopened.pending_count == 0  # the flush still committed
            # an emptied table does not hand out a settled seq again
            assert reopened.log_admission("item2", "spec", None) == seq + 1

    def test_validation_and_closed_append(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            Journal(tmp_path, fsync="sometimes")
        journal = Journal(tmp_path, fsync="none")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            journal.log_admission("item", "spec", None)


# -- unit: atomic writes ------------------------------------------------------


class TestAtomicWrites:
    def test_overwrites_atomically_with_no_temp_residue(self, tmp_path):
        target = tmp_path / "state.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_failed_replace_leaves_old_file_and_cleans_temp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.bin"
        target.write_bytes(b"old")
        monkeypatch.setattr(
            os, "replace", lambda *a: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(OSError, match="disk"):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_directory_is_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        # The rename only survives power loss once the directory holding
        # the new entry is fsynced too, and only a sync after it counts.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("fsync dir" if is_dir else "fsync file")
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            events.append("rename")

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        atomic_write_bytes(tmp_path / "state.bin", b"new")
        assert events == ["fsync file", "rename", "fsync dir"]


# -- unit: run manifests ------------------------------------------------------


class TestRunManifest:
    def test_create_mark_done_resume_order(self, tmp_path):
        path = tmp_path / "run.json"
        manifest = RunManifest.create(
            path, [f"i{i}" for i in range(5)], {"deadline": 0.3}, flush_every=1
        )
        manifest.mark_done("i1", {"recall": 0.9})
        manifest.mark_done("i3")
        reloaded = RunManifest.load(path)
        assert reloaded.params == {"deadline": 0.3}
        assert reloaded.done == 2
        assert reloaded.remaining == ["i0", "i2", "i4"]  # original order kept
        assert reloaded.completed["i1"] == {"recall": 0.9}

    def test_flush_every_bounds_what_a_kill_loses(self, tmp_path):
        path = tmp_path / "run.json"
        manifest = RunManifest.create(
            path, ["a", "b", "c"], flush_every=10
        )
        manifest.mark_done("a")
        manifest.mark_done("b")
        # buffered, not yet on disk: a kill here re-runs a and b
        assert RunManifest.load(path).done == 0
        manifest.save()
        assert RunManifest.load(path).done == 2

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"version": 99, "item_ids": []}))
        with pytest.raises(ValueError, match="v99"):
            RunManifest.load(path)

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            RunManifest(tmp_path / "run.json", flush_every=0)


# -- integration: the service over a journal ----------------------------------


def service_for(engine, truth, journal_dir, **kwargs):
    kwargs.setdefault("spec", LabelingSpec(deadline=0.35))
    return LabelingService(engine, truth=truth, journal=str(journal_dir), **kwargs)


def orphan_admissions(directory, items, spec=None, copies=1):
    """Journal admissions that never settle — the crash we recover from."""
    spec = spec or LabelingSpec()
    journal = Journal(directory, fsync="always")
    seqs = []
    for item in items:
        for _ in range(copies):
            seqs.append(journal.log_admission(item, spec, None))
    journal.close()
    return seqs


class TestServiceJournal:
    def test_clean_run_leaves_nothing_pending(self, engine, truth, items, tmp_path):
        service = service_for(engine, truth, tmp_path, batch_size=4)
        with service:
            futures = [service.submit(item) for item in items[:8]]
            for future in futures:
                future.result(timeout=10)
        reopened = Journal(tmp_path)
        assert reopened.pending_count == 0
        reopened.close()

    def test_recover_replays_orphans_to_completion(
        self, engine, truth, items, tmp_path
    ):
        seqs = orphan_admissions(tmp_path, items[:5])
        service = service_for(engine, truth, tmp_path, batch_size=4)
        report = service.recover(timeout=30)
        assert (report.replayed, report.recovered, report.failed) == (5, 5, 0)
        assert report.pending == 0
        results = [future.result(timeout=10) for future in report.futures]
        assert [r.item_id for r in results] == [i.item_id for i in items[:5]]
        assert service.journal.pending_count == 0
        stats = service.recovery_stats()
        assert stats["runs"] == 1 and stats["recovered"] == 5
        service.shutdown()
        # every replayed request's terminal deleted its row: a reopen owes nothing
        reopened = Journal(tmp_path)
        assert reopened.pending_count == 0
        reopened.close()
        assert len(seqs) == 5

    def test_replay_reproduces_the_original_trace(
        self, engine, truth, items, tmp_path
    ):
        # scheduling is deterministic over recorded truth: a replayed
        # request must re-execute to an identical result trace
        direct = service_for(engine, truth, tmp_path / "direct")
        with direct:
            reference = [
                f.result(timeout=10)
                for f in [direct.submit(item) for item in items[:4]]
            ]
        # admit under the same spec the direct run labeled with
        orphan_admissions(
            tmp_path / "crashed", items[:4], spec=LabelingSpec(deadline=0.35)
        )
        service = service_for(engine, truth, tmp_path / "crashed")
        report = service.recover(timeout=30)
        replayed = [future.result(timeout=10) for future in report.futures]
        for ref, got in zip(reference, replayed):
            assert got.item_id == ref.item_id
            assert got.trace.executions == ref.trace.executions
            assert got.trace.total_value == ref.trace.total_value
        service.shutdown()

    def test_recover_without_journal_raises(self, engine, truth):
        service = LabelingService(
            engine, truth=truth, spec=LabelingSpec(deadline=0.35)
        )
        with pytest.raises(ValueError, match="journal"):
            service.recover()
        service.shutdown()

    def test_recover_with_empty_journal_is_a_noop(
        self, engine, truth, tmp_path
    ):
        service = service_for(engine, truth, tmp_path)
        report = service.recover(timeout=10)
        assert (report.replayed, report.recovered, report.failed) == (0, 0, 0)
        service.shutdown()

    def test_backlog_larger_than_queue_is_never_re_refused(
        self, engine, truth, items, tmp_path
    ):
        # Every one of these admissions was already answered "admitted";
        # a backlog that outruns max_depth waits for the dispatcher under
        # the reject policy too, instead of being written off as rejected.
        orphan_admissions(tmp_path, items[:24])
        service = service_for(
            engine, truth, tmp_path, max_depth=4, overflow="reject", batch_size=4
        )
        report = service.recover(timeout=30)
        assert (report.replayed, report.recovered, report.failed) == (24, 24, 0)
        stats = service.journal.stats()
        assert stats.terminals == {"completed": 24}
        assert stats.pending == 0
        assert service.snapshot().counters["rejected"] == 0
        service.shutdown()


class TestReplayIdempotency:
    def test_duplicate_admissions_coalesce_to_one_execution(
        self, engine, truth, items, tmp_path
    ):
        # crash window: three clients were told "admitted" for the same
        # item, none saw a result.  Recovery owes all three an answer but
        # the work must run once.
        orphan_admissions(tmp_path, [items[0]], copies=3)
        service = service_for(engine, truth, tmp_path, cache_size=64)
        report = service.recover(timeout=30)
        assert (report.replayed, report.recovered, report.failed) == (3, 3, 0)
        results = [future.result(timeout=10) for future in report.futures]
        assert len({id(r) for r in results}) == 1  # one shared flight
        cache = service.cache.stats()
        assert cache.misses == 1 and cache.coalesced == 2
        snapshot = service.snapshot()
        assert snapshot.counters.get("coalesced", 0) == 2
        # every duplicate's original seq still got its terminal
        assert service.journal.pending_count == 0
        service.shutdown()
        reopened = Journal(tmp_path)
        assert reopened.pending_count == 0
        reopened.close()
