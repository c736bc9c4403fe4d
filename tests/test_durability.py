"""Durability: WAL journal, checkpoints, manifests, and crash recovery.

Unit layers (framing, torn tails, rotation/compaction, atomic writes,
manifests) are tested directly against temp directories; the service
integration tests exercise the real admission path — journal an intent,
"crash" by never settling it, reopen, :meth:`LabelingService.recover` —
including the replay-idempotency contract through the single-flight
result cache.
"""

import json
import os
import stat
import struct

import pytest

from repro.durability import (
    CheckpointStore,
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


def segment_files(directory):
    return sorted(p for p in directory.iterdir() if p.suffix == ".wal")


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
        assert reopened.stats().replayed == 7
        # seq stays monotonic across restarts
        assert reopened.log_admission("item-5", "spec", None) > max(seqs) + 2
        reopened.close()

    def test_torn_tail_is_truncated_once_and_counted(self, tmp_path):
        with Journal(tmp_path, fsync="none") as journal:
            for i in range(3):
                journal.log_admission(f"item-{i}", "spec", None)
        (segment,) = segment_files(tmp_path)
        clean_size = segment.stat().st_size
        # a crash mid-append: a frame header promising bytes that never landed
        with open(segment, "ab") as fh:
            fh.write(struct.pack("!II", 100, 0) + b"partial")
        reopened = Journal(tmp_path, fsync="none")
        assert reopened.stats().torn_tails == 1
        assert reopened.pending_count == 3
        assert segment.stat().st_size == clean_size
        reopened.close()
        # the truncation healed the file: a second open is clean
        clean = Journal(tmp_path, fsync="none")
        assert clean.stats().torn_tails == 0
        clean.close()

    def test_mid_file_corruption_raises_not_truncates(self, tmp_path):
        with Journal(tmp_path, fsync="none") as journal:
            for i in range(3):
                journal.log_admission(f"item-{i}", "spec", None)
        (segment,) = segment_files(tmp_path)
        data = bytearray(segment.read_bytes())
        data[12] ^= 0xFF  # flip a byte inside the first frame's body
        segment.write_bytes(bytes(data))
        with pytest.raises(JournalCorrupt, match="not a torn tail"):
            Journal(tmp_path, fsync="none")

    def test_rotation_then_compaction_bounds_disk(self, tmp_path):
        journal = Journal(
            tmp_path, fsync="none", segment_bytes=256, checkpoint_every=None
        )
        for i in range(20):
            seq = journal.log_admission(f"item-{i}", "padding" * 8, None)
            journal.log_terminal(seq, "completed")
        assert len(segment_files(tmp_path)) > 1
        journal.checkpoint()
        stats = journal.stats()
        assert stats.compacted > 0
        assert len(segment_files(tmp_path)) == 1  # only the fresh tail
        journal.close()
        reopened = Journal(tmp_path, fsync="none")
        assert reopened.pending_count == 0
        assert reopened.stats().replayed == 0  # history lives in the checkpoint
        reopened.close()

    def test_checkpoint_carries_pending_past_compaction(self, tmp_path):
        journal = Journal(tmp_path, fsync="none", checkpoint_every=None)
        seqs = [
            journal.log_admission(f"item-{i}", "spec", None) for i in range(5)
        ]
        for seq in seqs[:3]:
            journal.log_terminal(seq, "completed")
        journal.checkpoint()
        journal.close()
        reopened = Journal(tmp_path, fsync="none")
        assert [e.seq for e in reopened.pending_entries()] == seqs[3:]
        reopened.close()

    def test_auto_checkpoint_fires_on_terminals(self, tmp_path):
        journal = Journal(tmp_path, fsync="none", checkpoint_every=2)
        for i in range(4):
            seq = journal.log_admission(f"item-{i}", "spec", None)
            journal.log_terminal(seq, "completed")
        assert journal.stats().checkpoints == 2
        journal.close()

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

    def test_validation_and_closed_append(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            Journal(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError, match="segment_bytes"):
            Journal(tmp_path, segment_bytes=16)
        journal = Journal(tmp_path, fsync="none")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            journal.log_admission("item", "spec", None)


# -- unit: atomic writes and the checkpoint store -----------------------------


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


class TestCheckpointStore:
    def test_missing_then_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        empty = store.load()
        assert (empty.seq, empty.pending) == (0, {})
        store.save(7, {3: b"\x00payload", 5: b"other"})
        loaded = store.load()
        assert loaded.seq == 7
        assert loaded.pending == {3: b"\x00payload", 5: b"other"}
        # operator-inspectable: plain JSON on disk
        raw = json.loads((tmp_path / CheckpointStore.FILENAME).read_text())
        assert raw["seq"] == 7


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
        # the post-recovery checkpoint means a reopen owes nothing
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
