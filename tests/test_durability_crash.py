"""Crash injection: SIGKILL a serving process mid-load, recover, lose nothing.

The child process (a standalone script, so SIGKILL means SIGKILL) runs a
real service over a journal with ``fsync="always"`` and prints a flushed
``ADMITTED <item_id>`` line only after :meth:`LabelingService.submit`
returns — i.e. after the admission record is durably on disk.  The
parent kills it mid-load, then verifies the acknowledged-admission
contract against the journal directory the child left behind:

* every acked admission is in the WAL (zero acknowledged-admission loss);
* every acked admission without a durable terminal is replayed by
  :meth:`~repro.serving.service.LabelingService.recover` to completion.
"""

import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.durability import Journal
from repro.engine import LabelingEngine
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor
from repro.serving import LabelingService
from repro.spec import LabelingSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHILD_SCRIPT = """
import sys, time
import numpy as np

from repro.config import smoke_scale
from repro.data.datasets import generate_dataset, train_test_split
from repro.engine import LabelingEngine
from repro.labels import build_label_space
from repro.scheduling.qgreedy import QValuePredictor
from repro.serving import LabelingService
from repro.spec import LabelingSpec
from repro.zoo.builder import build_zoo
from repro.zoo.oracle import GroundTruth


class SlowPredictor(QValuePredictor):
    # Slows each scheduling step so the parent reliably kills mid-backlog.
    def __init__(self, n_models):
        self.n_models = n_models

    def predict(self, state):
        time.sleep(0.05)
        return np.zeros(self.n_models)


journal_dir = sys.argv[1]
cfg = smoke_scale().world
space = build_label_space(cfg.vocab_scale)
zoo = build_zoo(cfg, space)
dataset = generate_dataset(space, cfg, "mscoco2017", 150)
_, test = train_test_split(dataset, seed=0)
items = test.items[:40]
truth = GroundTruth(zoo, dataset, cfg)
engine = LabelingEngine(zoo, SlowPredictor(len(zoo)), cfg)
service = LabelingService(
    engine,
    truth=truth,
    spec=LabelingSpec(deadline=0.35),
    journal=journal_dir,
    journal_fsync="always",
    batch_size=2,
    max_wait=0.01,
    workers=1,
)
service.start()
for item in items:
    future = service.submit(item)
    # the admission is fsynced before submit() returns: safe to ack
    sys.stdout.write(f"ADMITTED {item.item_id}\\n")
    sys.stdout.flush()
    future.add_done_callback(
        lambda _f, item_id=item.item_id: (
            sys.stdout.write(f"DONE {item_id}\\n"),
            sys.stdout.flush(),
        )
    )
time.sleep(60)  # hold the backlog until the parent kills us
"""

def scan_wal(journal_dir: Path, acked: list[str]) -> tuple[set[str], set[str]]:
    """(admitted ids, durably-settled ids) read straight from the journal table.

    A terminal deletes its admission's row, so a settled admission leaves
    no row; what proves it was committed is the table's ``AUTOINCREMENT``
    counter, which each insert commits together with its row.  The child
    submits from one thread, so the k-th ack holds seq k, and every row
    still pending must agree with that.
    """
    db = sqlite3.connect(journal_dir / "journal.db")
    try:
        last = db.execute(
            "SELECT seq FROM sqlite_sequence WHERE name = 'pending'"
        ).fetchone()
        rows = db.execute("SELECT seq, payload FROM pending").fetchall()
    finally:
        db.close()
    committed = last[0] if last else 0  # no row: nothing was ever committed
    by_seq = dict(enumerate(acked, 1))
    pending = set()
    for seq, payload in rows:
        item, _spec, _deadline = pickle.loads(payload)
        # a row past the last ack was admitted but killed before its ack
        assert by_seq.get(seq, item.item_id) == item.item_id
        pending.add(item.item_id)
    admitted = {item_id for seq, item_id in by_seq.items() if seq <= committed}
    admitted |= pending
    return admitted, admitted - pending


class TestSigkillRecovery:
    def test_acked_admissions_survive_sigkill(
        self, zoo, space, truth, world_config, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        script = tmp_path / "crash_child.py"
        script.write_text(CHILD_SCRIPT)
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen(
            [sys.executable, str(script), str(journal_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        acked, done = [], []
        lines_lock = threading.Lock()

        def pump():
            for line in child.stdout:
                tag, _, item_id = line.strip().partition(" ")
                with lines_lock:
                    if tag == "ADMITTED":
                        acked.append(item_id)
                    elif tag == "DONE":
                        done.append(item_id)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                with lines_lock:
                    if len(acked) >= 10:
                        break
                if child.poll() is not None:
                    pytest.fail(
                        f"child exited early: {child.stderr.read()[-2000:]}"
                    )
                time.sleep(0.02)
            else:
                pytest.fail("child never acked 10 admissions")
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        reader.join(timeout=5)
        assert child.returncode == -signal.SIGKILL
        with lines_lock:
            acked_order = list(acked)
        acked_set = set(acked_order)
        assert len(acked_set) >= 10

        # 1. zero acknowledged-admission loss: every ack is in the WAL
        admitted, settled = scan_wal(journal_dir, acked_order)
        assert acked_set <= admitted

        # 2. restart over the same directory and recover the backlog
        agent = make_agent(
            "dueling_dqn",
            obs_dim=len(space),
            n_actions=len(zoo) + 1,
            hidden_size=32,
        )
        engine = LabelingEngine(
            zoo, AgentPredictor(agent, len(zoo)), world_config
        )
        service = LabelingService(
            engine,
            truth=truth,
            spec=LabelingSpec(deadline=0.35),
            journal=str(journal_dir),
        )
        pending_ids = {
            entry.item.item_id for entry in service.journal.pending_entries()
        }
        # every acked admission is either durably settled or owed as pending
        assert acked_set <= (settled | pending_ids)
        report = service.recover(timeout=60)
        assert report.failed == 0
        assert report.recovered == report.replayed == len(pending_ids)
        results = {
            future.result(timeout=10).item_id for future in report.futures
        }
        assert pending_ids <= results
        assert service.journal.pending_count == 0
        service.shutdown()

        # 3. a third open finds a settled journal — nothing owed
        reopened = Journal(journal_dir)
        assert reopened.pending_count == 0
        reopened.close()
