"""Persistence round-trips and the CLI workflow."""

import http.client
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.persistence import load_ground_truth, save_ground_truth
from repro.zoo.builder import build_zoo
from repro.config import WorldConfig


class TestGroundTruthPersistence:
    def test_roundtrip_preserves_replay(self, truth, zoo, world_config, tmp_path):
        path = tmp_path / "gt.npz"
        save_ground_truth(truth, path)
        loaded = load_ground_truth(zoo, path, world_config)
        assert len(loaded) == len(truth)
        for item_id in list(truth.item_ids)[:20]:
            assert loaded.total_value(item_id) == pytest.approx(
                truth.total_value(item_id)
            )
            assert np.allclose(
                loaded.solo_values(item_id), truth.solo_values(item_id)
            )
            for j in range(len(zoo)):
                assert loaded.output(item_id, j) == truth.output(item_id, j)

    def test_zoo_mismatch_rejected(self, truth, world_config, tmp_path, space):
        path = tmp_path / "gt.npz"
        save_ground_truth(truth, path)
        other_zoo = build_zoo(
            WorldConfig(vocab_scale="mini", seed=world_config.seed + 1), space
        )
        # same names -> loads fine even with different seed (replay data wins)
        loaded = load_ground_truth(other_zoo, path, world_config)
        assert len(loaded) == len(truth)

    def test_wrong_scale_zoo_rejected(self, truth, tmp_path):
        path = tmp_path / "gt.npz"
        save_ground_truth(truth, path)
        full_zoo = build_zoo(WorldConfig(vocab_scale="full"))
        with pytest.raises(ValueError, match="zoo mismatch"):
            load_ground_truth(full_zoo, path)


class TestCLI:
    def test_zoo_command(self, capsys):
        assert main(["--scale", "mini", "zoo"]) == 0
        out = capsys.readouterr().out
        assert "10 models" in out

    def test_record_train_schedule_workflow(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.npz"
        agent_path = tmp_path / "agent.npz"
        base = ["--scale", "mini"]
        assert main(base + [
            "record", "--dataset", "mscoco2017", "--items", "80",
            "--out", str(gt_path),
        ]) == 0
        assert gt_path.exists()
        assert main(base + [
            "train", "--truth", str(gt_path), "--algo", "dqn",
            "--episodes", "30", "--hidden", "16", "--out", str(agent_path),
        ]) == 0
        assert agent_path.exists()
        assert main(base + [
            "schedule", "--truth", str(gt_path), "--agent", str(agent_path),
            "--algo", "dqn", "--hidden", "16", "--deadline", "0.3",
            "--items", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean value recall" in out

    def test_train_rejects_negative_episodes_and_writes_nothing(
        self, tmp_path, capsys
    ):
        gt_path = tmp_path / "gt.npz"
        agent_path = tmp_path / "agent.npz"
        base = ["--scale", "mini"]
        assert main(base + [
            "record", "--dataset", "mscoco2017", "--items", "20",
            "--out", str(gt_path),
        ]) == 0
        with pytest.raises(SystemExit, match="episodes must be >= 1") as exit_:
            main(base + [
                "train", "--truth", str(gt_path), "--episodes", "-3",
                "--hidden", "16", "--out", str(agent_path),
            ])
        assert exit_.value.code not in (0, None)
        assert not agent_path.exists()
        assert "trained" not in capsys.readouterr().out

    def test_schedule_with_memory(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.npz"
        agent_path = tmp_path / "agent.npz"
        base = ["--scale", "mini"]
        main(base + [
            "record", "--dataset", "voc2012", "--items", "60",
            "--out", str(gt_path),
        ])
        main(base + [
            "train", "--truth", str(gt_path), "--algo", "dqn",
            "--episodes", "20", "--hidden", "16", "--out", str(agent_path),
        ])
        assert main(base + [
            "schedule", "--truth", str(gt_path), "--agent", str(agent_path),
            "--algo", "dqn", "--hidden", "16", "--deadline", "0.3",
            "--memory", "8000", "--items", "5", "--verbose",
        ]) == 0
        assert "memory=8000" in capsys.readouterr().out


class TestAtomicSave:
    def test_save_leaves_no_temp_residue_and_appends_npz(self, truth, tmp_path):
        save_ground_truth(truth, tmp_path / "bare")  # numpy convention: +.npz
        assert (tmp_path / "bare.npz").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["bare.npz"]

    def test_failed_save_leaves_previous_archive_loadable(
        self, truth, zoo, world_config, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "gt.npz"
        save_ground_truth(truth, path)
        before = path.read_bytes()
        monkeypatch.setattr(
            os, "replace", lambda *a: (_ for _ in ()).throw(OSError("disk full"))
        )
        with pytest.raises(OSError, match="disk full"):
            save_ground_truth(truth, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["gt.npz"]
        loaded = load_ground_truth(zoo, path, world_config)
        assert len(loaded) == len(truth)


class TestManifestResumeCLI:
    def test_schedule_manifest_then_resume(self, tmp_path, capsys):
        from repro.durability import RunManifest

        gt_path = tmp_path / "gt.npz"
        agent_path = tmp_path / "agent.npz"
        manifest_path = tmp_path / "run.json"
        base = ["--scale", "mini"]
        assert main(base + [
            "record", "--dataset", "mscoco2017", "--items", "60",
            "--out", str(gt_path),
        ]) == 0
        assert main(base + [
            "train", "--truth", str(gt_path), "--algo", "dqn",
            "--episodes", "20", "--hidden", "16", "--out", str(agent_path),
        ]) == 0
        schedule = base + [
            "schedule", "--truth", str(gt_path), "--agent", str(agent_path),
            "--algo", "dqn", "--hidden", "16", "--deadline", "0.3",
            "--items", "8", "--manifest", str(manifest_path),
        ]
        assert main(schedule) == 0
        capsys.readouterr()
        manifest = RunManifest.load(manifest_path)
        assert manifest.done == 8 and manifest.remaining == []

        # simulate a kill: forget the last three completions
        for item_id in manifest.item_ids[-3:]:
            del manifest.completed[item_id]
        manifest.save()
        assert main(schedule + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "(5 resumed from manifest)" in out
        reloaded = RunManifest.load(manifest_path)
        assert reloaded.done == 8 and reloaded.remaining == []

        # a fresh (non-resume) run refuses to clobber an existing manifest
        with pytest.raises(SystemExit, match="--resume"):
            main(schedule)

        # fully-done manifest: resume is a clean no-op
        assert main(schedule + ["--resume"]) == 0
        assert "nothing left to schedule" in capsys.readouterr().out

    def test_failed_manifest_write_drains_the_stream_first(
        self, tmp_path, monkeypatch
    ):
        # The backend closes only after the stream's in-flight runs landed.
        import threading
        import time

        from repro.durability import RunManifest
        from repro.engine import BatchedBackend

        gt_path, agent_path = tmp_path / "gt.npz", tmp_path / "agent.npz"
        base = ["--scale", "mini"]
        main(base + [
            "record", "--dataset", "mscoco2017", "--items", "40",
            "--out", str(gt_path),
        ])
        main(base + [
            "train", "--truth", str(gt_path), "--algo", "dqn",
            "--episodes", "10", "--hidden", "16", "--out", str(agent_path),
        ])

        def disk_full(self, item_id, row):
            raise OSError("disk full")

        run = BatchedBackend.run

        def slow_run(self, job, predictor):
            time.sleep(0.05)
            return run(self, job, predictor)

        live_at_close = []

        def close(self):
            live_at_close.append(
                [t for t in threading.enumerate() if t.name.startswith("labeling")]
            )

        monkeypatch.setattr(RunManifest, "mark_done", disk_full)
        monkeypatch.setattr(BatchedBackend, "run", slow_run)
        monkeypatch.setattr(BatchedBackend, "close", close)
        with pytest.raises(OSError, match="disk full"):
            main(base + [
                "schedule", "--truth", str(gt_path), "--agent", str(agent_path),
                "--algo", "dqn", "--hidden", "16", "--items", "8",
                "--batch-size", "2", "--manifest", str(tmp_path / "run.json"),
            ])
        assert live_at_close == [[]]

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume requires --manifest"):
            main([
                "--scale", "mini", "schedule", "--truth", "x", "--agent", "y",
                "--resume",
            ])


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """A real truth archive and agent, so a bad flag is the only fault."""
    root = tmp_path_factory.mktemp("schedule")
    gt_path, agent_path = root / "gt.npz", root / "agent.npz"
    base = ["--scale", "mini"]
    main(base + [
        "record", "--dataset", "mscoco2017", "--items", "30",
        "--out", str(gt_path),
    ])
    main(base + [
        "train", "--truth", str(gt_path), "--algo", "dqn",
        "--episodes", "5", "--hidden", "16", "--out", str(agent_path),
    ])
    return gt_path, agent_path


class TestScheduleRejectsBadFlags:
    """A bad flag fails before the truth, agent or manifest is touched: a
    one-line error, no traceback, and no manifest left to block the
    corrected rerun."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--deadline", "-1"], "deadline must be non-negative"),
            (["--memory", "-5"], "memory_budget must be non-negative"),
            (["--items", "-3"], "--items must be >= 1"),
            (["--items", "0"], "--items must be >= 1"),
        ],
    )
    def test_exits_cleanly_without_a_manifest(
        self, recorded_run, tmp_path, flags, message
    ):
        gt_path, agent_path = recorded_run
        manifest = tmp_path / "run.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "--scale", "mini",
                "schedule", "--truth", str(gt_path), "--agent", str(agent_path),
                "--algo", "dqn", "--hidden", "16", "--manifest", str(manifest),
                *flags,
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert f"schedule: {message}" in done.stderr
        assert not manifest.exists()


class TestServingCommands:
    """``serve`` and ``gateway`` in-process: CI otherwise reaches them only
    with live subprocesses."""

    base = ["--scale", "mini"]
    tiny = ["--hidden", "16"]

    def test_serve_with_journal_and_recover(self, tmp_path, capsys):
        assert main(self.base + [
            "serve", *self.tiny, "--items", "24", "--clients", "2",
            "--rate", "0", "--journal", str(tmp_path), "--recover",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery: 0 journaled request(s) replayed" in out
        assert "24 admitted, 24 terminals, 0 pending" in out

    def test_gateway_runs_for_a_duration(self, capsys):
        assert main(self.base + [
            "gateway", *self.tiny, "--items", "16", "--duration", "0.3",
        ]) == 0
        assert "gateway listening at http://127.0.0.1:" in capsys.readouterr().out

    @pytest.mark.parametrize("hold_open", [False, True], ids=["closed", "idle"])
    def test_gateway_drains_and_exits_zero_on_sigterm(self, hold_open):
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", *self.base,
                "gateway", *self.tiny, "--items", "16",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            for line in proc.stdout:
                if line.startswith("gateway listening at"):
                    break
            else:
                pytest.fail(f"gateway never listened: {proc.stderr.read()}")
            host, port = line.split()[3].removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            headers = {"Authorization": "Bearer demo-key-tenant-0"}
            conn.request("GET", "/v1/items", headers=headers)
            ids = json.loads(conn.getresponse().read())["items"][:8]
            conn.request("POST", "/v1/label/batch", json.dumps({"items": ids}),
                         headers)
            body = json.loads(conn.getresponse().read())
            assert body["completed"] == 8
            if not hold_open:
                conn.close()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            if hold_open:  # an idle keep-alive connection across the stop
                assert conn.sock.recv(1) == b""
                conn.close()
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        assert "completed 8" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["serve", "gateway"])
    def test_recover_requires_journal(self, command, capsys):
        with pytest.raises(SystemExit, match="--recover requires --journal"):
            main(self.base + [command, *self.tiny, "--recover"])
        assert capsys.readouterr().out == ""  # refused before any work


@pytest.mark.parametrize(
    "command",
    [
        ["serve"],
        ["gateway"],
        ["schedule", "--truth", "gt.npz", "--agent", "a.npz", "--backend", "process"],
        ["schedule", "--truth", "gt.npz", "--agent", "a.npz", "--backend", "cluster"],
    ],
    ids=["serve", "gateway", "schedule-process", "schedule-cluster"],
)
@pytest.mark.parametrize("count", ["0", "-2"])
def test_workers_below_one_is_a_usage_error(command, count, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--scale", "mini", *command, "--workers", count])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"pool size must be >= 1, got {count}" in err
    assert "usage:" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command in ("serve", "gateway")
        for flag, value in (
            ("--batch-size", "0"),
            ("--max-wait", "-1"),
            ("--max-depth", "0"),
        )
    ]
    + [("serve", "--clients", "0")],
)
def test_out_of_range_service_flag_is_a_usage_error(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--scale", "mini", command, flag, value])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be >= " in err
    assert "usage:" in err
