"""Crash-point drill for every durable file: cut at every byte offset.

Each append log is filled, then its last append is cut short at every
byte offset, as a crash mid-write would leave it.  Opening a reader must
not change the file; the next writer appends one row; a re-read must
hold every earlier row, the new row, and the cut row only when the cut
kept its full line.  Checkpoint snapshots get the same drill for a cut
tmp file and a cut published snapshot.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.store import LOG_NAME, ResultStore
from repro.learn.audit import LEDGER_NAME, DecisionLedger
from repro.learn.history import HISTORY_NAME, ExecutionHistoryStore
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    DirectoryCheckpointStore,
)
from repro.telemetry.live import ProgressLog
from repro.util.durable import (
    TMP_SUFFIX,
    publish,
    read_jsonl,
    repair_tail,
)
from repro.util.hashing import checksum_bytes


class ResultLog:
    path_name = LOG_NAME

    @staticmethod
    def append(directory: Path, tag: str) -> None:
        ResultStore(directory).append({"cell_key": tag, "metrics": {}})

    @staticmethod
    def read(directory: Path) -> list[str]:
        return ResultStore(directory).keys()


class Ledger:
    path_name = LEDGER_NAME

    @staticmethod
    def append(directory: Path, tag: str) -> None:
        DecisionLedger(directory).record("outcome", tag=tag)

    @staticmethod
    def read(directory: Path) -> list[str]:
        return [r["tag"] for r in DecisionLedger(directory).rows()]


class History:
    path_name = HISTORY_NAME

    @staticmethod
    def append(directory: Path, tag: str) -> None:
        ExecutionHistoryStore(directory).record(
            source="t", phase=tag, seconds=1.0
        )

    @staticmethod
    def read(directory: Path) -> list[str]:
        store = ExecutionHistoryStore(directory)
        return [r["phase"] for r in store.iter_rows()]


class Progress:
    """Unsynced multi-writer log: the session writer repairs the tail."""

    path_name = "events.jsonl"

    @staticmethod
    def append(directory: Path, tag: str) -> None:
        path = directory / Progress.path_name
        repair_tail(path)
        ProgressLog(path).append(tag)

    @staticmethod
    def read(directory: Path) -> list[str]:
        log = ProgressLog(directory / Progress.path_name)
        return [r["name"] for r in log.read()]


@pytest.mark.parametrize("log", [ResultLog, Ledger, History, Progress])
def test_cut_last_append_at_every_offset(tmp_path, log):
    seed = tmp_path / "seed"
    seed.mkdir()
    for i in range(3):
        log.append(seed, f"row{i}")
    path = seed / log.path_name
    before_last = path.read_bytes()
    log.append(seed, "cut")
    last_line = path.read_bytes()[len(before_last):]
    assert last_line.endswith(b"\n")

    for cut in range(len(last_line) + 1):
        d = tmp_path / f"cut{cut}"
        d.mkdir()
        torn = before_last + last_line[:cut]
        (d / log.path_name).write_bytes(torn)
        log.read(d)
        assert (d / log.path_name).read_bytes() == torn, "a reader wrote"
        log.append(d, "next")
        rows = log.read(d)
        whole = cut == len(last_line)
        expected = ["row0", "row1", "row2"] + ["cut"] * whole + ["next"]
        assert rows == expected, cut


def make_ckpt(step: int) -> Checkpoint:
    payload = pickle.dumps({"step": step}, protocol=4)
    return Checkpoint(
        version=CHECKPOINT_FORMAT_VERSION,
        step=step,
        sim_time=float(step),
        clock_time=float(step),
        payload=payload,
        checksum=checksum_bytes(payload),
    )


@pytest.fixture
def ckpt_dir(tmp_path):
    store = DirectoryCheckpointStore(tmp_path / "ckpts", keep_last=3)
    store.save(make_ckpt(1))
    store.save(make_ckpt(2))
    return store


def test_cut_tmp_snapshot_never_shadows_published(ckpt_dir):
    blob = make_ckpt(3).to_bytes()
    tmp = ckpt_dir.directory / ("ckpt_00000003.rpck" + TMP_SUFFIX)
    for cut in range(len(blob) + 1):
        tmp.write_bytes(blob[:cut])
        assert ckpt_dir.steps() == (1, 2)
        assert ckpt_dir.latest().step == 2
        assert ckpt_dir.latest_valid().step == 2


def test_cut_newest_snapshot_falls_back(ckpt_dir):
    blob = make_ckpt(3).to_bytes()
    newest = ckpt_dir.directory / "ckpt_00000003.rpck"
    for cut in range(len(blob) + 1):
        newest.write_bytes(blob[:cut])
        expected = 3 if cut == len(blob) else 2
        assert ckpt_dir.latest_valid().step == expected, cut


class TestPrimitives:
    def test_read_jsonl_leaves_unterminated_tail(self):
        data = b'{"k": 1}\nnot json\n[1]\n{"x": 2}\n{"k": 3'
        rows, consumed = read_jsonl(data, "k")
        assert rows == [{"k": 1}]
        assert consumed == data.rfind(b"\n") + 1

    def test_repair_tail_cuts_only_an_unterminated_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        repair_tail(path)
        assert not path.exists()
        path.write_bytes(b'{"k": 1}\n')
        repair_tail(path)
        assert path.read_bytes() == b'{"k": 1}\n'
        path.write_bytes(b'{"k": 1}\n{"k"')
        repair_tail(path)
        assert path.read_bytes() == b'{"k": 1}\n'
        path.write_bytes(b'{"k"')
        repair_tail(path)
        assert path.read_bytes() == b""

    def test_publish_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "doc.json"
        assert publish(path, "old\n") == 4
        assert publish(path, b"new\n") == 4
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_src_tree_passes_durability_lint():
    """No fsync, truncate or tmp publish outside repro.util.durable."""
    repo = Path(__file__).resolve().parents[2]
    tool = repo / "tools" / "check_durability.py"
    proc = subprocess.run(
        [sys.executable, str(tool)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
