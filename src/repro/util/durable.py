"""The one crash contract every durable file in ``repro`` follows.

The contract is written once, in the "Crash contract" section of
``docs/ARCHITECTURE.md``; this module is its only implementation, and
``tools/check_durability.py`` keeps fsync, truncate and tmp + rename
publishes out of every other module.  :class:`DurableJsonlStore` is the
single-writer append store the execution history and the decision
ledger share.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "DurableJsonlStore",
    "TMP_SUFFIX",
    "append_line",
    "encode_row",
    "publish",
    "read_jsonl",
    "repair_tail",
]

#: Suffix :func:`publish` appends to the target name while writing.
TMP_SUFFIX = ".tmp"


def encode_row(row: dict[str, Any]) -> str:
    """Canonical one-line serialization (sorted keys, compact)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def read_jsonl(
    data: bytes, required_key: str
) -> tuple[list[dict[str, Any]], int]:
    """Rows parsed from the complete lines of ``data``; ``(rows, consumed)``.

    Only newline-terminated lines count.  An unterminated tail -- a
    writer mid-append, or a crash -- is left unconsumed: ``consumed`` is
    the offset just past the last newline, where a tail-follower resumes.
    Complete lines that do not parse, and JSON values that are not
    objects carrying ``required_key``, are skipped.
    """
    consumed = data.rfind(b"\n") + 1
    rows: list[dict[str, Any]] = []
    for line in data[:consumed].split(b"\n"):
        try:
            row = json.loads(line)
        except ValueError:  # blank, torn-then-welded or foreign line
            continue
        if isinstance(row, dict) and required_key in row:
            rows.append(row)
    return rows, consumed


def repair_tail(path: str | Path) -> None:
    """Truncate an unterminated final line off ``path`` and fsync.

    Only a writer calls this, once, before its first append: the cut
    bytes were never acknowledged, and appending after them would weld
    the next acknowledged line onto garbage.  A missing file is fine.
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.flush()
        os.fsync(fh.fileno())


def append_line(path: str | Path, line: str) -> int:
    """Append one newline-terminated line; fsynced before returning.

    Returns the number of bytes written.
    """
    data = line.encode("utf-8")
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return len(data)


def publish(path: str | Path, data: bytes | str) -> int:
    """Atomically replace ``path`` with ``data``; returns the byte size.

    Writes ``<name>.tmp``, fsyncs it, renames it over ``path``, then
    fsyncs the parent directory so the rename itself is durable.  A crash
    at any point leaves either the old file or the new one, plus at
    worst a stale tmp file that no reader opens.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + TMP_SUFFIX)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return len(data)


class DurableJsonlStore:
    """Single-writer append-only JSONL store with an ``index.json`` mark.

    Constructing a store only reads: the rows of every complete line are
    loaded and the file is left untouched.  The first append repairs the
    tail, and every append is fsynced before it is adopted.
    :meth:`checkpoint` publishes the ``(records, bytes)`` high-water mark
    as ``index.json``.

    Subclasses set the class attributes (file names, schema version, the
    key a parsed dict must carry to count as a row) and may override
    :meth:`_absorb` to index rows as they are adopted.
    """

    #: Append-log file name inside the store directory.
    DATA_NAME = "data.jsonl"
    #: High-water-mark sidecar name.
    INDEX_NAME = "index.json"
    #: Format version stamped into the index.
    SCHEMA_VERSION = 1
    #: A parsed dict must carry this key to be adopted as a row.
    REQUIRED_KEY = ""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.data_path = self.directory / self.DATA_NAME
        self.index_path = self.directory / self.INDEX_NAME
        data = self.data_path.read_bytes() if self.data_path.is_file() else b""
        self._rows, self._bytes = read_jsonl(data, self.REQUIRED_KEY)
        self._repaired = False
        for row in self._rows:
            self._absorb(row)

    # -- hooks ---------------------------------------------------------
    def _absorb(self, row: dict[str, Any]) -> None:
        """Index one adopted row (loaded or appended).  Default: no-op."""

    # -- writes --------------------------------------------------------
    def checkpoint(self) -> None:
        """Atomically publish the ``(records, bytes)`` high-water mark."""
        doc = {
            "schema_version": self.SCHEMA_VERSION,
            "records": len(self._rows),
            "bytes": self._bytes,
        }
        publish(self.index_path, json.dumps(doc, sort_keys=True) + "\n")

    def _append_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Durably append one row, then adopt it."""
        if not self._repaired:
            repair_tail(self.data_path)
            self._repaired = True
        self._bytes += append_line(self.data_path, encode_row(row))
        self._rows.append(row)
        self._absorb(row)
        return row

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def iter_rows(self) -> Iterable[dict[str, Any]]:
        return iter(self._rows)
