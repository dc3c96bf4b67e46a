"""Persisted campaign progress: which cells are done, checkpointed.

:class:`CampaignState` is the orchestrator's ledger -- the set of
completed cell keys (with completion ordinals) and the last error per
failed cell.  It is snapshotted through the resilience subsystem's
checkpoint machinery (:mod:`repro.resilience.checkpoint`): every
completed cell produces one integrity-checksummed, atomically published
snapshot in ``<campaign_dir>/checkpoints/``, so a campaign killed at any
instant -- SIGKILL included -- resumes from its last completed cell with
nothing re-executed and nothing half-written trusted.

Restores go through :meth:`DirectoryCheckpointStore.latest_valid`: a
snapshot corrupted mid-publish fails closed and recovery falls back to
the previous intact one, costing at most one cell of redone work.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    DirectoryCheckpointStore,
)
from repro.util.errors import CampaignError
from repro.util.hashing import checksum_bytes

__all__ = ["CampaignState", "CampaignCheckpointer"]

#: Snapshots kept on disk; >1 so a corrupt newest file leaves a fallback.
KEEP_CHECKPOINTS = 3


class CampaignState:
    """Mutable progress ledger for one campaign."""

    def __init__(
        self,
        campaign_id: str,
        completed: Mapping[str, int] | None = None,
        failed: Mapping[str, str] | None = None,
    ):
        self.campaign_id = campaign_id
        #: cell key -> completion ordinal (1-based, monotonically grown).
        self.completed: dict[str, int] = dict(completed or {})
        #: cell key -> last error message (cleared when the cell succeeds).
        self.failed: dict[str, str] = dict(failed or {})

    # ------------------------------------------------------------------
    def is_completed(self, key: str) -> bool:
        return key in self.completed

    def mark_completed(self, key: str) -> int:
        """Record ``key`` as done; returns its completion ordinal."""
        if key in self.completed:
            return self.completed[key]
        self.failed.pop(key, None)
        ordinal = max(self.completed.values(), default=0) + 1
        self.completed[key] = ordinal
        return ordinal

    def drop_unrecorded(self, recorded: Iterable[str]) -> int:
        """Un-complete every key outside ``recorded``; returns how many.

        A resume checks the ledger against the result store: a cell the
        ledger calls done but the store has no record for must run again.
        """
        recorded = set(recorded)
        missing = [key for key in self.completed if key not in recorded]
        for key in missing:
            del self.completed[key]
        return len(missing)

    def mark_failed(self, key: str, error: str) -> None:
        if key in self.completed:
            raise CampaignError(
                f"cell {key!r} is already completed; refusing to mark failed"
            )
        self.failed[key] = str(error)

    def status_of(self, key: str) -> str:
        """``completed`` / ``failed`` / ``pending`` for one cell key.

        The vocabulary of the ``?status=`` filter on the HTTP cells
        route; a key outside the grid still reports ``pending`` -- grid
        membership is the spec's business, not the ledger's.
        """
        if key in self.completed:
            return "completed"
        if key in self.failed:
            return "failed"
        return "pending"

    @property
    def num_completed(self) -> int:
        return len(self.completed)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "completed": dict(self.completed),
            "failed": dict(self.failed),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignState":
        return cls(
            campaign_id=str(data["campaign_id"]),
            completed={str(k): int(v) for k, v in data["completed"].items()},
            failed={str(k): str(v) for k, v in data["failed"].items()},
        )


class CampaignCheckpointer:
    """Snapshots a :class:`CampaignState` through the resilience store.

    Reuses :class:`~repro.resilience.checkpoint.Checkpoint` verbatim --
    same format version, header, checksum and directory publish the
    grid-hierarchy snapshots use -- with the pickled state dict as the
    payload and the completion count as the step tag.  The tag never
    drops below the newest snapshot on disk, so after a resume drops
    unrecorded cells the corrected state is still the newest snapshot.
    """

    def __init__(self, directory: str | Path, keep_last: int = KEEP_CHECKPOINTS):
        self.store = DirectoryCheckpointStore(directory, keep_last=keep_last)
        self.num_saves = 0

    def save(self, state: CampaignState) -> Checkpoint:
        payload = pickle.dumps(state.to_dict(), protocol=4)
        ckpt = Checkpoint(
            version=CHECKPOINT_FORMAT_VERSION,
            step=max(state.num_completed, *self.store.steps(), 0),
            sim_time=0.0,
            clock_time=0.0,
            payload=payload,
            checksum=checksum_bytes(payload),
        )
        self.store.save(ckpt)
        self.num_saves += 1
        return ckpt

    def load_latest(self) -> CampaignState | None:
        """Newest restorable state, or ``None`` for a fresh directory.

        Walks back past corrupt snapshots (see ``latest_valid``); only a
        directory with *no* intact snapshot at all comes back empty.
        """
        ckpt = self.store.latest_valid()
        if ckpt is None:
            return None
        return CampaignState.from_dict(ckpt.state())
