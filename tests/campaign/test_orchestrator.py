"""Tests for the campaign orchestrator: resume, failures, telemetry."""

from __future__ import annotations

import json

import pytest

import repro.campaign.orchestrator as orch
from repro.campaign import (
    ARTIFACTS_DIRNAME,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    campaign_status,
)
from repro.telemetry.live import ProgressLog
from repro.telemetry.spans import Tracer
from repro.util.errors import CampaignError


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="t",
        scenarios=("paper-four-node",),
        partitioners=("greedy", "heterogeneous"),
        seeds=(1, 2),
        base_config={"iterations": 3},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_unknown_scenario_rejected_upfront(self, tmp_path):
        spec = small_spec(scenarios=("no-such-scenario",))
        with pytest.raises(CampaignError, match="unknown scenario"):
            CampaignRunner(spec, tmp_path / "c")

    def test_unknown_partitioner_rejected_upfront(self, tmp_path):
        spec = small_spec(partitioners=("no-such-partitioner",))
        with pytest.raises(CampaignError, match="unknown partitioner"):
            CampaignRunner(spec, tmp_path / "c")

    def test_directory_owned_by_other_campaign(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d)
        with pytest.raises(CampaignError, match="belongs to campaign"):
            CampaignRunner(small_spec(seeds=(9,)), d)


class TestRunAndResume:
    def test_full_inline_run(self, tmp_path):
        d = tmp_path / "c"
        result = CampaignRunner(small_spec(), d).run()
        assert result["complete"]
        assert result["executed"] == 4
        assert result["failed"] == 0
        assert (d / "results.jsonl").is_file()
        assert (d / "index.json").is_file()

    def test_max_cells_interrupts_then_resume_skips(self, tmp_path):
        d = tmp_path / "c"
        first = CampaignRunner(small_spec(), d).run(max_cells=3)
        assert not first["complete"]
        assert first["executed"] == 3
        second = CampaignRunner(small_spec(), d).run()
        assert second["complete"]
        assert second["executed"] == 1  # zero completed cells re-executed
        assert second["skipped"] == 3

    def test_resume_of_complete_campaign_is_noop(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run()
        again = CampaignRunner(small_spec(), d).run()
        assert again["complete"]
        assert again["executed"] == 0
        assert again["skipped"] == 4

    def test_state_survives_in_checkpoints(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run(max_cells=2)
        runner = CampaignRunner(small_spec(), d)
        assert runner.state.num_completed == 2

    def test_pool_mode_completes(self, tmp_path):
        d = tmp_path / "c"
        result = CampaignRunner(small_spec(), d, workers=2).run()
        assert result["complete"]
        assert result["executed"] == 4


def tree_bytes(directory) -> dict[str, bytes]:
    """``results.jsonl`` plus every artifact file, keyed by path."""
    files = [directory / "results.jsonl"]
    files += sorted((directory / ARTIFACTS_DIRNAME).rglob("*"))
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in files
        if p.is_file()
    }


class TestCrashResume:
    """Resume after a crash left a torn or missing line behind."""

    def test_torn_result_log_tail_loses_no_record(self, tmp_path):
        straight, torn = tmp_path / "s", tmp_path / "t"
        CampaignRunner(small_spec(), straight).run()
        CampaignRunner(small_spec(), torn).run(max_cells=2)
        with open(torn / "results.log.jsonl", "ab") as fh:
            fh.write(b'{"cell_key": "zz", "metr')  # crash mid-append
        result = CampaignRunner(small_spec(), torn).run()
        assert result["complete"]
        keys = set(ResultStore(torn).keys())
        assert keys == {c.key for c in small_spec().cells()}
        assert campaign_status(torn)["store_records"] == 4
        assert tree_bytes(torn) == tree_bytes(straight)

    def test_torn_progress_tail_keeps_resumed_session(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run(max_cells=2)
        log = ProgressLog(d / "events.jsonl")
        with open(log.path, "ab") as fh:
            fh.write(b'{"name": "live.cell_started", "attri')
        CampaignRunner(small_spec(), d).run()
        started = [r for r in log.read() if r["name"] == "campaign.started"]
        assert len(started) == 2
        assert started[1]["attributes"]["completed"] == 2

    def test_missing_record_reruns_exactly_that_cell(self, tmp_path):
        straight, d = tmp_path / "s", tmp_path / "c"
        CampaignRunner(small_spec(), straight).run()
        CampaignRunner(small_spec(), d).run()
        lines = (d / "results.jsonl").read_bytes().splitlines(True)
        lost = json.loads(lines.pop(1))["cell_key"]
        (d / "results.jsonl").write_bytes(b"".join(lines))
        status = campaign_status(d)
        assert status["store_records"] == 3
        assert not status["complete"]

        tracer = Tracer()
        runner = CampaignRunner(small_spec(), d, tracer=tracer)
        missing = [
            e for e in tracer.events if e.name == "campaign.record_missing"
        ]
        assert [e.attributes["count"] for e in missing] == [1]
        result = runner.run()
        assert result["complete"]
        assert result["executed"] == 1
        spans = list(tracer.spans_named("campaign.cell"))
        assert [s.attributes["cell_key"] for s in spans] == [lost]
        ordinals = list(runner.state.completed.values())
        assert len(set(ordinals)) == len(ordinals) == 4
        assert campaign_status(d)["complete"]
        assert tree_bytes(d) == tree_bytes(straight)

    def test_corrected_ledger_is_the_newest_snapshot(
        self, tmp_path, monkeypatch
    ):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run()
        lines = (d / "results.jsonl").read_bytes().splitlines(True)
        lost = json.loads(lines.pop())["cell_key"]
        (d / "results.jsonl").write_bytes(b"".join(lines))

        def broken(cell_dict, *args):
            raise RuntimeError("down")

        monkeypatch.setattr(orch, "execute_cell", broken)
        CampaignRunner(small_spec(), d).run()
        # The failure was saved with three cells completed; it must not
        # sort below the stale four-cell snapshot it corrects.
        restored = CampaignRunner(small_spec(), d).state
        assert list(restored.failed) == [lost]
        assert restored.num_completed == 3


class TestFailures:
    def test_failed_cell_recorded_not_stored(self, tmp_path, monkeypatch):
        d = tmp_path / "c"
        real = orch.execute_cell

        def flaky(cell_dict, *args):
            if cell_dict["seed"] == 2:
                raise RuntimeError("injected")
            return real(cell_dict, *args)

        monkeypatch.setattr(orch, "execute_cell", flaky)
        runner = CampaignRunner(small_spec(), d)
        result = runner.run()
        assert result["failed"] == 2
        assert not result["complete"]
        assert runner.state.num_completed == 2
        assert (d / "failures.jsonl").is_file()
        status = campaign_status(d)
        assert len(status["failed"]) == 2
        assert "RuntimeError: injected" in next(
            iter(status["failed"].values())
        )

    def test_failed_cells_retry_on_resume(self, tmp_path, monkeypatch):
        d = tmp_path / "c"

        def broken(cell_dict, *args):
            raise RuntimeError("down")

        monkeypatch.setattr(orch, "execute_cell", broken)
        CampaignRunner(small_spec(), d).run()
        monkeypatch.undo()
        result = CampaignRunner(small_spec(), d).run()
        assert result["complete"]
        assert result["executed"] == 4
        assert not campaign_status(d)["failed"]


class TestTelemetry:
    def test_cell_spans_and_counters(self, tmp_path):
        tracer = Tracer()
        CampaignRunner(small_spec(), tmp_path / "c", tracer=tracer).run()
        spans = list(tracer.spans_named("campaign.cell"))
        assert len(spans) == 4
        assert all(s.attributes["cell_key"] for s in spans)
        assert all(s.sim_duration > 0 for s in spans)
        counters = {
            c.name: c.value
            for c in tracer.metrics
            if c.name.startswith("campaign.cells_")
        }
        assert counters["campaign.cells_completed"] == 4

    def test_started_and_completed_events(self, tmp_path):
        tracer = Tracer()
        CampaignRunner(small_spec(), tmp_path / "c", tracer=tracer).run()
        names = [e.name for e in tracer.events]
        assert "campaign.started" in names
        assert "campaign.completed" in names


class TestStatus:
    def test_status_of_fresh_directory_fails(self, tmp_path):
        with pytest.raises(CampaignError, match="not a campaign directory"):
            campaign_status(tmp_path)

    def test_status_progress(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run(max_cells=1)
        status = campaign_status(d)
        assert status["completed"] == 1
        assert status["num_cells"] == 4
        assert not status["complete"]
