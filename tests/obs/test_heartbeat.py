"""Heartbeat log: flushed-per-event JSONL."""

import json

from repro.obs import HeartbeatLog
from repro.runner import SweepRunner, TaskSpec


def _specs(n):
    return [
        TaskSpec(fn="repro.models.mathis:mathis_window", args=(0.01 * (i + 1),))
        for i in range(n)
    ]


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestHeartbeat:
    def test_every_lifecycle_event_is_logged(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = HeartbeatLog(path)
        runner = SweepRunner(observer=log)
        runner.map(_specs(2))
        log.close()
        events = _events(path)
        kinds = [event["event"] for event in events]
        assert kinds == [
            "sweep_started",
            "task_queued",
            "task_queued",
            "task_started",
            "task_finished",
            "task_started",
            "task_finished",
            "sweep_finished",
        ]
        finished = [e for e in events if e["event"] == "task_finished"]
        assert all("digest" in e and "label" in e and e["seconds"] >= 0 for e in finished)
        assert events[-1]["executed"] == 2
        assert all(e["sweep"] == 0 for e in events)

    def test_sweep_counter_spans_map_calls(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = HeartbeatLog(path)
        runner = SweepRunner(observer=log)
        runner.map(_specs(1))
        runner.map(_specs(1))
        log.close()
        sweeps = {event["sweep"] for event in _events(path)}
        assert sweeps == {0, 1}

    def test_log_survives_before_close(self, tmp_path):
        # Flushed per event: a killed process leaves a readable log.
        path = tmp_path / "events.jsonl"
        log = HeartbeatLog(path)
        SweepRunner(observer=log).map(_specs(1))
        assert len(_events(path)) == 5  # no close() needed
        log.close()
