"""The chaos harness itself: scenarios run green and reject bad input.

Each scenario spawns a real two-shard fleet, injects its fault
(SIGKILL, torn WAL tail, crash-then-retry) and checks the wear
invariants - so one green scenario here is an end-to-end proof of the
failover story.  The full four-scenario sweep runs in CI's chaos-smoke
leg and via ``repro chaos``; the suite here keeps to the two scenarios
that exercise distinct code paths (supervised restart vs power cut)
to bound test time.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service.chaos import SCENARIOS, run_chaos, run_scenario

pytestmark = pytest.mark.slow


class TestScenarios:
    def test_kill_mid_batch_holds_invariants(self, tmp_path):
        report = run_scenario("kill-mid-batch", str(tmp_path),
                              shards=2, tenants=6, requests=32, seed=11)
        assert report["scenario"] == "kill-mid-batch"
        assert sum(report["loadgen"]["outcomes"].values()) == 32
        # The kill landed mid-load: some request retried across it.
        assert report["loadgen"]["reconnects"] >= 1
        assert sum(report["restarts"]) >= 1
        assert set(report["shards"]) == {"0", "1"}
        for shard in report["shards"].values():
            assert shard["records"] > 0

    def test_retry_race_replays_not_recharges(self, tmp_path):
        report = run_scenario("retry-race", str(tmp_path),
                              shards=2, tenants=6, requests=24, seed=11)
        assert report["responses"] == 24
        # Every shard restarted exactly once (the scripted crash).
        assert report["restarts"] == [1, 1]

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown chaos"):
            run_scenario("split-brain", str(tmp_path))

    def test_invalid_shape_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_scenario("kill-mid-batch", str(tmp_path), requests=0)

    def test_scenario_registry_is_pinned(self):
        assert sorted(SCENARIOS) == ["kill-mid-batch", "restart-storm",
                                     "retry-race", "torn-tail"]


class TestRunChaos:
    def test_suite_aggregates_reports(self, tmp_path):
        report = run_chaos(["torn-tail"], str(tmp_path),
                           shards=2, tenants=6, requests=24, seed=11)
        assert report["passed"]
        assert not report["violations"]
        assert [s["scenario"] for s in report["scenarios"]] == ["torn-tail"]
