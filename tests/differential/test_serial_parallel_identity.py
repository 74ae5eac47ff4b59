"""In-process vs pooled campaigns must be byte-identical, any worker count.

The campaign runner's contract is that sharding is *invisible*: trial
``i`` draws from the substream ``(seed, i)`` no matter which worker runs
it, and the canonical checkpoint is rebuilt in prefix order.  These
tests run the same campaigns in process and on pools and compare raw
result arrays, sorted bounds, and the literal bytes of the checkpoint
files.
"""

import numpy as np
import pytest

from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign
from repro.sim.montecarlo import simulate_access_bounds_checkpointed

WORKER_COUNTS = (1, 2, 3)


class TestAccessBoundIdentity:
    @pytest.fixture(scope="class")
    def serial(self, small_design, tmp_path_factory):
        path = tmp_path_factory.mktemp("serial") / "fast.ckpt"
        bounds = simulate_access_bounds_checkpointed(
            small_design, 40, seed=7, checkpoint_path=str(path),
            checkpoint_every=5)
        return bounds, path.read_bytes()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fast_mode_bit_identical(self, small_design, serial,
                                     workers, tmp_path):
        serial_bounds, serial_ckpt = serial
        path = tmp_path / "fast.ckpt"
        bounds = simulate_access_bounds_checkpointed(
            small_design, 40, seed=7, checkpoint_path=str(path),
            checkpoint_every=5, workers=workers, shard_size=7)
        assert np.array_equal(bounds, serial_bounds)
        assert np.array_equal(np.sort(bounds), np.sort(serial_bounds))
        # The canonical checkpoint file is byte-for-byte the serial one.
        assert path.read_bytes() == serial_ckpt

    def test_shard_size_is_invisible(self, small_design):
        reference = simulate_access_bounds_checkpointed(
            small_design, 30, seed=11, workers=2, shard_size=30)
        for shard_size in (1, 4, 13):
            bounds = simulate_access_bounds_checkpointed(
                small_design, 30, seed=11, workers=2,
                shard_size=shard_size)
            assert np.array_equal(bounds, reference)


class TestFaultCampaignIdentity:
    def test_campaign_records_identical(self, small_design, tmp_path):
        config = FaultCampaignConfig(misfire_rate=0.02,
                                     corruption_rate=0.01,
                                     timeout_rate=0.005)
        serial_path = tmp_path / "serial.ckpt"
        parallel_path = tmp_path / "parallel.ckpt"
        serial = run_fault_campaign(small_design, config, trials=8, seed=5,
                                    checkpoint_path=str(serial_path),
                                    checkpoint_every=2)
        parallel = run_fault_campaign(small_design, config, trials=8,
                                      seed=5,
                                      checkpoint_path=str(parallel_path),
                                      checkpoint_every=2, workers=2)
        assert serial.records == parallel.records
        assert serial.mean_served == parallel.mean_served
        assert serial.availability == parallel.availability
        assert serial_path.read_bytes() == parallel_path.read_bytes()
