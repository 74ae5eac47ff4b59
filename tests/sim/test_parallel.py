"""Unit tests for the process-pool sharded campaign engine.

The bit-identity guarantees (serial == parallel for any worker count,
kill + resume) live in ``tests/differential``; this module covers the
engine mechanics: shard planning, structured failure handling with
retries, checkpoint bookkeeping, and the worker-side RNG isolation that
keeps workers decorrelated.
"""

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.sim.checkpoint import list_shard_checkpoints, save_checkpoint
from repro.sim.parallel import (
    _shard_worker,
    default_shard_size,
    default_workers,
    plan_shards,
    run_checkpointed_trials,
)
from repro.sim.rng import get_default_seed, set_default_seed, substream


def draw_trial(index, rng):
    """Contract-abiding trial: all randomness from the supplied rng."""
    return int(rng.integers(0, 10 ** 6))


def crash_once_trial(index, rng, flag_dir):
    """Kills its worker process the first time trial 5 runs."""
    flag = os.path.join(flag_dir, "crashed")
    if index == 5 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(3)
    return draw_trial(index, rng)


def raising_trial(index, rng):
    if index == 2:
        raise ValueError("injected trial failure")
    return index


def sleeping_trial(index, rng):
    time.sleep(1.0)
    return index


def default_seed_probe_trial(index, rng):
    """Reports whether the worker still carries an inherited default seed."""
    return get_default_seed()


def reference(trials, seed):
    return [int(substream(seed, i).integers(0, 10 ** 6))
            for i in range(trials)]


class TestPlanning:
    def test_partitions_into_bounded_contiguous_shards(self):
        assert plan_shards(list(range(10)), 4) == [(0, 4), (4, 8), (8, 10)]
        assert plan_shards(list(range(3)), 100) == [(0, 3)]
        assert plan_shards([], 5) == []

    def test_gaps_break_shards(self):
        indices = [0, 1, 4, 5, 6, 9]
        assert plan_shards(indices, 100) == [(0, 2), (4, 7), (9, 10)]

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ConfigurationError):
            plan_shards([3, 2], 4)
        with pytest.raises(ConfigurationError):
            plan_shards([1, 1], 4)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ConfigurationError):
            plan_shards([0], 0)

    def test_default_shard_size(self):
        assert default_shard_size(100, 2) == 13  # ceil(100 / (2 * 4))
        assert default_shard_size(1, 64) == 1
        assert default_workers() >= 1


class TestEngine:
    def test_matches_substream_reference(self):
        assert run_checkpointed_trials(draw_trial, 17, 9, workers=3) \
            == reference(17, 9)

    def test_single_worker_pool(self):
        assert run_checkpointed_trials(draw_trial, 7, 1, workers=1) \
            == reference(7, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 0, 0)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 1, 0, workers=0)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 1, 0, checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 1, 0, max_shard_retries=-1)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 1, 0, shard_timeout=0.0)

    def test_worker_crash_is_retried(self, tmp_path):
        results = run_checkpointed_trials(
            crash_once_trial, 12, 9, trial_args=(str(tmp_path),),
            workers=2, max_shard_retries=2, shard_size=3)
        assert results == reference(12, 9)
        assert (tmp_path / "crashed").exists()

    def test_persistent_error_raises_structured(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_checkpointed_trials(raising_trial, 6, 0, workers=2,
                                max_shard_retries=1, shard_size=3)
        error = excinfo.value
        assert error.kind == "error"
        assert error.shard == (0, 3)  # trial 2 lives in the first shard
        assert error.attempts == 2
        assert isinstance(error.cause, ValueError)

    def test_timeout_raises_structured(self):
        started = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_checkpointed_trials(sleeping_trial, 1, 0, workers=1,
                                max_shard_retries=0, shard_timeout=0.2)
        assert excinfo.value.kind == "timeout"
        assert excinfo.value.shard == (0, 1)
        # The engine gave up on the hung worker instead of joining it.
        assert time.perf_counter() - started < 0.9

    def test_finished_shards_survive_a_failure(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        with pytest.raises(ParallelExecutionError):
            run_checkpointed_trials(raising_trial, 12, 0, workers=2,
                                max_shard_retries=0, shard_size=3,
                                checkpoint_path=path, checkpoint_every=1)
        # Later shards completed and remain resumable on disk.
        assert list_shard_checkpoints(path)

    def test_checkpoint_written_and_shards_cleaned(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        results = run_checkpointed_trials(draw_trial, 20, 3, workers=2,
                                      checkpoint_path=path,
                                      checkpoint_every=2, shard_size=4)
        payload = json.loads(open(path).read())
        assert payload["completed"] == 20
        assert payload["results"] == results
        assert payload["meta"]["seed"] == 3
        assert list_shard_checkpoints(path) == []

    def test_resumes_canonical_checkpoint(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        full = run_checkpointed_trials(draw_trial, 10, 5, workers=2,
                                   checkpoint_path=path)
        # Truncate to a 4-trial prefix and resume.
        save_checkpoint(path, {"seed": 5, "trials": 10}, full[:4])
        resumed = run_checkpointed_trials(draw_trial, 10, 5, workers=3,
                                      checkpoint_path=path)
        assert resumed == full

    def test_oversized_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        save_checkpoint(path, {"seed": 0, "trials": 2}, [1, 2, 3])
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(draw_trial, 2, 0, workers=1,
                                checkpoint_path=path)


class TestWorkerRngIsolation:
    """Regression: forked workers must not replay inherited RNG state.

    A worker inherits the parent's module-level default-seed stream on
    fork; if trial code fell back to it, every worker would replay the
    *same* stream and observe correlated draws.  The worker entry point
    therefore clears the default seed, and all sampling derives from the
    per-trial substream.
    """

    def test_worker_entry_clears_inherited_default_seed(self):
        set_default_seed(123)
        try:
            # Run the worker body in-process: it must clear the default
            # seed before executing any trial.
            _, _, probes = _shard_worker(
                default_seed_probe_trial, (), 0, 0, 3, None, 1,
                {"seed": 0, "trials": 3})
            assert probes == [None, None, None]
            assert get_default_seed() is None
        finally:
            set_default_seed(None)

    def test_two_workers_never_observe_correlated_draws(self):
        # Two "workers" that both inherited the same parent default seed
        # run adjacent shards: their per-trial results must all be
        # distinct (substream-keyed), never a replay of one another.
        set_default_seed(77)
        try:
            _, _, left = _shard_worker(draw_trial, (), 11, 0, 6, None, 1,
                                       {"seed": 11, "trials": 12})
        finally:
            set_default_seed(None)
        set_default_seed(77)
        try:
            _, _, right = _shard_worker(draw_trial, (), 11, 6, 12, None, 1,
                                        {"seed": 11, "trials": 12})
        finally:
            set_default_seed(None)
        assert left + right == reference(12, 11)
        assert not set(left) & set(right)

    def test_parallel_matches_serial_despite_parent_default_seed(self):
        set_default_seed(42)
        try:
            results = run_checkpointed_trials(draw_trial, 8, 2, workers=2)
        finally:
            set_default_seed(None)
        assert results == reference(8, 2)
