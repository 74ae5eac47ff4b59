"""Tests for checkpoint IO, substreams, and the checkpointed runner."""

import json
import os

import numpy as np
import pytest

from repro.core.degradation import PAPER_CRITERIA, solve_encoded_fractional
from repro.core.serialize import design_to_dict
from repro.core.weibull import WeibullDistribution
from repro.errors import CheckpointMismatchError, ConfigurationError
from repro.sim import montecarlo
from repro.sim.checkpoint import (
    list_shard_checkpoints,
    load_checkpoint,
    save_checkpoint,
    shard_checkpoint_path,
    validate_checkpoint,
)
from repro.sim.montecarlo import simulate_access_bounds_checkpointed
from repro.sim.parallel import run_checkpointed_trials
from repro.sim.rng import (
    get_default_seed,
    make_rng,
    set_default_seed,
    spawn_rngs,
    substream,
)


@pytest.fixture(scope="module")
def design():
    device = WeibullDistribution(alpha=9.0, beta=8.0)
    return solve_encoded_fractional(device, 30, 0.10, PAPER_CRITERIA)


class TestSubstream:
    def test_keyed_by_seed_and_index_only(self):
        a = substream(7, 3).random(5)
        b = substream(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_matches_spawn_semantics(self):
        spawned = spawn_rngs(7, 4)[3].random(5)
        direct = substream(7, 3).random(5)
        assert np.array_equal(spawned, direct)

    def test_distinct_indices_are_independent(self):
        assert not np.array_equal(substream(7, 0).random(5),
                                  substream(7, 1).random(5))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            substream(7, -1)


class TestDefaultSeedPolicy:
    def test_default_seed_makes_make_rng_reproducible(self):
        try:
            set_default_seed(99)
            assert get_default_seed() == 99
            first = make_rng().random(4)
            set_default_seed(99)
            again = make_rng().random(4)
            assert np.array_equal(first, again)
        finally:
            set_default_seed(None)
        assert get_default_seed() is None

    def test_explicit_seed_overrides_policy(self):
        try:
            set_default_seed(99)
            assert np.array_equal(make_rng(5).random(4),
                                  np.random.default_rng(5).random(4))
        finally:
            set_default_seed(None)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        meta = {"seed": 1, "trials": 3}
        save_checkpoint(path, meta, [10, 20])
        payload = load_checkpoint(path)
        assert payload["completed"] == 2
        assert validate_checkpoint(payload, meta, path) == [10, 20]

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent.json")) is None

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(path))

    def test_inconsistent_completed_count_rejected(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text(json.dumps({"schema_version": 1, "meta": {},
                                    "completed": 5, "results": [1]}))
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(path))

    def test_meta_mismatch_names_the_field(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, {"seed": 1}, [1])
        payload = load_checkpoint(path)
        with pytest.raises(ConfigurationError, match="seed"):
            validate_checkpoint(payload, {"seed": 2}, path)

    def test_write_is_atomic(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, {}, [1])
        save_checkpoint(path, {}, [1, 2])
        assert not os.path.exists(path + ".tmp")
        assert load_checkpoint(path)["completed"] == 2


class TestCheckpointedRunner:
    @staticmethod
    def trial(index, rng):
        return [index, float(rng.random())]

    def test_results_independent_of_interruption(self, tmp_path):
        path = str(tmp_path / "run.json")
        straight = run_checkpointed_trials(self.trial, 10, seed=3)

        calls = {"n": 0}

        def dying_trial(index, rng):
            calls["n"] += 1
            if calls["n"] > 4:  # simulate a kill mid-campaign
                raise KeyboardInterrupt
            return self.trial(index, rng)

        with pytest.raises(KeyboardInterrupt):
            run_checkpointed_trials(dying_trial, 10, seed=3,
                                    checkpoint_path=path,
                                    checkpoint_every=2)
        assert load_checkpoint(path)["completed"] == 4
        resumed = run_checkpointed_trials(self.trial, 10, seed=3,
                                          checkpoint_path=path,
                                          checkpoint_every=2)
        assert resumed == straight

    def test_completed_campaign_is_not_rerun(self, tmp_path):
        path = str(tmp_path / "run.json")
        first = run_checkpointed_trials(self.trial, 5, seed=3,
                                        checkpoint_path=path)

        def exploding(index, rng):  # would fail if any trial re-ran
            raise AssertionError("trial re-executed")

        again = run_checkpointed_trials(exploding, 5, seed=3,
                                        checkpoint_path=path)
        assert again == first

    def test_oversized_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "run.json")
        run_checkpointed_trials(self.trial, 5, seed=3,
                                checkpoint_path=path)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(self.trial, 3, seed=3,
                                    checkpoint_path=path)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(self.trial, 0, seed=3)
        with pytest.raises(ConfigurationError):
            run_checkpointed_trials(self.trial, 1, seed=3,
                                    checkpoint_every=0)


class TestCheckpointedAccessBounds:
    def test_fast_path_deterministic_and_resumable(self, design, tmp_path):
        path = str(tmp_path / "mc.json")
        straight = simulate_access_bounds_checkpointed(design, 8, seed=11)
        resumed_half = simulate_access_bounds_checkpointed(
            design, 8, seed=11, checkpoint_path=path, checkpoint_every=3)
        assert np.array_equal(straight, resumed_half)
        # Re-running from the completed checkpoint changes nothing.
        again = simulate_access_bounds_checkpointed(
            design, 8, seed=11, checkpoint_path=path)
        assert np.array_equal(straight, again)

    def test_other_campaign_rejected(self, design, tmp_path):
        path = str(tmp_path / "mc.json")
        simulate_access_bounds_checkpointed(design, 3, seed=2,
                                            checkpoint_path=path)
        other = solve_encoded_fractional(WeibullDistribution(9.0, 8.0), 40,
                                         0.10, PAPER_CRITERIA)
        with pytest.raises(CheckpointMismatchError, match="'design'"):
            simulate_access_bounds_checkpointed(other, 3, seed=2,
                                                checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError, match="'seed'"):
            simulate_access_bounds_checkpointed(design, 3, seed=4,
                                                checkpoint_path=path)

    def test_in_process_resume_absorbs_pool_shards(self, design, tmp_path,
                                                   monkeypatch):
        # A killed 2-worker run of 40 trials left shards [10, 20) and
        # [20, 30) on disk and no canonical prefix.
        straight = simulate_access_bounds_checkpointed(design, 40, seed=5)
        path = str(tmp_path / "mc.json")
        meta = {"seed": 5, "trials": 40, "design": design_to_dict(design)}
        for start, stop in ((10, 20), (20, 30)):
            save_checkpoint(shard_checkpoint_path(path, start, stop),
                            {**meta, "shard": [start, stop]},
                            straight[start:stop].tolist())
        ran = []
        trial = montecarlo._access_bound_trial

        def counted(index, *args):
            ran.append(index)
            return trial(index, *args)

        monkeypatch.setattr(montecarlo, "_access_bound_trial", counted)
        resumed = simulate_access_bounds_checkpointed(
            design, 40, seed=5, checkpoint_path=path, checkpoint_every=4)
        assert ran == list(range(10)) + list(range(30, 40))
        assert list_shard_checkpoints(path) == []
        assert np.array_equal(resumed, straight)
        assert load_checkpoint(path)["results"] == straight.tolist()

    def test_hardware_mode_checkpoint_resumes(self, design, tmp_path):
        # Checkpoints written with the retired hardware mode carry a
        # "mode" meta entry; that mode returned the same bounds.
        straight = simulate_access_bounds_checkpointed(design, 10, seed=2)
        path = str(tmp_path / "mc.json")
        save_checkpoint(path, {"seed": 2, "trials": 10,
                               "design": design_to_dict(design),
                               "mode": "hardware"},
                        straight[:4].tolist())
        resumed = simulate_access_bounds_checkpointed(
            design, 10, seed=2, checkpoint_path=path)
        assert np.array_equal(resumed, straight)
