"""SIGKILL a parallel campaign mid-flight; resume must be bit-identical.

The campaign runs in a subprocess (its own session, so the kill takes
the whole worker pool down with it), gets SIGKILLed as soon as the
canonical checkpoint shows partial progress, and is then resumed
*in-process under a different worker count*.  The resumed results and
the final canonical checkpoint bytes must equal an uninterrupted run's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.sim.checkpoint import list_shard_checkpoints
from repro.sim.montecarlo import simulate_access_bounds_checkpointed

from tests.differential.conftest import paper_design

TRIALS = 800
SEED = 31
KILL_TARGET = os.path.join(os.path.dirname(__file__), "_kill_target.py")
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))
POLL_S = 0.01
LAUNCH_TIMEOUT_S = 120.0


def _read_completed(path: str) -> int:
    """Completed-trial count in the canonical checkpoint, 0 if not yet."""
    try:
        with open(path, encoding="utf-8") as handle:
            return int(json.load(handle)["completed"])
    except (OSError, ValueError, KeyError):
        # Not written yet (or mid-replace on a non-atomic filesystem).
        return 0


@pytest.mark.slow
def test_sigkill_then_resume_under_different_worker_count(tmp_path):
    checkpoint = str(tmp_path / "campaign.ckpt")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    # Own session: killpg reaps the pool workers too, exactly like a
    # machine going down, leaving canonical + shard files as they were.
    proc = subprocess.Popen(
        [sys.executable, KILL_TARGET, checkpoint, str(TRIALS), str(SEED)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while _read_completed(checkpoint) < 1:
            if proc.poll() is not None:
                stderr = proc.stderr.read().decode(errors="replace")
                pytest.fail(
                    f"campaign exited (rc={proc.returncode}) before it "
                    f"could be killed mid-flight:\n{stderr}")
            if time.monotonic() > deadline:
                pytest.fail("campaign made no checkpoint progress "
                            f"within {LAUNCH_TIMEOUT_S}s")
            time.sleep(POLL_S)
        os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        proc.stderr.close()

    interrupted_at = _read_completed(checkpoint)
    assert 1 <= interrupted_at < TRIALS, \
        f"kill landed outside the campaign window ({interrupted_at})"

    # Resume under a different worker count than the killed run's 2.
    design = paper_design(200)
    resumed = simulate_access_bounds_checkpointed(
        design, TRIALS, SEED, checkpoint_path=checkpoint,
        checkpoint_every=2, workers=3, shard_size=20)

    # Uninterrupted reference: same campaign, never killed, serial.
    reference_path = str(tmp_path / "reference.ckpt")
    reference = simulate_access_bounds_checkpointed(
        design, TRIALS, SEED, checkpoint_path=reference_path,
        checkpoint_every=2)

    assert np.array_equal(resumed, reference)
    with open(checkpoint, "rb") as resumed_file, \
            open(reference_path, "rb") as reference_file:
        assert resumed_file.read() == reference_file.read()
    # The resume absorbed and removed every orphaned shard file.
    assert list_shard_checkpoints(checkpoint) == []
