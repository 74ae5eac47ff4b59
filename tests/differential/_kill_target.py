"""Subprocess target for the SIGKILL mid-campaign differential test.

Runs a pooled access-bound campaign against a checkpoint path given
on the command line.  The parent test polls the canonical checkpoint
for progress and SIGKILLs this process group mid-flight; nothing here
cooperates with the kill, which is the point.

Usage: python _kill_target.py CHECKPOINT_PATH TRIALS SEED
"""

import sys


def main() -> None:
    checkpoint_path, trials, seed = (sys.argv[1], int(sys.argv[2]),
                                     int(sys.argv[3]))
    from repro.core.degradation import PAPER_CRITERIA
    from repro.core.sizing import size_architecture
    from repro.sim.montecarlo import simulate_access_bounds_checkpointed

    design = size_architecture(10.0, 8.0, 200, k_fraction=0.10,
                               criteria=PAPER_CRITERIA,
                               window="fractional")
    simulate_access_bounds_checkpointed(
        design, trials, seed, checkpoint_path=checkpoint_path,
        checkpoint_every=2, workers=2, shard_size=20)


if __name__ == "__main__":
    main()
