"""Monte Carlo validation of the analytic architecture models.

Two simulation paths measure the *empirical access bound* of a fabricated
architecture (how many accesses a real instance serves before dying):

- :func:`simulate_access_bounds` - vectorized order-statistics form, fast
  enough for the full smartphone design (hundreds of thousands of
  devices).  Uses the identity that a k-of-n bank of devices with integer
  actuation budgets ``floor(lifetime)`` serves exactly the k-th largest
  budget, and serially-consumed banks add their contributions.
- :func:`simulate_access_bounds_hardware` - drives the stateful
  :class:`~repro.core.hardware.SerialCopies` switch by switch; slow but
  assumption-free, and the only path with process variation and an
  access cap.  Given the same generator both paths return the same
  bounds, which ``tests/differential/test_fast_vs_hardware.py`` pins.

Long campaigns are made interruption-safe by
:func:`repro.sim.parallel.run_checkpointed_trials`: trial ``i`` always
draws from the RNG substream keyed ``(seed, i)``
(:func:`repro.sim.rng.substream`) and finished trials are persisted via
:mod:`repro.sim.checkpoint`, so a campaign killed at any point resumes
bit-identically, in this process or on a worker pool.
:func:`simulate_access_bounds_checkpointed` applies this to the access
bound measurement; :mod:`repro.faults.campaign` applies it to
fault-injection campaigns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.degradation import DesignPoint
from repro.core.serialize import design_to_dict
from repro.core.variation import NoVariation, ProcessVariation
from repro.engine.state import WearState
from repro.errors import ConfigurationError
from repro.obs.recorder import OBS
from repro.sim.parallel import run_checkpointed_trials

__all__ = [
    "AccessBoundSummary",
    "simulate_access_bounds",
    "simulate_access_bounds_checkpointed",
    "simulate_access_bounds_hardware",
    "summarize_bounds",
]


@dataclass(frozen=True)
class AccessBoundSummary:
    """Distribution summary of empirical access bounds over trials."""

    trials: int
    mean: float
    std: float
    minimum: int
    maximum: int
    p01: float
    p50: float
    p99: float

    def meets_lower_bound(self, bound: int) -> bool:
        """True when even the worst observed instance served ``bound``."""
        return self.minimum >= bound


def summarize_bounds(bounds: np.ndarray) -> AccessBoundSummary:
    """Summarize a vector of empirical access bounds (mean, percentiles)."""
    bounds = np.asarray(bounds)
    if bounds.size == 0:
        raise ConfigurationError("no trials to summarize")
    return AccessBoundSummary(
        trials=int(bounds.size),
        mean=float(bounds.mean()),
        std=float(bounds.std()),
        minimum=int(bounds.min()),
        maximum=int(bounds.max()),
        p01=float(np.percentile(bounds, 1)),
        p50=float(np.percentile(bounds, 50)),
        p99=float(np.percentile(bounds, 99)),
    )


def simulate_access_bounds(design: DesignPoint, trials: int,
                           rng: np.random.Generator,
                           max_copies_per_chunk: int = 4_000_000,
                           ) -> np.ndarray:
    """Empirical access bounds of ``trials`` fabricated instances (fast path).

    Samples per-device lifetimes from the design's Weibull, converts each
    bank to its served-access count (k-th largest integer budget), and sums
    across the serially-consumed copies.  Memory is bounded by chunking.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if OBS.enabled:
        started = time.perf_counter()
    n, k, copies = design.n, design.k, design.copies
    per_trial_cells = copies * n
    chunk_trials = max(1, int(max_copies_per_chunk // max(per_trial_cells, 1)))
    totals = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(chunk_trials, trials - done)
        lifetimes = design.device.sample(size=(batch, copies, n), rng=rng)
        budgets = np.floor(lifetimes).astype(np.int64)
        if k == 1:
            bank_life = budgets.max(axis=2)
        else:
            # k-th largest = (n - k)-th order statistic via partition.
            part = np.partition(budgets, n - k, axis=2)
            bank_life = part[:, :, n - k]
        totals[done:done + batch] = bank_life.sum(axis=1)
        done += batch
    if OBS.enabled:
        elapsed = time.perf_counter() - started
        OBS.metrics.inc("mc.trials", trials)
        OBS.metrics.observe("mc.fast_batch_s", elapsed)
        if elapsed > 0:
            OBS.metrics.set_gauge("mc.trials_per_s", trials / elapsed)
    return totals


def _access_bound_trial(index: int, rng: np.random.Generator,
                        design: DesignPoint) -> int:
    """One checkpointable access-bound trial, drawing only from ``rng``.

    Module-level (rather than a closure) so a worker pool can ship it to
    its processes by qualified name.
    """
    return int(simulate_access_bounds(design, 1, rng)[0])


def simulate_access_bounds_checkpointed(design: DesignPoint, trials: int,
                                        seed: int,
                                        checkpoint_path: str | None = None,
                                        checkpoint_every: int = 50,
                                        workers: int | None = None,
                                        shard_size: int | None = None,
                                        ) -> np.ndarray:
    """Interruption-safe empirical access bounds (one substream per trial).

    Unlike :func:`simulate_access_bounds` (which threads one generator
    through vectorized batches), each trial here is fabricated from its
    own ``(seed, index)`` substream, so the result vector is a pure
    function of ``(design, trials, seed)`` - resumable and
    order-independent.

    The campaign runs on :func:`repro.sim.parallel.run_checkpointed_trials`:
    ``workers=None`` in this process, ``workers=N`` on a pool of N.  Any
    mix of worker counts - including resuming a pooled run's checkpoint
    in process or vice versa - replays the same bits.
    """
    bounds = run_checkpointed_trials(
        _access_bound_trial, trials, seed, trial_args=(design,),
        workers=workers, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        meta={"design": design_to_dict(design)}, shard_size=shard_size)
    return np.asarray(bounds, dtype=np.int64)


def simulate_access_bounds_hardware(design: DesignPoint, trials: int,
                                    rng: np.random.Generator,
                                    variation: ProcessVariation | None = None,
                                    max_accesses: int | None = None,
                                    max_copies_per_chunk: int = 4_000_000,
                                    ) -> np.ndarray:
    """Empirical access bounds by driving the stateful hardware simulation.

    Exact (every access actuates every switch of the active bank) and,
    since the :mod:`repro.engine` refactor, batched: whole chunks of
    trials step together through one struct-of-arrays
    :class:`~repro.engine.state.WearState`, with fabrication draws in
    the scalar order - results are bit-identical to fabricating and
    stepping one :class:`~repro.core.hardware.SerialCopies` object per
    trial (pinned by ``tests/differential/test_engine_identity.py``),
    and invariant to ``max_copies_per_chunk``.  ``variation`` adds
    per-device parameter jitter, which the fast path does not model.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    variation = variation or NoVariation()
    n, k, copies = design.n, design.k, design.copies
    per_trial_cells = copies * n
    chunk_trials = max(1, int(max_copies_per_chunk // max(per_trial_cells, 1)))
    bounds = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        batch = min(chunk_trials, trials - done)
        state = WearState.fabricate(design.device, batch, copies, n, k,
                                    rng, variation)
        bounds[done:done + batch] = state.run_to_exhaustion(max_accesses)
        done += batch
    return bounds
