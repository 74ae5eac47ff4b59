"""Checkpointed Monte Carlo campaigns with bit-identical resume.

:func:`run_checkpointed_trials` is the one campaign runner.  Every trial
draws from its own RNG substream keyed ``(seed, index)``
(:func:`repro.sim.rng.substream`).  ``workers=None`` runs the missing
trials in index order in the calling process; ``workers=N`` partitions
them into contiguous **shards** and runs each on a
``ProcessPoolExecutor`` worker.  Because trial ``i`` never depends on
where it ran, the result vector - and the final canonical checkpoint
file - is byte-identical for **any** worker count; ``tests/differential``
holds the harness that proves it.

Checkpointing is two-level:

- each pool worker persists its shard's progress to a range-named shard
  file (``<path>.shard-<start>-<stop>``, same atomic JSON format with a
  ``meta["shard"]`` entry) every ``checkpoint_every`` trials;
- the runner keeps the **canonical** checkpoint at ``<path>``, which
  always holds the longest complete prefix of results.  Every run, in
  process or pooled, starts from that prefix plus any shard files a
  killed run left, so a campaign started with 4 workers can resume in
  process (or vice versa) and still replay bit-identically.

In process, a trial's exception propagates unchanged.  In a pool,
failure handling is structured: a worker crash (dead process), a shard
timeout, or an exception from the trial function retries the shard up to
``max_shard_retries`` times and then raises
:class:`~repro.errors.ParallelExecutionError` carrying the shard range,
attempt count and failure kind.  Either way finished trials survive the
error on disk, so the campaign resumes rather than restarts.

Trial functions have the signature ``trial_fn(index, rng, *trial_args)``
and draw **all** randomness from ``rng``; a pool needs them to be
module-level callables (workers import them by qualified name).
Workers additionally clear the process-wide default seed
(:func:`repro.sim.rng.set_default_seed`) on entry: a forked worker
inherits the parent's module-level RNG state, and two workers replaying
that shared stream would observe *correlated* draws for code that
incorrectly falls back to it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.obs.recorder import OBS
from repro.sim.checkpoint import (
    list_shard_checkpoints,
    load_checkpoint,
    merge_shard_payloads,
    save_checkpoint,
    shard_checkpoint_path,
    validate_checkpoint,
)
from repro.sim.rng import set_default_seed, substream

__all__ = [
    "SHARDS_PER_WORKER",
    "default_workers",
    "default_shard_size",
    "plan_shards",
    "run_checkpointed_trials",
]

#: Shards planned per worker: small enough to keep per-shard checkpoint
#: and merge overhead negligible, large enough that one slow shard does
#: not leave the other workers idle at the tail of a campaign.
SHARDS_PER_WORKER = 4

#: Seconds between deadline checks while waiting on shard futures.
_WAIT_TICK_S = 0.05


def default_workers() -> int:
    """The default worker count: every CPU the host exposes."""
    return os.cpu_count() or 1


def default_shard_size(trials: int, workers: int) -> int:
    """Shard size giving ~:data:`SHARDS_PER_WORKER` shards per worker."""
    return max(1, -(-trials // (workers * SHARDS_PER_WORKER)))


def plan_shards(indices: list[int], shard_size: int) -> list[tuple[int, int]]:
    """Partition sorted trial ``indices`` into contiguous ``(start, stop)``
    shards of at most ``shard_size`` trials.

    Gaps in ``indices`` (trials already completed by an earlier run)
    always break a shard, so every planned shard covers a dense range
    and can checkpoint as ``results[start:stop]``.
    """
    if shard_size < 1:
        raise ConfigurationError("shard_size must be >= 1")
    shards: list[tuple[int, int]] = []
    run_start: int | None = None
    previous = None
    for index in indices:
        if previous is not None and index <= previous:
            raise ConfigurationError(
                "trial indices must be strictly increasing")
        if run_start is None:
            run_start = index
        elif index != previous + 1 or index - run_start >= shard_size:
            shards.append((run_start, previous + 1))
            run_start = index
        previous = index
    if run_start is not None:
        shards.append((run_start, previous + 1))
    return shards


def _shard_worker(trial_fn: Callable, trial_args: tuple, seed: int,
                  start: int, stop: int, shard_path: str | None,
                  checkpoint_every: int,
                  shard_meta: dict) -> tuple[int, int, list]:
    """Run trials ``start .. stop`` on their substreams; resume from the
    shard checkpoint when one exists.  Executes inside a worker process.
    """
    # A forked worker inherits the parent's default-seed stream; replaying
    # it in every worker would hand out *identical* generators, so any
    # trial code that (against the contract) fell back to module RNG
    # state would observe correlated draws across workers.  Clearing the
    # default makes such a fallback non-reproducible OS entropy instead,
    # which the differential harness then catches as serial/parallel
    # divergence.
    set_default_seed(None)
    results: list = []
    if shard_path is not None:
        payload = load_checkpoint(shard_path)
        if payload is not None:
            results = validate_checkpoint(payload, shard_meta, shard_path)
            if len(results) > stop - start:
                raise ConfigurationError(
                    f"shard checkpoint {shard_path!r} holds {len(results)} "
                    f"results for a {stop - start}-trial shard")
    for index in range(start + len(results), stop):
        results.append(trial_fn(index, substream(seed, index), *trial_args))
        if shard_path is not None and len(results) % checkpoint_every == 0 \
                and start + len(results) < stop:
            save_checkpoint(shard_path, shard_meta, results)
    if shard_path is not None:
        save_checkpoint(shard_path, shard_meta, results)
    return start, stop, results


class _ShardState:
    """Parent-side bookkeeping for one in-flight shard."""

    __slots__ = ("start", "stop", "attempts", "submitted_at", "span")

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        self.attempts = 0
        self.submitted_at = 0.0
        self.span = None


def _absorb_shard_files(checkpoint_path: str, full_meta: dict,
                        trials: int) -> dict[int, object]:
    """Load and merge every shard checkpoint left by a previous run."""
    payloads = []
    for path in list_shard_checkpoints(checkpoint_path):
        payload = load_checkpoint(path)
        if payload is None:
            continue
        validate_checkpoint(payload, full_meta, path)
        payloads.append(payload)
    return merge_shard_payloads(payloads, trials) if payloads else {}


def run_checkpointed_trials(trial_fn: Callable, trials: int, seed: int, *,
                            trial_args: tuple = (),
                            workers: int | None = None,
                            checkpoint_path: str | None = None,
                            checkpoint_every: int = 50,
                            meta: dict | None = None,
                            shard_size: int | None = None,
                            max_shard_retries: int = 2,
                            shard_timeout: float | None = None) -> list:
    """Run ``trials`` independent trials with checkpoint/resume.

    ``trial_fn(index, rng, *trial_args)`` must return a JSON-safe result
    and draw all its randomness from ``rng`` - the substream keyed
    ``(seed, index)``.  Because the stream depends only on the trial
    index, the results are bit-identical for any ``workers``, and a
    campaign killed mid-run resumes from its checkpoint (written under
    any worker count) to an uninterrupted run's results.

    ``workers=None`` runs the trials in index order in this process and
    saves the canonical checkpoint every ``checkpoint_every`` trials; a
    trial's exception propagates unchanged.  ``workers=N`` runs shards
    of ``shard_size`` trials on a pool of N processes, so ``trial_fn``
    must then be a picklable module-level callable.
    ``shard_timeout`` bounds one shard attempt in seconds; on expiry the
    pool is abandoned and the shard retried on a fresh one.  After
    ``max_shard_retries`` failed retries a
    :class:`~repro.errors.ParallelExecutionError` surfaces the shard
    range and failure kind; completed shards stay on disk.

    ``meta`` extends the identity recorded in (and validated against)
    the checkpoint; seed and trial count are always included.  A
    checkpoint written by a different campaign raises
    :class:`~repro.errors.CheckpointMismatchError` instead of resuming.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be >= 1")
    if max_shard_retries < 0:
        raise ConfigurationError("max_shard_retries must be >= 0")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ConfigurationError("shard_timeout must be > 0")
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1")

    full_meta = {"seed": int(seed), "trials": int(trials)}
    full_meta.update(meta or {})

    done: dict[int, object] = {}
    if checkpoint_path is not None:
        payload = load_checkpoint(checkpoint_path)
        if payload is not None:
            prefix = validate_checkpoint(payload, full_meta, checkpoint_path)
            if len(prefix) > trials:
                raise ConfigurationError(
                    f"checkpoint {checkpoint_path!r} holds {len(prefix)} "
                    f"results for a {trials}-trial campaign")
            done.update(enumerate(prefix))
        # Out-of-order progress from killed workers; overlap with the
        # canonical prefix is expected (prefix wins, values identical).
        for index, result in _absorb_shard_files(
                checkpoint_path, full_meta, trials).items():
            done.setdefault(index, result)

    started = time.perf_counter()
    remaining = [i for i in range(trials) if i not in done]

    def save_canonical() -> None:
        if checkpoint_path is None:
            return
        length = 0
        while length in done:
            length += 1
        save_checkpoint(checkpoint_path, full_meta,
                        [done[i] for i in range(length)])
        for path in list_shard_checkpoints(checkpoint_path):
            payload = load_checkpoint(path)
            shard = (payload or {}).get("meta", {}).get("shard")
            if shard and shard[1] <= length:
                os.remove(path)

    if workers is None:
        _run_in_process(remaining, trial_fn, trial_args, seed,
                        checkpoint_every, done, save_canonical)
    elif remaining:
        if shard_size is None:
            shard_size = default_shard_size(trials, workers)
        _execute_shards(plan_shards(remaining, shard_size), trial_fn,
                        trial_args, seed, workers, checkpoint_path,
                        checkpoint_every, full_meta, max_shard_retries,
                        shard_timeout, done, save_canonical)

    results = [done[i] for i in range(trials)]
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, full_meta, results)
        for path in list_shard_checkpoints(checkpoint_path):
            os.remove(path)
    if OBS.enabled:
        elapsed = time.perf_counter() - started
        OBS.metrics.inc("parallel.campaigns")
        if elapsed > 0 and remaining:
            OBS.metrics.set_gauge("parallel.trials_per_s",
                                  len(remaining) / elapsed)
    return results


def _run_in_process(indices: list[int], trial_fn: Callable,
                    trial_args: tuple, seed: int, checkpoint_every: int,
                    done: dict, save_canonical: Callable[[], None]) -> None:
    """Run the trials at sorted ``indices`` here, lowest first.

    The lowest missing index is the canonical prefix's length, so every
    trial extends the prefix that ``save_canonical`` writes.
    """
    for count, index in enumerate(indices, 1):
        if OBS.enabled:
            setup_started = time.perf_counter()
            rng = substream(seed, index)
            trial_started = time.perf_counter()
            done[index] = trial_fn(index, rng, *trial_args)
            OBS.metrics.observe("mc.substream_setup_s",
                                trial_started - setup_started)
            OBS.metrics.observe("mc.trial_s",
                                time.perf_counter() - trial_started)
            OBS.metrics.inc("mc.checkpointed_trials")
        else:
            done[index] = trial_fn(index, substream(seed, index),
                                   *trial_args)
        if count % checkpoint_every == 0:
            save_canonical()


def _execute_shards(shards: list[tuple[int, int]], trial_fn: Callable,
                    trial_args: tuple, seed: int, workers: int,
                    checkpoint_path: str | None, checkpoint_every: int,
                    full_meta: dict, max_shard_retries: int,
                    shard_timeout: float | None, done: dict,
                    save_canonical: Callable[[], None]) -> None:
    """Drive the pool until every shard has completed or one fails out."""
    executor = ProcessPoolExecutor(max_workers=workers)
    pending: dict[Future, _ShardState] = {}

    def submit(state: _ShardState) -> None:
        shard_path = None
        if checkpoint_path is not None:
            shard_path = shard_checkpoint_path(checkpoint_path, state.start,
                                               state.stop)
        shard_meta = dict(full_meta)
        shard_meta["shard"] = [state.start, state.stop]
        state.attempts += 1
        state.submitted_at = time.monotonic()
        state.span = OBS.span("parallel.shard", start=state.start,
                              stop=state.stop, attempt=state.attempts)
        state.span.__enter__()
        future = executor.submit(_shard_worker, trial_fn, trial_args, seed,
                                 state.start, state.stop, shard_path,
                                 checkpoint_every, shard_meta)
        pending[future] = state

    def close_span(state: _ShardState, error: Exception | None = None) -> None:
        if state.span is not None:
            if error is not None:
                state.span.set_attr("error", type(error).__name__)
            state.span.__exit__(None, None, None)
            state.span = None

    def retry_or_raise(state: _ShardState, kind: str,
                       cause: Exception | None) -> None:
        close_span(state, cause)
        if state.attempts > max_shard_retries:
            raise ParallelExecutionError(
                f"shard [{state.start}, {state.stop}) failed "
                f"({kind}) after {state.attempts} attempts"
                + (f": {cause}" if cause is not None else ""),
                shard=(state.start, state.stop), attempts=state.attempts,
                kind=kind, cause=cause)
        if OBS.enabled:
            OBS.metrics.inc("parallel.shard_retries")
        submit(state)

    def restart_pool() -> list[_ShardState]:
        """Abandon the executor; return the states that must resubmit."""
        nonlocal executor
        states = list(pending.values())
        pending.clear()
        executor.shutdown(wait=False, cancel_futures=True)
        executor = ProcessPoolExecutor(max_workers=workers)
        return states

    try:
        for start, stop in shards:
            submit(_ShardState(start, stop))
        while pending:
            completed, _ = wait(pending, timeout=_WAIT_TICK_S,
                                return_when=FIRST_COMPLETED)
            crashed = False
            for future in completed:
                state = pending.pop(future)
                try:
                    start, stop, results = future.result()
                except BrokenProcessPool as exc:
                    # The pool is dead; every sibling future is doomed
                    # too.  Restart once and retry all victims.
                    if OBS.enabled:
                        OBS.metrics.inc("parallel.worker_crashes")
                    victims = [state] + restart_pool()
                    for victim in victims:
                        retry_or_raise(victim, "crash", exc)
                    crashed = True
                    break
                except Exception as exc:  # trial_fn raised in the worker
                    retry_or_raise(state, "error", exc)
                else:
                    done.update(enumerate(results, start))
                    if OBS.enabled:
                        OBS.metrics.inc("parallel.shards")
                        OBS.metrics.observe(
                            "parallel.shard_s",
                            time.monotonic() - state.submitted_at)
                        state.span.set_attr("trials", len(results))
                    close_span(state)
                    save_canonical()
            if crashed or shard_timeout is None:
                continue
            now = time.monotonic()
            overdue = [s for s in pending.values()
                       if now - s.submitted_at > shard_timeout]
            if overdue:
                # A hung worker cannot be cancelled; abandon the whole
                # pool and resubmit.  Innocent in-flight shards keep
                # their attempt count - only the overdue ones burn one.
                if OBS.enabled:
                    OBS.metrics.inc("parallel.shard_timeouts", len(overdue))
                victims = restart_pool()
                for victim in victims:
                    if victim in overdue:
                        retry_or_raise(victim, "timeout", None)
                    else:
                        close_span(victim)
                        victim.attempts -= 1  # resubmit reuses the attempt
                        submit(victim)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
