"""Atomic JSON checkpoints for long Monte Carlo campaigns.

A checkpoint is one JSON object on disk:

.. code-block:: json

    {
      "schema_version": 1,
      "meta":      {"seed": 0, "trials": 1000, "...": "campaign identity"},
      "completed": 412,
      "results":   ["... one JSON-safe entry per finished trial ..."]
    }

``meta`` captures everything that determines the campaign's trajectory
(seed, trial count, design, fault configuration); resuming validates it
field-by-field so a checkpoint can never silently continue a *different*
campaign.  Writes go through a temp file + ``os.replace`` so a kill at
any instant leaves either the old or the new checkpoint, never a torn
one - which, combined with per-trial RNG substreams
(:func:`repro.sim.rng.substream`), makes a resumed campaign bit-identical
to an uninterrupted run.

Parallel campaigns (:mod:`repro.sim.parallel`) add **shard checkpoints**:
the same payload shape with a ``meta["shard"] = [start, stop]`` entry
naming the contiguous trial range the file covers.  Workers write shard
files next to the canonical checkpoint (``<path>.shard-<start>-<stop>``);
the parent merges them back into the canonical prefix-ordered form via
:func:`merge_shard_payloads`, which rejects overlapping ranges and
mixed schema versions instead of silently mixing campaigns.
"""

from __future__ import annotations

import glob
import json
import os
import time

from repro.errors import CheckpointMismatchError, ConfigurationError
from repro.obs.recorder import OBS

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "validate_checkpoint",
    "shard_checkpoint_path",
    "list_shard_checkpoints",
    "merge_shard_payloads",
]

SCHEMA_VERSION = 1


def save_checkpoint(path: str, meta: dict, results: list) -> None:
    """Atomically persist campaign progress to ``path``."""
    if OBS.enabled:
        started = time.perf_counter()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "completed": len(results),
        "results": results,
    }
    # The temp name is pid-unique: parallel campaigns can have an
    # abandoned (timed-out) worker and its replacement flush the same
    # shard concurrently, and sharing one temp file would interleave
    # their writes.  Distinct temp files keep os.replace atomic per
    # writer; both write identical deterministic content, so whichever
    # replace lands last is correct.
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        # json.dump always streams through CPython's pure-Python
        # encoder; json.dumps takes the C encoder for the same text.
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if OBS.enabled:
        OBS.metrics.inc("checkpoint.saves")
        OBS.metrics.observe("checkpoint.save_s",
                            time.perf_counter() - started)
        OBS.event("checkpoint.saved", path=path, completed=len(results))


def load_checkpoint(path: str) -> dict | None:
    """Load a checkpoint; None when ``path`` does not exist."""
    if not os.path.exists(path):
        return None
    if OBS.enabled:
        started = time.perf_counter()
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"corrupt checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint schema in {path!r}")
    results = payload.get("results")
    if not isinstance(results, list) \
            or payload.get("completed") != len(results):
        raise ConfigurationError(
            f"inconsistent checkpoint {path!r}: completed count does not "
            f"match stored results")
    if OBS.enabled:
        OBS.metrics.inc("checkpoint.loads")
        OBS.metrics.observe("checkpoint.load_s",
                            time.perf_counter() - started)
    return payload


def validate_checkpoint(payload: dict, meta: dict, path: str) -> list:
    """Check a loaded checkpoint belongs to this campaign; return results.

    Raises :class:`CheckpointMismatchError` naming the first mismatching
    meta field, so a seed or design change cannot silently resume stale
    state.  The CLI maps this error to a distinct exit code (2) so
    automation can tell "checkpoint belongs to another campaign" apart
    from ordinary campaign failures.
    """
    stored = payload.get("meta", {})
    for key, expected in meta.items():
        if stored.get(key) != expected:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} belongs to a different campaign: "
                f"meta[{key!r}] is {stored.get(key)!r}, expected "
                f"{expected!r}; delete the file or match the parameters")
    return payload["results"]


def shard_checkpoint_path(base_path: str, start: int, stop: int) -> str:
    """The shard-file path for trial range ``[start, stop)`` of a campaign.

    The range is embedded in the name so shards planned under different
    worker counts never collide, and a worker resuming its own shard
    finds exactly its previous partial progress.
    """
    if not 0 <= start <= stop:
        raise ConfigurationError(
            f"shard range must satisfy 0 <= start <= stop, "
            f"got [{start}, {stop})")
    return f"{base_path}.shard-{start:08d}-{stop:08d}"


def list_shard_checkpoints(base_path: str) -> list[str]:
    """Every shard-checkpoint file written next to ``base_path``, sorted.

    The pattern pins the exact ``-<8 digits>-<8 digits>`` shape so the
    torn ``.tmp.<pid>`` files a SIGKILL can leave behind are never
    picked up as shards (they are not atomic-complete JSON).
    """
    digits = "[0-9]" * 8
    return sorted(glob.glob(
        f"{glob.escape(base_path)}.shard-{digits}-{digits}"))


def merge_shard_payloads(payloads: list[dict], trials: int) -> dict[int, object]:
    """Merge loaded shard payloads into one ``{trial_index: result}`` map.

    Each payload must carry ``meta["shard"] = [start, stop]`` and hold
    ``completed`` results for indices ``start .. start + completed``
    (a partially-finished shard is fine; an *empty* shard contributes
    nothing).  Raises :class:`ConfigurationError` when two shards claim
    the same trial index, when a shard's range falls outside the
    campaign, when a shard holds more results than its range, or when
    the payloads disagree on ``schema_version`` - any of which means the
    files on disk belong to more than one campaign generation.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    merged: dict[int, object] = {}
    owner: dict[int, tuple[int, int]] = {}
    versions = {payload.get("schema_version") for payload in payloads}
    if len(versions) > 1:
        raise ConfigurationError(
            f"shard checkpoints disagree on schema_version "
            f"({sorted(map(str, versions))}); they were written by "
            f"different campaign generations - delete the stale ones")
    for payload in payloads:
        shard = payload.get("meta", {}).get("shard")
        if (not isinstance(shard, (list, tuple)) or len(shard) != 2
                or not all(isinstance(v, int) for v in shard)):
            raise ConfigurationError(
                f"shard checkpoint lacks a valid meta['shard'] range, "
                f"got {shard!r}")
        start, stop = shard
        if not 0 <= start <= stop <= trials:
            raise ConfigurationError(
                f"shard range [{start}, {stop}) falls outside the "
                f"{trials}-trial campaign")
        results = payload["results"]
        if len(results) > stop - start:
            raise ConfigurationError(
                f"shard [{start}, {stop}) holds {len(results)} results "
                f"for a {stop - start}-trial range")
        for offset, result in enumerate(results):
            index = start + offset
            if index in merged:
                raise ConfigurationError(
                    f"shards [{owner[index][0]}, {owner[index][1]}) and "
                    f"[{start}, {stop}) both claim trial {index}; "
                    f"overlapping shard checkpoints cannot be merged")
            merged[index] = result
            owner[index] = (start, stop)
    return merged
