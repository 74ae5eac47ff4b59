"""Reproducible random-number plumbing.

Experiments spawn independent generator streams from one root seed so
results are reproducible and parallel-safe regardless of evaluation order.

Three mechanisms cooperate:

- :func:`make_rng` / :func:`spawn_rngs` - the classic explicit-seed API;
- :func:`substream` - a *positionally* deterministic per-trial stream:
  ``substream(seed, i)`` depends only on ``(seed, i)``, never on how many
  other streams were created first.  Checkpointed Monte Carlo campaigns
  use it so a resumed run replays trial ``i`` bit-identically;
- :func:`set_default_seed` - a process-wide root for code paths whose
  callers did not thread a generator through.  Library fallbacks route
  through :func:`make_rng`, so setting a default seed makes an entire
  fault-injection campaign reproducible end-to-end even across modules
  that historically grabbed ``np.random.default_rng()`` ad hoc.

:func:`uniforms_and_bytes` is the one place that knows how NumPy lays a
generator's stream out, so fabrication can take a tenant's draws in one
call where they come out bit for bit as the separate calls would.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_rng",
    "jumped_rng",
    "make_rng",
    "spawn_rngs",
    "substream",
    "set_default_seed",
    "get_default_seed",
    "uniforms_and_bytes",
]

#: Process-wide fallback seeding policy (None = non-reproducible).
_default_seed: int | None = None
_default_root: np.random.SeedSequence | None = None


def set_default_seed(seed: int | None) -> None:
    """Install (or clear, with None) a process-wide fallback seed.

    After ``set_default_seed(s)``, every :func:`make_rng` call *without*
    an explicit seed returns the next child stream of one root
    ``SeedSequence(s)`` instead of an OS-entropy generator.  Streams are
    handed out in call order, so end-to-end reproducibility additionally
    requires a deterministic call sequence - which is exactly what the
    checkpointed campaigns guarantee via :func:`substream`.
    """
    global _default_seed, _default_root
    _default_seed = seed
    _default_root = None if seed is None else np.random.SeedSequence(seed)


def get_default_seed() -> int | None:
    """The seed installed by :func:`set_default_seed` (None if unset)."""
    return _default_seed


def make_rng(seed: int | None = None) -> np.random.Generator:
    """A fresh generator; seeded when ``seed`` is given.

    With ``seed=None`` and a process default installed via
    :func:`set_default_seed`, returns the next derived stream of that
    default; otherwise an OS-entropy generator.
    """
    if seed is None and _default_root is not None:
        return np.random.default_rng(_default_root.spawn(1)[0])
    return np.random.default_rng(seed)


def derive_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator derived from ``rng``'s current state.

    Uses the bit generator's ``jumped`` stream, so the derived generator
    never overlaps the parent's future draws.  This is the sanctioned
    way to branch a second stream off a caller-supplied generator
    (e.g. fault draws vs fabrication draws) without consuming from it.
    """
    return np.random.default_rng(rng.bit_generator.jumped())


def jumped_rng(rng: np.random.Generator, jumps: int) -> np.random.Generator:
    """The ``jumps``-th jumped stream of ``rng``'s current state.

    Like :func:`derive_rng` but indexed: ``jumped_rng(rng, i)`` lands
    2^127 * i draws ahead of ``rng``, giving a family of non-overlapping
    substreams keyed by position.  :class:`repro.faults.FaultModel`
    assigns injector ``i`` the substream ``jumped_rng(root, i + 1)`` -
    the contract that lets each injector's batched sites draw
    independently of the others.
    """
    if jumps < 1:
        raise ValueError(f"jumps must be >= 1, got {jumps}")
    return np.random.default_rng(rng.bit_generator.jumped(jumps))


def uniforms_and_bytes(rng: np.random.Generator, rounds: int, doubles: int,
                       nbytes: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``rounds`` rounds of draws from ``rng``, taken as one block.

    Each round is ``rng.random(doubles)`` followed by
    ``rng.integers(0, 256, nbytes, dtype=np.uint8)``; the draw order is
    unchanged.  Returns the ``(rounds, doubles)`` uniforms and the
    ``(rounds, nbytes)`` bytes those calls would return, from one
    ``bit_generator.random_raw`` call that leaves ``rng`` where they
    would, or None where the block would not reproduce them and the
    caller must make the calls.  NumPy's layout, which this function
    alone relies on: a double is ``(word >> 11) * 2**-53`` of one 64-bit
    word, as ``Generator.random`` makes it, and full-range uint8 draws
    are the little-endian bytes of successive 32-bit halves of words,
    low half first.  The block reproduces the calls only for a
    :class:`numpy.random.PCG64` generator with no buffered 32-bit half
    (``has_uint32`` is 0), and only if ``nbytes`` fills whole words, so
    no round leaves a half buffered for the next.
    """
    bit_generator = rng.bit_generator
    if (nbytes % 8 or type(rng) is not np.random.Generator
            or type(bit_generator) is not np.random.PCG64
            or bit_generator.state["has_uint32"]):
        return None
    words = doubles + nbytes // 8
    block = bit_generator.random_raw(rounds * words).reshape(rounds, words)
    uniforms = (block[:, :doubles] >> 11) * 2.0 ** -53
    octets = block[:, doubles:].astype("<u8", copy=False).view(np.uint8)
    return uniforms, octets


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from one root seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def substream(seed: int, index: int) -> np.random.Generator:
    """The ``index``-th independent stream of root ``seed``.

    Equivalent to ``spawn_rngs(seed, index + 1)[index]`` but O(1):
    the stream is keyed directly by ``(seed, index)``, so trial ``i`` of
    a campaign draws the same numbers whether the campaign ran straight
    through or was killed and resumed from a checkpoint.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.default_rng(seq)
