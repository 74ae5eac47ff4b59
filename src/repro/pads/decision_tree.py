"""Hardware decision trees built from NEMS switches (Section 6.2).

Geometry (consistent with Figure 7 and Eqs. 9/11): a tree of height ``H``
has ``H`` switch levels and ``2**(H-1)`` leaves; a traversal actuates one
switch per level, so a path crosses ``H`` switches and there are
``2**(H-1)`` distinct paths.  Level ``1`` is a single entry switch;
levels ``2..H`` branch left/right on the path bits.  Leaves are
read-destructive shift registers holding the candidate random keys.

A traversal wears every switch it touches whether or not it reaches the
leaf - which is why adversarial path-guessing destroys the tree quickly.

Since the :mod:`repro.engine` refactor the per-switch wear lives in one
flat ``(1, 1, switch_count)`` :class:`~repro.engine.state.WearState`.
A traversal updates the ``H`` touched cells with one fancy index per
call; :meth:`HardwareDecisionTree.path_switches` still hands out
per-switch :class:`~repro.engine.views.SwitchView` objects (cached,
identity-stable) so tests keep poking individual switches.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.device import ReadDestructiveRegister
from repro.core.variation import ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.engine.views import SwitchView
from repro.errors import ConfigurationError, RegisterDestroyedError
from repro.obs.recorder import OBS

__all__ = ["path_bits_to_leaf", "HardwareDecisionTree"]


def path_bits_to_leaf(path: str) -> int:
    """Map a branch-bit string ('0' left, '1' right) to a leaf index."""
    if path == "":
        return 0
    if any(c not in "01" for c in path):
        raise ConfigurationError("path must be a string of 0s and 1s")
    return int(path, 2)


class HardwareDecisionTree:
    """One fabricated decision tree with keys in its leaves.

    Parameters
    ----------
    height:
        Number of switch levels ``H`` (so ``2**(H-1)`` leaves).  A path is
        described by ``H - 1`` branch bits.
    leaf_contents:
        The byte string for each leaf, length ``2**(H-1)``.  One leaf is
        the real (share of the) key; the rest are decoys drawn from the
        same distribution so a captured tree reveals nothing about which
        path is right.
    """

    def __init__(self, height: int, leaf_contents: list[bytes],
                 device: WeibullDistribution, rng: np.random.Generator,
                 variation: ProcessVariation | None = None) -> None:
        if height < 1:
            raise ConfigurationError("tree height must be >= 1")
        leaves = 2 ** (height - 1)
        if len(leaf_contents) != leaves:
            raise ConfigurationError(
                f"height {height} needs {leaves} leaves, got "
                f"{len(leaf_contents)}")
        self.height = height
        # Level i (1-based) has 1 switch at i=1 and 2**(i-1) at i>1; we
        # index switches within each level by the path prefix.  All of
        # them live in one flat engine state row, fabricated in the same
        # draw order as the historical per-switch batch.
        switch_count = 1 + sum(2 ** (i - 1) for i in range(2, height + 1))
        self._state = WearState.fabricate(device, 1, 1, switch_count, 1,
                                          rng, variation)
        all_switches = self._state.bank_views(0, 0)
        self._levels: list[list[SwitchView]] = []
        cursor = 0
        for level in range(1, height + 1):
            width = 1 if level == 1 else 2 ** (level - 1)
            self._levels.append(all_switches[cursor:cursor + width])
            cursor += width
        self._lifetime_row = self._state.lifetime[0, 0]
        self._used_row = self._state.used[0, 0]
        self._path_cache: dict[int, np.ndarray] = {}
        self._registers = [ReadDestructiveRegister(c) for c in leaf_contents]
        self.traversals = 0

    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return 2 ** (self.height - 1)

    @property
    def n_paths(self) -> int:
        return self.n_leaves

    @property
    def switch_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def _leaf_index(self, path: str) -> int:
        if len(path) != self.height - 1:
            raise ConfigurationError(
                f"path must have {self.height - 1} bits for height "
                f"{self.height}")
        return path_bits_to_leaf(path)

    def _path_indices(self, leaf: int) -> np.ndarray:
        """Flat state indices of the H switches on the path to ``leaf``.

        Level 1 sits at flat index 0; level ``i >= 2`` starts at
        ``2**(i-1) - 1`` and is indexed by the first ``i - 1`` path bits.
        """
        cached = self._path_cache.get(leaf)
        if cached is None:
            indices = [0]
            for level in range(2, self.height + 1):
                base = (1 << (level - 1)) - 1
                indices.append(base + (leaf >> (self.height - level)))
            cached = np.array(indices, dtype=np.intp)
            self._path_cache[leaf] = cached
        return cached

    def path_switches(self, path: str) -> list[SwitchView]:
        """The H switches a traversal of ``path`` actuates."""
        leaf = self._leaf_index(path)
        return [self._levels[0][0]] + [
            self._levels[level - 1][leaf >> (self.height - level)]
            for level in range(2, self.height + 1)]

    def traverse(self, path: str) -> bytes | None:
        """Attempt one traversal; returns the leaf contents or None.

        All ``H`` switches along the path must close; every switch touched
        is worn by the attempt (including on failed traversals).  Reading
        the leaf destroys it, so a second successful traversal of the same
        path returns None as well.
        """
        if not OBS.enabled:
            return self._traverse(path)
        started = time.perf_counter()
        try:
            return self._traverse(path)
        finally:
            OBS.metrics.inc("pads.traversals")
            OBS.metrics.observe("pads.traverse_s",
                                time.perf_counter() - started)

    def _traverse(self, path: str) -> bytes | None:
        self.traversals += 1
        leaf = self._leaf_index(path)
        # One fancy-indexed update of the H touched cells, with exact
        # per-switch actuate semantics (a failed switch takes no further
        # wear; a fractional remainder still closes once).
        idx = self._path_indices(leaf)
        sel_life = self._lifetime_row[idx]
        sel_used = self._used_row[idx]
        alive = sel_used < sel_life
        new_used = sel_used + alive
        self._used_row[idx] = new_used
        if not bool(np.all(alive & (new_used <= sel_life))):
            return None
        try:
            return self._registers[leaf].read()
        except RegisterDestroyedError:
            return None
