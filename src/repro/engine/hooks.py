"""Fault-hook interfaces for the vectorized engine.

The scalar injectors of :mod:`repro.faults.injectors` are written per
switch (``on_switch_actuate``); the batched engine actuates a whole bank
row per instance in one kernel, so its hook site is bank-granular:
:class:`VectorFaultHook` receives the physical closure matrix of every
bank actuated this step and returns the *observed* one.

Every shipped actuation injector has a *native* batched implementation
here (``Vector*``), and :func:`vector_hook_for` composes them into a
:class:`VectorFaultPipeline` for mixed-injector models.  Readout-site
injectors have no actuation stage at all: their batched work happens in
:meth:`repro.faults.injectors.FaultModel.on_shares_readout`.  Stage-major
evaluation (one injector across the whole batch, then the next) consumes
each injector's dedicated substream in exactly the scalar cell-major
order, because an injector's draw condition at one switch depends only
on that switch's state after the earlier stages - see
``docs/fault_vectorization.md`` for the porting recipe and the full
bit-identity argument.  The scalar per-switch reference these natives
are checked against lives with the tests (``tests/differential``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.state import WearState

__all__ = ["VectorFaultHook", "VectorTransientMisfire",
           "VectorPrematureStuckOpen", "VectorStuckClosedConversion",
           "VectorTemperatureDrift", "VectorFaultPipeline",
           "vector_hook_for"]


@runtime_checkable
class VectorFaultHook(Protocol):
    """Batched fault-injection site consulted after each bank actuation."""

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        """Observe/modify one batched bank actuation.

        ``closed`` is the ``(m, n)`` physical closure matrix of the
        banks at ``(instances[j], copies[j])``; the return value is the
        observed closure matrix of the same shape.  Implementations may
        mutate switch state through ``state`` (e.g. extra wear) but must
        not serve or count accesses themselves.
        """
        ...  # pragma: no cover - protocol


class VectorTransientMisfire:
    """Native batched :class:`~repro.faults.injectors.TransientMisfire`.

    The scalar injector draws one uniform per *closed* switch, in
    instance-major then switch-index order, and suppresses the closure
    when the draw lands under ``rate``.  PCG64's ``rng.random(size=m)``
    produces exactly the same stream as ``m`` successive scalar
    ``rng.random()`` calls, so drawing one batch over the row-major
    closed positions reproduces the scalar fault-RNG stream bit for bit
    (pinned in ``tests/engine/test_hooks.py``) - without ``m`` Python
    round-trips through the per-switch injector.

    Injection counts are written back to the wrapped injector so
    campaign stats stay in one place.
    """

    def __init__(self, injector, rng: np.random.Generator) -> None:
        self.injector = injector
        self.rng = rng

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        rate = self.injector.rate
        if not rate:
            return closed
        m = int(np.count_nonzero(closed))      # draws, row-major order
        if m == 0:
            return closed
        misfired = self.rng.random(m) < rate
        if not misfired.any():
            return closed
        flat = np.flatnonzero(closed)          # row-major == scalar order
        observed = closed.copy()
        observed.flat[flat[misfired]] = False
        self.injector.injections += int(misfired.sum())
        return observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorTransientMisfire(rate={self.injector.rate})"


class VectorPrematureStuckOpen:
    """Native batched :class:`~repro.faults.injectors.PrematureStuckOpen`.

    The scalar injector draws one uniform per *live* switch (``used <
    lifetime`` after this round's actuation - a failed switch is
    skipped without a draw), in row-major order.  A hit collapses the
    switch's lifetime to the wear already spent
    (:meth:`~repro.engine.views.SwitchView.force_fail`) and reports the
    switch open this round regardless of its physical closure.
    """

    def __init__(self, injector, rng: np.random.Generator) -> None:
        self.injector = injector
        self.rng = rng

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        rate = self.injector.rate
        if not rate:
            return closed
        if instances.size == 1:
            # Single-bank round (the per-access path): basic-index row
            # views instead of fancy-index gathers, same draw order.
            b0, c0 = instances[0], copies[0]
            used = state.used[b0, c0]
            alive_cols = (used < state.lifetime[b0, c0]).nonzero()[0]
            if alive_cols.size == 0:
                return closed
            fired = self.rng.random(alive_cols.size) < rate
            if not fired.any():
                return closed
            cols = alive_cols[fired]
            # force_fail: lifetime <- min(lifetime, used) == used (alive).
            state.lifetime[b0, c0, cols] = used[cols]
            observed = closed.copy()
            observed[0, cols] = False
            self.injector.injections += int(cols.size)
            return observed
        alive = (state.used[instances, copies]
                 < state.lifetime[instances, copies])
        flat = np.flatnonzero(alive)           # row-major == scalar order
        if flat.size == 0:
            return closed
        fired = self.rng.random(flat.size) < rate
        if not fired.any():
            return closed
        rows, cols = np.unravel_index(flat[fired], closed.shape)
        b, c = instances[rows], copies[rows]
        # force_fail: lifetime <- min(lifetime, used) == used (alive).
        state.lifetime[b, c, cols] = state.used[b, c, cols]
        observed = closed.copy()
        observed[rows, cols] = False
        self.injector.injections += int(fired.sum())
        return observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorPrematureStuckOpen(rate={self.injector.rate})"


class VectorStuckClosedConversion:
    """Native batched :class:`~repro.faults.injectors.StuckClosedConversion`.

    The scalar injector visits every switch in instance-major then
    switch-index order, ignores switches that closed or are still alive,
    and decides each dead-open switch's fate *once*: a single uniform
    draw under ``probability`` converts it to stuck-closed forever (no
    draw at all when ``probability`` is zero - the scalar code
    short-circuits before touching the RNG).  The undecided dead-open
    positions of one batched actuation are exactly the row-major
    ``True`` cells of ``~closed & (used >= lifetime)``, so one
    ``rng.random(m)`` batch replays the scalar stream bit for bit.

    Decisions are keyed by ``(instance, copy, index)`` coordinates
    rather than :class:`~repro.engine.views.SwitchView` identities,
    which are process-lifetime counters and therefore meaningless after
    a restart; the service snapshots this map and rebuilds it verbatim.
    """

    def __init__(self, injector, rng: np.random.Generator) -> None:
        self.injector = injector
        self.rng = rng
        #: ``(instance, copy, index) -> sticky`` - every dead switch's
        #: one-time conversion verdict.
        self.converted: dict[tuple[int, int, int], bool] = {}

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        if instances.size == 1:
            b0, c0 = instances[0], copies[0]
            failed = state.used[b0, c0] >= state.lifetime[b0, c0]
            candidates = ~closed[0] & failed
            if not candidates.any():
                return closed
            cols = candidates.nonzero()[0]     # row-major == scalar order
            rows = np.zeros(cols.size, dtype=np.intp)
            bi, ci = int(b0), int(c0)
            keys = [(bi, ci, c) for c in cols.tolist()]
        else:
            failed = (state.used[instances, copies]
                      >= state.lifetime[instances, copies])
            candidates = ~closed & failed
            if not candidates.any():
                return closed
            rows, cols = np.nonzero(candidates)  # row-major == scalar order
            keys = [(int(instances[r]), int(copies[r]), int(c))
                    for r, c in zip(rows, cols)]
        undecided = [j for j, key in enumerate(keys)
                     if key not in self.converted]
        probability = self.injector.probability
        if undecided and probability:
            draws = self.rng.random(len(undecided))
            for draw, j in zip(draws, undecided):
                sticky = bool(draw < probability)
                self.converted[keys[j]] = sticky
                if sticky:
                    self.injector.injections += 1
        else:
            for j in undecided:
                self.converted[keys[j]] = False
        stuck = [j for j, key in enumerate(keys) if self.converted[key]]
        if not stuck:
            return closed
        observed = closed.copy()
        observed[rows[stuck], cols[stuck]] = True
        return observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VectorStuckClosedConversion("
                f"probability={self.injector.probability}, "
                f"converted={len(self.converted)})")


class VectorTemperatureDrift:
    """Native batched :class:`~repro.faults.injectors.TemperatureDrift`.

    The scalar injector skips failed switches without a draw, applies
    ``int(extra)`` whole cycles of hidden wear to every live switch, and
    draws one uniform per live switch (only when the fractional part is
    nonzero) to apply the fractional remainder stochastically.  Closure
    observations are never altered - drift only burns budget.
    """

    def __init__(self, injector, rng: np.random.Generator) -> None:
        self.injector = injector
        self.rng = rng

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        extra = self.injector._extra_wear
        if extra <= 0.0:
            return closed
        whole = int(extra)
        if instances.size == 1 and whole == 0:
            # Single-bank round, sub-cycle drift (the common campaign
            # shape): one draw per live switch, hits add one cycle.
            b0, c0 = instances[0], copies[0]
            used = state.used[b0, c0]
            alive_cols = (used < state.lifetime[b0, c0]).nonzero()[0]
            if alive_cols.size == 0:
                return closed
            hit = self.rng.random(alive_cols.size) < extra
            total = int(np.count_nonzero(hit))
            if total:
                cols = alive_cols[hit]
                used[cols] += 1
                self.injector.injections += total
            return closed
        alive = (state.used[instances, copies]
                 < state.lifetime[instances, copies])
        flat = np.flatnonzero(alive)           # row-major == scalar order
        if flat.size == 0:
            return closed
        frac = extra - whole
        cycles = np.full(flat.size, whole, dtype=np.int64)
        if frac:
            cycles += self.rng.random(flat.size) < frac
        total = int(cycles.sum())
        if not total:
            return closed
        hit = cycles > 0
        rows, cols = np.unravel_index(flat[hit], closed.shape)
        b, c = instances[rows], copies[rows]
        state.used[b, c, cols] += cycles[hit]
        self.injector.injections += total
        return closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VectorTemperatureDrift("
                f"temperature_c={self.injector.temperature_c})")


class VectorFaultPipeline:
    """Ordered composition of native hooks, one stage per injector.

    Stage-major evaluation of a mixed-injector model: each stage reads
    the observed-closure matrix left by the previous stage plus the live
    switch state (which earlier stages' per-cell mutations have already
    updated), exactly what the scalar per-switch pipeline sees cell by
    cell.  With per-injector RNG substreams the two orders consume every
    stream identically, so the pipeline is bit-identical to the scalar
    model - without the per-switch Python round-trips.
    """

    def __init__(self, hooks) -> None:
        self.hooks = list(hooks)

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        for hook in self.hooks:
            closed = hook.on_bank_actuate(state, instances, copies, closed)
        return closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorFaultPipeline({self.hooks!r})"


def vector_hook_for(hook) -> "VectorFaultHook | None":
    """The engine hook equivalent to the :class:`~repro.faults.FaultModel`
    ``hook``.

    Each injector that overrides
    :meth:`~repro.faults.injectors.FaultInjector.on_switch_actuate` gets
    its registered native batched implementation, drawing from that
    injector's own substream - composed into a
    :class:`VectorFaultPipeline` when there is more than one.  An
    injector that does not override it has no actuation stage: it draws
    nothing at the actuation site, so leaving it out changes neither an
    observation nor a stream.  A model with no actuation stage (and
    ``None``) gives ``None``, so the engine runs hook-free.

    Raises :class:`~repro.errors.ConfigurationError` for a hook that is
    not a ``FaultModel`` and for an actuation injector without a native:
    the engine has no per-switch fallback.
    """
    if hook is None:
        return None
    from repro.faults.injectors import (
        FaultInjector,
        FaultModel,
        PrematureStuckOpen,
        StuckClosedConversion,
        TemperatureDrift,
        TransientMisfire,
    )

    if not isinstance(hook, FaultModel):
        raise ConfigurationError(
            f"fault hook {hook!r} is not a FaultModel; the engine has no "
            f"per-switch fallback")
    natives = {TransientMisfire: VectorTransientMisfire,
               PrematureStuckOpen: VectorPrematureStuckOpen,
               StuckClosedConversion: VectorStuckClosedConversion,
               TemperatureDrift: VectorTemperatureDrift}
    stages = []
    for injector, stream in zip(hook.injectors, hook.streams):
        kind = type(injector)
        if kind.on_switch_actuate is FaultInjector.on_switch_actuate:
            continue
        native = natives.get(kind)
        if native is None:
            raise ConfigurationError(
                f"fault injector {kind.__name__} overrides "
                f"on_switch_actuate but has no native vector hook")
        stages.append(native(injector, stream))
    if not stages:
        return None
    if len(stages) == 1:
        return stages[0]
    return VectorFaultPipeline(stages)
