"""Struct-of-arrays wear state batched across devices and instances.

:class:`WearState` holds the complete mutable state of ``B`` independent
fabricated instances of one N-copies x (k-of-n) architecture:

==================  ===========  ====================================
array               shape/dtype  meaning
==================  ===========  ====================================
``lifetime``        (B, C, n) f8 sampled lifetime of every switch
``used``            (B, C, n) i8 actuation cycles consumed so far
``bank_accesses``   (B, C)    i8 access attempts seen by each bank
``bank_dead``       (B, C)    ?  dead-latch (monotonic, never clears)
``current``         (B,)      i8 active copy per instance (C = spent)
``total_accesses``  (B,)      i8 architecture accesses per instance
==================  ===========  ====================================

The per-switch semantics replicate
:meth:`repro.core.device.NEMSSwitch.actuate` exactly: an actuation on a
failed switch (``used >= lifetime``) is refused without wear; otherwise
the cycle is counted and the switch closes iff ``used <= lifetime``
afterwards.  Wear is therefore a deterministic countdown, which is what
makes the closed-form :meth:`WearState.run_to_exhaustion` possible: a
k-of-n bank serves exactly the k-th largest ``floor(lifetime)`` among
its switches, serially-consumed banks add their budgets, and the final
per-switch wear has an explicit formula.  The stepped kernel
(:meth:`step_access`) and the closed form are differentially pinned
against each other and against the object-mode reference bank, which
steps one switch object at a time
(``tests/differential/_reference.py``), in ``tests/engine`` and
``tests/differential``.

Fabrication draws one value per switch from the device model in the same
generator order as the scalar path (copy 0 switches, then copy 1, ...),
so a batched state is bit-identical to ``B`` sequential scalar builds -
see ``docs/engine.md`` for the full argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.variation import NoVariation, ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.engine import telemetry
from repro.errors import ConfigurationError
from repro.obs.recorder import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.hooks import VectorFaultHook
    from repro.engine.views import SwitchView

__all__ = ["WearState", "check_lifetimes"]


def check_lifetimes(lifetime: np.ndarray) -> None:
    """Refuse lifetimes the engine cannot count.

    The engine counts every switch's wear and its budget,
    ``floor(lifetime)``, in int64, so each lifetime must lie in
    ``[0, 2**63)``: a NaN, infinite or larger one raises
    :class:`~repro.errors.ConfigurationError`.  Fabrication and
    :class:`WearState` both check here.
    """
    if lifetime.size and not (0 <= lifetime.min()
                              and lifetime.max() < 2.0 ** 63):
        raise ConfigurationError(
            f"lifetimes must be finite and in [0, 2**63), got values from "
            f"{float(lifetime.min())!r} to {float(lifetime.max())!r}: the "
            f"device model samples lifetimes the engine cannot count")


class WearState:
    """Batched wear state of ``B`` instances x ``C`` copies x ``n`` switches."""

    __slots__ = ("lifetime", "used", "bank_accesses", "bank_dead",
                 "current", "total_accesses", "k", "vector_hook", "_views")

    def __init__(self, lifetime: np.ndarray, k: int,
                 vector_hook: "VectorFaultHook | None" = None) -> None:
        lifetime = np.asarray(lifetime, dtype=np.float64)
        if lifetime.ndim != 3:
            raise ConfigurationError(
                f"lifetime array must be (instances, copies, n), got "
                f"shape {lifetime.shape}")
        instances, copies, n = lifetime.shape
        if instances < 1 or copies < 1 or n < 1:
            raise ConfigurationError(
                "need at least one instance, one copy and one switch")
        check_lifetimes(lifetime)
        if not 1 <= k <= n:
            raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.lifetime = lifetime
        self.used = np.zeros((instances, copies, n), dtype=np.int64)
        self.bank_accesses = np.zeros((instances, copies), dtype=np.int64)
        self.bank_dead = np.zeros((instances, copies), dtype=bool)
        self.current = np.zeros(instances, dtype=np.int64)
        self.total_accesses = np.zeros(instances, dtype=np.int64)
        self.k = int(k)
        self.vector_hook = vector_hook
        self._views: dict[tuple[int, int, int], "SwitchView"] = {}

    # ------------------------------------------------------------------
    # Construction
    @classmethod
    def from_lifetimes(cls, lifetimes: np.ndarray, k: int,
                       vector_hook: "VectorFaultHook | None" = None,
                       ) -> "WearState":
        """Adopt pre-sampled lifetimes (any array reshapeable to 3-D)."""
        lifetimes = np.asarray(lifetimes, dtype=np.float64)
        if lifetimes.ndim == 2:
            lifetimes = lifetimes[np.newaxis]
        return cls(lifetimes, k, vector_hook=vector_hook)

    @classmethod
    def fabricate(cls, model: WeibullDistribution, instances: int,
                  copies: int, n: int, k: int, rng: np.random.Generator,
                  variation: ProcessVariation | None = None,
                  vector_hook: "VectorFaultHook | None" = None,
                  ) -> "WearState":
        """Fabricate ``instances`` independent architectures from ``model``.

        The generator order matches the scalar build exactly: without
        process variation, one batched inverse-transform draw consumes
        the same ``(instances * copies * n)`` uniforms - in the same
        order - as the scalar path's per-copy ``sample(size=n)`` calls;
        with variation the per-(instance, copy) loop preserves each
        model perturbation/sampling interleaving verbatim.
        """
        if instances < 1:
            raise ConfigurationError("instances must be >= 1")
        if copies < 1:
            raise ConfigurationError("need at least one copy")
        if variation is None or isinstance(variation, NoVariation):
            lifetimes = np.asarray(
                model.sample(size=(instances, copies, n), rng=rng),
                dtype=np.float64)
        else:
            lifetimes = np.empty((instances, copies, n), dtype=np.float64)
            for b in range(instances):
                for c in range(copies):
                    lifetimes[b, c] = variation.sample_lifetimes(model, n,
                                                                 rng)
        return cls(lifetimes, k, vector_hook=vector_hook)

    # ------------------------------------------------------------------
    # Geometry
    @property
    def instances(self) -> int:
        return self.lifetime.shape[0]

    @property
    def copies(self) -> int:
        return self.lifetime.shape[1]

    @property
    def n(self) -> int:
        return self.lifetime.shape[2]

    @property
    def device_count(self) -> int:
        """Switches per instance."""
        return self.copies * self.n

    @property
    def is_pristine(self) -> bool:
        """True while no access or external wear has touched the state."""
        return not (self.total_accesses.any() or self.bank_accesses.any()
                    or self.used.any() or self.bank_dead.any())

    @property
    def exhausted(self) -> np.ndarray:
        """Per-instance exhaustion mask (every copy consumed)."""
        return self.current >= self.copies

    # ------------------------------------------------------------------
    # Scalar escape hatch
    def view(self, instance: int, copy: int, index: int) -> "SwitchView":
        """The cached per-switch view at ``(instance, copy, index)``.

        Views are cached so repeated lookups return the *same* object -
        the per-switch fault reference keys tables on ``switch_id`` and
        tests compare views by identity.
        """
        key = (instance, copy, index)
        cached = self._views.get(key)
        if cached is None:
            from repro.engine.views import SwitchView

            if not (0 <= instance < self.instances
                    and 0 <= copy < self.copies and 0 <= index < self.n):
                raise ConfigurationError(
                    f"switch coordinate {key} outside state shape "
                    f"{self.lifetime.shape}")
            cached = SwitchView(self, instance, copy, index)
            self._views[key] = cached
        return cached

    def bank_views(self, instance: int, copy: int) -> list["SwitchView"]:
        """All ``n`` cached views of one bank, in switch order."""
        return [self.view(instance, copy, i) for i in range(self.n)]

    # ------------------------------------------------------------------
    # Budgets (pure functions of the sampled lifetimes)
    def switch_budgets(self) -> np.ndarray:
        """Closing actuations each switch can serve: ``floor(lifetime)``."""
        return np.floor(self.lifetime).astype(np.int64)

    def saturated_wear(self) -> np.ndarray:
        """Cycle count each switch saturates at if actuated forever.

        ``floor(lifetime)`` closing cycles, plus the one counted-but-open
        cycle a fractional lifetime still admits before ``is_failed``
        latches (integer lifetimes refuse that extra cycle outright).
        """
        budgets = self.switch_budgets()
        return budgets + (self.lifetime > budgets)

    def bank_budgets(self) -> np.ndarray:
        """Accesses each k-of-n bank serves: the k-th largest budget."""
        budgets = self.switch_budgets()
        if self.k == 1:
            return budgets.max(axis=2)
        split = self.n - self.k
        return np.partition(budgets, split, axis=2)[:, :, split]

    # ------------------------------------------------------------------
    # Remaining budgets (functions of lifetimes AND accumulated wear)
    #
    # Each query takes an optional ``rows`` index into the instance axis
    # (an int, a slice or an integer array) and returns exactly the
    # full-state result indexed by ``rows``, at the cost of those rows.
    def remaining_switch_closes(self, rows=None) -> np.ndarray:
        """Closing actuations each switch can still serve.

        A switch with ``used < lifetime`` has ``floor(lifetime) - used``
        closes left (``used`` never exceeds ``floor(lifetime)`` while the
        switch is alive); a failed switch has none.
        """
        lifetime, used = ((self.lifetime, self.used) if rows is None
                          else (self.lifetime[rows], self.used[rows]))
        return np.where(used < lifetime,
                        np.floor(lifetime).astype(np.int64) - used, 0)

    def remaining_bank_budgets(self, rows=None) -> np.ndarray:
        """Accesses each bank can still serve (0 for dead-latched banks)."""
        rem = self.remaining_switch_closes(rows)
        if self.k == 1:
            out = rem.max(axis=-1)
        else:
            split = self.n - self.k
            out = np.partition(rem, split, axis=-1)[..., split]
        dead = self.bank_dead if rows is None else self.bank_dead[rows]
        return np.where(dead, 0, out)

    def remaining_capacity(self, rows=None) -> np.ndarray:
        """Per-instance accesses still servable from the current state.

        Sums the remaining budgets of every reachable bank (the current
        copy onward, dead banks excluded).  Pure query - no state is
        mutated and fault hooks are ignored, so with a hook attached
        this is the hook-free upper bound.
        """
        current = self.current if rows is None else self.current[rows]
        reachable = (np.arange(self.copies)
                     >= np.asarray(current)[..., np.newaxis])
        return np.where(reachable, self.remaining_bank_budgets(rows),
                        0).sum(axis=-1)

    def wear_observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-switch censored lifetime observations for endurance fits.

        Returns ``(values, events, touched)``, each shaped ``(B, C, n)``:
        ``values`` is the accumulated cycle count of every switch as a
        float, ``events`` marks failed switches (their count is an exact
        lifetime up to the interval ``(used - 1, used]`` a discrete
        countdown can resolve) and ``touched`` marks switches with any
        wear at all.  A touched, unfailed switch is a right-censored
        observation - its lifetime provably exceeds its current wear -
        while untouched switches carry no information and must be
        excluded from fits.  Pure query; nothing is mutated.
        """
        touched = self.used > 0
        events = touched & (self.used >= self.lifetime)
        return self.used.astype(np.float64), events, touched

    # ------------------------------------------------------------------
    # Stepped kernel
    def step_access(self, rows) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
        """Serve one architecture access to each listed instance.

        ``rows`` is a 1-D array of distinct instance indices; only those
        rows are read or written.  Each non-exhausted row attempts its
        current bank; a bank that fails to close ``k`` paths latches
        dead and the access falls over to the next copy within the same
        step, exactly like :meth:`repro.core.hardware.SerialCopies.access`.
        The fault hook sees the actuated rows in the order given.

        Returns ``(success, served_copy, observed)`` aligned with
        ``rows``: whether each access was served (``False`` for rows
        already exhausted or exhausted during this step), the copy that
        served it (-1 when none did) and the ``(len(rows), n)`` observed
        closure row of that serving bank (all ``False`` when none did).

        Raises :class:`~repro.errors.ConfigurationError` before touching
        any array when ``rows`` repeats an index or leaves
        ``[0, instances)``: a repeated row would serve two accesses for
        one wear cycle.
        """
        rows = np.asarray(rows)
        if rows.ndim != 1 or not (rows.size == 0 or np.issubdtype(
                rows.dtype, np.integer)):
            raise ConfigurationError(
                f"rows must be a 1-D array of instance indices, got "
                f"dtype {rows.dtype} and shape {rows.shape}")
        rows = rows.astype(np.int64, copy=False)
        if rows.size and (rows.min() < 0 or rows.max() >= self.instances):
            raise ConfigurationError(
                f"rows must lie in [0, {self.instances}), got "
                f"{rows.min()}..{rows.max()}")
        if rows.size > 1 and len(set(rows.tolist())) != rows.size:
            raise ConfigurationError("rows must not repeat an instance")
        success = np.zeros(rows.size, dtype=bool)
        served_copy = np.full(rows.size, -1, dtype=np.int64)
        served_observed = np.zeros((rows.size, self.n), dtype=bool)
        # Positions into ``rows`` still attempting, in the given order.
        pending = np.flatnonzero(self.current[rows] < self.copies)
        self.total_accesses[rows[pending]] += 1
        while pending.size:
            b = rows[pending]
            c = self.current[b]
            keep = np.zeros(pending.size, dtype=bool)
            live = ~self.bank_dead[b, c]
            at = pending
            if not live.all():
                # A dead current bank (only reachable through external
                # state manipulation) is skipped without wear, like the
                # scalar path.
                skip = b[~live]
                self.current[skip] += 1
                keep[~live] = self.current[skip] < self.copies
                b, c, at = b[live], c[live], pending[live]
                if b.size == 0:
                    pending = pending[keep]
                    continue
            self.bank_accesses[b, c] += 1
            lifetime = self.lifetime[b, c]               # (m, n) copies
            used = self.used[b, c]
            alive = used < lifetime
            used += alive  # a failed switch is refused the cycle
            self.used[b, c] = used
            closed = used <= lifetime
            closed &= alive
            physical = closed.sum(axis=1)
            if self.vector_hook is not None:
                observed = self.vector_hook.on_bank_actuate(self, b, c,
                                                            closed)
                served = observed.sum(axis=1) >= self.k
                # The dead-latch keys on *physical* closures so a
                # transient misfire cannot condemn a healthy bank, while
                # an observed (stuck-closed) recovery keeps a physically
                # dead bank serving.
                latch = ~served & (physical < self.k)
            else:
                observed = closed
                served = physical >= self.k
                latch = ~served
            won = at[served]
            success[won] = True
            served_copy[won] = c[served]
            served_observed[won] = observed[served]
            fell_over = ~served
            if fell_over.any():
                db, dc = b[fell_over], c[fell_over]
                lb = latch[fell_over]
                self.bank_dead[db[lb], dc[lb]] = True
                if OBS.enabled and lb.any():
                    telemetry.record_batch_exhaustion(
                        self.bank_accesses[db[lb], dc[lb]], 0, self.copies,
                        np.empty(0))
                self.current[db] += 1
            keep[live] = fell_over & (self.current[b] < self.copies)
            pending = pending[keep]
        if OBS.enabled:
            exhausted = ~success & (self.current[rows] >= self.copies)
            if exhausted.any():
                telemetry.record_batch_exhaustion(
                    np.empty(0), int(exhausted.sum()), self.copies,
                    self.total_accesses[rows[exhausted]])
        return success, served_copy, served_observed

    # ------------------------------------------------------------------
    # Closed form
    def run_to_exhaustion(self, max_accesses: int | None = None,
                          ) -> np.ndarray:
        """Drive every instance to destruction (or the cap); vectorized.

        Returns the per-instance count of successfully served accesses -
        the empirical access bound - and leaves every array in the exact
        state a switch-by-switch drive would have produced (pinned by
        ``tests/engine``).  With a fault hook attached the countdown is
        no longer deterministic and the stepped kernel is used instead;
        a touched (non-pristine) hook-free state goes through the
        generalized closed form :meth:`_run_closed_touched`.
        """
        if max_accesses is not None and max_accesses < 0:
            raise ConfigurationError("max_accesses must be >= 0")
        if self.vector_hook is not None:
            return self._run_stepped(max_accesses)
        if not self.is_pristine:
            return self._run_closed_touched(max_accesses)
        bank_budget = self.bank_budgets()                     # (B, C)
        totals = bank_budget.sum(axis=1)                      # (B,)
        cum = bank_budget.cumsum(axis=1)                      # (B, C)
        copies = self.copies
        if max_accesses is None:
            served = totals
            fully_dead = np.ones(self.instances, dtype=bool)
            active_copy = np.full(self.instances, copies, dtype=np.int64)
            attempts = bank_budget + 1
            self.total_accesses[:] = totals + 1
        else:
            cap = int(max_accesses)
            served = np.minimum(totals, cap)
            fully_dead = totals < cap
            # First copy whose cumulative budget reaches the cap; == C
            # for instances that exhaust before it.
            active_copy = (cum < cap).sum(axis=1)
            copy_index = np.arange(copies)[np.newaxis, :]
            attempts = np.where(copy_index < active_copy[:, np.newaxis],
                                bank_budget + 1, 0)
            clamped = np.minimum(active_copy, copies - 1)
            prev_served = np.where(
                active_copy > 0,
                np.take_along_axis(
                    cum, np.maximum(active_copy - 1, 0)[:, np.newaxis],
                    axis=1)[:, 0],
                0)
            rows = np.flatnonzero(~fully_dead & (active_copy < copies))
            attempts[rows, clamped[rows]] = cap - prev_served[rows]
            self.total_accesses[:] = np.where(fully_dead, totals + 1, cap)
        self.used[:] = np.minimum(self.saturated_wear(),
                                  attempts[:, :, np.newaxis])
        self.bank_accesses[:] = attempts
        self.bank_dead[:] = (np.arange(copies)[np.newaxis, :]
                             < active_copy[:, np.newaxis])
        self.current[:] = active_copy
        if OBS.enabled:
            telemetry.record_batch_exhaustion(
                self.bank_accesses[self.bank_dead], int(fully_dead.sum()),
                copies, self.total_accesses[fully_dead])
        return served

    def _run_closed_touched(self, max_accesses: int | None) -> np.ndarray:
        """Closed form generalized to arbitrary hook-free starting states.

        The countdown from a touched state is still deterministic: each
        reachable live bank serves exactly its *remaining* budget (the
        k-th largest ``floor(lifetime) - used`` among its live switches)
        and the same serial-consumption argument as the pristine form
        applies, with dead-latched and already-passed copies contributing
        zero.  Already-exhausted instances are left untouched, like the
        stepped kernel.  Pinned bit-identical to :meth:`_run_stepped`
        from randomized touched states in ``tests/engine``.
        """
        served = np.zeros(self.instances, dtype=np.int64)
        active = ~self.exhausted
        if max_accesses == 0 or not active.any():
            return served
        copies = self.copies
        copy_index = np.arange(copies)[np.newaxis, :]
        reachable = (active[:, np.newaxis]
                     & (copy_index >= self.current[:, np.newaxis])
                     & ~self.bank_dead)
        eff = np.where(reachable, self.remaining_bank_budgets(), 0)
        totals = eff.sum(axis=1)
        cum = eff.cumsum(axis=1)
        if max_accesses is None:
            exhausting = active
            served[active] = totals[active]
            active_copy = np.where(active, copies, self.current)
        else:
            cap = int(max_accesses)
            exhausting = active & (totals < cap)
            served[active] = np.minimum(totals, cap)[active]
            # Final copy: pre-current and dead banks contribute zero to
            # ``cum`` so they are stepped past exactly as the kernel's
            # skip-without-wear path does; a row whose cumulative budget
            # hits the cap exactly leaves ``current`` on the serving
            # (unlatched) bank.
            active_copy = np.where(active, (cum < cap).sum(axis=1),
                                   self.current)
        exhausted_banks = reachable & (copy_index < active_copy[:, np.newaxis])
        # Every fully-drained bank absorbs its remaining budget plus the
        # one failing attempt that latches it and falls over.
        attempts = np.where(exhausted_banks, eff + 1, 0)
        if max_accesses is not None:
            clamped = np.minimum(active_copy, copies - 1)
            prev_served = np.where(
                active_copy > 0,
                np.take_along_axis(
                    cum, np.maximum(active_copy - 1, 0)[:, np.newaxis],
                    axis=1)[:, 0],
                0)
            rows = np.flatnonzero(active & ~exhausting
                                  & (active_copy < copies))
            attempts[rows, clamped[rows]] = cap - prev_served[rows]
        # Each attempt wears every still-live switch of the bank by one
        # cycle until it saturates; failed switches are refused wear.
        wearing = self.used < self.lifetime
        grown = np.minimum(self.used + attempts[:, :, np.newaxis],
                           self.saturated_wear())
        self.used[:] = np.where(wearing, grown, self.used)
        self.bank_accesses += attempts
        self.bank_dead |= exhausted_banks
        self.current[:] = active_copy
        self.total_accesses += served + exhausting
        if OBS.enabled:
            telemetry.record_batch_exhaustion(
                self.bank_accesses[exhausted_banks],
                int(exhausting.sum()), copies,
                self.total_accesses[exhausting])
        return served

    def _run_stepped(self, max_accesses: int | None) -> np.ndarray:
        served = np.zeros(self.instances, dtype=np.int64)
        while True:
            active = ~self.exhausted
            if max_accesses is not None:
                active &= served < max_accesses
            rows = np.flatnonzero(active)
            if rows.size == 0:
                return served
            served[rows] += self.step_access(rows)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WearState(instances={self.instances}, "
                f"copies={self.copies}, n={self.n}, k={self.k}, "
                f"exhausted={int(self.exhausted.sum())})")
