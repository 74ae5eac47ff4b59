"""Pluggable fault injectors for the stateful hardware simulation.

Section 2.1 of the paper lists the physical failure mechanisms of NEMS
switches - fracture and burnout (fail-secure, permanently open) but also
adhesion/stiction (fail-insecure, permanently closed) - and the wearout
model itself is only as good as the fab's characterization.
:mod:`repro.core.failure_modes` analyzes those deviations statically;
this module *injects* them into live hardware so experiments can observe
whether an architecture degrades gracefully (availability loss) or
breaks its security ceiling (extra accesses past the design bound).

Design: the stateful hardware
(:func:`~repro.core.hardware.build_serial_copies`,
:class:`~repro.connection.resilient.ResilientAccessController`, the
service's fault tenants) and
:class:`~repro.connection.keystore.BankKeyStore` accept an optional
``fault_hook`` - a :class:`FaultModel` aggregating any number of
:class:`FaultInjector` instances.  With no hook attached
the hot paths run exactly as before (a single ``is None`` branch), so
fault support costs nothing when disabled.

Each fault mechanism is one class with batched sites only.  Two sites
cover every fault in the taxonomy:

- ``on_bank_actuate(state, instances, copies, closed, rng)`` - consulted
  after each batched bank actuation with the ``(m, n)`` physical closure
  matrix; may suppress closures (misfire), permanently kill switches
  (premature stuck-open), force worn-out switches to keep conducting
  (stuck-closed conversion), or add hidden wear (temperature drift);
- ``on_shares_readout(bank_id, indices, datas, rng)`` - consulted with
  one recovery's share readouts; may corrupt the bytes (bit flips) or
  return None for a share (readout timeout: missing this attempt).

The per-switch and per-share forms these sites were derived from are
the reference semantics.  They live with the tests
(``tests/differential/_reference.py``), which pin every batched site
against them.

RNG substream contract
----------------------

Each injector draws from its *own* generator, derived from the model's
root generator at construction (``root.jumped(i + 1)`` for injector
``i``).  Per-injector streams are what make the batched sites
bit-identical to the per-switch reference: an injector's draw condition
at one switch depends only on that switch's state after the earlier
pipeline stages, so evaluating the pipeline stage-major (one injector
across all switches, the batched order) or cell-major (all injectors per
switch, the reference order) consumes every stream in exactly the same
sequence.  A shared stream would interleave draws across injectors per
switch - an order no per-injector batch can reproduce.  See
``docs/fault_vectorization.md`` for the full argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.environment import SiCTemperatureModel
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.state import WearState

__all__ = [
    "FaultInjector",
    "FaultModel",
    "TransientMisfire",
    "PrematureStuckOpen",
    "StuckClosedConversion",
    "ShareCorruption",
    "ReadoutTimeout",
    "TemperatureDrift",
]


def _check_rate(rate: float, name: str) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {rate!r}")
    return float(rate)


class FaultInjector:
    """Base class for one fault mechanism.

    The base defines no site.  A subclass defines ``on_bank_actuate``,
    ``on_shares_readout`` or both (see the module docstring for their
    signatures) and bumps ``self.injections`` whenever it actually
    perturbs an outcome, so campaigns can report how much fault pressure
    was applied.  The ``rng`` argument of a site is the injector's
    dedicated :class:`FaultModel` substream - injectors must not create
    their own, so fault draws never perturb fabrication streams.
    """

    #: Short identifier used in stats dictionaries.
    name = "fault"

    def __init__(self) -> None:
        self.injections = 0


class TransientMisfire(FaultInjector):
    """A closing switch fails to make contact *this once* (fail-secure).

    Models contact bounce / charge trapping: the switch is healthy and
    will likely close next actuation, but the current access sees it
    open.  Transient misfires can only reduce closures, so they can only
    shrink the empirical access bound - but they create exactly the
    retryable failures a resilient access layer must absorb.
    """

    name = "misfire"

    def __init__(self, rate: float) -> None:
        super().__init__()
        self.rate = _check_rate(rate, "misfire rate")

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """One uniform per *closed* switch, in row-major order.

        A closure whose draw lands under ``rate`` is suppressed.  PCG64's
        ``rng.random(size=m)`` produces exactly the stream of ``m``
        successive scalar ``rng.random()`` calls, so one batch over the
        row-major closed positions replays the per-switch reference bit
        for bit.
        """
        rate = self.rate
        if not rate:
            return closed
        m = int(np.count_nonzero(closed))      # draws, row-major order
        if m == 0:
            return closed
        misfired = rng.random(m) < rate
        if not misfired.any():
            return closed
        flat = np.flatnonzero(closed)          # row-major == scalar order
        observed = closed.copy()
        observed.flat[flat[misfired]] = False
        self.injections += int(misfired.sum())
        return observed


class PrematureStuckOpen(FaultInjector):
    """A switch fractures early, permanently, with per-actuation hazard.

    Models infant-mortality fracture the Weibull fit missed: each
    actuation carries an extra ``rate`` probability of immediate
    permanent failure regardless of remaining sampled lifetime.
    Fail-secure - it only steals budget.
    """

    name = "premature-stuck-open"

    def __init__(self, rate: float) -> None:
        super().__init__()
        self.rate = _check_rate(rate, "premature stuck-open rate")

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """One uniform per *live* switch (``used < lifetime`` after this
        round's actuation; a failed switch draws nothing), row-major.

        A hit collapses the switch's lifetime to the wear already spent
        and reports it open this round whatever its physical closure.
        """
        rate = self.rate
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
            fired = rng.random(alive_cols.size) < rate
            if not fired.any():
                return closed
            cols = alive_cols[fired]
            # force_fail: lifetime <- min(lifetime, used) == used (alive).
            state.lifetime[b0, c0, cols] = used[cols]
            observed = closed.copy()
            observed[0, cols] = False
            self.injections += int(cols.size)
            return observed
        alive = (state.used[instances, copies]
                 < state.lifetime[instances, copies])
        flat = np.flatnonzero(alive)           # row-major == scalar order
        if flat.size == 0:
            return closed
        fired = rng.random(flat.size) < rate
        if not fired.any():
            return closed
        rows, cols = np.unravel_index(flat[fired], closed.shape)
        b, c = instances[rows], copies[rows]
        # force_fail: lifetime <- min(lifetime, used) == used (alive).
        state.lifetime[b, c, cols] = state.used[b, c, cols]
        observed = closed.copy()
        observed[rows, cols] = False
        self.injections += int(fired.sum())
        return observed


class StuckClosedConversion(FaultInjector):
    """A worn-out switch sticks shut instead of open (fail-insecure).

    Models adhesion/stiction (Section 2.1's SiC nanowires that "stuck to
    the electrode").  Whether a given switch fails stuck-closed is decided
    once, at its death, with probability ``probability``; a converted
    switch conducts forever.  This is the one injected fault that can
    *raise* an architecture's empirical access bound past its security
    ceiling - the threat :mod:`repro.core.failure_modes` quantifies.

    Verdicts are keyed by ``(instance, copy, index)`` coordinates, which
    survive a restart; the service snapshots :attr:`converted` and
    rebuilds it verbatim.
    """

    name = "stuck-closed"

    def __init__(self, probability: float) -> None:
        super().__init__()
        self.probability = _check_rate(probability, "stuck-closed probability")
        #: ``(instance, copy, index) -> sticky`` - every dead switch's
        #: one-time conversion verdict.
        self.converted: dict[tuple[int, int, int], bool] = {}

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """One uniform per undecided dead-open switch, row-major.

        The candidates are the ``True`` cells of ``~closed & (used >=
        lifetime)``; only those without a verdict draw, and nothing is
        drawn when ``probability`` is zero.
        """
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
        probability = self.probability
        if undecided and probability:
            draws = rng.random(len(undecided))
            for draw, j in zip(draws, undecided):
                sticky = bool(draw < probability)
                self.converted[keys[j]] = sticky
                if sticky:
                    self.injections += 1
        else:
            for j in undecided:
                self.converted[keys[j]] = False
        stuck = [j for j, key in enumerate(keys) if self.converted[key]]
        if not stuck:
            return closed
        observed = closed.copy()
        observed[rows[stuck], cols[stuck]] = True
        return observed


class ShareCorruption(FaultInjector):
    """A readout returns bit-flipped data (decaying register cells).

    Each share readout is corrupted independently with probability
    ``rate``; a corruption flips ``flips`` random bit(s) of the payload.
    Shamir recovery silently reconstructs garbage from a corrupted
    share; the RS degradation path corrects it within the code's radius.
    """

    name = "corruption"

    def __init__(self, rate: float, flips: int = 1) -> None:
        super().__init__()
        self.rate = _check_rate(rate, "corruption rate")
        if flips < 1:
            raise ConfigurationError("flips must be >= 1")
        self.flips = int(flips)

    def on_shares_readout(self, bank_id, indices, datas, rng):
        """Speculative batch: one uniform per live share, rewound on a hit.

        The per-share reference interleaves flip-position integers into
        the stream only *after* a corruption fires.  Corruptions are rare
        at campaign rates, so we snapshot the generator, draw the whole
        uniform batch, and keep it when nothing fired (bit-identical: no
        integers would have interleaved).  On a hit the generator is
        rewound and the per-share sequence replayed exactly - the pre-hit
        uniforms re-drawn in one batch, the hit's flip integers drawn,
        then the remainder of the shares speculated again.
        """
        out = list(datas)
        rate = self.rate
        if not rate:
            return out
        if all(out):
            live = None  # common case: identity index map
            nlive = len(out)
        else:
            live = [j for j, data in enumerate(out) if data]
            nlive = len(live)
        gen = rng.bit_generator
        random = rng.random
        integers = rng.integers
        flips = self.flips
        pos = 0
        while pos < nlive:
            saved = gen.state
            flags = random(nlive - pos) < rate
            first = flags.argmax()
            if not flags[first]:
                break
            first = int(first)
            gen.state = saved
            if first:
                random(first)  # the pre-hit uniforms, verbatim
            random()           # the hit's own uniform
            hit = pos + first
            j = hit if live is None else live[hit]
            self.injections += 1
            corrupted = bytearray(out[j])
            for _ in range(flips):
                p = int(integers(0, len(corrupted)))
                corrupted[p] ^= 1 << int(integers(0, 8))
            out[j] = bytes(corrupted)
            pos = hit + 1
        return out


class ReadoutTimeout(FaultInjector):
    """A share readout times out: the share is missing this attempt.

    Fail-secure and transient - the next attempt may succeed.  Missing
    shares are erasures to the RS path and simply absent to Shamir.
    """

    name = "timeout"

    def __init__(self, rate: float) -> None:
        super().__init__()
        self.rate = _check_rate(rate, "timeout rate")

    def on_shares_readout(self, bank_id, indices, datas, rng):
        """Batched timeouts: one uniform per share reaching this stage."""
        if not self.rate:
            return list(datas)
        if None not in datas:
            alive = range(len(datas))  # common case: identity index map
        else:
            alive = [j for j, data in enumerate(datas) if data is not None]
        if not alive:
            return list(datas)
        hits = (rng.random(len(alive)) < self.rate).nonzero()[0]
        out = list(datas)
        if hits.size:
            for h in hits.tolist():
                out[alive[h]] = None
            self.injections += hits.size
        return out


class TemperatureDrift(FaultInjector):
    """Environmental heating accelerates wear (paper Section 2.1).

    Uses :class:`~repro.core.environment.SiCTemperatureModel`: at
    ``temperature_c`` the mean lifetime scales by a factor <= 1, which
    this injector realizes as ``1/factor - 1`` *extra* wear cycles per
    actuation (fractional parts applied stochastically).  Because the
    factor never exceeds 1, drift can only consume budget faster - the
    paper's "you cannot bake your way to more guesses" argument, now
    checkable against live hardware.
    """

    name = "temperature-drift"

    def __init__(self, temperature_c: float,
                 model: SiCTemperatureModel | None = None) -> None:
        super().__init__()
        model = model or SiCTemperatureModel()
        self.temperature_c = float(temperature_c)
        factor = model.lifetime_factor(self.temperature_c)
        self._extra_wear = 1.0 / factor - 1.0

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """Hidden wear on every live switch; observations never change.

        Failed switches are skipped without a draw.  Every live switch
        takes ``int(extra)`` whole cycles, plus one more when its uniform
        (drawn only when the fractional part is nonzero) lands under
        that fraction.
        """
        extra = self._extra_wear
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
            hit = rng.random(alive_cols.size) < extra
            total = int(np.count_nonzero(hit))
            if total:
                cols = alive_cols[hit]
                used[cols] += 1
                self.injections += total
            return closed
        alive = (state.used[instances, copies]
                 < state.lifetime[instances, copies])
        flat = np.flatnonzero(alive)           # row-major == scalar order
        if flat.size == 0:
            return closed
        frac = extra - whole
        cycles = np.full(flat.size, whole, dtype=np.int64)
        if frac:
            cycles += rng.random(flat.size) < frac
        total = int(cycles.sum())
        if not total:
            return closed
        hit = cycles > 0
        rows, cols = np.unravel_index(flat[hit], closed.shape)
        b, c = instances[rows], copies[rows]
        state.used[b, c, cols] += cycles[hit]
        self.injections += total
        return closed


class FaultModel:
    """An ordered pipeline of injectors plus dedicated fault RNG streams.

    The model owns its generators so fault draws are independent of
    fabrication: two simulations fabricated from the same stream, one
    with and one without a fault model, see identical switch lifetimes.
    Attach an instance as the ``fault_hook`` of the stateful hardware
    and the keystores: it is the hook both sites call.

    Injector ``i`` draws from its own substream
    (``root.jumped(i + 1)``, in :attr:`streams`) - the RNG substream
    contract of the module docstring.  The root generator itself is
    never drawn from; it only seeds the substreams and is kept for state
    export.

    Each site runs its ``(injector, stream)`` stages stage-major: one
    injector over the whole batch, then the next.  An injector without a
    site draws nothing there, so it has no stage, and a model without an
    actuation injector returns ``closed`` as given - bit-identical to
    running with no hook.
    """

    def __init__(self, injectors, rng: np.random.Generator | None = None,
                 seed: int | None = None) -> None:
        from repro.sim.rng import jumped_rng, make_rng

        self.injectors = list(injectors)
        if rng is None:
            rng = make_rng(seed)
        self.rng = rng
        #: One dedicated generator per injector, in pipeline order.
        self.streams = [jumped_rng(rng, i + 1)
                        for i in range(len(self.injectors))]
        stages = list(zip(self.injectors, self.streams))
        self._actuate_stages = [stage for stage in stages
                                if hasattr(stage[0], "on_bank_actuate")]
        self._readout_stages = [stage for stage in stages
                                if hasattr(stage[0], "on_shares_readout")]

    def on_bank_actuate(self, state: "WearState", instances: np.ndarray,
                        copies: np.ndarray, closed: np.ndarray,
                        ) -> np.ndarray:
        """Observed closures of one batched bank actuation.

        Each stage reads the observed matrix the previous stage left and
        the live switch state its mutations updated - exactly what the
        per-switch reference sees cell by cell.
        """
        for injector, stream in self._actuate_stages:
            closed = injector.on_bank_actuate(state, instances, copies,
                                              closed, stream)
        return closed

    def on_shares_readout(self, bank_id: int, indices: list[int],
                          datas: list) -> list:
        """One recovery's readouts through every readout stage.

        Each injector stream sees its draws in share-index order, and a
        share timed out by an earlier stage is skipped by later ones, as
        the per-share reference's None short-circuit does.
        """
        results = list(datas)
        for injector, stream in self._readout_stages:
            results = injector.on_shares_readout(bank_id, indices, results,
                                                 stream)
        return results

    def injection_counts(self) -> dict[str, int]:
        """Injections applied so far, keyed by injector name."""
        counts: dict[str, int] = {}
        for injector in self.injectors:
            counts[injector.name] = (counts.get(injector.name, 0)
                                     + injector.injections)
        return counts

    @property
    def total_injections(self) -> int:
        return sum(inj.injections for inj in self.injectors)
