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

Two injection sites cover every fault in the taxonomy:

- ``on_switch_actuate(switch, closed)`` - consulted after each physical
  actuation; may suppress a closure (misfire), permanently kill the
  switch (premature stuck-open), force a worn-out switch to keep
  conducting (stuck-closed conversion), or add hidden wear
  (temperature drift);
- ``on_share_readout(bank_id, index, data)`` - consulted when a share
  is read; may corrupt the bytes (bit flips) or return None (readout
  timeout: the share is missing this attempt).

These per-switch and per-share methods are the reference semantics.
Engine-backed banks run an injector's actuation site through its native
batched form (:func:`repro.engine.hooks.vector_hook_for`; an injector
that does not override ``on_switch_actuate`` has no actuation stage),
and keystores run the readout site through
:meth:`FaultModel.on_shares_readout`, one call per recovery.

RNG substream contract
----------------------

Each injector draws from its *own* generator, derived from the model's
root generator at construction (``root.jumped(i + 1)`` for injector
``i``).  Per-injector streams are what make the native batched hooks in
:mod:`repro.engine.hooks` bit-identical to this scalar pipeline: an
injector's draw condition at one switch depends only on that switch's
state after the earlier pipeline stages, so evaluating the pipeline
stage-major (one injector across all switches, the batched order) or
cell-major (all injectors per switch, the scalar order) consumes every
stream in exactly the same sequence.  A shared stream would interleave
draws across injectors per switch - an order no per-injector batch can
reproduce.  See ``docs/fault_vectorization.md`` for the full argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.device import NEMSSwitch
from repro.core.environment import SiCTemperatureModel
from repro.errors import ConfigurationError

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
    """Base class / protocol for one fault mechanism.

    Subclasses override one (or both) site methods and bump
    ``self.injections`` whenever they actually perturb an outcome, so
    campaigns can report how much fault pressure was applied.  The
    ``rng`` argument is the :class:`FaultModel`'s dedicated generator -
    injectors must not create their own, so fault draws never perturb
    fabrication streams.
    """

    #: Short identifier used in stats dictionaries.
    name = "fault"

    def __init__(self) -> None:
        self.injections = 0

    def on_switch_actuate(self, switch: NEMSSwitch, closed: bool,
                          rng: np.random.Generator) -> bool:
        """Observe/modify the outcome of one switch actuation."""
        return closed

    def on_share_readout(self, bank_id: int, index: int, data: bytes,
                         rng: np.random.Generator) -> bytes | None:
        """Observe/modify one share readout (None = timeout)."""
        return data

    def on_shares_readout(self, bank_id: int, indices: list[int],
                          datas: list, rng: np.random.Generator) -> list:
        """One whole bank recovery's readouts in a single call.

        The default replays :meth:`on_share_readout` share by share in
        index order - the exact per-share draw sequence - skipping
        shares an earlier pipeline stage already timed out (the scalar
        model short-circuits those before this injector would see them).
        Subclasses override with batched draws where the stream allows.
        """
        return [None if data is None
                else self.on_share_readout(bank_id, index, data, rng)
                for index, data in zip(indices, datas)]


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

    def on_switch_actuate(self, switch, closed, rng):
        if closed and self.rate and rng.random() < self.rate:
            self.injections += 1
            return False
        return closed


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

    def on_switch_actuate(self, switch, closed, rng):
        if not switch.is_failed and self.rate and rng.random() < self.rate:
            switch.force_fail()
            self.injections += 1
            return False
        return closed


class StuckClosedConversion(FaultInjector):
    """A worn-out switch sticks shut instead of open (fail-insecure).

    Models adhesion/stiction (Section 2.1's SiC nanowires that "stuck to
    the electrode").  Whether a given switch fails stuck-closed is decided
    once, at its death, with probability ``probability``; a converted
    switch conducts forever.  This is the one injected fault that can
    *raise* an architecture's empirical access bound past its security
    ceiling - the threat :mod:`repro.core.failure_modes` quantifies.
    """

    name = "stuck-closed"

    def __init__(self, probability: float) -> None:
        super().__init__()
        self.probability = _check_rate(probability, "stuck-closed probability")
        self._converted: dict[int, bool] = {}

    def on_switch_actuate(self, switch, closed, rng):
        if closed or not switch.is_failed:
            return closed
        sticky = self._converted.get(switch.switch_id)
        if sticky is None:
            sticky = bool(self.probability) and rng.random() < self.probability
            self._converted[switch.switch_id] = sticky
            if sticky:
                self.injections += 1
        return True if sticky else closed


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

    def on_share_readout(self, bank_id, index, data, rng):
        if not data or not self.rate or rng.random() >= self.rate:
            return data
        self.injections += 1
        corrupted = bytearray(data)
        for _ in range(self.flips):
            pos = int(rng.integers(0, len(corrupted)))
            corrupted[pos] ^= 1 << int(rng.integers(0, 8))
        return bytes(corrupted)

    def on_shares_readout(self, bank_id, indices, datas, rng):
        """Speculative batch: one uniform per live share, rewound on a hit.

        The scalar loop interleaves flip-position integers into the
        stream only *after* a corruption fires.  Corruptions are rare at
        campaign rates, so we snapshot the generator, draw the whole
        uniform batch, and keep it when nothing fired (bit-identical: no
        integers would have interleaved).  On a hit the generator is
        rewound and the scalar sequence replayed exactly - the pre-hit
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

    def on_share_readout(self, bank_id, index, data, rng):
        if self.rate and rng.random() < self.rate:
            self.injections += 1
            return None
        return data

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

    def on_switch_actuate(self, switch, closed, rng):
        if self._extra_wear <= 0.0 or switch.is_failed:
            return closed
        whole = int(self._extra_wear)
        frac = self._extra_wear - whole
        extra = whole + (1 if frac and rng.random() < frac else 0)
        if extra:
            switch.add_wear(extra)
            self.injections += extra
        return closed


class FaultModel:
    """An ordered pipeline of injectors plus dedicated fault RNG streams.

    The model owns its generators so fault draws are independent of
    fabrication: two simulations fabricated from the same stream, one
    with and one without a fault model, see identical switch lifetimes.
    Attach an instance as the ``fault_hook`` of the stateful hardware.

    Injector ``i`` draws from its own substream
    (``root.jumped(i + 1)``, in :attr:`streams`) - the RNG substream
    contract the native batched hooks rely on (see module docstring).
    The root generator itself is never drawn from; it only seeds the
    substreams and is kept for state export.
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
        # (injector, stream) pairs with readout behaviour, resolved once
        # on first use: actuate-only injectors are draw-free at the
        # readout site, so skipping them cannot shift any stream.
        self._readout_stages: list | None = None

    def on_switch_actuate(self, switch: NEMSSwitch, closed: bool) -> bool:
        for injector, stream in zip(self.injectors, self.streams):
            closed = injector.on_switch_actuate(switch, closed, stream)
        return closed

    def on_share_readout(self, bank_id: int, index: int,
                         data: bytes) -> bytes | None:
        for injector, stream in zip(self.injectors, self.streams):
            data = injector.on_share_readout(bank_id, index, data, stream)
            if data is None:
                return None
        return data

    def on_shares_readout(self, bank_id: int, indices: list[int],
                          datas: list) -> list:
        """Batched pipeline over one recovery's readouts, stage-major.

        Equivalent to calling :meth:`on_share_readout` per share: each
        injector stream sees its draws in share-index order either way,
        and a share timed out by an earlier stage is skipped by later
        ones exactly as the per-share pipeline's None short-circuit
        does.  Injectors with no readout behaviour are skipped outright.
        """
        stages = self._readout_stages
        if stages is None:
            base_scalar = FaultInjector.on_share_readout
            base_batch = FaultInjector.on_shares_readout
            stages = self._readout_stages = [
                (injector, stream)
                for injector, stream in zip(self.injectors, self.streams)
                if not (type(injector).on_share_readout is base_scalar
                        and type(injector).on_shares_readout is base_batch)
            ]
        results = list(datas)
        for injector, stream in stages:
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
