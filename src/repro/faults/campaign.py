"""Checkpointed fault-injection campaigns over the resilient access layer.

A campaign fabricates many independent
:class:`~repro.connection.resilient.ResilientAccessController` instances
of one design, drives each to destruction under a configured fault mix,
and reports the two quantities the security argument cares about:

- **ceiling violations** - the fraction of instances that served more
  accesses than the architecture's analytic security ceiling
  ``copies * (t + 2)`` (only fail-insecure faults - stiction - can cause
  this; the property tests pin that down);
- **availability** - the fraction of read attempts the resilient layer
  turned into a correct secret despite injected misfires, timeouts and
  corruption.

Trials run on deterministic per-trial RNG substreams through
:func:`repro.sim.parallel.run_checkpointed_trials`, in process or on a
worker pool, and checkpoint through :mod:`repro.sim.checkpoint`, so a
campaign killed mid-run resumes bit-identically under any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.degradation import DesignPoint
from repro.core.serialize import design_to_dict
from repro.connection.resilient import ResilientAccessController, RetryPolicy
from repro.errors import (
    CodingError,
    ConfigurationError,
    DeviceWornOutError,
)
from repro.faults.injectors import (
    FaultModel,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)
from repro.obs.recorder import OBS
from repro.sim.parallel import run_checkpointed_trials
from repro.sim.rng import derive_rng

__all__ = [
    "FaultCampaignConfig",
    "FaultCampaignReport",
    "build_fault_model",
    "run_fault_trial",
    "run_fault_campaign",
]

#: Fixed per-trial secret; campaigns measure availability and ceilings,
#: not secrecy, so a public constant keeps checkpoints self-contained.
CAMPAIGN_SECRET = b"fault campaign secret 16+ bytes!"

ROOM_TEMPERATURE_C = 25.0


@dataclass(frozen=True)
class FaultCampaignConfig:
    """The fault mix and run limits of one campaign.

    Rates are per-event probabilities (per actuation for switch faults,
    per readout for share faults).  ``max_accesses`` caps each trial;
    it defaults to a little past the security ceiling, which is always
    enough to detect a violation and keeps stuck-closed-immortal
    instances from looping forever.
    """

    misfire_rate: float = 0.0
    premature_stuck_open_rate: float = 0.0
    stuck_closed_probability: float = 0.0
    corruption_rate: float = 0.0
    timeout_rate: float = 0.0
    temperature_c: float = ROOM_TEMPERATURE_C
    rs_fallback: bool = True
    max_attempts: int = 4
    quarantine_after: int = 3
    max_accesses: int | None = None

    def __post_init__(self) -> None:
        for name in ("misfire_rate", "premature_stuck_open_rate",
                     "stuck_closed_probability", "corruption_rate",
                     "timeout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must lie in [0, 1], got {value!r}")
        if self.max_accesses is not None and self.max_accesses < 1:
            raise ConfigurationError("max_accesses must be >= 1")

    def to_dict(self) -> dict:
        return {
            "misfire_rate": self.misfire_rate,
            "premature_stuck_open_rate": self.premature_stuck_open_rate,
            "stuck_closed_probability": self.stuck_closed_probability,
            "corruption_rate": self.corruption_rate,
            "timeout_rate": self.timeout_rate,
            "temperature_c": self.temperature_c,
            "rs_fallback": self.rs_fallback,
            "max_attempts": self.max_attempts,
            "quarantine_after": self.quarantine_after,
            "max_accesses": self.max_accesses,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultCampaignConfig":
        return cls(**payload)


def build_fault_model(config: FaultCampaignConfig,
                      rng: np.random.Generator) -> FaultModel | None:
    """The injector pipeline for ``config`` (None when faultless)."""
    injectors = []
    if config.misfire_rate:
        injectors.append(TransientMisfire(config.misfire_rate))
    if config.premature_stuck_open_rate:
        injectors.append(PrematureStuckOpen(
            config.premature_stuck_open_rate))
    if config.stuck_closed_probability:
        injectors.append(StuckClosedConversion(
            config.stuck_closed_probability))
    if config.temperature_c != ROOM_TEMPERATURE_C:
        injectors.append(TemperatureDrift(config.temperature_c))
    if config.corruption_rate:
        injectors.append(ShareCorruption(config.corruption_rate))
    if config.timeout_rate:
        injectors.append(ReadoutTimeout(config.timeout_rate))
    if not injectors:
        return None
    return FaultModel(injectors, rng=rng)


def security_ceiling(design: DesignPoint) -> int:
    """The analytic hard cap on served accesses: ``copies * (t + 2)``.

    Each copy is almost surely dead by access ``t + 2`` (fractional
    window); any fail-secure fabrication can only die sooner.  An
    instance serving more accesses than this has broken its security
    argument.
    """
    return design.copies * (design.t + 2)


def run_fault_trial(design: DesignPoint, config: FaultCampaignConfig,
                    rng: np.random.Generator) -> dict:
    """Fabricate one instance, drive it to destruction, record metrics.

    All randomness (fabrication, Shamir splits, fault draws) comes from
    ``rng``; passing the same generator state reproduces the trial
    exactly.  Returns a JSON-safe dict.  The fault model is the hook of
    the controller's banks and keystores, so each injector runs its
    batched sites; the differential suite compares whole trial records
    against a per-switch, per-share scalar reference.
    """
    fault_rng = derive_rng(rng)
    model = build_fault_model(config, fault_rng)
    policy = RetryPolicy(max_attempts=config.max_attempts,
                         quarantine_after=config.quarantine_after)
    controller = ResilientAccessController(
        design, CAMPAIGN_SECRET, rng, fault_hook=model, policy=policy,
        rs_fallback=config.rs_fallback)
    ceiling = security_ceiling(design)
    cap = (config.max_accesses if config.max_accesses is not None
           else ceiling + max(design.t, 8))
    served = 0
    coding_failures = 0
    worn_out = False
    for _ in range(cap):
        try:
            secret = controller.read_key()
        except DeviceWornOutError:
            worn_out = True
            break
        except CodingError:
            coding_failures += 1
            continue
        assert secret == CAMPAIGN_SECRET
        served += 1
    stats = controller.stats
    if OBS.enabled:
        OBS.metrics.inc("faults.trials")
        OBS.metrics.observe("faults.served_accesses", served)
        OBS.metrics.observe("faults.trial_availability", stats.availability)
        if served > ceiling:
            OBS.metrics.inc("faults.ceiling_violations")
        if model is not None:
            for name, count in model.injection_counts().items():
                if count:
                    OBS.metrics.inc(f"faults.injected.{name}", count)
    return {
        "served": served,
        "ceiling": ceiling,
        "violated": bool(served > ceiling),
        "worn_out": worn_out,
        "capped": not worn_out,
        "calls": stats.calls,
        "successes": stats.successes,
        "retries": stats.retries,
        "degraded_recoveries": stats.degraded_recoveries,
        "corruption_detected": stats.corruption_detected,
        "coding_failures": coding_failures,
        "quarantines": stats.quarantines,
        "fallovers": stats.fallovers,
        "availability": stats.availability,
        "injections": model.injection_counts() if model else {},
    }


@dataclass(frozen=True)
class FaultCampaignReport:
    """Aggregate of a fault campaign's per-trial records."""

    trials: int
    config: FaultCampaignConfig
    ceiling: int
    mean_served: float
    min_served: int
    max_served: int
    violation_rate: float
    availability: float
    degraded_recoveries: int
    corruption_detected: int
    quarantines: int
    retries: int
    injections: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @classmethod
    def from_records(cls, records: list[dict],
                     config: FaultCampaignConfig) -> "FaultCampaignReport":
        if not records:
            raise ConfigurationError("no trial records to summarize")
        served = [r["served"] for r in records]
        calls = sum(r["calls"] for r in records)
        successes = sum(r["successes"] for r in records)
        injections: dict[str, int] = {}
        for record in records:
            for name, count in record["injections"].items():
                injections[name] = injections.get(name, 0) + count
        return cls(
            trials=len(records),
            config=config,
            ceiling=records[0]["ceiling"],
            mean_served=float(np.mean(served)),
            min_served=int(min(served)),
            max_served=int(max(served)),
            violation_rate=float(np.mean([r["violated"]
                                          for r in records])),
            availability=successes / calls if calls else 1.0,
            degraded_recoveries=sum(r["degraded_recoveries"]
                                    for r in records),
            corruption_detected=sum(r["corruption_detected"]
                                    for r in records),
            quarantines=sum(r["quarantines"] for r in records),
            retries=sum(r["retries"] for r in records),
            injections=injections,
            records=list(records),
        )

    def render(self) -> str:
        """Human-readable campaign summary for the CLI."""
        lines = [
            f"fault campaign: {self.trials} fabricated instances",
            f"  security ceiling:      {self.ceiling:,} accesses "
            f"(copies x (t + 2))",
            f"  served (min/mean/max): {self.min_served:,} / "
            f"{self.mean_served:,.1f} / {self.max_served:,}",
            f"  ceiling violations:    {self.violation_rate:.2%} "
            f"of instances",
            f"  availability:          {self.availability:.4f} "
            f"(correct secrets per read attempt)",
            f"  degraded recoveries:   {self.degraded_recoveries:,} "
            f"(Shamir -> RS fallback)",
            f"  corruption detected:   {self.corruption_detected:,}",
            f"  retries / quarantines: {self.retries:,} / "
            f"{self.quarantines:,}",
        ]
        if self.injections:
            mix = ", ".join(f"{name}={count:,}" for name, count
                            in sorted(self.injections.items()))
            lines.append(f"  injected faults:       {mix}")
        if self.violation_rate > 0:
            lines.append("  WARNING: some instances outlived their "
                         "security ceiling (fail-insecure faults)")
        return "\n".join(lines)


def _campaign_trial(index: int, rng: np.random.Generator,
                    design: DesignPoint,
                    config: FaultCampaignConfig) -> dict:
    """Picklable per-trial adapter, so a worker pool can ship it."""
    return run_fault_trial(design, config, rng)


def run_fault_campaign(design: DesignPoint, config: FaultCampaignConfig,
                       trials: int, seed: int,
                       checkpoint_path: str | None = None,
                       checkpoint_every: int = 10,
                       workers: int | None = None) -> FaultCampaignReport:
    """Run (or resume) a checkpointed fault-injection campaign.

    The campaign runs on :func:`repro.sim.parallel.run_checkpointed_trials`:
    ``workers=None`` in this process, ``workers=N`` sharded across a pool
    of N.  Trial ``i`` draws from the substream ``(seed, i)`` either way,
    so the report - and the checkpoint file - is bit-identical for any
    worker count, and a checkpoint written under one count resumes under
    another.
    """
    meta = {"kind": "fault-campaign",
            "design": design_to_dict(design),
            "config": config.to_dict()}
    records = run_checkpointed_trials(
        _campaign_trial, trials, seed, trial_args=(design, config),
        workers=workers, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, meta=meta)
    return FaultCampaignReport.from_records(records, config)
