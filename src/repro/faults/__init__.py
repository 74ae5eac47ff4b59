"""Fault injection for the stateful hardware simulations.

Injectors model the physical failure deviations of Section 2.1 (and the
targeted-wearout threat model of the related work): transient misfires,
premature fracture, stiction (stuck-closed), share corruption, readout
timeouts and environmental temperature drift.  Each mechanism is one
injector class with batched sites only.  A :class:`FaultModel`
aggregates injectors and is the hook the engine's banks and the
keystores call: attach it as a zero-overhead-when-disabled
``fault_hook``.  :mod:`repro.faults.campaign` runs checkpointed
campaigns that measure ceiling violations and availability under a
fault mix.
"""

from repro.faults.hooks import FaultHook

from repro.faults.campaign import (
    CAMPAIGN_SECRET,
    FaultCampaignConfig,
    FaultCampaignReport,
    build_fault_model,
    run_fault_campaign,
    run_fault_trial,
    security_ceiling,
)
from repro.faults.injectors import (
    FaultInjector,
    FaultModel,
    PrematureStuckOpen,
    ReadoutTimeout,
    ShareCorruption,
    StuckClosedConversion,
    TemperatureDrift,
    TransientMisfire,
)

__all__ = [
    "CAMPAIGN_SECRET",
    "FaultCampaignConfig",
    "FaultCampaignReport",
    "FaultHook",
    "FaultInjector",
    "FaultModel",
    "PrematureStuckOpen",
    "ReadoutTimeout",
    "ShareCorruption",
    "StuckClosedConversion",
    "TemperatureDrift",
    "TransientMisfire",
    "build_fault_model",
    "run_fault_campaign",
    "run_fault_trial",
    "security_ceiling",
]
