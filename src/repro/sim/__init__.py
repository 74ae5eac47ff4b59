"""Monte Carlo simulation harness and RNG plumbing."""

from repro.sim.checkpoint import (
    list_shard_checkpoints,
    load_checkpoint,
    merge_shard_payloads,
    save_checkpoint,
    shard_checkpoint_path,
    validate_checkpoint,
)
from repro.sim.parallel import (
    default_shard_size,
    default_workers,
    plan_shards,
    run_checkpointed_trials,
)
from repro.sim.montecarlo import (
    AccessBoundSummary,
    simulate_access_bounds,
    simulate_access_bounds_checkpointed,
    simulate_access_bounds_hardware,
    summarize_bounds,
)
from repro.sim.rng import (
    get_default_seed,
    make_rng,
    set_default_seed,
    spawn_rngs,
    substream,
)
from repro.sim.timeline import (
    ServiceLifeSummary,
    UsageProfile,
    required_safety_factor,
    simulate_service_life,
)
from repro.sim.traces import (
    EventKind,
    ReplayReport,
    TraceEvent,
    generate_trace,
    replay_trace,
)
from repro.sim.validation import (
    FitVerdict,
    chi_square_binned,
    ks_test,
    validate_model,
)

__all__ = [
    "AccessBoundSummary",
    "EventKind",
    "FitVerdict",
    "ReplayReport",
    "ServiceLifeSummary",
    "TraceEvent",
    "UsageProfile",
    "chi_square_binned",
    "default_shard_size",
    "default_workers",
    "generate_trace",
    "get_default_seed",
    "ks_test",
    "list_shard_checkpoints",
    "load_checkpoint",
    "make_rng",
    "merge_shard_payloads",
    "plan_shards",
    "replay_trace",
    "required_safety_factor",
    "run_checkpointed_trials",
    "save_checkpoint",
    "set_default_seed",
    "shard_checkpoint_path",
    "simulate_access_bounds",
    "simulate_access_bounds_checkpointed",
    "simulate_access_bounds_hardware",
    "simulate_service_life",
    "spawn_rngs",
    "substream",
    "summarize_bounds",
    "validate_checkpoint",
    "validate_model",
]
