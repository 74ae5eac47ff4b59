"""Trace-driven replay: a phone's whole service life, event by event.

Generates multi-year usage traces (owner logins, typos, an occasional
thief burst) and replays them against an :class:`MWayPhone`, migrating
modules automatically as they near exhaustion.  This is the integration
driver that ties the wearout hardware, the login flow, module
replication, and the usage statistics into one measured story:

    trace = generate_trace(...)
    report = replay_trace(phone_factory, trace)

The replay reports what a deployment actually cares about: days of
service delivered, logins served, migrations performed, and how the
device ended (served its full life, worn out early, or survived).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.connection.phone import MWayPhone
from repro.core.degradation import DesignPoint
from repro.errors import ConfigurationError, DeviceWornOutError
from repro.obs.recorder import OBS
from repro.sim.timeline import UsageProfile

__all__ = [
    "EndState",
    "EventKind",
    "TraceEvent",
    "generate_trace",
    "ReplayReport",
    "replay_trace",
]


class EventKind(enum.Enum):
    """One login attempt's provenance in a usage trace."""

    OWNER_LOGIN = "owner"          # correct passcode
    OWNER_TYPO = "typo"            # owner, wrong passcode
    ATTACKER_GUESS = "attacker"    # thief burst, wrong passcode


@dataclass(frozen=True)
class TraceEvent:
    """A single attempt: the day it happens and what kind it is."""

    day: int
    kind: EventKind


def generate_trace(profile: UsageProfile, n_days: int,
                   rng: np.random.Generator,
                   typo_rate: float = 0.03,
                   attacker_burst_day: int | None = None,
                   attacker_burst_size: int = 0) -> list[TraceEvent]:
    """A chronological attempt trace for one device.

    Daily owner logins follow ``profile``; each is independently a typo
    with ``typo_rate`` (typos cost an extra attempt - the retry follows
    immediately).  An optional attacker burst injects wrong-passcode
    attempts on one day (the stolen-afternoon scenario).
    """
    if n_days < 1:
        raise ConfigurationError("n_days must be >= 1")
    if not 0.0 <= typo_rate < 1.0:
        raise ConfigurationError("typo_rate must lie in [0, 1)")
    if attacker_burst_size < 0:
        raise ConfigurationError("attacker_burst_size must be >= 0")
    events: list[TraceEvent] = []
    daily = profile.sample_days(n_days, rng)
    for day, count in enumerate(daily):
        for _ in range(int(count)):
            if rng.random() < typo_rate:
                events.append(TraceEvent(day, EventKind.OWNER_TYPO))
            events.append(TraceEvent(day, EventKind.OWNER_LOGIN))
        if day == attacker_burst_day:
            events.extend(TraceEvent(day, EventKind.ATTACKER_GUESS)
                          for _ in range(attacker_burst_size))
    return events


class EndState(enum.Enum):
    """How a replayed deployment ended - the exhaustive taxonomy.

    Every replay lands in exactly one of these states (the tests assert
    the mapping is total):

    - ``SERVED_FULL_TRACE``: the phone survived every event in the
      trace, including the degenerate empty trace;
    - ``WORN_OUT``: the hardware died serving a login attempt;
    - ``DIED_MIGRATING``: the hardware died *during a migration* - the
      retiring module's final storage-unsealing access was one access
      too many.
    """

    SERVED_FULL_TRACE = "served-full-trace"
    WORN_OUT = "worn-out"
    DIED_MIGRATING = "died-migrating"


@dataclass
class ReplayReport:
    """Outcome of replaying one trace against a phone."""

    days_served: int = 0
    owner_logins: int = 0
    owner_typos: int = 0
    attacker_attempts: int = 0
    migrations: int = 0
    died_on_day: int | None = None
    attacker_breached: bool = field(default=False)
    died_during_migration: bool = field(default=False)

    @property
    def survived(self) -> bool:
        return self.died_on_day is None

    @property
    def end_state(self) -> EndState:
        """This replay's slot in the :class:`EndState` taxonomy."""
        if self.died_on_day is None:
            return EndState.SERVED_FULL_TRACE
        if self.died_during_migration:
            return EndState.DIED_MIGRATING
        return EndState.WORN_OUT


def replay_trace(designs: list[DesignPoint], passcodes: list[str],
                 storage: bytes, trace: list[TraceEvent],
                 rng: np.random.Generator,
                 migrate_below_fraction: float = 0.05) -> ReplayReport:
    """Replay a trace on an M-way phone with automatic migration.

    The deployment migrates to the next module proactively when the
    active module's *expected* remaining accesses fall below
    ``migrate_below_fraction`` of its bound (a real system would count
    accesses in software - an advisory counter, unlike the baseline's
    load-bearing one: wrong counts here cost availability, never
    confidentiality).

    Each stretch of events between migration-trigger points runs as one
    engine fast-forward instead of a per-event login loop; the report
    and hardware state match an event-by-event login reference (pinned
    in ``tests/differential``).
    """
    if not 0.0 <= migrate_below_fraction < 1.0:
        raise ConfigurationError(
            "migrate_below_fraction must lie in [0, 1)")
    if OBS.enabled:
        started = time.perf_counter()
    phone = MWayPhone(designs, passcodes, storage, rng)
    report = ReplayReport()
    _replay(designs, passcodes, phone, trace, report, migrate_below_fraction)
    if OBS.enabled:
        elapsed = time.perf_counter() - started
        attempts = (report.owner_logins + report.owner_typos
                    + report.attacker_attempts)
        OBS.metrics.inc("replay.traces")
        OBS.metrics.inc("replay.logins", report.owner_logins)
        OBS.metrics.inc("replay.typos", report.owner_typos)
        OBS.metrics.inc("replay.attacker_attempts", report.attacker_attempts)
        OBS.metrics.observe("replay.wall_s", elapsed)
        if elapsed > 0:
            OBS.metrics.set_gauge("replay.logins_per_s", attempts / elapsed)
        OBS.event("replay.finished", end_state=report.end_state.value,
                  days_served=report.days_served,
                  migrations=report.migrations)
    return report


def _migrate(phone: MWayPhone, report: ReplayReport) -> None:
    """One proactive migration, with the shared accounting and OBS."""
    if OBS.enabled:
        with OBS.metrics.time("replay.migration_s"):
            phone.migrate()
    else:
        phone.migrate()
    report.migrations += 1
    if OBS.enabled:
        OBS.metrics.inc("replay.migrations")


def _next_trigger_use(budget: int, fraction: float) -> int:
    """Smallest advisory use count at which the migration check fires.

    The per-event check is ``(budget - used) <= budget * fraction`` with
    Python's exact int-vs-float comparison, so the crossover is located
    with the *same* comparison (a float-guess seed plus at most a couple
    of exact adjustment steps) rather than float ``ceil`` arithmetic,
    which could round differently for large budgets.
    """
    threshold = budget * fraction
    use = budget - math.floor(threshold)
    while use > 0 and (budget - (use - 1)) <= threshold:
        use -= 1
    while (budget - use) > threshold:
        use += 1
    return use


def _replay(designs: list[DesignPoint], passcodes: list[str],
            phone: MWayPhone, trace: list[TraceEvent], report: ReplayReport,
            migrate_below_fraction: float) -> None:
    """Engine fast-forward between migration triggers.

    Between migrations a login consumes exactly one connection access
    and draws no randomness, and its outcome is determined by the
    passcode alone, so a whole stretch of events collapses onto
    :meth:`LimitedUseConnection.serve_accesses` (the engine closed
    form) plus array counts over the event kinds.  Migrations still go
    through the real :meth:`MWayPhone.migrate` - they draw fabrication
    randomness - and the migration-trigger points depend only on the
    advisory counter, never on wear, so they are located up front with
    the per-event check's exact comparison.
    """
    n_events = len(trace)
    if n_events == 0:
        return
    days = np.fromiter((event.day for event in trace), dtype=np.int64,
                       count=n_events)
    kinds = np.fromiter(
        (0 if event.kind is EventKind.OWNER_LOGIN
         else 1 if event.kind is EventKind.OWNER_TYPO else 2
         for event in trace),
        dtype=np.int8, count=n_events)
    module_budget = designs[0].guaranteed_accesses
    used_on_module = 0
    module_index = 0
    pos = 0
    while pos < n_events:
        remaining = module_budget - used_on_module
        if (remaining <= module_budget * migrate_below_fraction
                and module_index < phone.m - 1):
            try:
                _migrate(phone, report)
            except DeviceWornOutError:
                report.died_on_day = int(days[pos])
                report.died_during_migration = True
                return
            module_index += 1
            module_budget = designs[module_index].guaranteed_accesses
            used_on_module = 0
        # Serve every event up to (excluding) the next trigger point.
        # At least one event is always served between checks - the
        # per-event loop performs exactly one migration check per event.
        if module_index < phone.m - 1:
            chunk = max(1, _next_trigger_use(module_budget,
                                             migrate_below_fraction)
                        - used_on_module)
            chunk = min(chunk, n_events - pos)
        else:
            chunk = n_events - pos
        served = phone._active.connection.serve_accesses(chunk)
        if served:
            batch = kinds[pos:pos + served]
            report.owner_logins += int(np.count_nonzero(batch == 0))
            report.owner_typos += int(np.count_nonzero(batch == 1))
            attacks = int(np.count_nonzero(batch == 2))
            report.attacker_attempts += attacks
            if attacks and passcodes[module_index] == "0000-thief":
                # The thief guessed the module passcode: a real login
                # would have succeeded.
                report.attacker_breached = True
            report.days_served = int(days[pos + served - 1]) + 1
            used_on_module += served
            pos += served
        if served < chunk:
            report.died_on_day = int(days[pos])
            return
