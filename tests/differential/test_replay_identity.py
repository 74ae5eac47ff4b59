"""Bit-identity of the batched replay/drain paths against login loops.

``replay_trace`` and ``simulate_drain_attack`` collapse stretches of
logins onto one engine fast-forward
(:meth:`~repro.connection.architecture.LimitedUseConnection.serve_accesses`).
This suite pins the collapse: reports, final RNG state and the hardware
wear arrays must match the event-by-event reference in
:mod:`tests.differential._reference` exactly - including migrations,
mid-trace exhaustion, empty traces and attacker bursts.  Reference
logins pay the real KDF, so the designs and traces here are
deliberately tiny.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.connection.availability import simulate_drain_attack
from repro.core.degradation import PAPER_CRITERIA
from repro.core.sizing import size_architecture
from repro.sim.rng import make_rng
from repro.sim.timeline import UsageProfile
from repro.sim.traces import EventKind, TraceEvent, generate_trace, replay_trace
from tests.differential._reference import (
    reference_drain_attack,
    reference_replay_trace,
    replay_events,
)


def _design(bound=24):
    return size_architecture(10.0, 8.0, bound, k_fraction=0.10,
                             criteria=PAPER_CRITERIA, window="fractional")


def _replay_both(designs, passcodes, trace, seed, fraction=0.05):
    results = []
    for replay in (reference_replay_trace, replay_trace):
        rng = make_rng(seed)
        report = replay(designs, passcodes, b"secret disk!", trace, rng,
                        fraction)
        results.append({
            "report": asdict(report),
            "rng": rng.bit_generator.state,
        })
    return results


def _trace(days, seed, mean_daily=2.5, burst_day=None, burst=0):
    return generate_trace(UsageProfile(mean_daily=mean_daily), days,
                          make_rng(seed), typo_rate=0.15,
                          attacker_burst_day=burst_day,
                          attacker_burst_size=burst)


def test_single_module_report_and_rng_identical():
    trace = _trace(days=5, seed=3)
    scalar, vector = _replay_both([_design(40)], ["pc-0"], trace, seed=7)
    assert scalar == vector


def test_migrating_replay_identical():
    designs = [_design(16), _design(16), _design(16)]
    passcodes = ["pc-0", "pc-1", "pc-2"]
    trace = _trace(days=8, seed=11, mean_daily=3.0)
    scalar, vector = _replay_both(designs, passcodes, trace, seed=13,
                                  fraction=0.3)
    assert scalar == vector
    # the budget is small enough that migrations actually happened
    assert scalar["report"]["migrations"] >= 1


def test_exhaustion_mid_trace_identical():
    # Far more events than the hardware can serve: both arms must die on
    # the same day with the same served counts.
    trace = _trace(days=10, seed=17, mean_daily=4.0)
    scalar, vector = _replay_both([_design(8)], ["pc-0"], trace, seed=19)
    assert scalar == vector
    assert scalar["report"]["died_on_day"] is not None


def test_attacker_burst_identical():
    trace = _trace(days=4, seed=23, burst_day=2, burst=5)
    scalar, vector = _replay_both([_design(40)], ["pc-0"], trace, seed=29)
    assert scalar == vector
    assert scalar["report"]["attacker_attempts"] >= 1
    assert scalar["report"]["attacker_breached"] is False


def test_thief_passcode_breach_identical():
    # The degenerate module whose passcode IS the thief guess: the
    # batched replay must flag the breach exactly like a real login.
    trace = [TraceEvent(0, EventKind.ATTACKER_GUESS)]
    scalar, vector = _replay_both([_design(40)], ["0000-thief"], trace,
                                  seed=31)
    assert scalar == vector
    assert scalar["report"]["attacker_breached"] is True


def test_empty_trace_identical():
    scalar, vector = _replay_both([_design(16)], ["pc-0"], [], seed=37)
    assert scalar == vector
    assert scalar["report"]["days_served"] == 0


def test_replay_hardware_state_identical():
    """The wear arrays, not just the report, must match afterwards."""
    from repro.connection.phone import MWayPhone
    from repro.sim.traces import _replay, ReplayReport

    designs = [_design(16), _design(16)]
    passcodes = ["pc-0", "pc-1"]
    trace = _trace(days=6, seed=41, mean_daily=3.0)
    snapshots = []
    for arm in (replay_events, _replay):
        rng = make_rng(43)
        phone = MWayPhone(designs, passcodes, b"secret disk!", rng)
        report = ReplayReport()
        arm(designs, passcodes, phone, trace, report, 0.3)
        conn = phone._active.connection
        snapshots.append({
            "report": asdict(report),
            "rng": rng.bit_generator.state,
            "used": conn._state.used.copy(),
            "bank_accesses": conn._state.bank_accesses.copy(),
            "bank_dead": conn._state.bank_dead.copy(),
            "current": conn._serial._current,
            "total_accesses": conn._serial.total_accesses,
            "accesses": conn.accesses,
            "module": phone.active_module,
        })
    scalar, vector = snapshots
    assert scalar["report"] == vector["report"]
    assert scalar["rng"] == vector["rng"]
    np.testing.assert_array_equal(scalar["used"], vector["used"])
    np.testing.assert_array_equal(scalar["bank_accesses"],
                                  vector["bank_accesses"])
    np.testing.assert_array_equal(scalar["bank_dead"], vector["bank_dead"])
    for key in ("current", "total_accesses", "accesses", "module"):
        assert scalar[key] == vector[key], key


@pytest.mark.parametrize("owner,attacker", [(1, 1), (3, 2), (1, 0), (2, 5)])
def test_drain_attack_identical(owner, attacker):
    design = _design(12)
    scalar = reference_drain_attack(design, "pc", make_rng(47), owner,
                                    attacker)
    vector = simulate_drain_attack(design, "pc", make_rng(47), owner,
                                   attacker)
    assert scalar == vector
