"""Grouped WAL replay must equal one-record-at-a-time replay, bit for bit.

``WearHub.recover`` steps the replayed access records in kernel rounds
of distinct tenants; :func:`~tests.differential._reference.reference_recover`
is the loop it replaced, one kernel call per record.  Hypothesis
generates service histories - keyed and unkeyed accesses with reused
request ids, the same tenant in consecutive rounds, provisions between
rounds, Shamir and RS tenants, misfire, timeout, corruption and
stuck-closed fault tenants, tenants worn to exhaustion, retention
smaller than the keyed traffic, and snapshots, some followed by a
segment rotation and a tail.  Each history runs on a live hub, whose
ledger then closes with no final snapshot: a crash.  Copies of that
ledger are recovered by both arms, and every pool array, counter,
exported fault state and retained response (in FIFO order) must match,
as must the responses of the rounds served after recovery.

The recovered hub must also equal the hub that never crashed, its
retained-response table included: the hub retains only responses to
logged accesses, so everything the live hub retains a recovery can
rebuild.
"""

import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from tests.differential._reference import reference_recover

POOL_FIELDS = ("lifetime", "used", "bank_accesses", "bank_dead", "current",
               "total_accesses")

#: ``(alpha, beta, n, k, copies)``: two short-lived shapes, which wear
#: out within a few rounds, and one that outlives most histories.
SHAPES = ((4.0, 6.0, 4, 2, 2), (3.0, 5.0, 3, 1, 1), (9.0, 6.0, 6, 2, 3))
FAULTS = (None,
          {"misfire_rate": 0.2},
          {"timeout_rate": 0.15},
          {"corruption_rate": 0.2},
          {"stuck_closed_probability": 0.5},
          {"misfire_rate": 0.1, "stuck_closed_probability": 0.4,
           "timeout_rate": 0.05})
MAX_TENANTS = 6
NEXT_ROUNDS = 4

tenant_specs = st.tuples(st.sampled_from(SHAPES), st.sampled_from(FAULTS),
                         st.sampled_from(("shamir", "rs")))

#: One round: ``(tenant index, rid or None)`` items.  Indices wrap over
#: the tenants provisioned so far and repeats are dropped (the batcher
#: never puts a tenant in a round twice); rids come from a small
#: alphabet so they are reused, after eviction as well as before it.
round_items = st.lists(
    st.tuples(st.integers(0, MAX_TENANTS - 1),
              st.one_of(st.none(), st.integers(0, 5))),
    min_size=1, max_size=4)

#: One step of a history: its kind, the round it serves when it is a
#: round, and whether a snapshot is followed by a segment rotation.
#: Rounds dominate, so tenants wear out; provisions (of the next tenant
#: not yet provisioned) and snapshots fall between them.
operations = st.lists(
    st.tuples(st.sampled_from(("round",) * 6 + ("provision", "snapshot")),
              round_items, st.booleans()),
    min_size=10, max_size=40)


def _provision(hub, index, spec):
    (alpha, beta, n, k, copies), faults, scheme = spec
    response = hub.provision({
        "op": "provision", "tenant": f"t{index}", "alpha": alpha,
        "beta": beta, "n": n, "k": k, "copies": copies,
        "seed": 1000 + index, "secret": bytes(range(index, index + 16)).hex(),
        "scheme": scheme, "faults": faults})
    assert response["status"] == "ok", response


def _drive_history(hub, specs, ops) -> None:
    """Run ``ops`` on ``hub``."""
    _provision(hub, 0, specs[0])
    provisioned = 1
    for kind, round_, rotate in ops:
        if kind == "provision":
            if provisioned < len(specs):
                _provision(hub, provisioned, specs[provisioned])
                provisioned += 1
        elif kind == "snapshot":
            hub.write_snapshot()
            if rotate:
                hub.ledger.rotate_segment()
        else:
            items = {}
            for index, rid in round_:
                name = f"t{index % provisioned}"
                items.setdefault(name, None if rid is None else f"r{rid}")
            hub.serve_round([name if rid is None else (name, rid)
                             for name, rid in items.items()])


def _serve_next(hub) -> list[dict]:
    """Rounds after the crash: fresh rids, every other round unkeyed."""
    served = []
    for index in range(NEXT_ROUNDS):
        names = list(hub.tenants)
        batch = [(name, f"next-{index}") if index % 2 else name
                 for name in names]
        responses = hub.serve_round(batch)
        served.append([responses[name] for name in names])
    return served


def _assert_same_state(expected: WearHub, actual: WearHub) -> None:
    """Pool arrays, counters and fault state; not retained responses."""
    assert list(expected.tenants) == list(actual.tenants)
    assert expected.pools.keys() == actual.pools.keys()
    for key, pool in expected.pools.items():
        for field in POOL_FIELDS:
            want = getattr(pool.state, field)
            got = getattr(actual.pools[key].state, field)
            assert got.dtype == want.dtype, (key, field)
            assert np.array_equal(got, want), (key, field)
    for name, tenant in expected.tenants.items():
        mirror = actual.tenants[name]
        assert (mirror.row, mirror.attempts, mirror.served) \
            == (tenant.row, tenant.attempts, tenant.served), name
        if tenant.fault_model is not None:
            assert actual._export_fault_state(mirror) \
                == expected._export_fault_state(tenant), name


def _retained(hub: WearHub) -> list:
    """The retained responses in FIFO order."""
    return list(hub._responses.items())


def _recovered(directory: str, retention: int, recover) -> WearHub:
    hub = WearHub(WearLedger(directory), response_retention=retention)
    recover(hub)
    return hub


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(tenant_specs, min_size=1, max_size=MAX_TENANTS),
       ops=operations, retention=st.sampled_from((2, 3, 8, 4096)))
def test_grouped_replay_matches_per_record_replay_and_the_live_hub(
        specs, ops, retention):
    # Durability is not under test here, and fsync is where the time of
    # several hundred small WAL writes per example would go.
    with tempfile.TemporaryDirectory() as scratch, mock.patch("os.fsync"):
        root = Path(scratch)
        live = WearHub(WearLedger(str(root / "live")),
                       response_retention=retention)
        live.ledger.open_for_append()
        _drive_history(live, specs, ops)
        live.ledger.close()
        for arm in ("grouped", "reference"):
            shutil.copytree(root / "live", root / arm)

        grouped = _recovered(str(root / "grouped"), retention,
                             WearHub.recover)
        reference = _recovered(str(root / "reference"), retention,
                               reference_recover)
        _assert_same_state(reference, grouped)
        assert _retained(grouped) == _retained(reference)
        _assert_same_state(live, grouped)
        assert _retained(grouped) == _retained(live)

        live.ledger.open_for_append()
        hubs = (live, grouped, reference)
        after = [_serve_next(hub) for hub in hubs]
        for hub in hubs:
            hub.ledger.close()
        assert after[1] == after[2]
        assert after[1] == after[0]
        _assert_same_state(reference, grouped)
        assert _retained(grouped) == _retained(reference)
        _assert_same_state(live, grouped)
        assert _retained(grouped) == _retained(live)
