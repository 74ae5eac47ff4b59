"""Batched service rounds must be bit-identical to sequential handling.

The coalescer's contract: serving a round of distinct tenants through
one vectorized kernel call produces byte-for-byte the same responses -
and the same final wear arrays, and the same WAL bytes - as serving the
same requests one at a time in arrival order.  Pinned here over an
interleaved multi-tenant schedule, with and without fault models (fault
tenants consume their own RNG substreams, so batch composition must not
perturb them), at 4 tenants and at 37, whose pool grows through several
capacity doublings while it is provisioned, and over rounds that mix
two pool shapes, keyed and traced items, retries answered from the
retention table, and unknown and exhausted tenants.  Every retry here
falls well inside the default retention, away from the one boundary
where the two differ (see ``WearHub.serve_round``).
"""

import json

import numpy as np
import pytest

from repro.engine.state import WearState
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.protocol import encode_frame

TENANTS = ("alpha", "bravo", "charlie", "delta")

#: An interleaved schedule of coalesced rounds (no tenant twice in one
#: round - the batcher invariant).  Sequential handling flattens it.
SCHEDULE = (
    ("alpha", "bravo", "charlie"),
    ("bravo", "delta"),
    ("alpha",),
    ("alpha", "bravo", "charlie", "delta"),
    ("charlie", "alpha"),
    ("delta", "bravo", "alpha"),
    ("alpha", "bravo", "charlie", "delta"),
    ("alpha", "bravo", "charlie", "delta"),
    ("bravo",),
    ("alpha", "charlie", "delta"),
) * 4


def _names(tenants: int) -> tuple[str, ...]:
    if tenants == len(TENANTS):
        return TENANTS
    return tuple(f"t{i:02d}" for i in range(tenants))


def _schedule(tenants: int) -> tuple[tuple[str, ...], ...]:
    """:data:`SCHEDULE` at 4 tenants, else seeded rounds of distinct
    tenants in shuffled arrival order."""
    if tenants == len(TENANTS):
        return SCHEDULE
    names = _names(tenants)
    rng = np.random.default_rng(tenants)
    return tuple(tuple(names[i] for i in rng.permutation(tenants)[
        :rng.integers(1, tenants + 1)]) for _ in range(50))


def _provision_requests(faulty: bool, tenants: int = 4) -> list[dict]:
    requests = []
    for index, name in enumerate(_names(tenants)):
        faults = None
        if faulty and index % 2 == 0:  # mix fault and fault-free tenants
            faults = {"misfire_rate": 0.15, "timeout_rate": 0.05}
        requests.append({
            "op": "provision", "tenant": name, "alpha": 8.0, "beta": 5.0,
            "n": 5, "k": 2, "copies": 3, "seed": 100 + index,
            "secret": bytes((index + b) % 256 for b in range(16)).hex(),
            "faults": faults,
        })
    return requests


def _assert_pool_matches_one_step_build(hub: WearHub, requests: list[dict],
                                        solo_dir) -> None:
    """The grown pool equals a ``WearState`` built in one step from the
    lifetimes each tenant gets when it is provisioned alone (each on a
    throwaway ledger under ``solo_dir``)."""
    lifetimes = []
    for request in requests:
        solo = WearHub(WearLedger(str(solo_dir / request["tenant"])))
        solo.provision(request)
        solo.ledger.close()
        lifetimes.append(solo.tenants[request["tenant"]].pool.state.lifetime)
    (pool,) = hub.pools.values()
    built = WearState(np.concatenate(lifetimes), pool.k)
    for field in ("lifetime", "used", "bank_accesses", "bank_dead",
                  "current", "total_accesses"):
        grown = getattr(pool.state, field)
        assert grown.dtype == getattr(built, field).dtype, field
        assert np.array_equal(grown, getattr(built, field)), field


def _drive(tmp_path, label: str, faulty: bool, batched: bool,
           tenants: int = 4) -> tuple[list[bytes], WearHub]:
    hub = WearHub(WearLedger(str(tmp_path / label)))
    hub.ledger.open_for_append()
    requests = _provision_requests(faulty, tenants)
    for request in requests:
        assert hub.provision(request)["status"] == "ok"
    _assert_pool_matches_one_step_build(hub, requests,
                                        tmp_path / f"{label}-solo")
    frames: list[bytes] = []
    for round_names in _schedule(tenants):
        if batched:
            responses = hub.serve_round(list(round_names))
            frames.extend(encode_frame(responses[name])
                          for name in round_names)
        else:
            for name in round_names:
                frames.append(encode_frame(hub.serve_round([name])[name]))
    hub.ledger.close()
    return frames, hub


def _state_arrays(hub: WearHub) -> dict[str, dict[str, np.ndarray]]:
    out = {}
    for name, tenant in hub.tenants.items():
        state, row = tenant.pool.state, tenant.row
        out[name] = {
            "used": state.used[row].copy(),
            "bank_accesses": state.bank_accesses[row].copy(),
            "bank_dead": state.bank_dead[row].copy(),
            "current": state.current[row].copy(),
            "total_accesses": state.total_accesses[row].copy(),
        }
    return out


@pytest.mark.parametrize(
    ("faulty", "tenants"),
    [(False, 4), (True, 4), (False, 37), (True, 37)],
    ids=["fault-free", "with-faults", "fault-free-37", "with-faults-37"])
def test_batched_rounds_match_sequential_bit_for_bit(tmp_path, faulty,
                                                     tenants):
    batched_frames, batched_hub = _drive(tmp_path, "batched", faulty,
                                         batched=True, tenants=tenants)
    sequential_frames, sequential_hub = _drive(tmp_path, "sequential",
                                               faulty, batched=False,
                                               tenants=tenants)

    # Every response, as its exact wire bytes.
    assert batched_frames == sequential_frames
    # The workload exercised real wear, not just denials.
    served = sum(1 for frame in batched_frames if b'"status":"ok"' in frame)
    assert served > 0

    # Final engine arrays, per tenant.
    batched_arrays = _state_arrays(batched_hub)
    sequential_arrays = _state_arrays(sequential_hub)
    for name in batched_hub.tenants:
        for field, value in batched_arrays[name].items():
            assert np.array_equal(value, sequential_arrays[name][field]), \
                f"{name}.{field} diverged under batching"

    # Counters and fault-injection tallies.
    for name in batched_hub.tenants:
        batched_tenant = batched_hub.tenants[name]
        sequential_tenant = sequential_hub.tenants[name]
        assert batched_tenant.attempts == sequential_tenant.attempts
        assert batched_tenant.served == sequential_tenant.served
        if batched_tenant.fault_model is not None:
            assert batched_tenant.fault_model.injection_counts() \
                == sequential_tenant.fault_model.injection_counts()

    # The WAL is the same history, byte for byte.
    with open(batched_hub.ledger.wal_path, "rb") as a, \
            open(sequential_hub.ledger.wal_path, "rb") as b:
        assert a.read() == b.read()


def test_exhaustion_order_is_batching_invariant(tmp_path):
    """Drive far past exhaustion: the denial tail must match too."""
    long_schedule = SCHEDULE * 30
    hub_batched = WearHub(WearLedger(str(tmp_path / "b")))
    hub_batched.ledger.open_for_append()
    hub_sequential = WearHub(WearLedger(str(tmp_path / "s")))
    hub_sequential.ledger.open_for_append()
    for request in _provision_requests(faulty=True):
        hub_batched.provision(request)
        hub_sequential.provision(request)
    for round_names in long_schedule:
        batch = hub_batched.serve_round(list(round_names))
        for name in round_names:
            single = hub_sequential.serve_round([name])[name]
            assert encode_frame(batch[name]) == encode_frame(single)
    assert all(t.exhausted for t in hub_batched.tenants.values()), \
        "schedule too short to reach exhaustion"
    hub_batched.ledger.close()
    hub_sequential.ledger.close()


#: Shapes ``(copies, n, k)`` of the mixed schedule's two pools.
MIXED_SHAPES = ((3, 5, 2), (2, 4, 3))


def _mixed_provisions() -> list[dict]:
    """Ten tenants over two pools: fault and RS tenants, and lifetimes
    short enough that most exhaust within the mixed schedule."""
    requests = []
    for index in range(10):
        copies, n, k = MIXED_SHAPES[index % 2]
        faults = None
        if index % 3 == 0:
            faults = {"misfire_rate": 0.1, "corruption_rate": 0.05,
                      "timeout_rate": 0.05}
        requests.append({
            "op": "provision", "tenant": f"m{index}",
            "alpha": 4.0 + 2 * index, "beta": 5.0, "n": n, "k": k,
            "copies": copies, "seed": 300 + index,
            "secret": bytes((3 * index + b) % 256 for b in range(16)).hex(),
            "scheme": "rs" if index % 4 == 1 else "shamir",
            "faults": faults,
        })
    return requests


def _mixed_schedule(names: list[str]) -> list[list]:
    """Seeded rounds of distinct names (and an unknown one) as bare
    names, ``(tenant, rid)`` pairs, ``(tenant, rid, trace)`` triples,
    and retries of a rid the tenant sent in an earlier round."""
    rng = np.random.default_rng(31)
    sent: dict[str, list[str]] = {name: [] for name in names}
    rounds = []
    for r in range(80):
        chosen = rng.permutation(names + ["ghost"])[
            :rng.integers(1, len(names) + 2)]
        items = []
        for j, name in enumerate(chosen.tolist()):
            kind = rng.integers(4)
            rid = f"r{r}-{j}"
            if kind == 0 and sent.get(name):
                old = sent[name][rng.integers(len(sent[name]))]
                items.append((name, old, f"retry-{r}-{j}"))
            elif kind == 1:
                items.append(name)
            elif kind == 2:
                items.append((name, rid))
            else:
                items.append((name, rid, f"tr-{r}-{j}"))
            if isinstance(items[-1], tuple) and name in sent:
                sent[name].append(items[-1][1])
        rounds.append(items)
    return rounds


def _item_name(item) -> str:
    return item[0] if isinstance(item, tuple) else item


def _drive_mixed(tmp_path, label: str, batched: bool):
    hub = WearHub(WearLedger(str(tmp_path / label)))
    hub.ledger.open_for_append()
    requests = _mixed_provisions()
    for request in requests:
        assert hub.provision(request)["status"] == "ok"
    frames: list[bytes] = []
    for items in _mixed_schedule([r["tenant"] for r in requests]):
        if batched:
            responses = hub.serve_round(items)
            frames.extend(encode_frame(responses[_item_name(item)])
                          for item in items)
        else:
            for item in items:
                frames.append(encode_frame(
                    hub.serve_round([item])[_item_name(item)]))
    hub.ledger.close()
    return frames, hub


def test_mixed_rounds_match_sequential_bit_for_bit(tmp_path):
    batched_frames, batched_hub = _drive_mixed(tmp_path, "batched", True)
    sequential_frames, sequential_hub = _drive_mixed(tmp_path, "sequential",
                                                     False)

    # The schedule reached every case it is meant to mix.
    assert len(batched_hub.pools) == len(MIXED_SHAPES)
    statuses = [json.loads(frame[4:])["status"] for frame in batched_frames]
    for status in ("ok", "exhausted", "unknown-tenant"):
        assert status in statuses, status
    assert batched_hub.idempotent_replays > 0
    with open(batched_hub.ledger.wal_path, "rb") as handle:
        batched_wal = handle.read()
    assert b'"trace":' in batched_wal and b'"rid":' in batched_wal

    assert batched_frames == sequential_frames
    assert batched_hub.idempotent_replays \
        == sequential_hub.idempotent_replays
    batched_arrays = _state_arrays(batched_hub)
    sequential_arrays = _state_arrays(sequential_hub)
    for name, tenant in batched_hub.tenants.items():
        for field, value in batched_arrays[name].items():
            assert np.array_equal(value, sequential_arrays[name][field]), \
                f"{name}.{field} diverged under batching"
        assert tenant.attempts == sequential_hub.tenants[name].attempts
        assert tenant.served == sequential_hub.tenants[name].served
    assert list(batched_hub._responses.items()) \
        == list(sequential_hub._responses.items())
    with open(sequential_hub.ledger.wal_path, "rb") as handle:
        assert batched_wal == handle.read()
