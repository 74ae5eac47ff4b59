"""The hub's fault tenants read shares in one batch, bit for bit.

A keystore with a fault model hands each recovery's readouts to one
``FaultModel.on_shares_readout`` call.  This pins that against the
per-share reference (:class:`tests.differential._reference.PerShareKeyStore`):
a seeded population of fault-model tenants - misfire, corruption and
timeout at varied rates, over two pool shapes - is driven through the
normal hub and through a hub whose keystores read one share at a time,
under both sharing schemes.  Responses (as wire bytes), the
``WearState`` arrays, the fault streams and the WAL bytes must match.
"""

import numpy as np
import pytest

import repro.connection.architecture as architecture
from repro.service.hub import WearHub
from repro.service.ledger import WearLedger
from repro.service.protocol import encode_frame
from tests.differential._reference import PerShareKeyStore, PerShareReadout

TENANTS = 12
ROUNDS = 30
#: ``(copies, n, k)`` of the two pools the population splits across.
SHAPES = ((3, 6, 4), (2, 9, 5))
STATE_ARRAYS = ("lifetime", "used", "bank_accesses", "bank_dead", "current",
                "total_accesses")


def _population(scheme: str) -> list[dict]:
    rng = np.random.default_rng(7)
    requests = []
    for index in range(TENANTS):
        copies, n, k = SHAPES[index % len(SHAPES)]
        requests.append({
            "op": "provision", "tenant": f"t{index:02d}", "alpha": 5.0,
            "beta": 5.0, "n": n, "k": k, "copies": copies,
            "seed": 200 + index, "scheme": scheme,
            "secret": rng.bytes(16).hex(),
            "faults": {"misfire_rate": float(rng.uniform(0.0, 0.1)),
                       "corruption_rate": float(rng.uniform(0.02, 0.2)),
                       "timeout_rate": float(rng.uniform(0.02, 0.1))},
        })
    return requests


def _schedule() -> list[list[str]]:
    """Seeded rounds of distinct tenants in shuffled arrival order."""
    rng = np.random.default_rng(8)
    names = [f"t{index:02d}" for index in range(TENANTS)]
    return [[names[i] for i in rng.permutation(TENANTS)[
        :rng.integers(1, TENANTS + 1)]] for _ in range(ROUNDS)]


def _drive(path, scheme: str) -> tuple[list[bytes], WearHub]:
    hub = WearHub(WearLedger(str(path)))
    hub.ledger.open_for_append()
    for request in _population(scheme):
        assert hub.provision(request)["status"] == "ok"
    frames = []
    for names in _schedule():
        responses = hub.serve_round(names)
        frames.extend(encode_frame(responses[name]) for name in names)
    hub.ledger.close()
    return frames, hub


@pytest.mark.parametrize("scheme", ["shamir", "rs"])
def test_batched_readout_matches_per_share_reference(tmp_path, monkeypatch,
                                                     scheme):
    frames, hub = _drive(tmp_path / "batched", scheme)
    monkeypatch.setattr(architecture, "BankKeyStore", PerShareKeyStore)
    reference_frames, reference = _drive(tmp_path / "per-share", scheme)
    assert all(isinstance(store.fault_hook, PerShareReadout)
               for tenant in reference.tenants.values()
               for store in tenant.stores)

    assert frames == reference_frames
    assert hub.pools.keys() == reference.pools.keys()
    for key, pool in hub.pools.items():
        for array in STATE_ARRAYS:
            assert np.array_equal(getattr(pool.state, array),
                                  getattr(reference.pools[key].state,
                                          array)), (key, array)
    for name, tenant in hub.tenants.items():
        model = tenant.fault_model
        other = reference.tenants[name].fault_model
        assert model.injection_counts() == other.injection_counts(), name
        assert ([s.bit_generator.state for s in model.streams]
                == [s.bit_generator.state for s in other.streams]), name
    with open(hub.ledger.wal_path, "rb") as a, \
            open(reference.ledger.wal_path, "rb") as b:
        assert a.read() == b.read()

    # Every fault kind fired, and the workload mixed serves, readout
    # failures and exhaustion.
    totals: dict[str, int] = {}
    for tenant in hub.tenants.values():
        for kind, count in tenant.fault_model.injection_counts().items():
            totals[kind] = totals.get(kind, 0) + count
    assert all(totals[kind] > 0
               for kind in ("misfire", "corruption", "timeout")), totals
    for status in (b'"status":"ok"', b'"status":"fault"',
                   b'"status":"exhausted"'):
        assert any(status in frame for frame in frames), status
