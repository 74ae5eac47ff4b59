"""Tests for the multi-tenant wear hub (provisioning, rounds, recovery)."""

import numpy as np
import pytest

from repro.connection import keystore
from repro.connection.architecture import LimitedUseConnection
from repro.core.degradation import PAPER_CRITERIA, DesignPoint
from repro.core.weibull import WeibullDistribution
from repro.engine.state import WearState
from repro.errors import (
    ConfigurationError,
    DeviceWornOutError,
    LedgerCorruptionError,
)
from repro.obs.recorder import OBS
from repro.obs.sinks import InMemorySink
from repro.service.hub import WearHub, _Pool, _RowDispatchHook
from repro.service.ledger import WearLedger
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.rng import make_rng

ALPHA, BETA, N, K, COPIES, SEED = 9.0, 6.0, 6, 2, 3, 42
SECRET = bytes(range(16))


def _provision_request(name="t0", *, seed=SEED, faults=None, **overrides):
    request = {"op": "provision", "tenant": name, "alpha": ALPHA,
               "beta": BETA, "n": N, "k": K, "copies": COPIES,
               "seed": seed, "secret": SECRET.hex(), "faults": faults}
    request.update(overrides)
    return request


@pytest.fixture
def hub(tmp_path):
    hub = WearHub(WearLedger(str(tmp_path)))
    hub.ledger.open_for_append()
    yield hub
    hub.ledger.close()


class TestProvision:
    def test_provision_reports_capacity(self, hub):
        response = hub.provision(_provision_request())
        assert response["status"] == "ok"
        assert response["capacity"] > 0
        assert response["copies"] == COPIES

    def test_duplicate_name_denied(self, hub):
        hub.provision(_provision_request())
        assert hub.provision(_provision_request())["status"] == "exists"

    def test_invalid_parameters_denied(self, hub):
        for bad in (_provision_request(k=0),
                    _provision_request(secret="not hex"),
                    _provision_request(secret=""),
                    _provision_request(faults={"unknown_field": 1}),
                    {"op": "provision", "tenant": "t"}):
            assert hub.provision(bad)["status"] == "bad-request"

    @pytest.mark.parametrize("overrides", [
        {"scheme": "rs", "n": 300},
        {"n": 70000, "k": 2},
        {"alpha": float("inf")},
        {"alpha": float("nan")},
        {"beta": float("nan")},
        {"seed": -1},
        pytest.param({"alpha": 1e300, "beta": 1e-3, "seed": 1},
                     marks=pytest.mark.filterwarnings(
                         "ignore:overflow:RuntimeWarning")),
        {"alpha": 1e19, "beta": 1000.0},
        {"alpha": 4e18, "beta": 50.0, "seed": 1},
    ], ids=["rs-n300", "n70000", "alpha-inf", "alpha-nan", "beta-nan",
            "seed-negative", "lifetime-inf", "lifetime-past-int64",
            "budget-sum-past-int64"])
    def test_unbuildable_provision_never_enters_the_wal(
            self, tmp_path, overrides):
        """Inputs the parameter checks pass but fabrication rejects."""
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        assert hub.provision(_provision_request("a"))["status"] == "ok"
        before = hub.ledger.next_seq
        response = hub.provision(_provision_request("b", **overrides))
        assert response["status"] == "bad-request"
        assert hub.ledger.next_seq == before
        assert "b" not in hub.tenants
        hub.ledger.close()
        recovered = WearHub(WearLedger(str(tmp_path)))
        assert recovered.recover() == 1
        assert list(recovered.tenants) == ["a"]
        recovered.ledger.close()

    def test_same_shape_tenants_share_a_pool(self, hub):
        hub.provision(_provision_request("a", seed=1))
        hub.provision(_provision_request("b", seed=2))
        hub.provision(_provision_request("c", seed=3, n=4, k=2))
        assert len(hub.pools) == 2
        assert hub.tenants["a"].pool is hub.tenants["b"].pool
        assert hub.tenants["a"].row != hub.tenants["b"].row


class TestPool:
    def test_capacity_doubles_and_stays_under_twice_the_rows(self):
        # The differential batching suite pins the arrays' contents.
        pool = _Pool(COPIES, N, K)
        for b in range(37):
            assert pool.add_row(np.full((1, COPIES, N), 4.0)) == b
            assert pool.state.instances == b + 1
            # The smallest power of two holding b + 1 rows: < 2x them.
            capacity = len(pool.state.used.base if b else pool.state.used)
            assert capacity == 1 << b.bit_length()

    def test_switch_views_stay_live_across_growth(self):
        pool = _Pool(1, 2, 1)
        pool.add_row(np.full((1, 1, 2), 5.0))
        view = pool.state.view(0, 0, 1)
        for _ in range(9):
            pool.add_row(np.full((1, 1, 2), 3.0))
        view.add_wear(2)
        assert pool.state.used[0, 0, 1] == 2
        pool.state.step_access(np.array([0]))
        assert view.cycles_used == 3


class TestRowDispatch:
    def test_no_hooks_pass_closures_through(self):
        closed = np.ones((3, 2), dtype=bool)
        observed = _RowDispatchHook().on_bank_actuate(
            None, np.arange(3), np.zeros(3, dtype=np.int64), closed)
        assert observed is closed

    def test_only_hooked_rows_are_visited(self):
        calls = []

        class Invert:
            def on_bank_actuate(self, state, instances, copies, closed):
                calls.append(instances.tolist())
                return ~closed

        dispatch = _RowDispatchHook()
        dispatch.row_hooks[5] = Invert()
        closed = np.ones((3, 2), dtype=bool)
        observed = dispatch.on_bank_actuate(
            None, np.array([7, 5, 2]), np.zeros(3, dtype=np.int64), closed)
        assert calls == [[5]]
        assert observed.tolist() == [[True, True], [False, False],
                                     [True, True]]
        assert closed.all()


class TestServeRound:
    def test_unknown_tenant_denied(self, hub):
        responses = hub.serve_round(["ghost"])
        assert responses["ghost"]["status"] == "unknown-tenant"

    def test_duplicate_tenant_in_round_rejected(self, hub):
        hub.provision(_provision_request())
        with pytest.raises(ConfigurationError):
            hub.serve_round(["t0", "t0"])

    def test_duplicate_is_refused_before_any_counter_moves(self, hub):
        """An idempotent replay earlier in the refused round is not
        counted, by the hub or by the serving metrics."""
        hub.provision(_provision_request("a", seed=1))
        hub.provision(_provision_request("b", seed=2))
        hub.serve_round([("a", "r1")])
        OBS.reset()
        OBS.configure(sinks=[InMemorySink()], enabled=True)
        try:
            before = (hub.idempotent_replays, hub.rounds,
                      hub.ledger.next_seq, hub.tenants["a"].attempts,
                      hub.tenants["b"].attempts)
            with pytest.raises(ConfigurationError, match="'b' twice"):
                hub.serve_round([("a", "r1"), ("b", "x"), ("b", "y")])
            assert (hub.idempotent_replays, hub.rounds,
                    hub.ledger.next_seq, hub.tenants["a"].attempts,
                    hub.tenants["b"].attempts) == before
            assert OBS.metrics.counter("svc.idempotent_replays") == 0
            # The same replay in a valid round is counted once.
            hub.serve_round([("a", "r1"), ("b", "x")])
            assert hub.idempotent_replays == before[0] + 1
            assert OBS.metrics.counter("svc.idempotent_replays") == 1
        finally:
            OBS.reset()

    def test_round_serves_each_tenant_its_own_secret(self, hub):
        hub.provision(_provision_request("a", seed=1))
        hub.provision(_provision_request("b", seed=2,
                                         secret=(b"\xaa" * 16).hex()))
        responses = hub.serve_round(["a", "b"])
        assert responses["a"]["status"] == "ok"
        assert responses["a"]["secret"] == SECRET.hex()
        assert responses["b"]["secret"] == (b"\xaa" * 16).hex()

    def test_exhaustion_is_an_explicit_denial(self, hub):
        hub.provision(_provision_request())
        last = None
        for _ in range(10_000):
            response = hub.serve_round(["t0"])["t0"]
            if response["status"] != "ok":
                last = response
                break
        assert last is not None, "tenant never exhausted"
        assert last["status"] == "exhausted"
        assert last["served"] > 0
        assert hub.tenants["t0"].exhausted
        # Post-exhaustion accesses are denied without touching the WAL.
        before = hub.ledger.next_seq
        assert hub.serve_round(["t0"])["t0"]["status"] == "exhausted"
        assert hub.ledger.next_seq == before

    def test_accesses_are_logged_before_execution(self, hub):
        hub.provision(_provision_request())
        hub.serve_round(["t0"])
        assert hub.ledger.next_seq == 2  # provision + access


class TestStatus:
    def test_single_tenant_status(self, hub):
        hub.provision(_provision_request())
        hub.serve_round(["t0"])
        status = hub.status("t0")
        assert status["status"] == "ok"
        assert status["attempts"] == 1
        assert status["served"] == 1
        assert status["wear_cycles"] > 0
        assert status["remaining"] > 0

    def test_all_tenants_status(self, hub):
        hub.provision(_provision_request("a", seed=1))
        hub.provision(_provision_request("b", seed=2))
        status = hub.status()
        assert set(status["tenants"]) == {"a", "b"}
        assert hub.status("ghost")["status"] == "unknown-tenant"

    def test_all_tenant_status_matches_the_wear_gauges(self, hub):
        hub.provision(_provision_request(
            "fault", seed=1, faults={"misfire_rate": 0.2}))
        for name, seed in (("touched", 2), ("spent", 3), ("fresh", 4)):
            hub.provision(_provision_request(name, seed=seed))
        for _ in range(5):
            hub.serve_round(["fault", "touched"])
        for _ in range(10_000):
            if hub.tenants["spent"].exhausted:
                break
            hub.serve_round(["spent"])
        status = hub.status()["tenants"]
        gauges = hub.wear_gauges()
        assert set(status) == set(gauges)
        assert status["spent"]["exhausted"]
        for name, gauge in gauges.items():
            assert status[name]["remaining"] == gauge["remaining_capacity"]
            for field in ("current_copy", "dead_banks", "wear_cycles",
                          "exhausted"):
                assert status[name][field] == gauge[field], (name, field)
            single = hub.status(name)
            assert single.pop("status") == "ok"
            assert single.pop("tenant") == name
            assert single == status[name]

    def test_fault_tenant_reports_injections(self, hub):
        hub.provision(_provision_request(faults={"misfire_rate": 0.2}))
        for _ in range(20):
            hub.serve_round(["t0"])
        status = hub.status("t0")
        assert "injections" in status


class TestLazyShares:
    """Keystores build their shares on first readout, so a hook-free
    tenant never splits its secret: not at provisioning, not in a round,
    not in recovery."""

    @pytest.fixture
    def splits(self, monkeypatch) -> list:
        calls = []
        split_secret = keystore.split_secret

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return split_secret(*args, **kwargs)

        monkeypatch.setattr(keystore, "split_secret", counting)
        return calls

    @staticmethod
    def _built(tenant) -> list[int]:
        return [copy for copy, store in enumerate(tenant.stores)
                if store._shares_list is not None]

    def test_hook_free_tenants_never_split(self, tmp_path, splits):
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        names = [f"t{i}" for i in range(20)]
        for i, name in enumerate(names):
            hub.provision(_provision_request(name, seed=i))
        served = 0
        for index in range(40):
            responses = hub.serve_round([(name, f"r{index}")
                                         for name in names])
            served += sum(r["status"] == "ok" for r in responses.values())
            for name, response in responses.items():
                if response["status"] == "ok":
                    assert bytes.fromhex(response["secret"]) == SECRET
        hub.ledger.close()
        recovered = WearHub(WearLedger(str(tmp_path)))
        recovered.recover()
        recovered.ledger.close()
        assert served > 0
        assert splits == []
        for tenant in [*hub.tenants.values(), *recovered.tenants.values()]:
            assert self._built(tenant) == []
        assert recovered.status()["tenants"] == hub.status()["tenants"]

    def test_fault_tenant_splits_each_copy_it_reads_once(
            self, tmp_path, splits):
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        hub.provision(_provision_request(faults={"misfire_rate": 0.2}))
        read = set()
        while True:
            response = hub.serve_round([("t0", f"r{hub.rounds}")])["t0"]
            if response["status"] == "exhausted":
                break
            assert response["status"] == "ok"
            read.add(response["copy"])
            assert len(splits) == len(read)
        hub.ledger.close()
        assert splits == [(K, N)] * len(read)
        assert self._built(hub.tenants["t0"]) == sorted(read)
        del splits[:]
        recovered = WearHub(WearLedger(str(tmp_path)))
        recovered.recover()
        recovered.ledger.close()
        assert splits == [(K, N)] * len(read)
        assert self._built(recovered.tenants["t0"]) == sorted(read)


class TestConnectionEquivalence:
    """A hub tenant must be the *same device* as a standalone connection.

    Same seed, same architecture: the service's pooled, vectorized
    tenant must serve byte-identical secrets for exactly as many
    accesses as a sequentially-driven
    :class:`~repro.connection.architecture.LimitedUseConnection`.
    """

    def test_secret_sequence_and_bound_match(self, hub):
        hub.provision(_provision_request())
        design = DesignPoint(
            device=WeibullDistribution(alpha=ALPHA, beta=BETA),
            n=N, k=K, t=1, copies=COPIES, access_bound=1,
            criteria=PAPER_CRITERIA)
        connection = LimitedUseConnection(design, SECRET, make_rng(SEED))

        served = 0
        while True:
            response = hub.serve_round(["t0"])["t0"]
            if response["status"] != "ok":
                break
            assert bytes.fromhex(response["secret"]) == connection.read_key()
            assert response["copy"] == connection.current_copy
            served += 1
        assert served > 0
        with pytest.raises(DeviceWornOutError):
            connection.read_key()
        assert connection.is_exhausted


class TestIdempotency:
    def test_replay_returns_the_recorded_response(self, hub):
        hub.provision(_provision_request())
        first = hub.serve_round([("t0", "rid-1")])["t0"]
        assert first["status"] == "ok"
        wal_after_first = hub.ledger.next_seq
        attempts = hub.tenants["t0"].attempts
        replayed = hub.serve_round([("t0", "rid-1")])["t0"]
        assert replayed == first
        # The replay charged nothing: no WAL record, no attempt.
        assert hub.ledger.next_seq == wal_after_first
        assert hub.tenants["t0"].attempts == attempts
        assert hub.idempotent_replays == 1

    def test_distinct_rids_each_charge_wear(self, hub):
        hub.provision(_provision_request())
        a = hub.serve_round([("t0", "rid-a")])["t0"]
        b = hub.serve_round([("t0", "rid-b")])["t0"]
        assert hub.tenants["t0"].attempts == 2
        assert a["attempts"] == 1 and b["attempts"] == 2

    def test_rid_is_persisted_in_the_wal_record(self, hub):
        hub.provision(_provision_request())
        hub.serve_round([("t0", "rid-x")])
        import json
        with open(hub.ledger.wal_path) as handle:
            last = json.loads(handle.read().splitlines()[-1])
        assert last["op"] == "access"
        assert last["rid"] == "rid-x"

    def test_exhausted_answer_is_recorded_too(self, hub):
        hub.provision(_provision_request(n=1, k=1, copies=1, alpha=0.5,
                                         beta=6.0))
        rid_index = 0
        while True:
            rid = f"rid-{rid_index}"
            response = hub.serve_round([("t0", rid)])["t0"]
            rid_index += 1
            if response["status"] == "exhausted":
                break
        again = hub.serve_round([("t0", rid)])["t0"]
        assert again == response
        assert hub.idempotent_replays == 1

    def test_keyed_request_to_an_exhausted_tenant_is_not_retained(
            self, hub):
        hub.provision(_provision_request(n=1, k=1, copies=1, alpha=0.5,
                                         beta=6.0))
        while not hub.tenants["t0"].exhausted:
            hub.serve_round(["t0"])
        before = hub.ledger.next_seq
        first = hub.serve_round([("t0", "late")])["t0"]
        assert first["status"] == "exhausted"
        # Nothing logged, so nothing retained: a recovered hub could not
        # retain it either.
        assert hub.ledger.next_seq == before
        assert hub.recorded_response("t0", "late") is None
        again = hub.serve_round([("t0", "late")])["t0"]
        assert again == first
        assert hub.ledger.next_seq == before
        assert hub.idempotent_replays == 0

    def test_plain_string_rounds_still_work(self, hub):
        hub.provision(_provision_request())
        response = hub.serve_round(["t0"])["t0"]
        assert response["status"] == "ok"
        # Unkeyed accesses are never recorded for replay.
        assert not hub._responses

    def test_response_retention_is_fifo_bounded(self, tmp_path):
        hub = WearHub(WearLedger(str(tmp_path)), response_retention=2)
        hub.ledger.open_for_append()
        try:
            hub.provision(_provision_request())
            for index in range(3):
                hub.serve_round([("t0", f"rid-{index}")])
            assert hub.recorded_response("t0", "rid-0") is None
            assert hub.recorded_response("t0", "rid-2") is not None
        finally:
            hub.ledger.close()


class TestSelfContainedSnapshot:
    FAULTS = {"misfire_rate": 0.1, "stuck_closed_probability": 0.5,
              "timeout_rate": 0.05}

    def _drive(self, hub, rounds, tag):
        responses = []
        for index in range(rounds):
            responses.append(hub.serve_round(
                [("t0", f"{tag}-{index}")])["t0"])
        return responses

    def test_snapshot_meta_is_format_2(self, hub):
        hub.provision(_provision_request())
        hub.serve_round(["t0"])
        hub.write_snapshot()
        payload = load_checkpoint(hub.ledger.snapshot_path)
        assert payload["meta"]["format"] == 2
        assert payload["results"][0]["params"]["n"] == N

    def test_fault_tenant_recovers_from_snapshot_alone(self, tmp_path):
        # Drive a faulted tenant, snapshot, rotate the pre-snapshot
        # records away so recovery CANNOT re-execute them, then keep
        # driving.  Recovery must restore from the snapshot and replay
        # only the tail - landing on the same state and regenerating
        # the same keyed responses the live hub produced.
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        hub.provision(_provision_request(faults=self.FAULTS))
        self._drive(hub, 5, "pre")
        hub.write_snapshot()
        hub.ledger.rotate_segment()
        continued = self._drive(hub, 8, "post")
        hub.ledger.close()

        recovered = WearHub(WearLedger(str(tmp_path)))
        recovered.recover()
        tenant, mirror = hub.tenants["t0"], recovered.tenants["t0"]
        assert mirror.attempts == tenant.attempts
        assert mirror.served == tenant.served
        for field in ("used", "lifetime", "bank_accesses", "bank_dead",
                      "current", "total_accesses"):
            assert np.array_equal(
                getattr(tenant.pool.state, field)[tenant.row],
                getattr(mirror.pool.state, field)[mirror.row]), field
        # Stepped replay of the post-rotation tail regenerated every
        # keyed response byte for byte.
        for index, response in enumerate(continued):
            assert recovered.recorded_response(
                "t0", f"post-{index}") == response
        recovered.ledger.close()

    def test_round_trip_across_a_pool_growth_boundary(self, tmp_path):
        # Three rows before the snapshot (capacity 4), six after it
        # (capacity 8): recovery rebuilds the pool through the growth.
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        names = [f"t{i}" for i in range(6)]
        for i, name in enumerate(names):
            if i == 3:
                hub.serve_round([(n, f"pre-{n}") for n in names[:3]])
                hub.write_snapshot()
            hub.provision(_provision_request(
                name, seed=i, faults=self.FAULTS if i % 2 else None))
        for index in range(4):
            hub.serve_round([(n, f"post-{index}-{n}") for n in names])
        hub.ledger.close()

        recovered = WearHub(WearLedger(str(tmp_path)))
        recovered.recover()
        recovered.ledger.close()
        assert recovered.status()["tenants"] == hub.status()["tenants"]
        for name in names:
            tenant, mirror = hub.tenants[name], recovered.tenants[name]
            assert mirror.row == tenant.row
            for field in ("used", "lifetime", "bank_accesses", "bank_dead",
                          "current", "total_accesses"):
                assert np.array_equal(
                    getattr(tenant.pool.state, field)[tenant.row],
                    getattr(mirror.pool.state, field)[mirror.row]), field
            for index in range(4):
                rid = f"post-{index}-{name}"
                assert recovered.recorded_response(name, rid) \
                    == hub.recorded_response(name, rid)

    def test_keyed_responses_survive_the_snapshot(self, tmp_path):
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        hub.provision(_provision_request())
        original = hub.serve_round([("t0", "rid-keep")])["t0"]
        hub.write_snapshot()
        hub.ledger.rotate_segment()
        hub.ledger.close()
        recovered = WearHub(WearLedger(str(tmp_path)))
        recovered.recover()
        recovered.ledger.open_for_append()
        assert recovered.serve_round([("t0", "rid-keep")])["t0"] == original
        assert recovered.idempotent_replays == 1
        recovered.ledger.close()

    def _snapshotted_ledger(self, tmp_path, rewrite):
        """A fault tenant's ledger whose snapshot ``rewrite`` edited."""
        hub = WearHub(WearLedger(str(tmp_path)))
        hub.ledger.open_for_append()
        hub.provision(_provision_request(faults=self.FAULTS))
        self._drive(hub, 3, "pre")
        hub.write_snapshot()
        hub.ledger.close()
        payload = load_checkpoint(hub.ledger.snapshot_path)
        rewrite(payload)
        save_checkpoint(hub.ledger.snapshot_path, meta=payload["meta"],
                        results=payload["results"])
        return str(tmp_path)

    def test_format_1_snapshot_is_refused(self, tmp_path):
        def downgrade(payload):
            payload["meta"]["format"] = 1

        recovered = WearHub(WearLedger(
            self._snapshotted_ledger(tmp_path, downgrade)))
        with pytest.raises(LedgerCorruptionError,
                           match="snapshot format 1, not 2"):
            recovered.recover()
        assert recovered.tenants == {}
        recovered.ledger.close()

    def test_fault_entry_without_stream_states_is_refused(self, tmp_path):
        def strip(payload):
            del payload["results"][0]["fault"]["stream_states"]

        recovered = WearHub(WearLedger(
            self._snapshotted_ledger(tmp_path, strip)))
        with pytest.raises(LedgerCorruptionError,
                           match="'t0' does not restore: 'stream_states'"):
            recovered.recover()
        recovered.ledger.close()


class TestGroupedReplay:
    """Recovery steps replayed records in rounds, not one per record.

    ``tests/differential/test_grouped_replay.py`` pins the identity with
    per-record replay; these pin the cost and what replay reports.
    """

    def _ledger(self, path, tenants, rounds, per_round, keyed=True):
        """A hook-free population served seeded rounds of distinct
        tenants, closed without a snapshot; returns the live hub."""
        hub = WearHub(WearLedger(str(path)))
        hub.ledger.open_for_append()
        names = [f"t{i}" for i in range(tenants)]
        for i, name in enumerate(names):
            hub.provision(_provision_request(name, seed=i))
        order = np.random.default_rng(7)
        for index in range(rounds):
            picked = [names[i] for i in order.permutation(tenants)[
                :per_round]]
            hub.serve_round([(name, f"r{index}") if keyed else name
                             for name in picked])
        hub.ledger.close()
        return hub

    def _count_steps(self, path, monkeypatch):
        calls = []
        step_access = WearState.step_access

        def counting(state, rows):
            calls.append(len(rows))
            return step_access(state, rows)

        monkeypatch.setattr(WearState, "step_access", counting)
        recovered = WearHub(WearLedger(str(path)))
        recovered.recover()
        recovered.ledger.close()
        monkeypatch.undo()
        return recovered, calls

    def test_keyed_records_replay_in_at_most_one_step_per_round(
            self, tmp_path, monkeypatch):
        live = self._ledger(tmp_path, tenants=40, rounds=12, per_round=16)
        recovered, calls = self._count_steps(tmp_path, monkeypatch)
        # One call per record would be 12 x 16 = 192.
        assert len(calls) <= 12
        assert sum(calls) == 12 * 16
        assert recovered.status()["tenants"] == live.status()["tenants"]
        assert list(recovered._responses.items()) \
            == list(live._responses.items())

    def test_unkeyed_hook_free_records_take_the_closed_form(
            self, tmp_path, monkeypatch):
        live = self._ledger(tmp_path, tenants=40, rounds=12, per_round=16,
                            keyed=False)
        recovered, calls = self._count_steps(tmp_path, monkeypatch)
        assert calls == []
        assert recovered.status()["tenants"] == live.status()["tenants"]

    @pytest.mark.parametrize("record", [
        _provision_request("t0", k=0),
        _provision_request(""),
        _provision_request("t0", seed=9),
        pytest.param(_provision_request("t1", alpha=1e300, beta=1e-3),
                     marks=pytest.mark.filterwarnings(
                         "ignore:overflow:RuntimeWarning")),
        _provision_request("t1", alpha=4e18, beta=50.0, seed=1),
    ], ids=["invalid", "unnamed", "duplicate", "lifetime-inf",
            "budget-sum-past-int64"])
    def test_provision_record_that_does_not_build_is_corruption(
            self, tmp_path, record):
        ledger = WearLedger(str(tmp_path))
        ledger.append(_provision_request("t0"))
        ledger.append(record)
        ledger.close()
        recovered = WearHub(WearLedger(str(tmp_path)))
        with pytest.raises(LedgerCorruptionError,
                           match="provision record 1 does not replay"):
            recovered.recover()
        recovered.ledger.close()

    def test_replay_does_not_feed_the_serving_metrics(self, tmp_path):
        # Every round names all 20 tenants, so each is one replay round.
        self._ledger(tmp_path, tenants=20, rounds=10, per_round=20)
        sink = InMemorySink()
        OBS.reset()
        OBS.configure(sinks=[sink], enabled=True)
        try:
            recovered = WearHub(WearLedger(str(tmp_path)))
            recovered.recover()
            metrics = OBS.metrics
            assert metrics.histogram("svc.kernel_s") is None
            for name in ("svc.accesses_served", "svc.wear_consumed",
                         "svc.provisions", "svc.rounds"):
                assert metrics.counter(name) == 0, name
            (event,) = [e for e in sink.events
                        if e.get("name") == "svc.recovered"]
            assert event["attrs"]["replay_rounds"] == 10
            assert event["attrs"]["records"] == 20 + 10 * 20

            responses = recovered.serve_round(["t0", "t1"])
            served = sum(r["status"] == "ok" for r in responses.values())
            assert served
            assert metrics.histogram("svc.kernel_s").count == 1
            assert metrics.counter("svc.accesses_served") == served
            assert metrics.counter("svc.wear_consumed") == served * N
            recovered.ledger.close()
        finally:
            OBS.reset()
