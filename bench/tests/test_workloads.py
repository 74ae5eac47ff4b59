import functools
import json

import pytest

import run
import workloads
from repro.service import WearHub
from spans import LAYERS, Tracer, _resolve

TINY = {
    "serve-64": {"tenants": 4, "warmup_s": 0.1, "setups": 2},
    "hub-10k": {"tenants": 40, "batch": 8, "warmup_s": 0.05},
    "faults-campaign": {"trials": 8, "setups": 1, "warmup_trials": 1},
    "recover-1k": {"tenants": 20, "rounds": 6, "batch": 8, "setups": 2,
                   "sample_rids": 4},
}

#: Layers each workload must reach inside its measured ops.
#: ``codes.reed_solomon.decode_many`` is left out: ``faults-campaign``
#: reaches it once in 50 to 160 trials, too rarely for a tiny run.
REACHED = {
    "serve-64": ("service.protocol.encode_frame",
                 "service.protocol.decode_payload", "service.batcher.submit",
                 "service.hub.serve_round", "service.ledger.fsync"),
    "hub-10k": ("service.hub.serve_round", "service.ledger.append_batch",
                "service.ledger.fsync", "engine.state.step_access",
                "connection.keystore.recover"),
    "faults-campaign": ("connection.resilient.read_key",
                        "core.hardware.access", "connection.keystore.init",
                        "connection.keystore.recover",
                        "faults.injectors.on_shares_readout",
                        "codes.shamir.split_secret",
                        "codes.shamir.recover_from_pairs",
                        "codes.threshold.rs_split_secret"),
    "recover-1k": ("service.hub.recover", "service.ledger.replay",
                   "service.hub.provision", "engine.state.step_access",
                   "connection.keystore.recover"),
}

#: Layers each workload must reach in its set-up.
SETUP_REACHED = {
    "serve-64": ("service.hub.provision", "service.ledger.append_batch"),
    "hub-10k": ("service.hub.provision", "service.ledger.append_batch",
                "service.ledger.fsync", "engine.state.remaining_capacity",
                "connection.keystore.init", "codes.shamir.split_secret"),
    "faults-campaign": ("connection.keystore.init",),
    "recover-1k": ("service.hub.provision", "service.ledger.append_batch",
                   "engine.state.remaining_capacity"),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_at_a_tiny_size(name, tmp_path):
    result = workloads.WORKLOADS[name](0, 0.3, str(tmp_path), **TINY[name])
    assert result.checks.attempted > 0
    assert result.checks.failed == 0, result.checks.failures
    metrics, _ = run.end_to_end_metrics(result)
    assert {k: m["unit"] for k, m in metrics.items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layer_times_add_up_to_the_wall_time(name, tmp_path):
    originals = {(target, attr): vars(_resolve(target))[attr]
                 for _, target, attr, _ in LAYERS}
    result = workloads.WORKLOADS[name](1, 0.4, str(tmp_path),
                                       tracer=Tracer(), **TINY[name])
    for (target, attr), original in originals.items():
        assert vars(_resolve(target))[attr] is original
    assert result.checks.failed == 0, result.checks.failures
    metrics = run.per_layer_metrics(result)
    assert [(k, m["unit"]) for k, m in metrics.items()] == [
        (row[0], row[1]) for row in run.per_layer_table()]
    values = {k: m["value"] for k, m in metrics.items()}
    self_names = [run._layer_names(layer)[0] for layer, *_ in LAYERS]
    assert (sum(values[k] for k in self_names)
            + values["bench.unattributed_ms"]) == pytest.approx(
                values["bench.op_wall_ms"])
    assert values["bench.unattributed_ms"] >= 0
    setup = [run._setup_names(layer)[0] for layer in run.SETUP_LAYERS]
    assert (sum(values[k] for k in setup) + values["setup.other_layers_s"]
            + values["setup.unattributed_s"]) == pytest.approx(
                values["setup.wall_s"])
    for layer in REACHED[name]:
        assert values[run._layer_names(layer)[1]] > 0, layer
    for layer in SETUP_REACHED[name]:
        assert values[run._setup_names(layer)[1]] > 0, layer


def _forge_secrets(monkeypatch):
    real = WearHub.serve_round

    def forged(self, requests):
        return {name: dict(response, secret="00" * 16)
                for name, response in real(self, requests).items()}

    monkeypatch.setattr(WearHub, "serve_round", forged)


def test_a_forged_secret_is_counted_as_an_error(tmp_path, monkeypatch):
    _forge_secrets(monkeypatch)
    result = workloads.hub(0, 0.1, str(tmp_path), **TINY["hub-10k"])
    assert result.checks.attempted > 0
    assert result.checks.failed == result.checks.attempted


def test_a_wrong_output_makes_the_command_fail(monkeypatch, capsys):
    _forge_secrets(monkeypatch)
    monkeypatch.setitem(workloads.WORKLOADS, "hub-10k",
                        functools.partial(workloads.hub, **TINY["hub-10k"]))
    assert run.run_one("hub-10k", 0, 0.1, False) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0


def test_an_over_ceiling_trial_is_counted_as_an_error(tmp_path,
                                                     monkeypatch):
    real = workloads.run_fault_trial

    def violating(*args, **kwargs):
        return dict(real(*args, **kwargs), violated=True)

    monkeypatch.setattr(workloads, "run_fault_trial", violating)
    result = workloads.faults(0, 0.1, **TINY["faults-campaign"])
    assert result.checks.failed == result.checks.attempted > 0
