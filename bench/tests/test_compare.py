import json

import pytest

import run
import workloads
from compare import BENCHMARK_JSON, compare, verdict
from compare import main as compare_main


def test_verdict_against_the_bound():
    assert verdict([100, 101, 99], [95, 96, 94], "higher", 0.15)[0] == \
        "within"
    assert verdict([100] * 3, [80] * 3, "higher", 0.15)[0] == "worse"
    assert verdict([100] * 3, [80] * 3, "lower", 0.15)[0] == "better"
    assert verdict([100] * 3, [120] * 3, "lower", 0.15) == \
        ("worse", pytest.approx(0.2))


def test_a_spread_wider_than_the_bound_is_unresolved():
    assert verdict([50, 100, 150], [100] * 3, "lower", 0.15)[0] == \
        "unresolved"
    assert verdict([100] * 3, [50, 100, 150], "lower", 0.15)[0] == \
        "unresolved"


def _pass(value, failed=0):
    return {
        "exit_code": 0 if failed == 0 else 1,
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit in run.END_TO_END.items()},
    }


def _results(value, failed=0, workload="hub-10k"):
    return {"workloads": {workload: {"passes": [_pass(value, failed)] * 3}}}


def _metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def _verdicts(a, b):
    return {(row[0], row[1]): row[-1] for row in compare(a, b, _metrics())}


def test_compare_judges_error_rate_with_no_tolerance():
    rows = _verdicts(_results(10.0), _results(10.0, failed=1))
    assert rows["hub-10k", "error_rate"] == "worse"
    assert rows["hub-10k", "throughput_ops_s"] == "within"


def _write(tmp_path, name, results):
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return str(path)


def test_a_crashed_pass_fails_the_comparison(tmp_path):
    b = _results(10.0)
    crashed = {"exit_code": 1}   # printed no result line
    b["workloads"]["hub-10k"]["passes"][1] = crashed
    assert _verdicts(_results(10.0), b) == {("hub-10k", "*"): "failed"}
    b["workloads"]["hub-10k"]["passes"][1] = dict(_pass(10.0), exit_code=-9)
    assert _verdicts(_results(10.0), b) == {("hub-10k", "*"): "failed"}
    a_path = _write(tmp_path, "a.json", _results(10.0))
    assert compare_main([a_path, _write(tmp_path, "b.json", b)]) == 1
    assert compare_main([a_path, a_path]) == 0


def test_a_workload_on_one_side_only_is_missing(tmp_path):
    a = _results(10.0)
    b = _results(10.0)
    b["workloads"].update(_results(10.0, workload="recover-1k")["workloads"])
    rows = _verdicts(a, b)
    assert rows["recover-1k", "*"] == "missing"
    assert rows["hub-10k", "throughput_ops_s"] == "within"
    assert compare_main([_write(tmp_path, "a.json", a),
                         _write(tmp_path, "b.json", b)]) == 1


def test_benchmark_json_describes_what_the_benchmark_prints():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.OPS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == run.per_layer_table()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
