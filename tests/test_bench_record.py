import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _output(items_per_s, item_p50_ms, correct=True, failed=0):
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "item_p50_ms": {"value": item_p50_ms, "unit": "ms"},
    }}
    # run.py prints a JSON fingerprint line and text before its result line
    return "\n".join(["sha: abc", '{"zc_histogram": [1, 2]}', "items_per_s: 1 1/s",
                      json.dumps(result)]) + "\n"


def test_last_json_line_is_the_result():
    assert bench_record.last_json_line(_output(2.0, 5.0))["metrics"]["items_per_s"]["value"] == 2.0


def test_summarize_medians_quartiles_and_wins():
    parent = [(1.0, 50.0), (2.0, 40.0), (3.0, 30.0), (4.0, 20.0), (5.0, 10.0)]
    change = [(10.0, 5.0), (1.5, 45.0), (30.0, 30.0), (40.0, 2.0), (50.0, 1.0)]
    pairs = [(bench_record.last_json_line(_output(*a)), bench_record.last_json_line(_output(*b)))
             for a, b in zip(parent, change)]
    s = bench_record.summarize(pairs, END_TO_END)
    assert s["pairs"] == 5 and s["correct"]
    ips, p50 = s["metrics"]["items_per_s"], s["metrics"]["item_p50_ms"]
    assert ips["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "iqr": 3.0}
    assert ips["change"]["median"] == 30.0
    assert ips["change_wins"] == 4  # higher is better; 1.5 < 2.0 loses
    assert p50["change_wins"] == 3  # lower is better; 45 > 40 loses, 30 = 30 ties
    assert (ips["better"], ips["unit"], ips["bound"]) == ("higher", "1/s", 0.25)


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_summarize_is_incorrect_when_any_run_is(bad):
    good = bench_record.last_json_line(_output(1.0, 1.0))
    worse = bench_record.last_json_line(_output(1.0, 1.0, **bad))
    assert not bench_record.summarize([(good, good), (good, worse)], END_TO_END)["correct"]


def test_seed_ranges():
    assert bench_record.seeds("0-4") == [0, 1, 2, 3, 4]
    assert bench_record.seeds("7") == [7]


def test_layer_values_keep_each_metric_value():
    result = bench_record.last_json_line(_output(2.0, 5.0, failed=1))
    assert bench_record.layer_values(result) == {
        "correct": False, "metrics": {"items_per_s": 2.0, "item_p50_ms": 5.0}}
