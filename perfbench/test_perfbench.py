"""Tests of the benchmark itself: tiny runs of each workload, and proof that
every check fires on a wrong output.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys

import bootstrap

bootstrap.pin_threads()
bootstrap.import_spisep()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "atlas6": lambda: workloads.Atlas6(graph_limit=3),
    "sssp-ladder": lambda: workloads.SsspLadder(sizes=(2, 3)),
    "forcing-ladder": lambda: workloads.ForcingLadder(rungs=((6, 0.3), (8, 0.6)), pins=None),
    "realize-ladder": lambda: workloads.RealizeLadder(sizes=(4, 6)),
}


def one_sweep(workload, caller=spans.Untraced, seed=0):
    inputs = workload.inputs(seed, 0)
    workload.warm_up(inputs, caller)
    results = workloads.sweep(workload, inputs, caller)
    return inputs, results, workload.check(inputs, results)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name):
    tracer = spans.Tracer()
    inputs, results, (item_probs, sweep_probs, _) = one_sweep(TINY[name](), tracer)
    assert all(r.error is None for r in results)
    assert item_probs == [[]] * len(results) and sweep_probs == []
    summary = tracer.summary()
    assert summary["item"]["calls"] == len(results)
    assert all(s["fail"] == 0 for s in summary.values())


def test_inputs_repeat_for_a_seed():
    w = TINY["realize-ladder"]()
    a, b = w.inputs(5, 1), w.inputs(5, 1)
    assert all(np.array_equal(x[2], y[2]) and x[1] == y[1] for x, y in zip(a, b))


def test_wrong_zc_is_a_failure():
    w = TINY["forcing-ladder"]()
    inputs, results, _ = one_sweep(w)
    rung, zset = inputs[0], results[0].out
    smaller = frozenset(sorted(zset)[:-1])
    assert checks.forcing_set_problems(2, [], [(1, 2)], frozenset()) != []
    assert w.check_rung(rung, smaller) != []
    pinned = (rung[0], len(zset) + 1)
    assert any("pinned" in p for p in w.check_rung(pinned, zset))


def test_atlas_checks_fire():
    w = TINY["atlas6"]()
    inputs, results, _ = one_sweep(w)
    inp, out = inputs.items[0], results[0].out
    assert w.check_item(inp, out) == []
    assert any("disagree" in p for p in w.check_item(inp, out._replace(rank=not out.null)))
    assert w.check_item(inp, out._replace(zc_one=not out.zc_one)) != []
    assert w.check_item(inp, out._replace(values=tuple(1.01 * v for v in out.values))) != []
    w.zc_histogram = (0, 0, 0, 0, 0)
    assert w.check(inputs, results)[1] != []


def test_oracle_disagreement_is_a_failure():
    w = TINY["sssp-ladder"]()
    inputs, results, _ = one_sweep(w)
    rank, (null, witness) = results[0].out
    assert w.check_rung(inputs[0], (not null, (null, witness))) != []


def test_off_pattern_realization_is_a_failure():
    w = TINY["realize-ladder"]()
    inputs, results, _ = one_sweep(w)
    rung, N = inputs[-1], results[-1].out
    assert w.check_rung(rung, N) == []
    G = rung[1]
    i, j = next((i, j) for i in range(1, G.order + 1) for j in range(i + 1, G.order + 1)
                if (i, j) not in G.edges)
    off = N.copy()
    off[i - 1, j - 1] = off[j - 1, i - 1] = 1e-3
    assert any("pattern" in p for p in w.check_rung(rung, off))
    assert any("target" in p for p in w.check_rung(rung, 1.1 * N))


class _BrokenLadder(workloads.SsspLadder):
    def check_rung(self, rung, out):
        return ["planted problem"]


def test_metrics_count_every_item_of_every_sweep():
    ph = run.Phase(busy_s=10.0, latencies=[4.0, 1.0, 2.0, 1.5])
    assert ph.items_per_s == 4 / 10.0 and ph.p50_ms == 1e3 * statistics.median([1.0, 1.5, 2.0, 4.0])
    assert ph.p99_ms is None


def test_pacer_keeps_its_share_of_the_work():
    pace = calibrate.Pacer("small_numpy")
    assert pace.speed == pace.speed_at(1e-3) == 1.0
    pace(0.05)
    assert pace.times and pace.cal_s >= calibrate.SHARE * 0.05
    units = len(pace.times)
    pace(0.0)
    assert len(pace.times) == units and pace.speed > 0
    assert pace.speed_at(10.0) == pytest.approx(pace.speed)


def test_speed_at_matches_latencies_with_units_as_long():
    pace = calibrate.Pacer("python")
    pace.times = [1.0, 1.0, 1.0, 4.0]
    pace.cal_s = sum(pace.times)
    nominal = pace.nominal_s
    assert pace.speed == pytest.approx(nominal / 1.75)
    assert pace.speed_at(1.0) == pytest.approx(nominal / 1.0)  # median of single units
    assert pace.speed_at(3.5) == pytest.approx(nominal / 1.75)  # blocks of two: 1.0 and 2.5
    assert pace.speed_at(100.0) == pytest.approx(pace.speed)


def test_cold_sweep_counts_in_the_timed_phase():
    ph = run.run_phase(workloads.SsspLadder(sizes=(2, 3)), 0, 1e-9, spans.Untraced)
    assert ph.sweeps == 1 and len(ph.latencies) == ph.attempted == 2
    assert sum(ph.latencies) <= ph.busy_s


def test_run_phase_counts_every_failed_item():
    ph = run.run_phase(_BrokenLadder(sizes=(2,)), 0, 1e-9, spans.Untraced)
    assert ph.attempted == len(ph.latencies) == 1
    assert ph.failed == 1 and ph.problems == ["planted problem"]


def test_benchmark_json_matches_the_tables():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.per_layer_metrics()
    ]
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.make(n).why for n in names]


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "realize-ladder", "--seed", "3",
         "--seconds", "0.01", "--trace", "1"],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in run.per_layer_metrics()}
    assert result["metrics"]["sssp.continuation_realize.n40.median_s"]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=bootstrap.child_env() | {"PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
