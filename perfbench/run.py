"""Run one workload of the spisep benchmark, check every output, print its metrics.

    python3 perfbench/run.py --workload atlas6 --seed 0 --seconds 15 --trace 0

Each run is one fresh process with BLAS pinned to one thread.  ``--trace 0``
measures the end-to-end metrics with nothing in the way.  ``--trace 1`` runs
the workload twice, traced then untraced, and reports the per-layer metrics
(spans around the benchmark's own calls into spisep), the tracing overhead,
and the wall time of one cold CLI call per subcommand.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.  The
exit code is 1 when any check failed.
"""

import bootstrap

PIN = bootstrap.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import calibrate  # noqa: E402

WORKLOADS = ("atlas6", "sssp-ladder", "forcing-ladder", "realize-ladder")
SETUP_SAMPLES = 5
MAX_PROBLEMS_SHOWN = 20

# name, unit, better, bound: the share of the parent's median it may worsen by.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# span name, per-layer fields, per-size medians (prefix, sizes), and the
# end-to-end metric each is expected to move, on which workload.
LAYERS = (
    ("sssp.has_sssp_rank", ("calls", "busy_s", "fail", "peak_alloc_mb", "retained_mb"),
     ("p", (10, 20, 30)),
     "items_per_s on sssp-ladder and item_p50_ms on atlas6; "
     "peak_alloc_mb and retained_mb move peak_rss_mb on sssp-ladder"),
    ("sssp.has_sssp_nullspace", ("calls", "busy_s", "fail", "peak_alloc_mb", "retained_mb"),
     ("p", (10, 20, 30)),
     "items_per_s on sssp-ladder and item_p50_ms on atlas6; "
     "peak_alloc_mb and retained_mb move peak_rss_mb on sssp-ladder"),
    ("core.symplectic_spectrum", ("calls", "busy_s"), None,
     "items_per_s and item_p99_ms on atlas6"),
    ("core.williamson", ("calls", "busy_s"), None, "items_per_s and item_p99_ms on atlas6"),
    ("zero_forcing.zc_minimum_set", ("calls", "busy_s"), ("n", (16, 18, 20)),
     "items_per_s on forcing-ladder; no change predicted on atlas6, where forcing is ~4%"),
    ("zero_forcing.zc_equals_one", ("calls", "busy_s"), None, "items_per_s on atlas6"),
    ("graphs.apply_labeling", ("calls", "busy_s"), None, "items_per_s on atlas6"),
    ("constructions.random_pd_with_graph", ("calls", "busy_s"), None, "items_per_s on atlas6"),
    ("catalogue.build_order4_catalogue", ("calls", "busy_s"), None, "items_per_s on atlas6"),
    ("sssp.continuation_realize", ("calls", "busy_s", "fail", "peak_alloc_mb"),
     ("n", (20, 30, 40)), "items_per_s on realize-ladder"),
    ("item", ("self_s",), None,
     "the benchmark's own time between layer calls; should move nothing"),
)
CLI_COMMANDS = (
    "spectrum", "williamson", "sssp", "construct", "zc", "catalogue-order4", "audit-sparsity",
)
UNITS = {"calls": "count", "fail": "count", "peak_alloc_mb": "MB", "retained_mb": "MB"}


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, what it should move)."""
    out = []
    for layer, fields, sizes, moves in LAYERS:
        for f in fields:
            out.append((f"{layer}.{f}", UNITS.get(f, "s"), "higher" if f == "calls" else "lower",
                        moves))
        if sizes:
            prefix, values = sizes
            out += [(f"{layer}.{prefix}{v}.median_s", "s", "lower", moves) for v in values]
    out.append(("spisep.import_s", "s", "lower", "setup_s on every workload"))
    out += [(f"cli.{c}.wall_s", "s", "lower", "setup_s on every workload") for c in CLI_COMMANDS]
    out.append(("trace.overhead", "ratio", "higher",
                "traced items_per_s over untraced items_per_s on this workload"))
    return out


# ---------------------------------------------------------------------------
# one timed phase
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """One timed phase: the workload's once-per-run part, then whole sweeps.

    Every item of every sweep counts, the first (cold) sweep too, so caches
    that fill during the phase count as they do in a user's sweep.  The
    timed metrics are scaled by the host's speed during the phase, as the
    calibration units between items measured it (see calibrate.py); the
    ``raw_`` values are the unscaled ones.
    """

    busy_s: float = 0.0  # the items' and the once-per-run part's time
    attempted: int = 0
    failed: int = 0
    sweeps: int = 0
    pace: calibrate.Pacer = field(default_factory=lambda: calibrate.Pacer("python"))
    latencies: list = field(default_factory=list)  # every item's latency, every sweep
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems += problems

    @property
    def raw_items_per_s(self) -> float:
        return len(self.latencies) / self.busy_s

    @property
    def raw_p50_ms(self) -> float:
        return 1e3 * statistics.median(self.latencies)

    @property
    def items_per_s(self) -> float:
        return self.raw_items_per_s / self.pace.speed

    @property
    def p50_ms(self) -> float:
        return self.raw_p50_ms * self.pace.speed_at(self.raw_p50_ms / 1e3)

    @property
    def p99_ms(self) -> float | None:
        """The 99th percentile of all latencies, when at least ten samples lie beyond it."""
        if len(self.latencies) < 1000:
            return None
        p99 = statistics.quantiles(self.latencies, n=100)[98]
        return 1e3 * p99 * self.pace.speed_at(p99)


def run_phase(workload, seed: int, seconds: float, caller) -> Phase:
    """Sweep the workload until ``seconds`` of timed work are done (at least one sweep).

    Only the items and the workload's once-per-run part are timed; every
    sweep is checked right after it, outside the clock, and the calibration
    units run between items, outside it too.
    """
    import workloads

    ph = Phase(pace=calibrate.Pacer(workload.calibration))
    t0 = time.perf_counter()
    try:
        once_problems = workload.once(caller, seed)
    except Exception as exc:  # counted as a failure, never skipped
        once_problems = [f"{type(exc).__name__}: {exc}"]
    ph.busy_s += time.perf_counter() - t0
    ph.pace(ph.busy_s)
    if once_problems is not None:
        ph.attempted += 1
        if once_problems:
            ph.fail(once_problems)
    while not ph.sweeps or ph.busy_s < seconds:
        inputs = workload.inputs(seed, ph.sweeps)
        results = workloads.sweep(workload, inputs, caller, ph.pace)
        ph.busy_s += sum(r.latency_s for r in results)
        ph.sweeps += 1
        ph.latencies += [r.latency_s for r in results]
        item_problems, sweep_problems, notes = workload.check(inputs, results)
        ph.attempted += len(results)
        for probs in item_problems:
            if probs:
                ph.fail(probs)
        for prob in sweep_problems:
            ph.fail([prob])
        ph.notes.append(notes)
    return ph


# ---------------------------------------------------------------------------
# set-up, CLI, machine probe, metadata
# ---------------------------------------------------------------------------

def setup_samples(name: str, seed: int) -> list[dict]:
    """Cold set-ups in fresh processes, one after another."""
    probe = str(bootstrap.ROOT / "perfbench" / "setup_probe.py")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, probe, name, str(seed)], capture_output=True, text=True,
            env=bootstrap.child_env(), cwd=bootstrap.ROOT, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def cli_inputs(workdir) -> dict[str, list[str]]:
    """Fixed inputs for the CLI calls, written with spisep's own writers."""
    import numpy as np
    from spisep import io
    from spisep.graphs import split_coupling

    import workloads

    rng = np.random.default_rng(12345)
    G = workloads.random_pattern(8, 0.3, rng)
    matrix = str(workdir / "matrix.json")
    io.save_matrix(matrix, workloads.random_pd(G, rng))
    graph = str(workdir / "graph.json")
    io.save_graph(graph, workloads.random_pattern(12, 0.3, rng), split_coupling(12))
    return {
        "spectrum": ["spectrum", matrix],
        "williamson": ["williamson", matrix],
        "sssp": ["sssp", matrix],
        "construct": ["construct", "tripath", "--size", "4", "--targets", "1,2,3,4"],
        "zc": ["zc", graph],
        "catalogue-order4": ["catalogue-order4"],
        "audit-sparsity": ["audit-sparsity", matrix],
    }


def cli_walls() -> tuple[dict[str, float], list[str]]:
    """One cold ``python -m spisep.cli <cmd> --json`` per subcommand: wall time and problems."""
    workdir = bootstrap.OUT / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    walls, problems = {}, []
    for cmd, argv in cli_inputs(workdir).items():
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spisep.cli", *argv, "--json"], capture_output=True,
            text=True, env=bootstrap.child_env(), cwd=bootstrap.ROOT, timeout=120, check=False,
        )
        walls[cmd] = time.perf_counter() - t0
        if proc.returncode != 0:
            problems.append(f"cli {cmd}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            problems.append(f"cli {cmd}: output is not JSON")
            continue
        if report.get("command") != cmd:
            problems.append(f"cli {cmd}: report names command {report.get('command')!r}")
    return walls, problems


def machine_probe() -> dict[str, float]:
    """A fixed pure-Python loop and a fixed BLAS call, for telling host drift from change."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    t1 = time.perf_counter()
    A = np.random.default_rng(0).standard_normal((400, 400))
    for _ in range(5):
        A = A @ A
        A /= np.max(np.abs(A))
    t2 = time.perf_counter()
    return {"python_loop_s": t1 - t0, "blas_matmul_s": t2 - t1}


def metadata(seed: int) -> dict:
    import networkx
    import numpy
    import scipy
    import spisep

    try:
        top = subprocess.run(
            ["git", "-C", str(bootstrap.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        sha = top[1] if os.path.realpath(top[0]) == os.path.realpath(bootstrap.ROOT) else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "seed": seed,
        "threads": PIN,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "spisep": spisep.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(ph: Phase, setups: list[dict]) -> dict[str, float]:
    return {
        "items_per_s": ph.items_per_s,
        "item_p50_ms": ph.p50_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }


def layer_values(summary: dict, setups: list[dict], walls: dict, overhead: float) -> dict:
    values = {}
    for layer, fields, sizes, _ in LAYERS:
        s = summary.get(layer, {})
        for f in fields:
            values[f"{layer}.{f}"] = s.get(f, 0)
        if sizes:
            prefix, sizes_ = sizes
            medians = s.get("median_s", {})
            for v in sizes_:
                values[f"{layer}.{prefix}{v}.median_s"] = medians.get(v, 0.0)
    values["spisep.import_s"] = statistics.median(s["import_s"] for s in setups)
    values.update({f"cli.{c}.wall_s": walls[c] for c in CLI_COMMANDS})
    values["trace.overhead"] = overhead
    return values


def phase_text(label: str, ph: Phase) -> str:
    return (
        f"{label}: {ph.sweeps} sweeps, {ph.attempted} attempted, {ph.failed} failed, "
        f"{len(ph.latencies)} latency samples, {ph.busy_s:.3f} s timed, host speed "
        f"{ph.pace.speed:.4f} (at p50 {ph.pace.speed_at(ph.raw_p50_ms / 1e3):.4f}); "
        f"unscaled items_per_s {ph.raw_items_per_s:.6g}, item_p50_ms {ph.raw_p50_ms:.6g}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    setups = setup_samples(args.workload, args.seed)
    main_import_s = bootstrap.import_spisep()
    import spans
    import workloads

    workload = workloads.make(args.workload)
    workload.warm_up(workload.inputs(args.seed, 0), spans.Untraced)

    report = {"workload": args.workload, "why": workload.why, **metadata(args.seed),
              "main_import_s": main_import_s, "setup_samples": setups}
    report["probe_before"] = machine_probe()
    phases = []
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        phases.append(("traced", run_phase(workload, args.seed, args.seconds, tracer)))
    plain = run_phase(workload, args.seed, args.seconds, spans.Untraced)
    phases.append(("untraced", plain))
    report["probe_after"] = machine_probe()

    attempted = sum(ph.attempted for _, ph in phases)
    failed = sum(ph.failed for _, ph in phases)
    problems = [p for _, ph in phases for p in ph.problems]
    e2e = end_to_end(plain, setups)
    if tracer is not None:
        walls, cli_problems = cli_walls()
        attempted += len(CLI_COMMANDS)
        failed += len(cli_problems)
        problems += cli_problems
        overhead = phases[0][1].items_per_s / plain.items_per_s
        metrics = layer_values(tracer.summary(), setups, walls, overhead)
        units = {name: unit for name, unit, _, _ in per_layer_metrics()}
        bootstrap.OUT.mkdir(parents=True, exist_ok=True)
        trace_file = bootstrap.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
        report["trace_file"] = str(trace_file.relative_to(bootstrap.ROOT))
        report["layer_moves"] = {name: moves for name, _, _, moves in per_layer_metrics()}
    else:
        metrics = e2e
        units = {name: unit for name, unit, _, _ in END_TO_END}
    report["notes"] = [n for _, ph in phases for n in ph.notes]
    report["problems"] = problems[:MAX_PROBLEMS_SHOWN]

    print(json.dumps(report))
    for label, ph in phases:
        print(phase_text(label, ph))
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    for name, unit, _, _ in END_TO_END:
        print(f"{name}: {e2e[name]:.6g} {unit}")
    if plain.p99_ms is not None:
        print(f"item_p99_ms: {plain.p99_ms:.6g} ms ({len(plain.latencies)} samples)")
    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED: {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
