"""Record parent/change pairs of benchmark runs as one BENCH_<topic>.json.

    python3 tools/bench_record.py --topic <topic> --base <rev> \
        --workload realize-ladder --seeds 0-9 [--workload atlas6 --seeds 0-4 ...] \
        [--trace realize-ladder ...]

The change is the working tree this is run from; the parent is ``--base``,
extracted from git into a temporary directory.  For each workload and seed
both sides run ``python3 perfbench/run.py --workload W --seed S`` in turn,
at the benchmark's own run length and thread pin, alternating which runs
first, and the last JSON line of each run is kept.  The record holds both
shas, the thread pin, the seeds, and for each end-to-end metric of
BENCHMARK.json each side's median and quartiles and the number of pairs the
change won.  For each workload named by ``--trace``, both sides also make one
``--trace 1`` run at its first seed, whose per-layer metrics are kept.  The
record is rewritten after every pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(text: str) -> dict:
    return json.loads([line for line in text.splitlines() if line.startswith("{")][-1])


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per-metric medians, IQR and change wins over (parent, change) run results."""
    out = {"pairs": len(pairs), "metrics": {}}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        par, chg = ([r["metrics"][name]["value"] for r in side] for side in zip(*pairs))
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": quartiles(par), "change": quartiles(chg),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
        }
    out["correct"] = all(r["correct"] and r["failed"] == 0 for pair in pairs for r in pair)
    return out


def layer_values(result: dict) -> dict:
    """The correctness and each metric's value of one ``--trace 1`` result."""
    return {"correct": result["correct"] and result["failed"] == 0,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def run(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "1"] if trace else []
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not any(line.startswith("{") for line in proc.stdout.splitlines()):
        raise RuntimeError(f"{checkout}: no result from {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    return last_json_line(proc.stdout)


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", required=True)
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", action="append", required=True, help="e.g. 0-9, one per workload")
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                    help="also record one traced run per side at this workload's first seed")
    args = ap.parse_args()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "command": "python3 perfbench/run.py --workload <w> --seed <s>",
        "parent": git("rev-parse", args.base).decode().strip(),
        "change": git("rev-parse", "HEAD").decode().strip(),
        "change_uncommitted": bool(git("status", "--porcelain", "--", "src", "perfbench").strip()),
        "OPENBLAS_NUM_THREADS": "1", "cpu_count": os.cpu_count(), "workloads": {},
    }
    out = ROOT / f"BENCH_{args.topic}.json"
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=git("archive", args.base), check=True)
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload, spec in zip(args.workload, args.seeds, strict=True):
            pairs = []
            for i, seed in enumerate(seeds(spec)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: run(sides[side], workload, seed) for side in order}
                pairs.append((got["parent"], got["change"]))
                record["workloads"][workload] = {
                    "seeds": seeds(spec)[: i + 1],
                    "first": ["parent" if k % 2 == 0 else "change" for k in range(i + 1)],
                    **summarize(pairs, end_to_end), "runs": [list(p) for p in pairs],
                }
                out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
            if workload in args.trace:
                seed = seeds(spec)[0]
                record["workloads"][workload]["trace"] = {"seed": seed, **{
                    side: layer_values(run(sides[side], workload, seed, trace=True))
                    for side in ("parent", "change")}}
                out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
