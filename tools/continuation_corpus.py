"""Run continuation_realize over a seeded corpus of repeated targets.

    OPENBLAS_NUM_THREADS=1 python3 tools/continuation_corpus.py [--seeds 3000-3059]

For each seed s, n = 8 + 2 (s mod 10) and rng = default_rng(s).  The rng draws a
pattern of round(density n(n - 1) / 2) edges, by the rng calls of perfbench's
``random_pattern``, then n / 2 targets sort(uniform(0.5, 3)).  The smallest
target is repeated m times, and ``continuation_realize`` runs with a fresh
default_rng(s).  Each cell (density, m) prints how many calls realized, how many raised
ArithmeticError, how many realizations have an edge below 1e-6 max|N| (near a
subgraph), and the median and max Williamson solves per call and per failing
call, then the wall time of the whole corpus.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spisep import sssp  # noqa: E402
from spisep.graphs import LabeledGraph  # noqa: E402

DENSITIES = (0.2, 0.35)
MULTIPLICITIES = (1, 2, 3, 4)
NEAR_SUBGRAPH = 1e-6


def case(seed: int, density: float, m: int) -> tuple[LabeledGraph, np.ndarray]:
    """The pattern and the targets of one corpus case."""
    n = 8 + 2 * (seed % 10)
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    G = LabeledGraph.from_edges(n, (pairs[i] for i in sorted(chosen)))
    target = np.sort(rng.uniform(0.5, 3.0, n // 2))
    target[:m] = target[0]
    return G, target


def cell(seeds, density: float, m: int) -> dict:
    """Realized, failed and near-subgraph counts and Williamson solves per call."""
    williamson_columns, count = sssp._williamson_columns, [0]

    def counted(N):
        count[0] += 1
        return williamson_columns(N)

    sssp._williamson_columns = counted
    out = {"realized": 0, "failed": 0, "near_subgraph": 0, "solves": [], "failed_solves": []}
    try:
        for seed in seeds:
            G, target = case(seed, density, m)
            count[0] = 0
            try:
                N = sssp.continuation_realize(G, target, rng=np.random.default_rng(seed))
            except ArithmeticError:
                out["failed"] += 1
                out["failed_solves"].append(count[0])
            else:
                out["realized"] += 1
                edges = np.abs(N[tuple(np.array(sorted(G.edges)).T - 1)]) if G.edges else []
                out["near_subgraph"] += bool(np.any(edges < NEAR_SUBGRAPH * np.max(np.abs(N))))
            out["solves"].append(count[0])
    finally:
        sssp._williamson_columns = williamson_columns
    return out


def _median_max(xs: list) -> str:
    return f"{np.median(xs):g}/{max(xs)}" if xs else "-"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="3000-3059", help="an inclusive range lo-hi")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    print("density  m  realized  failed  near-subgraph  solves med/max  failing med/max")
    start = time.perf_counter()
    for density, m in itertools.product(DENSITIES, MULTIPLICITIES):
        c = cell(seeds, density, m)
        print(f"{density:<7}{m:3}{c['realized']:10}{c['failed']:8}{c['near_subgraph']:15}"
              f"{_median_max(c['solves']):>16}{_median_max(c['failed_solves']):>17}", flush=True)
    print(f"wall {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
