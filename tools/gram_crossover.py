"""Time both SSSP oracles on the dense and on the sparse Gram path, p = 8..30.

    OPENBLAS_NUM_THREADS=1 python3 tools/gram_crossover.py [--reps 7] [--seed 0]

For each p one 30%-density positive definite matrix of order 2p is drawn,
and has_sssp_rank and has_sssp_nullspace are timed (median of ``--reps``
calls, in ms) with ``sssp._SPARSE_GRAM_ORDER`` set above the Gram order,
so the row matrix is dense, and to 0, so it is a sparse array.  The two
settings take turns, so a change in host speed reaches both columns.  Next
to each time is the call's peak of memory traced by ``tracemalloc`` (MiB),
from one further call, since tracing slows the calls it traces.  The Gram
order of both oracles is m, the number of non-edges, and
``_SPARSE_GRAM_ORDER`` is set where the sparse columns start to win.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spisep import graphs, sssp  # noqa: E402
from spisep.constructions import random_pd_with_graph  # noqa: E402

DENSITY = 0.3
SIZES = (8, 10, 12, 14, 16, 17, 18, 19, 20, 22, 25, 30)


def median_ms(f, N, orders, reps):
    """Median ms of f(N) under each Gram order switch, the switches taking turns."""
    times = {order: [] for order in orders}
    for _ in range(reps):
        for order in orders:
            sssp._SPARSE_GRAM_ORDER = order
            start = time.perf_counter()
            f(N)
            times[order].append(time.perf_counter() - start)
    return [1e3 * statistics.median(times[order]) for order in orders]


def peak_mib(f, N, order):
    """The traced peak of one call of f(N) under the Gram order switch, in MiB."""
    sssp._SPARSE_GRAM_ORDER = order
    tracemalloc.start()
    try:
        f(N)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print("p     m      rank dense     rank sparse      null dense     null sparse"
          "   (ms MiB)")
    for p in SIZES:
        n = 2 * p
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < DENSITY]
        N = random_pd_with_graph(graphs.LabeledGraph.from_edges(n, edges), rng)
        m = n * (n - 1) // 2 - len(edges)
        row = []
        for f in (sssp.has_sssp_rank, sssp.has_sssp_nullspace):
            orders = (m + 1, 0)  # dense, then sparse
            row += zip(median_ms(f, N, orders, args.reps), (peak_mib(f, N, o) for o in orders))
        print(f"{p:<3}{m:>6}" + "".join(f"{t:10.2f}{mib:6.1f}" for t, mib in row), flush=True)


if __name__ == "__main__":
    main()
