"""Time and size the full verification matrix on two routes, p = 10, 20, 30.

    OPENBLAS_NUM_THREADS=1 python3 tools/verification_sweep.py [--reps 3] [--seed 0]

For each p one 30%-density positive definite matrix of order 2p is drawn.
``verification_matrix(N).full`` gathers every triangle row straight from N;
the basis route stacks vec_triangle(M.T N + N M) over the 2p^2 + p elements
of ``sp_basis(p)``, as the tests' reference does.  Each route reports its
best of ``--reps`` wall times (ms) and, from one more call, its tracemalloc
peak (MB); the two matrices are checked ``np.array_equal``.
"""

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spisep import graphs, sssp  # noqa: E402
from spisep.constructions import random_pd_with_graph  # noqa: E402

DENSITY = 0.3
SIZES = (10, 20, 30)


def basis_route(N):
    p = N.shape[0] // 2
    return np.column_stack([sssp.vec_triangle(M.T @ N + N @ M) for M in sssp.sp_basis(p)])


def gathered(N):
    return sssp.verification_matrix(N).full


def measure(f, N, reps):
    """Best wall time (ms) of ``reps`` calls, then the tracemalloc peak (MB) of one."""
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        f(N)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    out = f(N)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, 1e3 * best, peak / 2**20


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print("p    basis ms  basis MB   gathered ms  gathered MB  equal")
    for p in SIZES:
        n = 2 * p
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < DENSITY]
        N = random_pd_with_graph(graphs.LabeledGraph.from_edges(n, edges), rng)
        ref, ref_ms, ref_mb = measure(basis_route, N, args.reps)
        got, got_ms, got_mb = measure(gathered, N, args.reps)
        print(f"{p:<3}{ref_ms:10.1f}{ref_mb:10.1f}{got_ms:14.1f}{got_mb:13.1f}"
              f"  {np.array_equal(got, ref)}", flush=True)


if __name__ == "__main__":
    main()
