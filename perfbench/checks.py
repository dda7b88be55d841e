"""Reference checks written independently of spisep.

Each function returns a list of problems (empty when the output is right),
so a workload can count every miss instead of stopping at the first.
"""

from __future__ import annotations

import numpy as np

SPECTRUM_RTOL = 1e-8
WILLIAMSON_TOL = 1e-8
REALIZE_TOL = 1e-6
WITNESS_TOL = 1e-8


def omega(p: int) -> np.ndarray:
    om = np.zeros((2 * p, 2 * p))
    om[:p, p:] = np.eye(p)
    om[p:, :p] = -np.eye(p)
    return om


def paired_moduli(N: np.ndarray) -> tuple[np.ndarray, float]:
    """Symplectic eigenvalues as paired moduli of eig(Omega N), and the worst pair gap."""
    p = N.shape[0] // 2
    mods = np.sort(np.abs(np.linalg.eigvals(omega(p) @ N)))
    lo, hi = mods[0::2], mods[1::2]
    return 0.5 * (lo + hi), float(np.max((hi - lo) / hi))


def spectrum_problems(values, N: np.ndarray) -> list[str]:
    ref, pair_gap = paired_moduli(N)
    values = np.asarray(values, dtype=float)
    if pair_gap > SPECTRUM_RTOL:
        return [f"eig(Omega N) moduli do not pair (gap {pair_gap:.2e})"]
    if values.shape != ref.shape:
        return [f"spectrum has {values.size} values, expected {ref.size}"]
    err = float(np.max(np.abs(values - ref) / ref))
    return [] if err <= SPECTRUM_RTOL else [f"spectrum off reference by {err:.2e}"]


def williamson_problems(N: np.ndarray, S: np.ndarray, d) -> list[str]:
    p = N.shape[0] // 2
    d = np.asarray(d, dtype=float)
    scale = float(np.max(np.abs(N)))
    D = np.diag(np.concatenate([d, d]))
    out = []
    diag_res = float(np.max(np.abs(S.T @ N @ S - D)))
    if diag_res > WILLIAMSON_TOL * scale:
        out.append(f"Williamson diagonalization residual {diag_res:.2e}")
    om = omega(p)
    symp_res = float(np.max(np.abs(S.T @ om @ S - om)))
    if symp_res > WILLIAMSON_TOL * max(1.0, scale):
        out.append(f"Williamson factor off symplectic by {symp_res:.2e}")
    out += [f"Williamson d: {m}" for m in spectrum_problems(d, N)]
    return out


def relevant_sets(order: int, edges, pairs) -> dict[int, set[int]]:
    """N(v) plus v's coupled partner, for every vertex v of 1..order."""
    rel = {v: set() for v in range(1, order + 1)}
    for i, j in list(edges) + list(pairs):
        rel[i].add(j)
        rel[j].add(i)
    return rel


def coupled_closure(order: int, edges, pairs, blue) -> set[int]:
    """Coupled color change on the relevant sets.

    A blue v with exactly one white vertex in its relevant set forces it; a
    white v whose relevant set is all blue forces itself.
    """
    rel = relevant_sets(order, edges, pairs)
    blue = set(blue)
    changed = True
    while changed:
        changed = False
        for v in range(1, order + 1):
            white = rel[v] - blue
            if v in blue and len(white) == 1:
                blue |= white
                changed = True
            elif v not in blue and not white:
                blue.add(v)
                changed = True
    return blue


def forcing_set_problems(order: int, edges, pairs, zset) -> list[str]:
    """A claimed minimum coupled forcing set must force and respect the degree bound."""
    out = []
    if len(coupled_closure(order, edges, pairs, zset)) != order:
        out.append(f"set {sorted(zset)} does not force the coupled graph")
    delta = min(map(len, relevant_sets(order, edges, pairs).values()))
    if len(zset) < delta:
        out.append(f"zc {len(zset)} below the closure graph's minimum degree {delta}")
    return out


def pattern_problems(N: np.ndarray, edges) -> list[str]:
    """N must have a nonzero entry exactly at the edges (1-based i < j) off its diagonal."""
    n = N.shape[0]
    tol = 1e-10 * float(np.max(np.abs(N)))
    want = set(edges)
    have = {(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if abs(N[i, j]) > tol}
    if have == want:
        return []
    return [f"pattern differs from G: {len(have - want)} extra, {len(want - have)} missing edges"]


def realization_problems(N: np.ndarray, edges, target) -> list[str]:
    """N must be symmetric PD, have exactly the pattern ``edges`` and the target spectrum."""
    N = np.asarray(N, dtype=float)
    out = [] if np.array_equal(N, N.T) else ["realization is not symmetric"]
    if np.linalg.eigvalsh(0.5 * (N + N.T))[0] <= 0.0:
        out.append("realization is not positive definite")
    out += pattern_problems(N, edges)
    vals, _ = paired_moduli(N)
    err = float(np.max(np.abs(vals - np.sort(np.asarray(target, dtype=float)))))
    if err > REALIZE_TOL:
        out.append(f"spectrum {err:.2e} from target")
    return out


def sssp_problems(N: np.ndarray, rank_verdict: bool, null_verdict: bool, witness) -> list[str]:
    """The two oracles must agree; a failure witness Y must satisfy N o Y = 0 and commute."""
    if rank_verdict != null_verdict:
        return [f"SSSP oracles disagree: rank {rank_verdict}, nullspace {null_verdict}"]
    if null_verdict:
        return []
    if witness is None:
        return ["SSSP false without a witness"]
    Y = np.asarray(witness, dtype=float)
    ON = omega(N.shape[0] // 2) @ N
    scale = float(np.max(np.abs(N))) * float(np.max(np.abs(Y)))
    out = []
    if float(np.max(np.abs(Y))) == 0.0:
        out.append("SSSP witness is zero")
    if float(np.max(np.abs(N * Y))) > WITNESS_TOL * scale:
        out.append("SSSP witness overlaps the pattern of N")
    if float(np.max(np.abs(ON @ Y + Y @ ON.T))) > WITNESS_TOL * scale:
        out.append("SSSP witness does not commute")
    return out
