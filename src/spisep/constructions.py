"""Factories for symplectic positive definite matrices and spectral realizations.

All randomized constructions take an explicit seed or generator; nothing
draws from global state.  "With high probability" constructions are made
deterministic by checking the produced pattern and resampling a bounded
number of times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .core import (
    _nonzero,
    _symmetric_block,
    as_symmetric,
    basic_symplectic,
    is_positive_definite,
    is_symplectic,
    is_symplectic_pd,
    pattern_tol,
)
from .graphs import LabeledGraph, complete_graph, graph_of_matrix

_MAX_RESAMPLE = 100


def _check_targets(target) -> np.ndarray:
    # the one rule for target spectra: nonempty, every value positive and finite
    t = np.asarray(target, dtype=float).ravel()
    if t.size == 0 or not np.all((t > 0) & (t < np.inf)):
        raise ValueError("targets must be positive and finite")
    return t


def dopico_johnson(N11, W) -> np.ndarray:
    """The general symplectic positive definite matrix built from (N11, W).

    Every symplectic PD matrix arises as
    [[N11, N11 W], [W N11, inv(N11) + W N11 W]] with N11 positive definite
    and W symmetric, and every such matrix is symplectic PD.
    """
    N11 = as_symmetric(N11)
    if not is_positive_definite(N11):
        raise ValueError("N11 must be positive definite")
    W = _symmetric_block(W)
    if W.shape != N11.shape:
        raise ValueError("N11 and W must have the same order")
    N12 = N11 @ W
    N22 = np.linalg.inv(N11) + W @ N11 @ W
    return as_symmetric(np.block([[N11, N12], [N12.T, N22]]))


def shear_square(B) -> np.ndarray:
    """[[I, B], [B, I + B^2]] for symmetric B: the square of a shear, symplectic PD.

    For entrywise nonnegative B the pattern is explicit: {i, p+j} is an edge
    iff B[i, j] != 0 and {p+i, p+j} iff columns i and j of B share a nonzero
    row.
    """
    B = _symmetric_block(B)
    I = np.eye(B.shape[0])
    return as_symmetric(np.block([[I, B], [B, I + B @ B]]))


def realize_shear(B, target) -> np.ndarray:
    """A matrix with the pattern of shear_square(B) and prescribed symplectic spectrum.

    Rescaling the shear block by the target diagonal,
    [[D, sD B sDi], [sDi B sD, D + sDi B^2 sDi]] with sD = sqrt(D), has
    spectrum equal to the target (repeats allowed) while the zero pattern is
    independent of the target.
    """
    B = _symmetric_block(B)
    t = _check_targets(target)
    if t.size != B.shape[0]:
        raise ValueError("need one target per row of B")
    rd = np.sqrt(t)
    N11 = np.diag(t)
    N12 = (rd[:, None] * B) / rd[None, :]
    N22 = np.diag(t) + (B @ B) / np.outer(rd, rd)
    return as_symmetric(np.block([[N11, N12], [N12.T, N22]]))


def realize_nonneg_symplectic(S, target) -> np.ndarray:
    """S.T @ diag(target, target) @ S for a nonnegative symplectic S.

    Since no cancellation can occur, the pattern equals that of S.T @ S for
    every positive target, so the labeled graph of S.T @ S realizes every
    symplectic spectrum this way.
    """
    S = np.asarray(S, dtype=float)
    if np.min(S) < -1e-12:
        raise ValueError("S must be entrywise nonnegative")
    if not is_symplectic(S):
        raise ValueError("S must be symplectic")
    t = _check_targets(target)
    if 2 * t.size != S.shape[0]:
        raise ValueError("need p targets for a 2p x 2p matrix")
    D2 = np.diag(np.concatenate([t, t]))
    return as_symmetric(S.T @ D2 @ S)


def random_invertible(p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-1, 1] entries, resampled while nearly singular."""
    for _ in range(_MAX_RESAMPLE):
        A = rng.uniform(-1.0, 1.0, size=(p, p))
        if abs(np.linalg.det(A)) >= 1e-8:
            return A
    raise ArithmeticError("could not sample an invertible matrix")


def random_symmetric(p: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.uniform(-1.0, 1.0, size=(p, p))
    return 0.5 * (A + A.T)


def random_pd(n: int, rng: np.random.Generator) -> np.ndarray:
    """A generic well-conditioned positive definite matrix of order n."""
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    return as_symmetric(A.T @ A + 0.2 * np.eye(n))


_SIGNS = np.array([-1.0, 1.0])


def _random_pd_stack(G: LabeledGraph, count: int, rng: np.random.Generator) -> np.ndarray:
    # count positive definite matrices whose labeled graph is exactly G, stacked;
    # the shift puts each smallest eigenvalue at or above a draw from [0.5, 1.5)
    n = G.order
    W = np.zeros((count, n, n))
    for i, j in G.edges:
        w = rng.uniform(0.2, 1.0, size=count) * _SIGNS[rng.integers(0, 2, size=count)]
        W[:, i - 1, j - 1] = W[:, j - 1, i - 1] = w
    lam = np.linalg.eigvalsh(W)[:, 0] if G.edges else np.zeros(count)
    shift = np.abs(np.minimum(lam, 0.0)) + rng.uniform(0.5, 1.5, size=count)
    return W + shift[:, None, None] * np.eye(n)


def random_pd_with_graph(G: LabeledGraph, rng: np.random.Generator) -> np.ndarray:
    """A positive definite matrix whose labeled graph is exactly G.

    Edge entries are bounded away from zero and the diagonal shift keeps the
    smallest eigenvalue positive, so the pattern is exact by construction.
    """
    return _random_pd_stack(G, 1, rng)[0]


def _two_cliques_graph(p: int) -> LabeledGraph:
    edges = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    edges += [(p + i, p + j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    return LabeledGraph.from_edges(2 * p, edges)


def random_smear(target, seed: int = 0, mode: str = "complete") -> np.ndarray:
    """Smear diag(target, target) by random symplectic congruences.

    mode="two_cliques" conjugates by a random block-diagonal symplectic,
    giving the pattern of two disjoint cliques (labels 1..p and p+1..2p);
    mode="complete" additionally applies a random shear, filling the whole
    matrix.  The intended pattern is checked and the draw resampled on
    accidental zeros, so the result is deterministic in the seed.
    """
    t = _check_targets(target)
    p = t.size
    rng = np.random.default_rng(seed)
    D2 = np.diag(np.concatenate([t, t]))
    want = _two_cliques_graph(p) if mode == "two_cliques" else complete_graph(2 * p)
    if mode not in ("two_cliques", "complete"):
        raise ValueError("mode must be 'two_cliques' or 'complete'")
    for _ in range(_MAX_RESAMPLE):
        SA = basic_symplectic("block_diag", random_invertible(p, rng))
        N = SA.T @ D2 @ SA
        if mode == "complete":
            RB = basic_symplectic("shear", random_symmetric(p, rng))
            N = RB.T @ N @ RB
        N = as_symmetric(N)
        if graph_of_matrix(N) == want:
            return N
    raise ArithmeticError("smearing kept producing accidental zeros")


def _corona_values(A, D, E) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # validated (A, D, E) and the ascending eigenvalues of sqrt(D) A sqrt(D) - E^2
    A = as_symmetric(A)
    D = np.asarray(D, dtype=float).ravel()
    E = np.asarray(E, dtype=float).ravel()
    p = A.shape[0]
    if D.size != p or E.size != p:
        raise ValueError("D and E must be diagonals of the same order as A")
    if np.any(D <= 0):
        raise ValueError("D must be positive")
    rd = np.sqrt(D)
    lam = np.linalg.eigvalsh((rd[:, None] * A * rd[None, :]) - np.diag(E * E))
    if lam[0] <= 0:
        raise ValueError(
            f"sqrt(D) A sqrt(D) - E^2 has nonpositive eigenvalue {lam[0]:.6g}; "
            "no positive definite completion with this data"
        )
    return A, D, E, lam


def corona_realize(A, D, E) -> np.ndarray:
    """[[diag(D), diag(E)], [diag(E), A]]: the pendant-leaf block form.

    Positive definite iff sqrt(D) A sqrt(D) - E^2 has positive eigenvalues,
    in which case the symplectic spectrum consists of their square roots.
    """
    A, D, E, _ = _corona_values(A, D, E)
    return as_symmetric(
        np.block([[np.diag(D), np.diag(E)], [np.diag(E), A]])
    )


def corona_spectrum(A, D, E) -> np.ndarray:
    """Predicted symplectic spectrum of corona_realize(A, D, E), sorted ascending."""
    return np.sqrt(_corona_values(A, D, E)[3])


def jacobi_from_spectrum(values) -> np.ndarray:
    """A tridiagonal matrix with prescribed distinct eigenvalues (path pattern).

    Lanczos on diag(values) with uniform weights; distinct nodes with
    positive weights give strictly positive off-diagonals.
    """
    lam = np.sort(np.asarray(values, dtype=float))
    p = lam.size
    if p > 1 and np.min(np.diff(lam)) <= 0:
        raise ValueError("values must be distinct")
    if p == 1:
        return np.array([[lam[0]]])
    w = np.full(p, 1.0 / p)
    q = np.sqrt(w / np.sum(w))
    Q = np.zeros((p, p))
    Q[:, 0] = q
    alpha = np.zeros(p)
    beta = np.zeros(p - 1)
    for k in range(p):
        v = lam * Q[:, k]
        alpha[k] = Q[:, k] @ v
        v -= alpha[k] * Q[:, k]
        if k > 0:
            v -= beta[k - 1] * Q[:, k - 1]
        v -= Q[:, : k + 1] @ (Q[:, : k + 1].T @ v)  # full reorthogonalization
        if k < p - 1:
            beta[k] = np.linalg.norm(v)
            if beta[k] <= 1e-12:
                raise ArithmeticError("Lanczos broke down; the values are too close together")
            Q[:, k + 1] = v / beta[k]
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------

def _strong_components(B_pattern) -> tuple[np.ndarray, np.ndarray]:
    """The arc matrix ``B != 0`` (diagonal included) and its strong component labels."""
    B = np.asarray(B_pattern)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("pattern must be square")
    arcs = B != 0
    _, labels = csgraph.connected_components(arcs, directed=True, connection="strong")
    return arcs, labels


def forbidden_cycle_detector(B_pattern) -> bool:
    """True iff some strong component of the off-diagonal digraph is a directed cycle
    of length >= 3.

    Such a pattern forces non-real eigenvalues on the block, so no completion
    has all symplectic eigenvalues equal; False means "no obstruction found",
    never "allowed".
    """
    arcs, labels = _strong_components(B_pattern)
    for c in np.flatnonzero(np.bincount(labels) >= 3):
        members = np.flatnonzero(labels == c)
        if np.all(arcs[np.ix_(members, members)].sum(axis=1) == 1):
            return True
    return False


def forbidden_nilpotent_detector(B_pattern) -> bool:
    """True iff two singleton zero diagonal components are joined by a directed walk.

    Every matrix with such a pattern has 0 as an eigenvalue with unequal
    algebraic and geometric multiplicity, again obstructing equal symplectic
    eigenvalues.
    """
    arcs, labels = _strong_components(B_pattern)
    zero = np.flatnonzero((np.bincount(labels)[labels] == 1) & ~np.diag(arcs))
    if zero.size < 2:
        return False
    dist = csgraph.shortest_path(arcs, unweighted=True, indices=zero)
    # each zero singleton reaches itself at distance 0 and nothing else by a
    # closed walk, so any further finite entry is a walk to another one
    return int(np.isfinite(dist[:, zero]).sum()) > zero.size


def isolated_vertex_obstruction(G: LabeledGraph) -> bool:
    """True iff some vertex i is isolated while its form partner i +- p is not.

    Any positive definite matrix with such a pattern has at least two
    distinct symplectic eigenvalues.
    """
    if G.order % 2 != 0:
        raise ValueError("graph order must be even")
    p = G.order // 2
    for i in range(1, 2 * p + 1):
        if G.degree(i) == 0:
            j = i + p if i <= p else i - p
            if G.degree(j) > 0:
                return True
    return False


# ---------------------------------------------------------------------------
# sparsity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsityReport:
    """Nonzero counts of a PD matrix and its inverse against the sharp lower bounds.

    An irreducible positive definite M satisfies nnz(M) + nnz(inv(M)) >= 8n-8;
    if M is also symplectic this gives nnz(M) >= 4n-4, attained by triangular
    paths.  A False bound field indicates numerical trouble (the bounds are
    theorems), and is flagged in ``violation``.
    """

    order: int
    nnz: int
    nnz_inverse: int
    zero_tol: float
    zero_tol_inverse: float
    irreducible: bool
    pair_bound: int
    pair_bound_holds: bool | None
    symplectic_pd: bool
    single_bound: int
    single_bound_holds: bool | None

    @property
    def violation(self) -> bool:
        return self.pair_bound_holds is False or self.single_bound_holds is False


def sparsity_audit(N, zero_tol: float | None = None) -> SparsityReport:
    """Count nonzeros of N and its inverse and check the sparsity lower bounds.

    Both are cut at ``zero_tol`` when given, else each at its own :func:`pattern_tol`.
    """
    N = as_symmetric(N)
    if not is_positive_definite(N):
        raise ValueError("sparsity audit expects a positive definite matrix")
    n = N.shape[0]
    Ninv = np.linalg.inv(N)
    tol, tol_inv = (pattern_tol(N), pattern_tol(Ninv)) if zero_tol is None else (zero_tol,) * 2
    nnz = int(np.sum(_nonzero(N, tol)))
    nnz_inv = int(np.sum(_nonzero(Ninv, tol_inv)))
    irreducible = graph_of_matrix(N, zero_tol).is_connected()
    pair_holds = (nnz + nnz_inv >= 8 * n - 8) if irreducible else None
    sympd = n % 2 == 0 and is_symplectic_pd(N)
    single_holds = (nnz >= 4 * n - 4) if (sympd and irreducible) else None
    return SparsityReport(
        order=n,
        nnz=nnz,
        nnz_inverse=nnz_inv,
        zero_tol=tol,
        zero_tol_inverse=tol_inv,
        irreducible=irreducible,
        pair_bound=8 * n - 8,
        pair_bound_holds=pair_holds,
        symplectic_pd=sympd,
        single_bound=4 * n - 4,
        single_bound_holds=single_holds,
    )


def householder_all_nonzero(p: int) -> np.ndarray:
    """A symmetric orthogonal p x p matrix with every entry nonzero.

    I - 2 v v.T for a unit vector v with all entries nonzero and no entry of
    magnitude 1/sqrt(2); shearing by it yields the complete bipartite
    matching pattern with lower-right block 2I.
    """
    if p == 1:
        return np.array([[-1.0]])
    v = np.arange(1.0, p + 1.0)
    for _ in range(_MAX_RESAMPLE):
        u = v / np.linalg.norm(v)
        B = np.eye(p) - 2.0 * np.outer(u, u)
        if np.min(np.abs(B)) > 1e-8:
            return B
        v = v + 0.37
    raise ArithmeticError("could not build a dense symmetric orthogonal matrix")
