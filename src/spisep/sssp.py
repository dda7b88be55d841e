"""The strong symplectic spectral property (SSSP) and its verification machinery.

A positive definite N of order 2p has the SSSP when the tangent space
{N M + M.T N : M Hamiltonian} together with the span of all symmetric
matrices supported on the pattern of N fills the whole symmetric space.
Two independent tests are provided: full row rank of the verification
matrix restricted to non-edges, and triviality of the nullspace of the
constrained commutation system Omega N Y = Y N Omega, N o Y = 0.  They must
always agree; keeping both is the central cross-check of this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.optimize
from scipy.linalg.lapack import dpotrf

from .core import (
    _EPS,
    DEFAULT_CLUSTER_TOL,
    NotPositiveDefiniteError,
    _nonzero,
    _require_pd,
    _williamson_columns,
    as_symmetric,
    is_hamiltonian,
    is_positive_definite,
    omega,
)
from .constructions import _check_targets
from .graphs import LabeledGraph, graph_of_matrix

DEFAULT_RANK_TOL = 1e-9


def _basis_terms(p: int) -> list[tuple[tuple[int, int, float], tuple[int, int, float]]]:
    # the two (row, column, coefficient) entries of each basis element, 1-based, in basis order;
    # pairs run diagonal first, then each superdiagonal (followed by its subdiagonal in full)
    upper = [(i, i) for i in range(1, p + 1)]
    full = list(upper)
    for d in range(1, p):
        sup = [(i, i + d) for i in range(1, p - d + 1)]
        upper += sup
        full += sup + [(j, i) for i, j in sup]
    terms = [((i, j + p, 1.0), (j, i + p, 1.0)) for i, j in upper]
    terms += [((i + p, j, 1.0), (j + p, i, 1.0)) for i, j in upper]
    terms += [((i, j, 1.0), (j + p, i + p, -1.0)) for i, j in full]
    return terms


def sp_basis(p: int) -> list[np.ndarray]:
    """Standard ordered basis of the Lie algebra of 2p x 2p Hamiltonian matrices.

    2p^2 + p elements: first {E_{i,j+p} + E_{j,i+p} : i <= j}, then
    {E_{i+p,j} + E_{j+p,i} : i <= j} (each ordered diagonal-first, then by
    superdiagonal), then {E_{i,j} - E_{j+p,i+p}} with each superdiagonal
    followed by the matching subdiagonal.  The matrices are read-only.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    p = int(p)
    elems = []
    for (r1, c1, v1), (r2, c2, v2) in _basis_terms(p):
        M = np.zeros((2 * p, 2 * p))
        M[r1 - 1, c1 - 1] += v1
        M[r2 - 1, c2 - 1] += v2
        M.setflags(write=False)
        elems.append(M)
    return elems


@lru_cache(maxsize=8)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based positions (i, j), i <= j, of the upper triangle of an n x n matrix,
    column by column: the row order of :func:`vec_triangle`.  Read-only."""
    j = np.repeat(np.arange(n), np.arange(1, n + 1))
    i = np.arange(j.size) - j * (j + 1) // 2
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Row positions (i, j), i <= j, in the order used by :func:`vec_triangle`."""
    i, j = _triangle(n)
    return list(zip((i + 1).tolist(), (j + 1).tolist()))


def vec_triangle(M) -> np.ndarray:
    """Stack the upper triangular parts of the columns of a symmetric matrix.

    For a 4x4 matrix the order is m11, m12, m22, m13, m23, m33, m14, m24,
    m34, m44.  Bijective onto R^(n(n+1)/2); inverted by :func:`unvec_triangle`.
    """
    M = as_symmetric(M)
    return M[_triangle(M.shape[0])]


def unvec_triangle(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size != n * (n + 1) // 2:
        raise ValueError("vector length does not match a symmetric matrix of this order")
    i, j = _triangle(n)
    M = np.zeros((n, n))
    M[i, j] = M[j, i] = v
    return M


@dataclass(frozen=True)
class VerificationMatrix:
    """Full and reduced SSSP verification matrices of a symmetric N.

    ``full`` has one column per standard basis element M, holding
    vec_triangle(M.T N + N M); rows follow :func:`triangle_pairs`.
    ``reduced`` keeps the rows at strictly off-diagonal non-edge positions of
    the pattern of N (listed in ``row_index``); its row rank decides the SSSP.
    """

    full: np.ndarray
    reduced: np.ndarray | None = None
    row_index: tuple[tuple[int, int], ...] | None = None

    @property
    def n_rows_reduced(self) -> int:
        return 0 if self.reduced is None else self.reduced.shape[0]


def verification_matrix_full(N) -> VerificationMatrix:
    """The (2p^2+p) x (2p^2+p) matrix whose columns are vec_triangle(M.T N + N M)."""
    N = as_symmetric(N, even=True)
    p = N.shape[0] // 2
    cols = [vec_triangle(M.T @ N + N @ M) for M in sp_basis(p)]
    return VerificationMatrix(full=np.column_stack(cols))


def verification_matrix(N, zero_tol: float | None = None) -> VerificationMatrix:
    """Full verification matrix plus the submatrix of rows at non-edges of the pattern.

    The reduced part has 2p^2 - p - |E| rows, one per non-adjacent pair
    (i < j) of the labeled graph of N.
    """
    N = as_symmetric(N, even=True)
    full = verification_matrix_full(N).full
    a, b = _nonedge_pairs(N, zero_tol)
    return VerificationMatrix(
        full=full,
        reduced=full[b * (b + 1) // 2 + a, :],  # the triangle row of (a, b)
        row_index=tuple(zip((a + 1).tolist(), (b + 1).tolist())),
    )


@lru_cache(maxsize=8)
def _column_terms(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis entries grouped by the column of the 2p x 2p matrix they sit in.

    Row c of the returned (rows, coefs, elems) arrays lists, for each entry
    (r, c, v) of basis element k, the 0-based r, the coefficient v and k.
    Every column holds exactly 2p entries once the doubled diagonal entries
    2 E_{i,i+p} and 2 E_{i+p,i} are merged, and no element appears twice in
    one column.  O(p^2) integers, read-only.
    """
    n = 2 * p
    columns: list[dict[tuple[int, int], float]] = [{} for _ in range(n)]
    for k, terms in enumerate(_basis_terms(p)):
        for r, c, v in terms:
            col = columns[c - 1]
            col[k, r - 1] = col.get((k, r - 1), 0.0) + v
    elems = np.array([[k for k, _ in col] for col in columns], dtype=np.intp)
    rows = np.array([[r for _, r in col] for col in columns], dtype=np.intp)
    coefs = np.array([list(col.values()) for col in columns])
    for arr in (rows, coefs, elems):
        arr.setflags(write=False)
    return rows, coefs, elems


def _tangent_rows(N: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows at positions (a[t], b[t]) (0-based) of the verification matrix of N.

    Column k is M_k.T N + N M_k for the k-th element of :func:`sp_basis`.  An
    entry (r, c, v) of M_k adds v N[r, x] at position {c, x} for every x (twice
    on the diagonal), so each row is gathered from N without forming any M_k.
    """
    p = N.shape[0] // 2
    rows, coefs, elems = _column_terms(p)
    out = np.zeros((a.size, 2 * p * p + p))
    t = np.arange(a.size)[:, None]
    out[t, elems[a]] = coefs[a] * N[rows[a], b[:, None]]
    out[t, elems[b]] += coefs[b] * N[rows[b], a[:, None]]
    return out


def _nonedge_pairs(N: np.ndarray, zero_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    # 0-based positions (i, j), i < j, of the structural zeros of N, in triangle_pairs order
    i, j = _triangle(N.shape[0])
    keep = (i != j) & ~_nonzero(N, zero_tol)[i, j]
    return i[keep], j[keep]


def _certified_full_rank(A: np.ndarray, rank_tol: float) -> bool:
    """A proof, from one Cholesky factorization, that sigma_min(A) > rank_tol * sigma_1(A).

    With A of shape (m, k), n = min(m, k), l = max(m, k), u = eps / 2 and
    gamma_j = j u / (1 - j u): G is the n x n Gram matrix of A and
    f = fl(trace G) >= ||A||_F^2 (1 - gamma_{n+l}) >= sigma_1^2 (1 - gamma_{n+l}).
    G's diagonal is lowered by tau = (rank_tol^2 + 4 (m + k) eps) f, and True
    is returned only when LAPACK's dpotrf completes on the result H.  Then

    * ||fl(G) - G||_2 <= gamma_l || |A| |A|^T ||_2 <= gamma_l ||A||_F^2, since
      each entry is a dot product of length l (Higham, Accuracy and Stability
      of Numerical Algorithms, 2nd ed., section 3.5);
    * subtracting tau rounds each diagonal entry by at most u (f + tau);
    * a Cholesky factorization that completes gives R^T R = H + dH with
      ||dH||_2 <= gamma_{n+1} ||R||_F^2 <= gamma_{n+1} trace(H) / (1 - gamma_{n+1})
      (Demmel, "On floating point errors in Cholesky", 1989; Higham,
      section 10.1), so lambda_min(H) >= -gamma_{n+1} f (1 + O(u)).

    Together, lambda_min(A A^T or A^T A) >= tau - (m + k + 3) u f (1 + O(u))
    > rank_tol^2 f >= rank_tol^2 sigma_1^2, the 4 (m + k) eps margin covering
    every rounding term above at least four times over (and no factorization
    completes once tau >= f, so rank_tol >= 1 is never proven).  So True
    proves sigma_min > rank_tol * sigma_1, by a margin far wider than the
    values-only SVD's own O(eps sigma_1) error.  False proves nothing, and the
    caller must decide with the SVD, as it must for a zero, NaN or infinite A.
    """
    m, k = A.shape
    G = A @ A.T if m <= k else A.T @ A
    f = np.trace(G)
    if not 0.0 < f < np.inf:  # an optimized dpotrf may complete on NaN pivots
        return False
    G.flat[:: G.shape[0] + 1] -= (rank_tol * rank_tol + 4 * (m + k) * _EPS) * f
    # G is symmetric and C-ordered, so G.T is the same matrix in the Fortran order dpotrf reads
    return dpotrf(G.T, clean=0, overwrite_a=1)[1] == 0


def _full_rank(A: np.ndarray, rank_tol: float) -> bool:
    """Whether every singular value of A exceeds ``rank_tol`` times the largest.

    A passing verdict is proven by :func:`_certified_full_rank`; only where
    that proof fails does the values-only SVD decide, so every False comes
    from the SVD.
    """
    if _certified_full_rank(A, rank_tol):
        return True
    s = np.linalg.svd(A, compute_uv=False)
    return bool(s[0] > 0.0 and s[-1] > rank_tol * s[0])


def has_sssp_rank(N, rank_tol: float = DEFAULT_RANK_TOL, zero_tol: float | None = None) -> bool:
    """SSSP test via row rank of the reduced verification matrix.

    True iff the rows indexed by non-edges are linearly independent
    (singular values above ``rank_tol`` times the largest).  The rows are
    those of ``verification_matrix(N).reduced``, built directly from N.
    """
    N = _require_pd(N)
    a, b = _nonedge_pairs(N, zero_tol)
    return a.size == 0 or _full_rank(_tangent_rows(N, a, b), rank_tol)


def _commutation_rows(N: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column t is Omega N Y - Y N Omega for Y = E_ab + E_ba at (a[t], b[t]).

    That matrix is symmetric, so only its upper triangle is kept, with the
    off-diagonal rows weighted by sqrt 2: the Gram matrix, hence the
    singular values and right singular vectors, equal those of the n^2-row
    system of all entries.
    """
    n = N.shape[0]
    ON = omega(n // 2) @ N
    # slot[x, y] is the row of position {x, y}; a symmetric Y = E_ab + E_ba
    # puts its value twice on the diagonal, so the weight there is 2
    i, j = _triangle(n)
    slot = np.empty((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(i.size)
    weight = np.where(np.eye(n, dtype=bool), 2.0, np.sqrt(2.0))
    out = np.zeros((i.size, a.size))
    t = np.arange(a.size)
    out[slot[:, b], t] = weight[:, b] * ON[:, a]
    out[slot[:, a], t] += weight[:, a] * ON[:, b]
    return out


def has_sssp_nullspace(
    N, rank_tol: float = DEFAULT_RANK_TOL, zero_tol: float | None = None
) -> tuple[bool, np.ndarray | None]:
    """SSSP test via the nullspace of the constrained commutation system.

    Parameterizes a symmetric Y by its entries on the non-edges of the
    pattern (so that N o Y = 0 holds structurally) and asks whether
    Omega N Y = Y N Omega forces Y = 0.  Returns (flag, witness); on failure
    the witness is a nonzero Y, scaled to unit max entry.  Like
    :func:`has_sssp_rank`, raises NotPositiveDefiniteError unless N is
    positive definite.
    """
    N = _require_pd(N)
    a, b = _nonedge_pairs(N, zero_tol)
    if a.size == 0:
        return True, None
    A = _commutation_rows(N, a, b)
    if _full_rank(A, rank_tol):
        return True, None
    y = np.linalg.svd(A, full_matrices=False)[2][-1]
    W = np.zeros_like(N)
    W[a, b] = W[b, a] = y
    return False, W / np.max(np.abs(W))


def tangent_element(N, M) -> np.ndarray:
    """M.T @ N + N @ M for Hamiltonian M: a direction tangent to the congruence orbit of N."""
    N = as_symmetric(N, even=True)
    M = np.asarray(M, dtype=float)
    if not is_hamiltonian(M):
        raise ValueError("M is not Hamiltonian (Omega @ M must be symmetric)")
    R = M.T @ N + N @ M
    return 0.5 * (R + R.T)


def in_tangent_space(N, R) -> bool:
    """Whether R lies in {N M + M.T N : M Hamiltonian}, for positive definite N.

    A symplectic S with S.T N S = diag(d, d) carries this space onto the one
    at diag(d, d), so R is tangent iff X = S.T R S has X[k, k] + X[k+p, k+p]
    = 0 for every k and, for each pair k, l with |d_k - d_l| <=
    DEFAULT_CLUSTER_TOL max(d_k, d_l), also X[k, l] + X[k+p, l+p] = 0 and
    X[k, l+p] = X[l, k+p]; each to 1e-8 max(1, max |X|).  Raises
    NotPositiveDefiniteError unless N is positive definite.
    """
    N = _require_pd(N)
    R = as_symmetric(R)
    if R.shape != N.shape:
        raise ValueError("R must match the order of N")
    d, S = _williamson_columns(N)
    p = d.size
    X = S.T @ R @ S
    C = X[:p, p:]
    near = np.abs(d[:, None] - d) <= DEFAULT_CLUSTER_TOL * np.maximum.outer(d, d)
    gap = np.maximum(np.abs(X[:p, :p] + X[p:, p:]), np.abs(C - C.T))[near]
    return float(np.max(gap)) <= 1e-8 * max(1.0, float(np.max(np.abs(X))))


def has_sssp_in_direction(
    N, R, rank_tol: float = DEFAULT_RANK_TOL, zero_tol: float | None = None
) -> bool:
    """SSSP of N relative to its pattern enlarged in the direction of R.

    R must lie in the tangent space of N.  True iff Y = 0 is the only
    symmetric matrix with N o Y = 0, R o Y = 0 and Omega N Y = Y N Omega.
    Like the two oracles, raises NotPositiveDefiniteError unless N is
    positive definite; R is cut at its own default tolerance.
    """
    N = _require_pd(N)
    R = as_symmetric(R)
    if not in_tangent_space(N, R):
        raise ValueError("R is not in the tangent space of N")
    a, b = _nonedge_pairs(N, zero_tol)
    keep = ~_nonzero(R, None)[a, b]
    a, b = a[keep], b[keep]
    return a.size == 0 or _full_rank(_commutation_rows(N, a, b), rank_tol)


def direction_graph(G: LabeledGraph, R) -> LabeledGraph:
    """G with an edge {i, j} inserted wherever R has a nonzero off-diagonal entry,
    with R cut at its own default tolerance, as :func:`has_sssp_in_direction` cuts it."""
    R = as_symmetric(R)
    if R.shape[0] != G.order:
        raise ValueError("R must match the order of G")
    return G.with_edges(graph_of_matrix(R).edges)


def direct_sum_interleave(P, Q) -> np.ndarray:
    """Order-compatible direct sum of matrices of orders 2m and 2r.

    Embeds P on indices {1..m, p+1..p+m} and Q on {m+1..p, p+m+1..2p}
    (p = m + r), so the result is permutation-similar to P + Q as a matrix
    but respects the block convention of the symplectic form.  Its symplectic
    spectrum is the union of the two spectra.
    """
    P, Q = _require_pd(P), _require_pd(Q)
    m, r = P.shape[0] // 2, Q.shape[0] // 2
    p = m + r
    idx_p = list(range(m)) + list(range(p, p + m))
    idx_q = list(range(m, p)) + list(range(p + m, 2 * p))
    N = np.zeros((2 * p, 2 * p))
    N[np.ix_(idx_p, idx_p)] = P
    N[np.ix_(idx_q, idx_q)] = Q
    return N


# ---------------------------------------------------------------------------
# numerical continuation onto a pattern
# ---------------------------------------------------------------------------

# each start puts entries of size up to _EDGE_SCALE * min(target) on the edges
# (on every free entry, as jitter, for a seed matrix); at most _MAX_ATTEMPTS starts
_EDGE_SCALE = 1e-2
_MAX_ATTEMPTS = 8


def continuation_realize(
    G: LabeledGraph,
    target,
    rng: np.random.Generator | None = None,
    seed_matrix=None,
    spectrum_tol: float = 1e-6,
) -> np.ndarray:
    """Realize a target symplectic spectrum on a pattern by local optimization.

    Starts from diag(target, target) (an exact realization on the empty
    subgraph) with small random values on the edges of G, then moves the free
    entries (diagonal plus edges) by least squares, on the exact Jacobian of
    the spectrum, until it matches the target.  Existence near the seed
    holds whenever the seed has the SSSP, e.g. for distinct targets; this
    routine supplies the witness.

    Each step is the minimum-norm Gauss-Newton step lstsq(J, -f) when it
    fits in a dogleg trust region (least_squares' dogbox with no bounds),
    so convergence near a solution is quadratic.  There are fewer residuals
    (p) than free entries (2p + |E|), and least_squares' trf then never
    takes a Gauss-Newton step: each of its steps ends on the trust-region
    boundary, and it converges only linearly.

    Returns a positive definite matrix with labeled graph exactly G and
    spectrum within ``spectrum_tol`` of the target; raises ArithmeticError
    if no attempt converges, and NotPositiveDefiniteError up front for a
    seed matrix that is not positive definite.  An attempt whose start lies
    outside the positive definite cone counts as failed, and so does one
    that meets the spectrum but fails the PD check or loses an edge; the
    ArithmeticError counts both kinds.
    """
    if G.order % 2 != 0:
        raise ValueError("pattern must have even order")
    p = G.order // 2
    target = np.sort(_check_targets(target))
    if target.size != p:
        raise ValueError("target must consist of p values")
    if rng is None:
        rng = np.random.default_rng(0)

    free = [(i, i) for i in range(1, G.order + 1)] + sorted(G.edges)
    n_diag = G.order
    rows, cols = (np.array(ix) - 1 for ix in zip(*free))
    # a diagonal entry moves one entry of N, an edge entry moves two
    half = np.where(rows == cols, 0.5, 1.0)

    def build(x: np.ndarray) -> np.ndarray:
        N = np.zeros((G.order, G.order))
        N[rows, cols] = N[cols, rows] = x
        return N

    solved = [None, None]  # the last x the residual solved, and its Williamson factor

    def residual(x: np.ndarray) -> np.ndarray:
        # a trial point outside the PD cone, or one whose eigensolve fails, is a
        # non-finite step, which the trust region rejects and shrinks from as it
        # does a poor one; so an unconverged run ends only in ArithmeticError
        try:
            d, S = _williamson_columns(build(x))
        except (NotPositiveDefiniteError, np.linalg.LinAlgError):
            return np.full(p, np.inf)
        solved[:] = x.copy(), S
        return d - target

    def jacobian(x: np.ndarray) -> np.ndarray:
        # d d_k = (u_k.T dN u_k + v_k.T dN v_k) / 2 for a simple eigenvalue
        # d_k, with u_k, v_k columns k and k + p of the Williamson factor
        # (Bhatia and Jain, J. Math. Phys. 2015); the trust region asks for
        # it only at accepted points, which lie inside the PD cone and were
        # solved by the residual just before
        S = solved[1] if np.array_equal(x, solved[0]) else _williamson_columns(build(x))[1]
        U, V = S[:, :p], S[:, p:]
        return ((U[rows] * U[cols] + V[rows] * V[cols]) * half[:, None]).T

    base_diag = np.concatenate([target, target])
    scale = _EDGE_SCALE * float(np.min(target))
    if seed_matrix is not None:
        seed_matrix = np.asarray(seed_matrix, dtype=float)
        if seed_matrix.shape != (G.order, G.order):
            raise ValueError("seed matrix must match the pattern order")
        if not is_positive_definite(seed_matrix):
            raise NotPositiveDefiniteError("seed matrix is not positive definite")
        seed_x = seed_matrix[rows, cols]
    last_err = np.inf
    runs = nfev = njev = rejected = 0
    for attempt in range(_MAX_ATTEMPTS):
        if seed_matrix is not None:
            jitter = 0.0 if attempt == 0 else scale * rng.uniform(-1.0, 1.0, len(free))
            x0 = seed_x + jitter
        else:
            x0 = np.concatenate(
                [
                    base_diag,
                    scale * rng.choice([-1.0, 1.0], size=len(free) - n_diag)
                    * rng.uniform(0.5, 1.0, size=len(free) - n_diag),
                ]
            )
        if not np.isfinite(residual(x0)).all():
            continue
        sol = scipy.optimize.least_squares(
            residual, x0, jac=jacobian, method="dogbox", xtol=1e-15, ftol=1e-15,
            gtol=1e-15, max_nfev=400 * (len(free) + 1),
        )
        runs, nfev, njev = runs + 1, nfev + sol.nfev, njev + sol.njev
        N = build(sol.x)
        err = float(np.max(np.abs(sol.fun)))
        last_err = min(last_err, err)
        if err <= spectrum_tol:
            if is_positive_definite(N) and graph_of_matrix(N) == G:
                return N
            rejected += 1
    raise ArithmeticError(
        f"continuation did not converge on this pattern (best residual {last_err:.3e}"
        f" after {_MAX_ATTEMPTS} attempts, {_MAX_ATTEMPTS - runs} of them starting outside"
        f" the PD cone and {rejected} meeting the spectrum but failing the PD check or"
        f" losing an edge; least squares made {nfev} residual and {njev} Jacobian evaluations)"
    )
