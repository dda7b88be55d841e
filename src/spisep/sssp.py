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

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dtrttf
from scipy.sparse import csc_array, csr_array, issparse

from .core import (
    _EPS,
    DEFAULT_CLUSTER_TOL,
    NotPositiveDefiniteError,
    _check_size,
    _check_targets,
    _cholesky_proves,
    _cluster_starts,
    _min_norm_solve,
    _nonzero,
    _packed_slots,
    _require_pd,
    _williamson_columns,
    as_symmetric,
    is_hamiltonian,
    is_positive_definite,
    omega,
    pattern_tol,
)
from .graphs import LabeledGraph, graph_of_matrix

DEFAULT_RANK_TOL = 1e-9

_log = logging.getLogger(__name__)

# From this Gram order min(m, k) on, the oracles' row matrices are built as
# sparse arrays and the packed lower triangles of their Gram matrices
# accumulated from the rows' nonzero products (see _gram).  On 30%-density
# patterns the rows are 2-6% nonzero.  In `tools/gram_crossover.py` (seeds 0
# and 1, two runs each, one BLAS thread) both oracles ran faster sparse at
# every m from 267 on, by 2-23% at m = 267-283 and by 55-60% at
# m = 1230-1251, and the rank oracle ran faster dense at every m up to 199; in
# 12 further draws at p = 12-14 it ran faster dense at 10 of
# the 11 draws with m = 187-266 and sparse at m = 276.  The sparse path's
# traced peak is at most 0.6 of the dense path's from m = 144 on: 8.2-8.4
# against 34.5-35.4 MiB at m = 1230-1251.
_SPARSE_GRAM_ORDER = 270

# The summed indices whose products one np.add.at of _gram adds.  In
# test_certificate_holds_little_more_than_its_gram_matrix (Gram order 1255) the
# certificate's traced peak was 1.26 (rank) and 1.26 (nullspace) times the
# packed triangle's bytes, 1.14 and 1.15 at 64 and 1.50 and 1.49 at 256, above
# the test's 1.35.
_GRAM_BLOCK = 128


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
    p = _check_size(p)
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
    reduced: np.ndarray
    row_index: tuple[tuple[int, int], ...]


def verification_matrix(N) -> VerificationMatrix:
    """The (2p^2+p) x (2p^2+p) matrix whose columns are vec_triangle(M.T N + N M),
    gathered from N by :func:`_tangent_rows` at every triangle position, plus its
    2p^2 - p - |E| rows at the non-adjacent pairs (i < j) of the labeled graph of N.
    """
    N = as_symmetric(N, even=True)
    full = _tangent_rows(N, *_triangle(N.shape[0]), dense=True)
    a, b = _nonedge_pairs(N, None)
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


def _assemble(
    shape: tuple[int, int], first: tuple, second: tuple, dense: bool = False
) -> np.ndarray | csc_array | csr_array:
    """The matrix of two scatters, each (rows, columns, values) with index arrays
    that broadcast to the shape of the values: first's values are written, then
    second's added.  No position repeats within one scatter.

    With ``dense``, or below a Gram order ``min(shape)`` of
    ``_SPARSE_GRAM_ORDER``, the result is a C-ordered dense array, whose Gram
    matrix is one dense product.  Otherwise it holds the nonzero values only,
    compressed along the summed index of its Gram matrix, as :func:`_gram`
    reads it: a CSC array when it is wide (the rank oracle's rows), a CSR
    array when it is tall (the commutation rows).  A position both scatters
    hit sums the same two values either way, so ``.toarray()`` equals the
    dense array, except that a -0.0 of the dense array comes back as +0.0.
    """
    if dense or min(shape) < _SPARSE_GRAM_ORDER:
        out = np.zeros(shape)
        out[first[0], first[1]] = first[2]
        out[second[0], second[1]] += second[2]
        return out
    # the structural zeros of N make many of the values exact zeros
    kept = []
    for rows, cols, values in (first, second):
        keep = values != 0.0
        kept.append((np.broadcast_to(rows, keep.shape)[keep],
                     np.broadcast_to(cols, keep.shape)[keep], values[keep]))
    r, c, v = (np.concatenate(x) for x in zip(*kept))
    compressed = csc_array if shape[0] <= shape[1] else csr_array
    return compressed((v, (r, c)), shape=shape)


def _dense(A: np.ndarray | csc_array | csr_array) -> np.ndarray:
    return A.toarray() if issparse(A) else A


def _tangent_rows(
    N: np.ndarray, a: np.ndarray, b: np.ndarray, dense: bool = False
) -> np.ndarray | csc_array:
    """Rows at positions (a[t], b[t]) (0-based) of the verification matrix of N,
    dense or CSC as :func:`_assemble` chooses; always dense with ``dense``.

    Column k is M_k.T N + N M_k for the k-th element of :func:`sp_basis`.  An
    entry (r, c, v) of M_k adds v N[r, x] at position {c, x} for every x (twice
    on the diagonal), so each row is gathered from N without forming any M_k.
    """
    p = N.shape[0] // 2
    rows, coefs, elems = _column_terms(p)
    t = np.arange(a.size)[:, None]
    return _assemble(
        (a.size, 2 * p * p + p),
        (t, elems[a], coefs[a] * N[rows[a], b[:, None]]),
        (t, elems[b], coefs[b] * N[rows[b], a[:, None]]),
        dense,
    )


def _nonedge_pairs(N: np.ndarray, zero_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    # 0-based positions (i, j), i < j, of the structural zeros of N, in triangle_pairs order
    i, j = _triangle(N.shape[0])
    keep = (i != j) & ~_nonzero(N, zero_tol)[i, j]
    return i[keep], j[keep]


def _gram(A: np.ndarray | csc_array | csr_array) -> np.ndarray:
    """The lower triangle of the n x n Gram matrix of A, n = min(A.shape), A A^T
    or A^T A, packed as :func:`core._cholesky_proves` reads it: in rectangular
    full packed format, n (n + 1) / 2 doubles at the slots of
    :func:`core._packed_slots`.

    A dense A gives the whole product, whose lower triangle dtrttf packs.  For
    a sparse A the n x n array is never formed: with R the columns of A (CSC)
    when m <= k, else its rows (CSR), each compressed slice of R is one summed
    index r, and its products v_i v_j with i >= j are added into the slot of
    (i, j) by one sequential ``np.add.at`` per ``_GRAM_BLOCK`` summed indices.
    So each entry sums its products in ascending r, the first onto an exact
    zero, whatever the format of A and the chunking.  That order makes the
    triangle bit-identical to SciPy's full sparse product A A^T or A^T A,
    whose Gustavson algorithm happens to sum in the same order.  The pair
    enumeration needs sorted indices without duplicates, so a non-canonical A
    is summed into a canonical copy first.
    """
    m, k = A.shape
    if not issparse(A):
        # NumPy forms A A^T and A^T A by one BLAS syrk and mirrors it, so the
        # product is exactly symmetric and G.T, which dtrttf reads without a
        # copy, has G's own lower triangle
        G = A @ A.T if m <= k else A.T @ A
        return dtrttf(G.T, transr="N", uplo="L")[0]
    R = A.tocsc() if m <= k else A.tocsr()
    if not R.has_canonical_format:
        R = R.copy()  # the caller's A is left as it was
        R.sum_duplicates()
    n = min(m, k)
    row, jump, col, _ = _packed_slots(n)
    F = np.zeros(n * (n + 1) // 2)
    for s in range(0, max(m, k), _GRAM_BLOCK):
        ptr = R.indptr[s : s + _GRAM_BLOCK + 1]
        index, value = R.indices[ptr[0] : ptr[-1]], R.data[ptr[0] : ptr[-1]]
        ptr = ptr - ptr[0]  # positions among this block's nonzeros
        # nonzero q, at Gram index i, pairs with the nonzeros of its summed index
        # from the first one up to q itself, whose Gram indices are the j <= i
        first = np.repeat(ptr[:-1], np.diff(ptr))
        count = np.arange(ptr[-1]) - first + 1
        start = first - np.cumsum(count) + count  # first minus the pairs before q's
        partner = np.repeat(start, count)
        partner += np.arange(partner.size)
        slot = np.repeat(index, count)
        slot += jump[index][partner]
        slot = row[slot]
        slot += col[index][partner]
        products = np.repeat(value, count)
        products *= value[partner]
        np.add.at(F, slot, products)
        del partner, slot, products  # so two blocks' arrays are never held at once
    return F


def _certified_full_rank(A: np.ndarray | csc_array | csr_array, rank_tol: float) -> bool:
    """A proof, from one Cholesky factorization, that sigma_min(A) > rank_tol * sigma_1(A).

    With A of shape (m, k), n = min(m, k), l = max(m, k), u = eps / 2 and
    gamma_j = j u / (1 - j u): G is the n x n Gram matrix of A and
    f = fl(trace G) >= ||A||_F^2 (1 - gamma_{n+l}) >= sigma_1^2 (1 - gamma_{n+l}).
    :func:`core._cholesky_proves` runs on G with shift rank_tol^2 + 4 (m + k) eps,
    so a True gives lambda_min(fl(G)) >= tau - (n + 2) u f (1 + O(u)) for
    tau = (rank_tol^2 + 4 (m + k) eps) f.  The Gram matrix adds its own rounding:
    ||fl(G) - G||_2 <= gamma_l || |A| |A|^T ||_2 <= gamma_l ||A||_F^2, since
    each entry is a dot product of length l (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.5).  That bound holds in any
    summation order, so it covers a sparse A too: :func:`_gram` sums each
    entry's at most l nonzero products in ascending order of the summed index,
    and the exact zeros it skips would add no rounding.  :func:`_gram` packs
    only the lower triangle of G, in the rectangular full packed format that
    dpftrf and the trace read; the symmetric matrix they see is that triangle
    mirrored, whose every entry meets the same entrywise bound
    |fl(G) - G| <= gamma_l |A| |A|^T, so the norm bound holds.

    Together, lambda_min(A A^T or A^T A) >= tau - (m + k + 3) u f (1 + O(u))
    > rank_tol^2 f >= rank_tol^2 sigma_1^2, the 4 (m + k) eps margin covering
    every rounding term above at least four times over (and rank_tol >= 1 is
    never proven).  So True proves sigma_min > rank_tol * sigma_1, by a margin
    far wider than the SVD's own O(eps sigma_1) error.  False
    proves nothing, and the caller must decide with the SVD, as it must for a
    zero, NaN or infinite A.
    """
    m, k = A.shape
    return _cholesky_proves(_gram(A), rank_tol * rank_tol + 4 * (m + k) * _EPS)


def _rank_deficiency(A: np.ndarray | csc_array | csr_array, rank_tol: float) -> np.ndarray | None:
    """None when every singular value of A exceeds ``rank_tol`` times the largest,
    else the last right singular vector of A.

    A None is proven by :func:`_certified_full_rank` where it can be; only where
    that proof fails does one thin SVD decide, so every vector comes from the SVD.
    Each call logs one DEBUG record of the Gram order, the path and the proof.
    """
    proved = _certified_full_rank(A, rank_tol)
    _log.debug(
        "rank decision: Gram order %d, %s rows, Cholesky certificate %s",
        min(A.shape), "sparse" if issparse(A) else "dense",
        "proved full rank" if proved else "failed, SVD decides",
    )
    if proved:
        return None
    _, s, Vt = np.linalg.svd(_dense(A), full_matrices=False)
    return None if s[0] > 0.0 and s[-1] > rank_tol * s[0] else Vt[-1]


def _oracle_input(
    N, rank_tol: float, zero_tol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input gate of the three SSSP oracles: the symmetrized N and the
    0-based positions of its structural zeros, as :func:`_nonedge_pairs`.

    Raises ValueError unless 0 <= rank_tol < 1, since no singular value
    exceeds sigma_1 and a NaN decides nothing, and NotPositiveDefiniteError
    unless N is positive definite; both before any verdict is reached.
    """
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol}")
    N = _require_pd(N)
    return (N, *_nonedge_pairs(N, zero_tol))


def has_sssp_rank(N, rank_tol: float = DEFAULT_RANK_TOL, zero_tol: float | None = None) -> bool:
    """SSSP test via row rank of the reduced verification matrix.

    True iff the rows indexed by non-edges are linearly independent
    (singular values above ``rank_tol`` times the largest).  At the default
    zero_tol the rows are those of ``verification_matrix(N).reduced``, built
    directly from N.
    """
    N, a, b = _oracle_input(N, rank_tol, zero_tol)
    return a.size == 0 or _rank_deficiency(_tangent_rows(N, a, b), rank_tol) is None


def _commutation_rows(N: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray | csr_array:
    """Column t is Omega N Y - Y N Omega for Y = E_ab + E_ba at (a[t], b[t]),
    dense or CSR as :func:`_assemble` chooses.

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
    t = np.arange(a.size)
    return _assemble(
        (i.size, a.size),
        (slot[:, b], t, weight[:, b] * ON[:, a]),
        (slot[:, a], t, weight[:, a] * ON[:, b]),
    )


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
    N, a, b = _oracle_input(N, rank_tol, zero_tol)
    if a.size == 0:
        return True, None
    y = _rank_deficiency(_commutation_rows(N, a, b), rank_tol)
    if y is None:
        return True, None
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
    = 0 for every k and, for each pair k, l of values in one cluster of
    :func:`core.cluster_values` at DEFAULT_CLUSTER_TOL, also X[k, l] +
    X[k+p, l+p] = 0 and X[k, l+p] = X[l, k+p]; each to 1e-8 max(1, max |X|).
    Raises NotPositiveDefiniteError unless N is positive definite.
    """
    return _is_tangent(_require_pd(N), as_symmetric(R))


def _is_tangent(N: np.ndarray, R: np.ndarray) -> bool:
    # in_tangent_space on a gated N and a symmetric R
    if R.shape != N.shape:
        raise ValueError("R must match the order of N")
    d, S = _williamson_columns(N)
    p = d.size
    X = S.T @ R @ S
    C = X[:p, p:]
    start = _cluster_starts(d, DEFAULT_CLUSTER_TOL)
    gap = np.maximum(np.abs(X[:p, :p] + X[p:, p:]), np.abs(C - C.T))[start[:, None] == start]
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
    N, a, b = _oracle_input(N, rank_tol, zero_tol)
    R = as_symmetric(R)
    if not _is_tangent(N, R):
        raise ValueError("R is not in the tangent space of N")
    keep = ~_nonzero(R, None)[a, b]
    a, b = a[keep], b[keep]
    return a.size == 0 or _rank_deficiency(_commutation_rows(N, a, b), rank_tol) is None


def direction_graph(G: LabeledGraph, R) -> LabeledGraph:
    """G with an edge {i, j} inserted wherever R has a nonzero off-diagonal entry,
    with R cut at its own default tolerance, as :func:`has_sssp_in_direction` cuts it."""
    R = as_symmetric(R)
    if R.shape[0] != G.order:
        raise ValueError("R must match the order of G")
    return G.with_edges(graph_of_matrix(R).edges)


# ---------------------------------------------------------------------------
# numerical continuation onto a pattern
# ---------------------------------------------------------------------------

# each start puts entries of size up to _EDGE_SCALE * min(target) on the edges
# (on every free entry, as jitter, for a seed matrix); at most _MAX_ATTEMPTS
# starts of at most _MAX_STEPS Gauss-Newton steps, whose line search gives up
# below the step fraction _MIN_STEP; a realization has |d - target| <= _SPECTRUM_TOL
_EDGE_SCALE = 1e-2
_MAX_ATTEMPTS = 8
_MAX_STEPS = 100
# an attempt whose |f| has not halved over this many steps has stalled: on the
# repeated-target corpus such attempts crawled on to _MAX_STEPS and failed, at
# up to 34 Williamson solves a step
_STALL_STEPS = 20
_MIN_STEP = 1e-10
_SPECTRUM_TOL = 1e-6
# targets in one cluster at this tolerance get pair rows: without them the loop
# began to fail at relative gaps of about 2e-5 and below, and realize-ladder's
# smallest relative gap, 2.5e-3, lies above it, so its rows are unchanged
_PAIR_GAP = 1e-3


def _spectral_rows(S: np.ndarray, rows, cols, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Derivatives over the free entries (rows, cols) of N of H = (U.T N U +
    V.T N V) / 2 + i (U.T N V - V.T N U) / 2 in the fixed basis U, V = S[:, :p],
    S[:, p:]: rows for H_jj, then Re and Im of H_kl for each pair (k, l).

    For the Williamson S of N, H = diag(d) and dH_jj is the gradient of a
    simple d_j (Bhatia and Jain, J. Math. Phys. 2015).  Repeated d are not
    smooth, but H_kl = 0 is (Friedland, Nocedal and Overton, SIAM J. Numer.
    Anal. 24, 1987).
    """
    p = S.shape[0] // 2
    Sr, Sc = S[rows], S[cols]
    X = Sr * Sc
    J = X[:, :p] + X[:, p:]  # U[rows] * U[cols] + V[rows] * V[cols]
    if k.size:
        Ur, Vr, Uc, Vc = Sr[:, :p], Sr[:, p:], Sc[:, :p], Sc[:, p:]
        re = Ur[:, k] * Uc[:, l] + Uc[:, k] * Ur[:, l] + Vr[:, k] * Vc[:, l] + Vc[:, k] * Vr[:, l]
        im = Ur[:, k] * Vc[:, l] + Uc[:, k] * Vr[:, l] - Vr[:, k] * Uc[:, l] - Vc[:, k] * Ur[:, l]
        J = np.hstack([J, 0.5 * re, 0.5 * im])
    # a diagonal entry moves one entry of N, an edge entry moves two
    J[rows == cols] *= 0.5
    return J.T


def continuation_realize(
    G: LabeledGraph,
    target,
    rng: np.random.Generator | None = None,
    seed_matrix=None,
) -> np.ndarray:
    """Realize a target symplectic spectrum on a pattern by local optimization.

    Starts from diag(target, target) (an exact realization on the empty
    subgraph) with small random values on the edges of G, then moves the free
    entries (diagonal plus edges) by Gauss-Newton steps on the exact Jacobian
    of the spectrum until it matches the target.  Existence near the seed
    holds whenever the seed has the SSSP, e.g. for distinct targets; this
    routine supplies the witness.

    A ``seed_matrix`` of the pattern's order replaces that start.  It must be
    positive definite, checked (after symmetrization) before any attempt, and
    only its free entries are read: entries off the diagonal and the edges of
    G are dropped.  Attempt 0 starts at those free entries as they are; each
    later attempt adds to every free entry a uniform jitter of at most 1e-2
    times the smallest target.

    Each step is the minimum-norm solution of J s = -f, from one Cholesky
    factor of the r x r matrix J J.T (J has r rows, one per target plus the
    two of :func:`_spectral_rows` per pair in one target cluster, and a column
    per free entry), halved until it stays in the positive definite cone and
    decreases |f|; one Williamson form per trial point gives both f and J.
    The clusters are :func:`core.cluster_values`'s at a tolerance of 1e-3, so
    a cluster of m targets has m^2 rows and repeated targets converge too.
    An attempt ends when it meets the spectrum, after 100 steps, when |f|
    has not halved over the last 20 steps, when its line search halves the
    step below 1e-10, or when J loses row rank, where the factorization fails
    and no unique minimum-norm step exists.

    Returns a positive definite matrix with labeled graph exactly G and
    spectrum within 1e-6 of the target; raises ArithmeticError if no attempt
    converges, and NotPositiveDefiniteError up front for a seed matrix that
    is not positive definite.  An attempt whose start lies outside the
    positive definite cone counts as failed, and so does one that meets the
    spectrum but fails the PD check or loses an edge; the ArithmeticError
    counts both kinds, the attempts that stalled and those that ended where J
    lost row rank.
    """
    if G.order % 2 != 0:
        raise ValueError("pattern must have even order")
    p = G.order // 2
    target = np.sort(_check_targets(target))
    if target.size != p:
        raise ValueError("target must consist of p values")
    if rng is None:
        rng = np.random.default_rng(0)

    # the free entries, 0-based: the diagonal, then the edges (i, j), i < j, in
    # sorted order, which is the order of their keys i n + j
    n = G.order
    ends = np.fromiter(itertools.chain.from_iterable(G.edges), np.intp, 2 * len(G.edges)) - 1
    key = np.sort(ends[0::2] * n + ends[1::2])
    rows, cols = np.concatenate([np.arange(n), key // n]), np.concatenate([np.arange(n), key % n])
    # the pairs k < l of targets in one cluster, in row-major order
    start = _cluster_starts(target, _PAIR_GAP)
    k, l = np.nonzero(np.triu(start[:, None] == start, 1))
    pair_zeros = np.zeros(2 * k.size)

    def build(x: np.ndarray) -> np.ndarray:
        N = np.zeros((G.order, G.order))
        N[rows, cols] = N[cols, rows] = x
        return N

    def solve(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        # the residual (H_kl is 0 in the Williamson basis) and the Williamson
        # factor at x, or None outside the PD cone or where the eigensolve fails
        nonlocal solves
        solves += 1
        try:
            d, S = _williamson_columns(build(x))
        except (NotPositiveDefiniteError, np.linalg.LinAlgError):
            return None
        return np.concatenate([d - target, pair_zeros]), S

    scale = _EDGE_SCALE * float(np.min(target))
    if seed_matrix is not None:
        seed_matrix = np.asarray(seed_matrix, dtype=float)
        if seed_matrix.shape != (G.order, G.order):
            raise ValueError("seed matrix must match the pattern order")
        seed_x = _require_pd(seed_matrix)[rows, cols]
    last_err = np.inf
    runs = steps = solves = rejected = stalled = singular = 0
    for attempt in range(_MAX_ATTEMPTS):
        if seed_matrix is not None:
            jitter = 0.0 if attempt == 0 else scale * rng.uniform(-1.0, 1.0, rows.size)
            x = seed_x + jitter
        else:
            edges = scale * rng.choice([-1.0, 1.0], size=len(G.edges))
            x = np.concatenate([target, target, edges * rng.uniform(0.5, 1.0, len(G.edges))])
        point = solve(x)
        if point is None:
            continue
        runs += 1
        f, S = point
        norms = [np.linalg.norm(f)]
        for _ in range(_MAX_STEPS):
            if np.max(np.abs(f)) <= 8 * _EPS * G.order * target[-1]:
                break
            if len(norms) > _STALL_STEPS and norms[-1] > norms[-1 - _STALL_STEPS] / 2:
                stalled += 1
                break
            s = _min_norm_solve(_spectral_rows(S, rows, cols, k, l), -f)
            steps += 1
            alpha = 1.0
            while s is not None and alpha >= _MIN_STEP:
                trial = x + alpha * s
                point = solve(trial)
                if point is not None:
                    norm = np.linalg.norm(point[0])
                    if norm <= (1 - 1e-4 * alpha) * norms[-1]:
                        break
                alpha /= 2
            else:
                singular += s is None
                break
            x, (f, S) = trial, point
            norms.append(norm)
        N, err = build(x), float(np.max(np.abs(f)))
        last_err = min(last_err, err)
        if err <= _SPECTRUM_TOL:
            # N is exactly zero off the free entries, so its labeled graph is G
            # iff every edge entry x[G.order:] is a structural nonzero
            if is_positive_definite(N) and _nonzero(x[G.order :], pattern_tol(x)).all():
                return N
            rejected += 1
    raise ArithmeticError(
        f"continuation did not converge on this pattern (best residual {last_err:.3e}"
        f" after {_MAX_ATTEMPTS} attempts, {_MAX_ATTEMPTS - runs} of them starting outside"
        f" the PD cone, {rejected} meeting the spectrum but failing the PD check or"
        f" losing an edge, {stalled} stalling and {singular} ending where the Jacobian lost"
        f" row rank; Gauss-Newton took {steps} steps and {solves} Williamson solves)"
    )
