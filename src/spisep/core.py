"""Symplectic linear algebra on dense symmetric matrices.

Everything here works with plain numpy arrays.  A "symmetric matrix" is any
square array-like; :func:`as_symmetric` is the canonical constructor and
symmetrizes exactly.  Orders are small (a few dozen at most), so all
algorithms are dense.

Symplectic spectra and Williamson forms come from one eigensolve: the
Cholesky factor of N = L L.T gives the skew-symmetric K = L.T Omega L,
which is similar to Omega N (Bhatia and Jain, J. Math. Phys. 2015).  The
positive eigenvalues of the Hermitian i K are the symplectic eigenvalues,
and its eigenvectors yield the Williamson congruence, whose columns also
give the derivative of each simple symplectic eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgetrf, dpotrf, dpotrs, dtrtrs, zheevd

DEFAULT_CLUSTER_TOL = 1e-6
# the max-norm tolerance of both symplectic PD characterizations, which must
# agree on every input
_SYMPLECTIC_PD_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


class NotPositiveDefiniteError(ValueError):
    """Raised when an operation requires a positive definite input."""


def as_symmetric(N, even: bool = False) -> np.ndarray:
    """Validate a square array-like and return its exact symmetrization.

    With ``even=True`` the order must also be even (the ambient dimension of
    the symplectic form).
    """
    N = as_square(N)
    if even and N.shape[0] % 2 != 0:
        raise ValueError(f"matrix order must be even, got {N.shape[0]}")
    return 0.5 * (N + N.T)


def as_square(S) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    return S


def _symmetric_block(B) -> np.ndarray:
    # the one symmetric-block check: B - B.T within 1e-10 max(1, max |B|), then symmetrized
    B = as_square(B)
    if np.max(np.abs(B - B.T)) > 1e-10 * max(1.0, float(np.max(np.abs(B)))):
        raise ValueError("block must be symmetric")
    return 0.5 * (B + B.T)


def _as_int(x) -> int:
    """x as an int when its value is an integer: Python and numpy integers and
    floats such as 2.0 pass; 2.5, infinities, strings and booleans raise
    ValueError instead of being truncated."""
    if type(x) is int:  # the common case, tested first: callers run this per vertex
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, (float, np.floating)) and x.is_integer():
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


def _check_size(p) -> int:
    """p as an int, or ValueError unless it is a positive integer."""
    p = _as_int(p)
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    return p


@lru_cache(maxsize=8)
def omega(p: int) -> np.ndarray:
    """The 2p x 2p matrix [[0, I], [-I, 0]] defining the symplectic form, read-only."""
    p = _check_size(p)
    om = np.zeros((2 * p, 2 * p))
    om[:p, p:] = np.eye(p)
    om[p:, :p] = -np.eye(p)
    om.setflags(write=False)
    return om


def _check_tol(name: str, tol: float) -> None:
    """The one rule for a comparison tolerance: ValueError unless it is
    nonnegative and finite, since a NaN or negative one fails every test and
    an infinite one passes every test."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {tol}")


def _check_targets(target) -> np.ndarray:
    # the one rule for target spectra: nonempty, every value positive and finite
    t = np.asarray(target, dtype=float).ravel()
    if t.size == 0 or not np.all((t > 0) & (t < np.inf)):
        raise ValueError("targets must be positive and finite")
    return t


def _symplectic_residual(S: np.ndarray) -> float:
    # max |S.T @ Omega @ S - Omega| for a square S of even order
    om = omega(S.shape[0] // 2)
    return float(np.max(np.abs(S.T @ om @ S - om)))


def is_symplectic(S) -> bool:
    """True iff ``S.T @ Omega @ S`` equals Omega to within 1e-8 (max norm)."""
    S = as_square(S)
    if S.shape[0] % 2 != 0:
        raise ValueError("symplectic matrices have even order")
    return _symplectic_residual(S) <= 1e-8


def is_hamiltonian(M) -> bool:
    """True iff Omega @ M is symmetric, i.e. M = [[R, E], [F, -R.T]] with E, F symmetric,
    to within 1e-10 relative to max(1, max |M|)."""
    M = as_square(M)
    if M.shape[0] % 2 != 0:
        return False
    om = omega(M.shape[0] // 2)
    W = om @ M
    return float(np.max(np.abs(W - W.T))) <= 1e-10 * max(1.0, float(np.max(np.abs(M))))


def pattern_tol(N) -> float:
    """Default threshold below which an entry counts as a structural zero."""
    N = np.asarray(N, dtype=float)
    m = float(np.max(np.abs(N))) if N.size else 0.0
    return 1e-10 * m


def _nonzero(N, zero_tol: float | None) -> np.ndarray:
    """The one structural-zero rule: True where |N| > zero_tol, with
    ``zero_tol=None`` meaning :func:`pattern_tol` of N.  A zero_tol that is
    negative or not finite raises ValueError."""
    N = np.asarray(N, dtype=float)
    if zero_tol is None:
        zero_tol = pattern_tol(N)
    else:
        _check_tol("zero_tol", zero_tol)
    return np.abs(N) > zero_tol


def _cholesky_proves(H: np.ndarray, shift: float) -> bool:
    """Whether dpotrf completes on H with its diagonal lowered by shift * trace H.
    H is overwritten.

    With H symmetric of order n and Fortran-ordered (a C-ordered array passed
    as its transpose), u = eps / 2 and gamma_j = j u / (1 - j u): f =
    fl(trace H) must be positive and finite, H's diagonal is lowered by tau =
    shift f, and True is returned only when LAPACK's dpotrf completes on the
    result.  Then every shifted diagonal entry is positive, so each unshifted
    one lies in (0, trace H] and the subtraction rounds it by at most u (f +
    tau); the factorization gives R^T R = H - tau I + dH with ||dH||_2 <=
    gamma_{n+1} ||R||_F^2 <= gamma_{n+1} f (1 + O(u)) (Demmel, "On floating
    point errors in Cholesky", 1989; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 10.1).  So lambda_min(H) >= tau -
    (n + 2) u f (1 + O(u)), and no factorization completes once tau >= f.  A
    trace that is zero, negative, infinite or NaN returns False, since an
    optimized dpotrf may complete on NaN pivots.  Only the diagonal and the
    upper triangle of H are read, so H is the symmetric matrix of that
    triangle whatever its lower one holds.
    """
    f = H.trace()
    if not 0.0 < f < np.inf:
        return False
    H.flat[:: H.shape[0] + 1] -= shift * f
    return dpotrf(H, clean=0, overwrite_a=1)[1] == 0


def _min_norm_solve(J: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The minimum-norm solution s = J.T y of J s = b for J of shape r x c,
    r <= c, with (J J.T) y = b solved by one Cholesky factor of the r x r
    matrix J J.T (Nocedal and Wright, Numerical Optimization, 2nd ed.,
    section 10.3) and refined once by the residual b - J s taken from J
    itself, which takes the error from cond(J)^2 eps to about cond(J) eps
    (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996).

    None where J has lost row rank, so that no unique minimum-norm solution
    exists: dpotrf stops, or a pivot R_jj, the distance of row j of J from
    the span of the rows above it, has R_jj^2 at most (r + c) eps times the
    row's squared norm, twice the rounding of forming and factoring J J.T.
    """
    A = J @ J.T
    R, info = dpotrf(A, clean=0)
    if info != 0 or not np.all(R.diagonal() ** 2 > sum(J.shape) * _EPS * A.diagonal()):
        return None
    y = dpotrs(R, b)[0]
    y += dpotrs(R, b - J @ (J.T @ y))[0]
    return J.T @ y


def is_positive_definite(N) -> bool:
    """Positive definiteness, proven by one Cholesky factorization of a shifted N.

    :func:`_cholesky_proves` runs on N of order n with shift 4 (n + 1) eps,
    and f = fl(trace N) >= trace(N) (1 - gamma_n).  So lambda_min(N) >=
    4 (n + 1) eps f - (n + 2) u trace(N) (1 + O(u)) > 0, the shift covering
    every rounding term at least four times over, and True proves N positive
    definite.  N may be refused when its smallest eigenvalue lies within
    about the shift of zero, when it is empty and when its trace overflows;
    infs or NaNs raise ValueError.
    """
    return _certified_pd(as_symmetric(N))


def _certified_pd(N: np.ndarray) -> bool:
    # is_positive_definite's proof on an exactly symmetric N
    if not np.isfinite(N).all():
        raise ValueError("matrix must not contain infs or NaNs")
    return _cholesky_proves(N.copy(order="F"), 4 * (N.shape[0] + 1) * _EPS)


def _require_pd(N) -> np.ndarray:
    # the one PD gate: the symmetrized N of even order, or a raise
    N = as_symmetric(N, even=True)
    if not _certified_pd(N):
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return N


@dataclass(frozen=True)
class SymplecticSpectrum:
    """The p symplectic eigenvalues of a 2p x 2p positive definite matrix.

    ``values`` is sorted ascending.  ``clusters`` groups numerically equal
    values into (mean, multiplicity) pairs by :func:`cluster_values`, none
    wider than ``cluster_tol`` times its largest value; floating point forces
    some such convention, and the one used is recorded on the result.
    """

    values: tuple[float, ...]
    cluster_tol: float

    @property
    def p(self) -> int:
        return len(self.values)

    @property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        return cluster_values(self.values, self.cluster_tol)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.clusters)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


def _cluster_starts(vals: np.ndarray, tol: float) -> np.ndarray:
    """The one rule for equal values: for each of the ascending vals, the index
    of the first value of its cluster.  A cluster opens at its smallest value s
    and takes each next v while v - s <= tol max(v, 1e-300), so none is wider
    than tol times its largest value; at tol = 0 only exact ties group."""
    vs = vals.tolist()
    starts, s = [], 0
    for i, v in enumerate(vs):
        if v - vs[s] > tol * max(v, 1e-300):
            s = i
        starts.append(s)
    return np.array(starts, dtype=np.intp)


def cluster_values(values, cluster_tol: float) -> tuple[tuple[float, int], ...]:
    """Group positive values into ascending (mean, multiplicity) clusters by
    :func:`_cluster_starts`; a negative or non-finite cluster_tol raises ValueError."""
    _check_tol("cluster_tol", cluster_tol)
    vals = np.sort(np.asarray(values, dtype=float))
    starts = np.unique(_cluster_starts(vals, cluster_tol)).tolist()
    ends = [*starts[1:], vals.size]
    # a slice sum over its length is np.mean bit for bit, without its overhead
    return tuple((float(vals[i:j].sum()) / (j - i), j - i) for i, j in zip(starts, ends))


def symplectic_spectrum(N, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a positive definite matrix of order 2p.

    These are the moduli of the (purely imaginary) eigenvalues of Omega @ N.
    Computed from the Cholesky factor N = L @ L.T: the skew-symmetric
    K = L.T @ Omega @ L is similar to Omega @ N, so the Hermitian i K has
    eigenvalues +-d, and its p positive ones are the symplectic eigenvalues.
    This keeps the pairing exact by construction instead of trusting a
    nonsymmetric eigensolver, and it is the eigensolve of :func:`williamson`,
    so the values equal ``williamson(N).d`` bit for bit.  A cluster_tol
    that is negative or not finite raises ValueError.
    """
    _check_tol("cluster_tol", cluster_tol)
    d = _williamson_eigen(_require_pd(N))[1]
    return SymplecticSpectrum(values=tuple(float(v) for v in d), cluster_tol=cluster_tol)


@dataclass(frozen=True)
class WilliamsonPair:
    """A symplectic S and positive diagonal d with S.T @ N @ S = diag(d, d).

    S is not unique; only the reconstruction residuals are contractual:
    ``diagonalization_residual`` is max |S.T @ N @ S - diag(d, d)| and
    ``symplectic_residual`` is max |S.T @ Omega @ S - Omega|.
    """

    S: np.ndarray
    d: tuple[float, ...]
    diagonalization_residual: float
    symplectic_residual: float

    def diagonal(self) -> np.ndarray:
        dd = np.concatenate([self.d, self.d])
        return np.diag(dd)


def _williamson_eigen(N: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cholesky factor L of N = L @ L.T, the ascending symplectic
    eigenvalues d of N and the eigenvectors W of i K for d.

    K = L.T @ Omega @ L is exactly skew-symmetric and similar to Omega @ N,
    so the eigenvalues of the Hermitian i K are -d descending, then d
    ascending.  Raises NotPositiveDefiniteError when N cannot be factored.
    """
    L, info = dpotrf(N, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    p = N.shape[0] // 2
    M = L[:p].T @ L[p:]  # Omega L stacks L[p:] over -L[:p]
    w, W, info = zheevd(1j * (M - M.T))
    if info != 0 or not w[p] > 0:
        raise np.linalg.LinAlgError("eigendecomposition of iK failed in Williamson form")
    return L, w[p:], W[:, p:]


def _williamson_columns(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending symplectic eigenvalues d of N and a symplectic S with
    S.T @ N @ S = diag(d, d), without checking either.

    From :func:`_williamson_eigen`: an eigenvector w = x + i y of i K for
    d > 0 has K y = -d x; its orthogonality to every other eigenvector and
    to conj(w) makes the x's and y's orthogonal of norm 1 / sqrt 2, inside a
    repeated d too.  So Q = sqrt 2 [Im W, Re W] over the eigenvectors W for
    d is orthogonal with Q.T @ K @ Q = Omega @ diag(d, d), and
    S = inv(L.T) @ Q @ diag(sqrt(d), sqrt(d)).  Raises
    NotPositiveDefiniteError when N cannot be factored.
    """
    L, d, W = _williamson_eigen(N)
    W = np.sqrt(2.0) * W
    scale = np.sqrt(np.concatenate([d, d]))
    return d, dtrtrs(L, np.hstack([W.imag, W.real]), lower=1, trans=1)[0] * scale


def williamson(N) -> WilliamsonPair:
    """Williamson normal form of a positive definite matrix.

    S and d come from the eigenvectors of the Hermitian i K, with
    K = L.T @ Omega @ L (see :func:`_williamson_columns`).  Both residuals
    are returned on the pair, checked to 1e-8 max |N| and 1e-8 max(1, max |N|).
    """
    N = _require_pd(N)
    d, S = _williamson_columns(N)
    scale_n = float(np.max(np.abs(N)))
    R = S.T @ N @ S
    R.flat[:: N.shape[0] + 1] -= np.concatenate([d, d])
    diag_res = float(np.max(np.abs(R)))
    if diag_res > 1e-8 * scale_n:
        raise np.linalg.LinAlgError("Williamson reconstruction residual too large")
    symp_res = _symplectic_residual(S)
    if symp_res > 1e-8 * max(1.0, scale_n):
        raise np.linalg.LinAlgError("Williamson factor is not symplectic")
    return WilliamsonPair(S, tuple(float(x) for x in d), diag_res, symp_res)


def is_symplectic_pd(N) -> bool:
    """True iff N is both symplectic and positive definite.

    Equivalent to all symplectic eigenvalues of N being one, and checked via
    (Omega @ N)^2 = -I to within ``_SYMPLECTIC_PD_TOL``.
    """
    N = as_symmetric(N, even=True)
    if not _certified_pd(N):
        return False
    om = omega(N.shape[0] // 2)
    W = om @ N
    return float(np.max(np.abs(W @ W + np.eye(N.shape[0])))) <= _SYMPLECTIC_PD_TOL


def symplectic_pd_inverse_identity(N) -> bool:
    """Independent characterization of symplectic PD matrices via the inverse.

    N (positive definite, order 2p) is symplectic iff its inverse equals
    [[N22, -N12.T], [-N12, N11]] in the p x p block partition, to within
    ``_SYMPLECTIC_PD_TOL`` relative to max(1, max |N^-1|).  Must agree with
    :func:`is_symplectic_pd` on every input.
    """
    N = as_symmetric(N, even=True)
    if not _certified_pd(N):  # and so invertible
        return False
    p = N.shape[0] // 2
    Ninv = np.linalg.inv(N)
    blocked = np.block(
        [[N[p:, p:], -N[:p, p:].T], [-N[:p, p:], N[:p, :p]]]
    )
    scale = max(1.0, float(np.max(np.abs(Ninv))))
    return float(np.max(np.abs(Ninv - blocked))) <= _SYMPLECTIC_PD_TOL * scale


def _invertible(A: np.ndarray) -> bool:
    # the one invertibility rule: on LU pivots, so it ignores the scale of A
    u = np.abs(np.diag(dgetrf(A)[0]))
    return bool(u.min() > A.shape[0] * _EPS * u.max())


def basic_symplectic(kind: str, arg) -> np.ndarray:
    """A basic symplectic matrix other than Omega, which :func:`omega` builds.

    kind="block_diag" builds diag(A, inv(A).T) from an invertible A;
    kind="shear" builds [[I, B], [O, I]] from a symmetric B.
    """
    if kind == "block_diag":
        A = as_square(arg)
        if not _invertible(A):
            raise ValueError("block_diag factor must be invertible")
        Ainv_t = np.linalg.inv(A).T
        m = A.shape[0]
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m] = A
        out[m:, m:] = Ainv_t
        return out
    if kind == "shear":
        B = _symmetric_block(arg)
        m = B.shape[0]
        out = np.eye(2 * m)
        out[:m, m:] = B
        return out
    raise ValueError(f"unknown basic symplectic kind {kind!r}")


def _check_permutation(sigma) -> tuple[int, ...]:
    sigma = tuple(map(_as_int, sigma))
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..n")
    return sigma


def is_valid_symplectic_relabeling(sigma) -> bool:
    """Whether a relabeling keeps symplectic spectra invariant for every matrix.

    sigma (a permutation of 1..2p, as a sequence with sigma[i-1] = sigma(i))
    qualifies iff it maps the index pairing {{1, 1+p}, ..., {p, 2p}} onto
    itself, |sigma(i) - sigma(i+p)| = p for all i <= p: exactly the p! * 2^p
    permutations whose monomial lift preserves Omega.
    """
    sigma = _check_permutation(sigma)
    n = len(sigma)
    if n % 2 != 0:
        raise ValueError("sigma must permute an even range 1..2p")
    p = n // 2
    return all(abs(sigma[i] - sigma[i + p]) == p for i in range(p))


def permutation_matrix(sigma) -> np.ndarray:
    """P with column i equal to e_{sigma(i)}, so (P N P.T)[sigma(i), sigma(j)] = N[i, j]."""
    sigma = _check_permutation(sigma)
    n = len(sigma)
    P = np.zeros((n, n))
    for i, s in enumerate(sigma):
        P[s - 1, i] = 1.0
    return P


def relabel(N, sigma) -> np.ndarray:
    """Conjugate N by the permutation matrix of sigma: P_sigma @ N @ P_sigma.T.

    This moves the labeled graph of N by sigma.  It preserves the symplectic
    spectrum when the monomial lift of sigma reduces to P_sigma itself (no
    coupled pair is internally flipped); in general only the sign-corrected
    conjugation :func:`monomial_relabel` preserves the spectrum.
    """
    N = as_symmetric(N)
    sigma = _check_permutation(sigma)
    if len(sigma) != N.shape[0]:
        raise ValueError("sigma length must match matrix order")
    P = permutation_matrix(sigma)
    return P @ N @ P.T


def symplectic_monomial_lift(sigma) -> np.ndarray:
    """The signed permutation matrix R = E @ P_sigma with R.T @ Omega @ R = Omega.

    Exists exactly for valid relabelings: a pair mapped with its internal
    order flipped (index i+p taking a label s <= p) needs a -1 on label s+p.
    Conjugation by R moves the pattern by sigma while preserving symplectic
    spectra.
    """
    sigma = _check_permutation(sigma)
    if not is_valid_symplectic_relabeling(sigma):
        raise ValueError("sigma does not preserve the index pairing; no symplectic lift exists")
    p = len(sigma) // 2
    eps = np.ones(2 * p)
    for s in sigma[p:]:
        if s <= p:
            eps[s + p - 1] = -1.0
    return eps[:, None] * permutation_matrix(sigma)


def monomial_relabel(N, sigma) -> np.ndarray:
    """Relabel by a valid sigma through its monomial lift: same pattern move as
    :func:`relabel`, with the symplectic spectrum exactly preserved."""
    N = as_symmetric(N, even=True)
    R = symplectic_monomial_lift(sigma)
    if R.shape[0] != N.shape[0]:
        raise ValueError("sigma length must match matrix order")
    return R @ N @ R.T
