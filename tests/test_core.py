import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dtrttf
from hypothesis import given, settings
from hypothesis import strategies as st

import spisep as sp
from spisep import core
from spisep.core import cluster_values

# the two labelings of the 4-path from the motivating example
N_PATH_A = np.array([[2.0, 0, 1, 1], [0, 2, 1, 0], [1, 1, 2, 0], [1, 0, 0, 2]])
N_PATH_TRIDIAG = np.array([[2.0, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])

N_PAW = np.array([[3.0, -1, 1, 1], [-1, 1, 0, 0], [1, 0, 1, 1], [1, 0, 1, 2]])


@pytest.mark.parametrize("p", range(1, 7))
def test_omega_squares_to_minus_identity(p):
    om = sp.omega(p)
    assert np.array_equal(om @ om, -np.eye(2 * p))


def test_omega_small():
    assert np.array_equal(sp.omega(1), np.array([[0.0, 1], [-1, 0]]))
    om = sp.omega(2)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1
    expected[2, 0] = expected[3, 1] = -1
    assert np.array_equal(om, expected)


@pytest.mark.parametrize("call, message", [
    (lambda: sp.omega(2.5), "expected an integer, got 2.5"),
    (lambda: sp.omega(0), "p must be a positive integer, got 0"),
    (lambda: sp.sp_basis(1.5), "expected an integer, got 1.5"),
    (lambda: sp.sp_basis(True), "expected an integer, got True"),
    (lambda: sp.permutation_matrix([1.0, 2.5, 3]), "expected an integer, got 2.5"),
    (lambda: sp.is_valid_symplectic_relabeling([1.5, 2.5]), "expected an integer, got 1.5"),
    (lambda: sp.relabel(np.eye(2), ["2", "1"]), "expected an integer, got '2'"),
])
def test_sizes_and_labels_refuse_non_integers(call, message):
    # each was once truncated: permutation_matrix([1.0, 2.5, 3]) was the identity
    # and omega(2.5) was 4 x 4
    with pytest.raises(ValueError, match=message):
        call()


def test_sizes_and_labels_take_numpy_integers():
    assert np.array_equal(sp.omega(np.int64(2)), sp.omega(2))
    assert len(sp.sp_basis(np.int32(2))) == 10
    sigma = np.array([2, 1, 4, 3])
    assert np.array_equal(sp.permutation_matrix(sigma), sp.permutation_matrix([2, 1, 4, 3]))
    assert sp.is_valid_symplectic_relabeling(np.array([3, 2, 1, 4]))


def test_basic_symplectic_matrices_are_symplectic():
    rng = np.random.default_rng(0)
    assert sp.is_symplectic(sp.omega(3))
    B = sp.random_symmetric(4, rng)
    assert sp.is_symplectic(sp.basic_symplectic("shear", B))
    A = np.diag([2.0, 3.0])
    S = sp.basic_symplectic("block_diag", A)
    assert np.allclose(S, np.diag([2, 3, 0.5, 1 / 3]))
    assert sp.is_symplectic(S)


def test_shear_with_nonsymmetric_block_rejected():
    with pytest.raises(ValueError):
        sp.basic_symplectic("shear", np.array([[0.0, 1], [0, 0]]))
    S = np.eye(4)
    S[:2, 2:] = np.array([[0.0, 1], [0, 0]])
    assert not sp.is_symplectic(S)


@pytest.mark.parametrize("build", [
    lambda B: sp.basic_symplectic("shear", B),
    lambda B: sp.dopico_johnson(np.eye(2), B),
    sp.shear_square,
    lambda B: sp.realize_shear(B, [1.0, 2.0]),
])
def test_symmetric_block_threshold_is_shared(build):
    # one rule: |B - B.T| within 1e-10 max(1, max |B|), then symmetrized
    for asym, accepted in ((1e-11, True), (1e-9, False)):
        B = np.array([[1.0, 0.5], [0.5 + asym, 2.0]])
        if accepted:
            assert np.isfinite(build(B)).all()
        else:
            with pytest.raises(ValueError, match="block must be symmetric"):
                build(B)


def test_block_diag_requires_invertible():
    for A in (np.zeros((2, 2)), np.ones((2, 2))):
        with pytest.raises(ValueError, match="must be invertible"):
            sp.basic_symplectic("block_diag", A)


def test_block_diag_invertibility_is_scale_free():
    # det(A) = 1e-320, yet A has condition number 1
    S = sp.basic_symplectic("block_diag", 1e-160 * np.eye(2))
    assert np.array_equal(S, np.diag([1e-160, 1e-160, 1e160, 1e160]))


def test_is_symplectic_rejects_odd_order():
    with pytest.raises(ValueError):
        sp.is_symplectic(np.eye(3))


def test_positive_definite():
    assert sp.is_positive_definite(np.eye(4))
    assert sp.is_positive_definite(N_PAW)
    assert not sp.is_positive_definite(np.diag([1.0, -1.0]))
    assert not sp.is_positive_definite(np.zeros((3, 3)))
    minors = [np.linalg.det(N_PAW[:k, :k]) for k in range(1, 5)]
    assert np.allclose(minors, [3, 2, 1, 1])


def _pd_test_matrices(rng):
    for _ in range(600):
        n = int(rng.integers(1, 11))
        A = rng.standard_normal((n, n))
        S = A + A.T
        # shift around the smallest eigenvalue: both verdicts, and many
        # indefinite matrices behind a positive diagonal
        w = np.linalg.eigvalsh(S)
        yield S + (-w[0] + rng.uniform(-1.0, 1.0) * (w[-1] - w[0]) * 0.2) * np.eye(n)
    for n in (2, 5, 9, 80):
        # near-singular: the smallest eigenvalue straddles the proof's shift
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for lam in (-1e-6, -1e-12, 0.0, 1e-12, 1e-11, 1e-9, 1e-6):
            w = np.concatenate([[lam], rng.uniform(0.5, 2.0, n - 1)])
            yield (Q * w) @ Q.T


def test_positive_definite_matches_ldl_reference():
    # the reference is the spectrum: True wherever the smallest eigenvalue
    # clears twice the proof's shift 4 (n + 1) eps trace N, False wherever
    # it is not positive; in between either verdict is sound
    rng = np.random.default_rng(7)
    verdicts = []
    for N in _pd_test_matrices(rng):
        N = sp.as_symmetric(N)
        got = sp.is_positive_definite(N)
        lam = np.linalg.eigvalsh(N)[0]
        if lam > 2 * 4 * (N.shape[0] + 1) * np.finfo(float).eps * np.trace(N):
            assert got
        elif lam <= 0.0:
            assert not got
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("shift", [4 * 6 * core._EPS, 1e-18 + 4 * 40 * core._EPS, 1e-2])
@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_cholesky_proves_exactly_above_the_shifted_boundary(shift, layout):
    # diagonal H of odd and even order with lambda_min = shift * trace H * (1 +- 1e-3),
    # placed last, so only a shift written through to H's own packed diagonal
    # refuses the low case; dtrttf packs H whichever order its array has
    for rest in (np.array([1.0, 2.0, 3.0, 5.0]), np.array([1.0, 2.0, 3.0, 5.0, 8.0])):
        verdicts = []
        for rel in (1 - 1e-3, 1 + 1e-3):
            a = shift * rel
            lam = a * rest.sum() / (1 - a)  # lam = a * (rest.sum() + lam)
            H = np.diag(np.append(rest, lam))
            H = H.copy(order="F") if layout == "fortran" else np.ascontiguousarray(H).T
            verdicts.append(core._cholesky_proves(dtrttf(H, transr="N", uplo="L")[0], shift))
        assert verdicts == [False, True]


def test_cholesky_proves_reads_and_shifts_every_packed_diagonal_slot():
    # at each order 2..16 (both parities of the packed layout) and each position t,
    # a diagonal H whose entry t is just below or just above shift * trace H: only
    # a trace and a shift that reach every diagonal slot, and nothing else, give
    # False then True
    shift = 1e-3  # so the low entry is the least one: shift * trace H < 0.2 here
    assert core._cholesky_proves(np.array([2.0]), shift)
    assert not core._cholesky_proves(np.array([-2.0]), shift)
    for n in range(2, 17):
        rest = np.arange(1.0, n)
        for t in range(n):
            verdicts = []
            for rel in (1 - 1e-3, 1 + 1e-3):
                a = shift * rel
                H = np.diag(np.insert(rest, t, a * rest.sum() / (1 - a)))
                verdicts.append(core._cholesky_proves(dtrttf(H, transr="N", uplo="L")[0], shift))
            assert verdicts == [False, True], (n, t)


def _random_full_row_rank(rng, r, c, cond):
    # J = U diag(sigma) V.T of shape r x c with singular values from 1 to cond
    U = np.linalg.qr(rng.standard_normal((r, r)))[0]
    V = np.linalg.qr(rng.standard_normal((c, r)))[0]
    return (U * np.geomspace(1.0, cond, r)) @ V.T * 10.0 ** rng.uniform(-3, 3)


def test_min_norm_solve_matches_least_squares_on_full_row_rank():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r = int(rng.integers(1, 25))
        J = _random_full_row_rank(rng, r, int(rng.integers(r, 320)), 10.0 ** rng.uniform(0, 4))
        b = rng.standard_normal(r) * 10.0 ** rng.uniform(-3, 3)
        want = np.linalg.lstsq(J, b, rcond=None)[0]
        got = core._min_norm_solve(J, b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_min_norm_solve_refuses_a_repeated_row():
    # J J.T is singular; dpotrf alone completes on about a third of these,
    # with a last pivot of rounding size
    rng = np.random.default_rng(1)
    for _ in range(300):
        r = int(rng.integers(2, 25))
        J = rng.standard_normal((r, int(rng.integers(r, 320)))) * rng.uniform(0.01, 100, (r, 1))
        i, j = rng.choice(r, 2, replace=False)
        J[j] = J[i] * rng.choice([1.0, -2.0])
        assert core._min_norm_solve(J, rng.standard_normal(r)) is None


def test_positive_definite_rejects_non_finite():
    with pytest.raises(ValueError):
        sp.is_positive_definite(np.array([[1.0, np.nan], [np.nan, 1.0]]))


SHEAR_BLOCK = np.array([[1.0, 0.5], [0.5, 2.0]])


@pytest.mark.parametrize("s", [200.0, 300.0, 500.0, 1000.0])
def test_large_symplectic_pd_shears_are_positive_definite(s):
    # eigenvalues come as lam and 1 / lam: at s = 200 from 5.1e-6 to 1.9e5,
    # far below any pivot floor relative to the diagonal
    N = sp.shear_square(s * SHEAR_BLOCK)
    assert sp.is_positive_definite(N) and sp.is_symplectic_pd(N)
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), 1.0, rtol=1e-10)
    pair = sp.williamson(N)  # raises unless both of its gates pass
    np.testing.assert_allclose(np.asarray(pair.d), 1.0, rtol=1e-10)


def test_shear_beyond_the_proof_is_refused():
    # condition number about 4e16: the smallest eigenvalue lies below the shift
    N = sp.shear_square(1e4 * SHEAR_BLOCK)
    assert not sp.is_positive_definite(N) and not sp.is_symplectic_pd(N)
    for f in (sp.symplectic_spectrum, sp.williamson):
        with pytest.raises(sp.NotPositiveDefiniteError):
            f(N)


def test_spectrum_and_williamson_match_eigenvalue_moduli():
    # the eigenvalues of Omega N are +-i d, so their sorted moduli pair up
    rng = np.random.default_rng(21)
    for _ in range(80):
        p = int(rng.integers(1, 9))
        N = sp.random_pd(2 * p, rng)
        w = np.sort(np.abs(np.linalg.eigvals(sp.omega(p) @ N)))
        ref = 0.5 * (w[0::2] + w[1::2])
        np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), ref, rtol=1e-10)
        np.testing.assert_allclose(np.asarray(sp.williamson(N).d), ref, rtol=1e-10)


def _spectrum_corpus():
    # 2000 seeded generic PD matrices at p = 1..7, then the shear squares p = 2..8
    rng = np.random.default_rng(2000)
    cases = [sp.random_pd(2 * int(rng.integers(1, 8)), rng) for _ in range(2000)]
    for p in range(2, 9):
        cases += [sp.shear_square(sp.path_shear_block(p)), sp.shear_square(np.ones((p, p)))]
    return cases


def test_spectrum_is_the_williamson_eigensolve():
    for N in _spectrum_corpus():
        assert sp.symplectic_spectrum(N).values == sp.williamson(N).d


def _cholesky_skew(N):
    # the lower factor L of N = L L.T and K = L.T Omega L = M - M.T, M = L[:p].T L[p:]
    L, info = scipy.linalg.lapack.dpotrf(N, lower=1)
    assert info == 0
    p = N.shape[0] // 2
    M = L[:p].T @ L[p:]
    return L, M - M.T


def _spectrum_dgesdd_reference(N):
    """The former spectrum route: the paired singular values of K by LAPACK's
    dgesdd, each pair averaged, sorted ascending."""
    K = _cholesky_skew(sp.as_symmetric(N))[1]
    s = scipy.linalg.lapack.dgesdd(K, compute_uv=0)[1]  # descending, in pairs
    return np.sort(0.5 * (s[0::2] + s[1::2]))


def test_spectrum_matches_the_dgesdd_reference():
    for N in _spectrum_corpus():
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(), _spectrum_dgesdd_reference(N), rtol=1e-13
        )


def test_each_public_call_factors_n_once(monkeypatch):
    # one proof on the shifted N and one unshifted factor for the kernel,
    # with no Schur, triangular-solve or symmetric-indefinite wrapper
    def refuse(*args, **kwargs):
        raise AssertionError("wrapper called")

    for name in ("schur", "solve_triangular", "ldl"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", refuse)
    dpotrf, dpftrf = core.dpotrf, core.dpftrf
    args, packed = [], []

    def spy(a, **kwargs):
        args.append(np.array(a))
        return dpotrf(a, **kwargs)

    def packed_spy(n, a, **kwargs):
        packed.append((n, np.array(a)))
        return dpftrf(n, a, **kwargs)

    monkeypatch.setattr(core, "dpotrf", spy)
    monkeypatch.setattr(core, "dpftrf", packed_spy)
    N = sp.as_symmetric(sp.random_pd(6, np.random.default_rng(3)))
    shifted = N - 4 * 7 * core._EPS * N.trace() * np.eye(6)
    for f in (sp.symplectic_spectrum, sp.williamson):
        args.clear()
        packed.clear()
        f(N)
        assert len(args) == 1 and np.array_equal(args[0], N)
        assert len(packed) == 1 and packed[0][0] == 6
        assert packed[0][1].tobytes() == dtrttf(shifted, transr="N", uplo="L")[0].tobytes()


def test_spectrum_of_identity_has_single_cluster():
    for p in (1, 2, 4):
        spec = sp.symplectic_spectrum(np.eye(2 * p))
        assert np.allclose(spec.as_array(), 1.0)
        assert spec.clusters == ((pytest.approx(1.0), p),)


def test_path_labelings_have_different_spectra():
    s1 = sp.symplectic_spectrum(N_PATH_A).as_array()
    assert np.allclose(s1, [1.176, 1.902], atol=1e-3)
    s2 = sp.symplectic_spectrum(N_PATH_TRIDIAG).as_array()
    assert np.allclose(s2, [0.727, 3.078], atol=1e-3)


def test_relabel_moves_path_matrix_to_tridiagonal():
    sigma = (2, 4, 3, 1)  # the cycle sending 1 -> 2 -> 4 -> 1
    assert np.array_equal(sp.relabel(N_PATH_A, sigma), N_PATH_TRIDIAG)
    assert not sp.is_valid_symplectic_relabeling(sigma)
    assert np.array_equal(sp.relabel(N_PATH_A, (1, 2, 3, 4)), N_PATH_A)


def test_block_direct_sum_spectra():
    rng = np.random.default_rng(3)
    A = sp.random_pd(3, rng)
    N = np.zeros((6, 6))
    N[:3, :3] = A
    N[3:, 3:] = A
    np.testing.assert_allclose(
        sp.symplectic_spectrum(N).as_array(), np.linalg.eigvalsh(A), rtol=1e-10
    )
    N[3:, 3:] = np.linalg.inv(A)
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), 1.0, rtol=1e-10)


def test_spectrum_requires_positive_definite():
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.symplectic_spectrum(np.diag([1.0, -1.0]))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=0.01, max_value=100.0))
def test_spectrum_scales_linearly(lam):
    vals = sp.symplectic_spectrum(lam * N_PAW).as_array()
    np.testing.assert_allclose(vals, lam * np.ones(2), rtol=1e-8)


def test_spectrum_invariant_under_symplectic_congruence():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = sp.random_pd(6, rng)
        B = sp.random_symmetric(3, rng)
        A = sp.random_invertible(3, rng)
        S = sp.basic_symplectic("shear", B) @ sp.basic_symplectic("block_diag", A)
        before = sp.symplectic_spectrum(N).as_array()
        after = sp.symplectic_spectrum(S.T @ N @ S).as_array()
        np.testing.assert_allclose(after, before, rtol=1e-8)


def test_diagonal_spectrum_is_root_of_products():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.uniform(0.2, 5.0, 4)
        e = rng.uniform(0.2, 5.0, 4)
        spec = sp.symplectic_spectrum(np.diag(np.concatenate([d, e]))).as_array()
        np.testing.assert_allclose(spec, np.sort(np.sqrt(d * e)), rtol=1e-12)


def test_form_times_pd_matrix_has_imaginary_eigenvalues():
    rng = np.random.default_rng(9)
    for n in (4, 6, 10):
        N = sp.random_pd(n, rng)
        w = np.linalg.eigvals(sp.omega(n // 2) @ N)
        assert np.max(np.abs(w.real)) <= 1e-8 * np.max(np.abs(N))
        assert np.min(np.abs(w)) > 0


def test_williamson_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        N = sp.random_pd(n, rng)
        pair = sp.williamson(N)
        scale = np.max(np.abs(N))
        assert np.max(np.abs(pair.S.T @ N @ pair.S - pair.diagonal())) <= 1e-8 * scale
        assert sp.is_symplectic(pair.S)
        np.testing.assert_allclose(
            np.asarray(pair.d), sp.symplectic_spectrum(N).as_array(), rtol=1e-8
        )


def _spectrum_reference(N):
    """The former route: symmetric square root by eigh, then the paired
    singular values of sqrt(N) Omega sqrt(N)."""
    w, V = np.linalg.eigh(N)
    R = (V * np.sqrt(w)) @ V.T
    s = np.linalg.svd(R @ sp.omega(N.shape[0] // 2) @ R, compute_uv=False)
    return np.sort(0.5 * (s[0::2] + s[1::2]))


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
def test_cholesky_kernel_matches_square_root_route(cond):
    # both routes are backward stable, so the symplectic eigenvalues agree to
    # a relative error of order n * eps * cond
    rng = np.random.default_rng(int(math.log10(cond)))
    for p in (1, 2, 3, 5, 8, 13, 20):
        n = 2 * p
        rtol = 4 * n * np.finfo(float).eps * cond
        for _ in range(3):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            N = sp.as_symmetric((Q * rng.permutation(np.geomspace(1.0, 1.0 / cond, n))) @ Q.T)
            ref = _spectrum_reference(N)
            np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), ref, rtol=rtol)
            pair = sp.williamson(N)
            np.testing.assert_allclose(np.asarray(pair.d), ref, rtol=rtol)
            scale = np.max(np.abs(N))
            assert np.max(np.abs(pair.S.T @ N @ pair.S - pair.diagonal())) <= 1e-8 * scale
            assert sp.is_symplectic(pair.S)


def test_williamson_of_symplectic_gram_matrix_is_trivial():
    rng = np.random.default_rng(8)
    B = sp.random_symmetric(3, rng)
    A = sp.random_invertible(3, rng)
    S = sp.basic_symplectic("block_diag", A) @ sp.basic_symplectic("shear", B)
    pair = sp.williamson(S.T @ S)
    np.testing.assert_allclose(np.asarray(pair.d), 1.0, rtol=1e-8)


def test_williamson_accepts_diagonal():
    d = np.array([1.0, 2.0, 5.0])
    pair = sp.williamson(np.diag(np.concatenate([d, d])))
    np.testing.assert_allclose(np.asarray(pair.d), d, rtol=1e-10)


def _williamson_residuals(N, S, d):
    # max |S.T N S - diag(d, d)| and max |S.T Omega S - Omega|
    om = sp.omega(N.shape[0] // 2)
    D = np.diag(np.concatenate([d, d]))
    return np.max(np.abs(S.T @ N @ S - D)), np.max(np.abs(S.T @ om @ S - om))


def _williamson_gates(N, S, d):
    scale = np.max(np.abs(N))
    diagonalization, symplectic = _williamson_residuals(N, S, d)
    assert diagonalization <= 1e-8 * scale
    assert symplectic <= 1e-8 * max(1.0, scale)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("eps", [1e-14, 1.31e-15])
def test_williamson_of_a_nearly_symplectic_identity(n, eps):
    # K = Omega + O(eps) can stall the QR iteration of a real Schur form, at
    # (1, 2) of I_4 among others
    for i, j in itertools.combinations(range(n), 2):
        N = np.eye(n)
        N[i, j] = N[j, i] = eps
        pair = sp.williamson(N)
        np.testing.assert_allclose(np.asarray(pair.d), 1.0, rtol=1e-12)
        _williamson_gates(N, pair.S, pair.d)


def _williamson_schur_reference(N):
    # the Williamson form from the real Schur form of K, whose 2x2 blocks
    # carry d, with the block vectors reassembled into S
    L, K = _cholesky_skew(sp.as_symmetric(N))
    T, _, _, _, Z, _, info = scipy.linalg.lapack.dgees(lambda re, im: 0, K)
    assert info == 0
    d = T.diagonal(1)[::2]  # block k holds d at (2k, 2k + 1): K z_2k = -d z_2k+1
    assert d.all()
    u = np.arange(0, N.shape[0], 2) + (d < 0)  # the column u_k with K u_k = -|d_k| v_k
    order = np.argsort(np.abs(d), kind="stable")
    d, u = np.abs(d[order]), u[order]
    scale = np.sqrt(np.concatenate([d, d]))
    S = scipy.linalg.lapack.dtrtrs(L, Z[:, np.concatenate([u, u ^ 1])], lower=1, trans=1)[0]
    return d, S * scale


def test_williamson_matches_the_schur_reference():
    rng = np.random.default_rng(21)
    cases = [sp.random_pd(2 * int(rng.integers(1, 8)), rng) for _ in range(40)]
    cases += [np.diag([1.0, 2.0, 2.0, 1.0, 2.0, 2.0]), sp.shear_square(sp.path_shear_block(3))]
    for N in cases:
        d, S = _williamson_schur_reference(N)
        _williamson_gates(N, S, d)
        pair = sp.williamson(N)
        np.testing.assert_allclose(pair.d, d, rtol=1e-10)
        _williamson_gates(N, pair.S, pair.d)


def test_williamson_recovers_repeated_values_off_the_diagonal():
    # N = S.T diag(d, d) S with S symplectic has symplectic eigenvalues d, and
    # drawing d from three values makes them repeat inside a dense N
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = int(rng.integers(2, 7))
        d = np.sort(rng.choice([0.7, 1.3, 2.0], size=p))
        A = sp.random_invertible(p, rng)
        while np.linalg.cond(A) > 1e3:
            A = sp.random_invertible(p, rng)
        B = sp.random_symmetric(p, rng)
        S = sp.basic_symplectic("block_diag", A) @ sp.basic_symplectic("shear", B)
        N = S.T @ np.diag(np.concatenate([d, d])) @ S
        pair = sp.williamson(N)
        np.testing.assert_allclose(pair.d, d, rtol=1e-10)
        _williamson_gates(N, pair.S, pair.d)


def test_williamson_reports_the_residuals_it_gates_on():
    rng = np.random.default_rng(22)
    cases = [sp.random_pd(2 * int(rng.integers(1, 6)), rng) for _ in range(20)]
    cases += [np.eye(4), 1e6 * sp.random_pd(6, rng), sp.shear_square(sp.path_shear_block(4))]
    for N in cases:
        pair = sp.williamson(N)
        reported = (pair.diagonalization_residual, pair.symplectic_residual)
        assert reported == _williamson_residuals(N, pair.S, pair.d)


def test_symplectic_pd_examples():
    J = np.ones((3, 3))
    eq = sp.shear_square(J)
    expected = np.block([[np.eye(3), J], [J, 3 * J + np.eye(3)]])
    assert np.array_equal(eq, expected)
    assert sp.is_symplectic_pd(eq)
    assert sp.is_symplectic_pd(N_PAW)
    W = sp.omega(2) @ N_PAW
    assert np.max(np.abs(W @ W + np.eye(4))) <= 1e-10
    assert not sp.is_symplectic_pd(2.0 * np.eye(4))


def test_inverse_identity_matches_direct_test():
    rng = np.random.default_rng(13)
    B = sp.householder_all_nonzero(2)
    N = sp.shear_square(B)
    assert sp.symplectic_pd_inverse_identity(N)
    for _ in range(100):
        n = int(rng.choice([4, 6]))
        M = sp.random_pd(n, rng)
        assert sp.is_symplectic_pd(M) == sp.symplectic_pd_inverse_identity(M)
    assert not sp.symplectic_pd_inverse_identity(np.diag([2.0, 2.0, 1.0, 1.0]) + 0.1)
    # singular input: not PD, so both tests say False instead of one raising
    for M in (np.zeros((4, 4)), np.diag([1.0, 1.0, 0.0, 1.0])):
        assert sp.is_symplectic_pd(M) is False
        assert sp.symplectic_pd_inverse_identity(M) is False


def test_three_way_characterization_agrees():
    # direct test, inverse identity, and all-clusters-equal-one
    rng = np.random.default_rng(14)
    cases = [sp.shear_square(sp.random_symmetric(3, rng)) for _ in range(5)]
    cases += [sp.random_pd(6, rng) for _ in range(5)]
    for N in cases:
        a = sp.is_symplectic_pd(N)
        b = sp.symplectic_pd_inverse_identity(N)
        spec = sp.symplectic_spectrum(N)
        c = spec.clusters == ((pytest.approx(1.0, abs=1e-8), spec.p),)
        assert a == b == c


def test_inverse_of_symplectic_pd_has_partner_swapped_pattern():
    # N^{-1} = Omega N Omega^T, so the pattern moves by the pairing transposition
    rng = np.random.default_rng(15)
    p = 3
    tau = tuple(range(p + 1, 2 * p + 1)) + tuple(range(1, p + 1))
    for _ in range(10):
        N = sp.shear_square(sp.random_symmetric(p, rng))
        G = sp.graph_of_matrix(N)
        G_inv = sp.graph_of_matrix(np.linalg.inv(N))
        assert G_inv == G.relabeled(tau)


def test_valid_relabeling_count_matches_group_order():
    count = sum(
        sp.is_valid_symplectic_relabeling(s) for s in itertools.permutations((1, 2, 3, 4))
    )
    assert count == 8
    assert sp.is_valid_symplectic_relabeling((1, 2, 3, 4))
    assert sp.is_valid_symplectic_relabeling((3, 2, 1, 4))  # flips pair {1,3}


def test_monomial_relabel_preserves_spectrum_for_all_valid_sigma():
    rng = np.random.default_rng(16)
    for n in (4, 6, 8):
        valid = [
            s for s in itertools.permutations(range(1, n + 1))
            if sp.is_valid_symplectic_relabeling(s)
        ]
        assert len(valid) == 2 ** (n // 2) * math.factorial(n // 2)
        for _ in range(8):
            N = sp.random_pd(n, rng)
            base = sp.symplectic_spectrum(N).as_array()
            sigma = valid[int(rng.integers(len(valid)))]
            moved = sp.monomial_relabel(N, sigma)
            np.testing.assert_allclose(
                sp.symplectic_spectrum(moved).as_array(), base, rtol=1e-9
            )
            assert sp.graph_of_matrix(moved) == sp.graph_of_matrix(N).relabeled(sigma)


def test_plain_relabel_preserves_spectrum_when_lift_is_sign_free():
    rng = np.random.default_rng(17)
    # pair-permuting sigmas without internal flips: P itself is symplectic
    for sigma in [(2, 1, 4, 3), (1, 2, 3, 4)]:
        assert sp.is_symplectic(sp.permutation_matrix(sigma))
        N = sp.random_pd(4, rng)
        np.testing.assert_allclose(
            sp.symplectic_spectrum(sp.relabel(N, sigma)).as_array(),
            sp.symplectic_spectrum(N).as_array(),
            rtol=1e-9,
        )


def test_monomial_lift_requires_valid_sigma():
    with pytest.raises(ValueError):
        sp.symplectic_monomial_lift((2, 4, 3, 1))


def _maps_the_pairing_onto_itself(sigma):
    # the pair-set statement of validity: the image of {{i, i+p}} is {{i, i+p}}
    p = len(sigma) // 2
    base = {frozenset((i, i + p)) for i in range(1, p + 1)}
    return {frozenset((sigma[i - 1], sigma[i + p - 1])) for i in range(1, p + 1)} == base


def test_valid_relabeling_rule_matches_the_pair_set_rule():
    for n in (2, 4, 6, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert sp.is_valid_symplectic_relabeling(sigma) == _maps_the_pairing_onto_itself(sigma)
    for n in (1, 3):
        with pytest.raises(ValueError, match="even range"):
            sp.is_valid_symplectic_relabeling(range(1, n + 1))


def test_monomial_lift_preserves_the_form_exactly():
    count = 0
    for p in (1, 2, 3, 4):
        om = sp.omega(p)
        for sigma in itertools.permutations(range(1, 2 * p + 1)):
            if sp.is_valid_symplectic_relabeling(sigma):
                R = sp.symplectic_monomial_lift(sigma)
                assert np.array_equal(np.abs(R), sp.permutation_matrix(sigma))
                assert np.array_equal(R.T @ om @ R, om)
                count += 1
    assert count == 442


def test_cluster_tolerance_is_surfaced():
    spec = sp.symplectic_spectrum(np.eye(4), cluster_tol=1e-3)
    assert spec.cluster_tol == 1e-3
    assert spec.max_multiplicity == 2
    assert sum(spec.multiplicities) == spec.p


@pytest.mark.parametrize("cluster_tol", [np.nan, -1.0, np.inf])
def test_spectrum_refuses_a_negative_or_infinite_cluster_tolerance(cluster_tol):
    with pytest.raises(ValueError, match="cluster_tol must be nonnegative and finite"):
        sp.symplectic_spectrum(np.eye(4), cluster_tol=cluster_tol)
    # a directly built spectrum reaches cluster_values with the tolerance unchecked
    with pytest.raises(ValueError, match="cluster_tol must be nonnegative and finite"):
        sp.SymplecticSpectrum(values=(0.63, 1.64, 2.99), cluster_tol=cluster_tol).clusters
    assert sp.symplectic_spectrum(np.eye(4), cluster_tol=0.0).clusters == ((1.0, 2),)


def _exact_multiplicities(N):
    """The symplectic multiplicities of an integer N in ascending order of value,
    exactly: sympy.sqf_list of the characteristic polynomial of (Omega N)^2, whose
    roots are the -d^2, each of exponent 2m for a value d of multiplicity m."""
    import sympy

    x = sympy.Symbol("x")
    ON = sympy.Matrix((sp.omega(N.shape[0] // 2) @ N).astype(np.int64).tolist())
    _, factors = sympy.sqf_list((ON * ON).charpoly(x).as_expr(), x)
    roots = []
    for f, e in factors:
        r = sympy.Poly(f, x).real_roots()
        assert e % 2 == 0 and len(r) == sympy.degree(f, x)
        roots += [(-float(v), e // 2) for v in r]
    return tuple(m for _, m in sorted(roots))


def test_multiplicities_match_the_exact_square_free_factorization():
    # 4 exact repeats, then 5 seeded integer PD matrices at p = 3, 4 (edges
    # +-1, +-2 at density 0.4, each diagonal entry the row's absolute sum plus
    # 1 or 2), whose values are all simple
    repeats = {
        (3,): sp.shear_square(np.ones((3, 3))),
        (4,): sp.shear_square(sp.path_shear_block(4)),
        (2, 1): sp.direct_sum_interleave(2 * np.eye(2), sp.shear_square(np.ones((2, 2)))),
        (2,): np.diag([1.0, 2, 2, 1]),
    }
    for want, N in repeats.items():
        assert np.array_equal(N, np.round(N))
        assert _exact_multiplicities(N) == sp.symplectic_spectrum(N).multiplicities == want
    rng = np.random.default_rng(29)
    for _ in range(5):
        n = 2 * int(rng.choice([3, 4]))
        E = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
        E = np.triu(E, 1) + np.triu(E, 1).T
        N = E + np.diag(np.abs(E).sum(axis=1) + rng.integers(1, 3, n))
        assert _exact_multiplicities(N) == sp.symplectic_spectrum(N).multiplicities
        assert _exact_multiplicities(N) == (1,) * (n // 2)


def _cluster_values_reference(values, cluster_tol):
    """A per-value loop with np.mean on each cluster: a cluster opens at its
    smallest value and takes each next value within cluster_tol times that
    value of the cluster's first one."""
    vals = np.sort(np.asarray(values, dtype=float))
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or (vals[i] - vals[start]) > cluster_tol * max(vals[i], 1e-300):
            chunk = vals[start:i]
            clusters.append((float(np.mean(chunk)), len(chunk)))
            start = i
    return tuple(clusters)


def test_cluster_values_match_loop_reference():
    rng = np.random.default_rng(11)
    assert cluster_values([], 1e-6) == _cluster_values_reference([], 1e-6) == ()
    # relative gaps well inside, just inside, just outside and well outside tol
    gaps = np.array([0.0, 1e-3, 0.5, 0.95, 1.05, 1.08, 2.0, 10.0])
    for tol in (1e-6, 0.1):
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            steps = tol * rng.choice(gaps, size=n - 1) * rng.uniform(0.98, 1.02, size=n - 1)
            vals = rng.uniform(0.1, 10.0) * np.cumprod(np.concatenate([[1.0], 1.0 + steps]))
            vals = rng.permutation(vals)
            # tol 0 separates exact ties (gap 0) from every positive gap
            for t in (tol, 0.0):
                assert cluster_values(vals, t) == _cluster_values_reference(vals, t)


def test_fifty_values_closer_than_tol_do_not_chain():
    # consecutive gaps of 0.9 tol, spanning 44 tol, formed one cluster of 50
    # when clusters were linked by consecutive gaps
    d = 1.0 + 0.9e-6 * np.arange(50)
    spec = sp.symplectic_spectrum(np.diag(np.concatenate([d, d])))
    assert spec.multiplicities == (2,) * 25 and spec.max_multiplicity == 2


@settings(max_examples=300, deadline=None)
@given(
    tol=st.sampled_from([0.0, 1e-6, 0.1]),
    base=st.floats(min_value=0.1, max_value=10.0),
    steps=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.95, 1.0, 1.05, 2.0, 10.0]), max_size=40),
)
def test_clusters_are_bounded_and_open_beyond_tol(tol, base, steps):
    # relative steps in units of tol (of 1e-6 at tol 0) around its boundary
    vals = base * np.cumprod([1.0, *(1.0 + (tol or 1e-6) * np.array(steps))])
    clusters = cluster_values(vals, tol)
    ends = np.cumsum([0, *(m for _, m in clusters)])
    assert ends[-1] == vals.size
    for i, j in zip(ends, ends[1:]):
        assert vals[j - 1] - vals[i] <= tol * vals[j - 1]
    firsts = vals[ends[:-1]]
    assert np.all(firsts[1:] - firsts[:-1] > tol * firsts[1:])


def _integer_symmetric_corpus():
    """120 seeded integer symmetric matrices of order 1..6, 30 of each kind:
    random entries in [-3, 3] with the diagonal raised by 0..2n-1 (PD or not),
    C C.T for an n x n C (PD unless C is singular), C C.T for an n x r C with
    r < n (singular PSD, the zero matrix at r = 0) and random entries in
    [-3, 3] (mostly indefinite)."""
    rng = np.random.default_rng(12)
    mats = []
    for kind in range(4):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            if kind in (1, 2):
                C = rng.integers(-2, 3, size=(n, n if kind == 1 else int(rng.integers(0, n))))
                A = C @ C.T
            else:
                A = rng.integers(-3, 4, size=(n, n))
                A = np.triu(A) + np.triu(A, 1).T
                if kind == 0:
                    A += np.diag(rng.integers(0, 2 * n, n))
            mats.append((kind, A.astype(float)))
    return mats


def test_positive_definiteness_matches_the_exact_leading_principal_minors():
    # Sylvester's criterion in exact integer arithmetic on the 120 matrices:
    # 32 are PD, 38 singular and 50 indefinite and nonsingular
    import sympy

    tally = {True: 0, False: 0}
    for kind, A in _integer_symmetric_corpus():
        M = sympy.Matrix(A.astype(np.int64).tolist())
        exact = all(M[:k, :k].det() > 0 for k in range(1, A.shape[0] + 1))
        assert sp.is_positive_definite(A) is exact
        assert not (kind == 2 and exact)
        tally[exact] += 1
    assert tally[True] >= 30 and tally[False] >= 60, tally


def test_spectrum_matches_50_digit_eigenvalues_of_omega_n():
    # 40 seeded integer PD matrices at p = 1..4 (edges +-1, +-2 at density 0.5,
    # each diagonal entry the row's absolute sum plus 1 or 2); the d are the
    # positive imaginary parts of the eigenvalues of Omega N from mpmath at 50
    # digits; the worst relative error seen was 1.2e-15
    import mpmath

    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(40):
        p = int(rng.integers(1, 5))
        n = 2 * p
        E = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        E = np.triu(E, 1) + np.triu(E, 1).T
        N = E + np.diag(np.abs(E).sum(axis=1) + rng.integers(1, 3, n))
        with mpmath.workdps(50):
            ev = mpmath.eig(mpmath.matrix((sp.omega(p) @ N).tolist()), left=False, right=False)
            exact = sorted(mpmath.im(v) for v in ev if mpmath.im(v) > 0)
            assert len(exact) == p
            got = sp.symplectic_spectrum(N).values
            worst = max(worst, max(float(abs(g - d) / d) for g, d in zip(got, exact)))
    assert worst <= 1e-10, worst
