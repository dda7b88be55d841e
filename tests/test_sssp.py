import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spisep as sp
from spisep import core, sssp

# split direct sum of the two tridiagonal 3x3 blocks used in the liberation example
A_TRI = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
B_TRI = np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 2]])
N_SPLIT = np.block(
    [[A_TRI, np.zeros((3, 3))], [np.zeros((3, 3)), B_TRI]]
)
M_LIB = np.array(
    [
        [0.0, 0, 0, 0, 5, 4],
        [0, 0, 0, 5, 5, 2],
        [0, 0, 0, 4, 2, 0],
        [4, -3, 0, 0, 0, 0],
        [-3, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
) / 3.0
N_CYCLE = np.array([[2.0, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, -1], [1, 0, -1, 2]])
N_PATH6 = np.array(
    [
        [1, 1 / 2, 0, 0, 0, 0],
        [1 / 2, 5 / 4, 1 / 2, 0, 0, 0],
        [0, 1 / 2, 24 / 25, 1 / 10, 0, 0],
        [0, 0, 1 / 10, 1, -1 / 2, 0],
        [0, 0, 0, -1 / 2, 5 / 4, -1 / 2],
        [0, 0, 0, 0, -1 / 2, 1],
    ]
)


def test_basis_size_and_order_p1():
    basis = sp.sp_basis(1)
    assert len(basis) == 3
    E = lambda i, j: np.eye(2)[[i - 1]].T @ np.eye(2)[[j - 1]]
    np.testing.assert_array_equal(basis[0], 2 * E(1, 2))
    np.testing.assert_array_equal(basis[1], 2 * E(2, 1))
    np.testing.assert_array_equal(basis[2], E(1, 1) - E(2, 2))


def test_basis_order_p2_matches_verification_columns():
    def E(i, j):
        M = np.zeros((4, 4))
        M[i - 1, j - 1] = 1
        return M

    expected = [
        2 * E(1, 3), 2 * E(2, 4), E(1, 4) + E(2, 3),
        2 * E(3, 1), 2 * E(4, 2), E(3, 2) + E(4, 1),
        E(1, 1) - E(3, 3), E(2, 2) - E(4, 4),
        E(1, 2) - E(4, 3), E(2, 1) - E(3, 4),
    ]
    basis = sp.sp_basis(2)
    assert len(basis) == 10
    for elem, want in zip(basis, expected):
        np.testing.assert_array_equal(elem, want)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_basis_elements_are_hamiltonian(p):
    basis = sp.sp_basis(p)
    assert len(basis) == 2 * p * p + p
    for elem in basis:
        assert sp.is_hamiltonian(elem)
        assert not elem.flags.writeable


def test_vec_triangle_identity_and_order():
    v = sp.vec_triangle(np.eye(4))
    expected = np.zeros(10)
    expected[[0, 2, 5, 9]] = 1.0  # positions of m11, m22, m33, m44
    np.testing.assert_array_equal(v, expected)
    M = np.arange(1, 17, dtype=float).reshape(4, 4)
    M = 0.5 * (M + M.T)
    v = sp.vec_triangle(M)
    want = [M[0, 0], M[0, 1], M[1, 1], M[0, 2], M[1, 2], M[2, 2],
            M[0, 3], M[1, 3], M[2, 3], M[3, 3]]
    np.testing.assert_array_equal(v, want)


@settings(max_examples=30, deadline=None)
@given(
    M=arrays(np.float64, (5, 5), elements=st.floats(min_value=-10, max_value=10))
)
def test_vec_triangle_round_trip(M):
    S = 0.5 * (M + M.T)
    np.testing.assert_array_equal(sp.unvec_triangle(sp.vec_triangle(S), 5), S)


def test_verification_matrix_shape_and_linearity():
    rng = np.random.default_rng(0)
    for p in (1, 2, 3):
        N = sp.random_symmetric(2 * p, rng)
        full = sp.verification_matrix_full(N).full
        assert full.shape == (2 * p * p + p, 2 * p * p + p)
        np.testing.assert_allclose(
            sp.verification_matrix_full(2.5 * N).full, 2.5 * full, atol=1e-12
        )
    assert not np.any(sp.verification_matrix_full(np.zeros((4, 4))).full)


def test_reduced_rows_of_cycle_pattern():
    N = N_CYCLE
    vm = sp.verification_matrix(N)
    assert vm.row_index == ((1, 3), (2, 4))
    n11, n12, n22, n33, n34, n44 = N[0, 0], N[0, 1], N[1, 1], N[2, 2], N[2, 3], N[3, 3]
    n14, n23 = N[0, 3], N[1, 2]
    row13 = [2 * n11, 0, n12, 2 * n33, 0, n34, 0, 0, -n14, n23]
    row24 = [0, 2 * n22, n12, 0, 2 * n44, n34, 0, 0, n14, -n23]
    np.testing.assert_allclose(vm.reduced, [row13, row24], atol=1e-12)


def test_reduced_rows_of_orthogonal_shear_pattern():
    B = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    N = sp.shear_square(B)  # [[I, B], [B, 2I]]
    vm = sp.verification_matrix(N)
    assert vm.row_index == ((1, 2), (3, 4))
    s2 = np.sqrt(2.0)
    expected = np.array(
        [
            [0, 0, 0, s2, s2, 0, 0, 0, 1, 1],
            [s2, s2, 0, 0, 0, 0, 0, 0, -2, -2],
        ]
    )
    np.testing.assert_allclose(vm.reduced, expected, atol=1e-12)
    assert sp.has_sssp_rank(N)


def test_printed_witness_for_shear_of_path_block():
    # the known nonzero Y certifying failure for [[I, B3], [B3, I + B3^2]]
    N = sp.shear_square(sp.path_shear_block(3))
    Y = np.array(
        [
            [0.0, 1, 0, 0, 0, -1],
            [1, 0, 2, 0, -1, 0],
            [0, 2, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 1],
            [-1, 0, -1, 0, 1, 0],
        ]
    )
    om = sp.omega(3)
    assert np.max(np.abs(N * Y)) == 0
    assert np.max(np.abs(om @ N @ Y - Y @ N @ om)) < 1e-12
    # and the nullspace oracle's witness certifies the same failure
    flag, W = sp.has_sssp_nullspace(N)
    assert not flag
    assert np.max(np.abs(om @ N @ W - W @ N @ om)) < 1e-8


def test_reduced_row_count_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.choice([4, 6, 8]))
        p = n // 2
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.5]
        G = sp.LabeledGraph.from_edges(n, edges)
        N = sp.random_pd_with_graph(G, rng)
        vm = sp.verification_matrix(N)
        assert vm.n_rows_reduced == 2 * p * p - p - G.size


def test_complete_pattern_vacuously_passes():
    rng = np.random.default_rng(2)
    N = sp.random_pd_with_graph(sp.complete_graph(6), rng)
    vm = sp.verification_matrix(N)
    assert vm.n_rows_reduced == 0
    assert sp.has_sssp_rank(N)
    flag, witness = sp.has_sssp_nullspace(N)
    assert flag and witness is None


def test_identity_matrices():
    assert sp.has_sssp_rank(np.eye(2))
    assert sp.has_sssp_nullspace(np.eye(2))[0]
    assert not sp.has_sssp_rank(np.eye(4))
    flag, witness = sp.has_sssp_nullspace(np.eye(4))
    assert not flag
    # witness respects the pattern and the commutation identity
    om = sp.omega(2)
    assert np.max(np.abs(np.eye(4) * witness)) == 0
    assert np.max(np.abs(om @ witness - witness @ om)) < 1e-8


def test_shear_square_of_path_block_fails():
    N = sp.shear_square(sp.path_shear_block(3))
    flag, witness = sp.has_sssp_nullspace(N)
    assert not flag and witness is not None
    assert not sp.has_sssp_rank(N)
    om = sp.omega(3)
    assert np.max(np.abs(N * witness)) == 0
    resid = np.max(np.abs(om @ N @ witness - witness @ N @ om))
    assert resid <= 1e-8 * np.max(np.abs(N)) * np.max(np.abs(witness))


def test_diagonal_pattern_verdicts():
    distinct = np.diag([1.0, 2.0, 3.0, 4.0])  # products 3, 8: distinct
    assert sp.has_sssp_nullspace(distinct)[0]
    repeated = np.diag([1.0, 2.0, 2.0, 1.0])  # both products equal 2
    assert not sp.has_sssp_nullspace(repeated)[0]
    assert sp.has_sssp_rank(distinct) and not sp.has_sssp_rank(repeated)


def test_block_vs_inverse_block_fails():
    rng = np.random.default_rng(3)
    A = sp.random_pd(3, rng)
    N = np.block(
        [[A, np.zeros((3, 3))], [np.zeros((3, 3)), np.linalg.inv(A)]]
    )
    assert not sp.has_sssp_nullspace(N)[0]


def test_liberation_example_end_to_end():
    spec = sp.symplectic_spectrum(N_SPLIT)
    np.testing.assert_allclose(spec.as_array(), [np.sqrt(2), 2, 2], atol=1e-10)
    assert not sp.has_sssp_rank(N_SPLIT)
    assert sp.is_hamiltonian(M_LIB)
    R = sp.tangent_element(N_SPLIT, M_LIB)
    want = np.zeros((6, 6))
    want[0, 5] = want[5, 0] = want[2, 3] = want[3, 2] = 1.0
    np.testing.assert_allclose(R, want, atol=1e-12)
    assert sp.has_sssp_in_direction(N_SPLIT, R)
    assert not sp.has_sssp_in_direction(N_SPLIT, np.zeros((6, 6)))
    G_R = sp.direction_graph(sp.graph_of_matrix(N_SPLIT), R)
    assert G_R == sp.cycle_graph(6)


def test_direction_requires_tangent_vector():
    # inv(N) always pairs nontrivially with the tangent space complement
    with pytest.raises(ValueError):
        sp.has_sssp_in_direction(N_SPLIT, np.linalg.inv(N_SPLIT))


def test_direction_rejects_r_of_another_order():
    # a violated precondition, not the LinAlgError of a least-squares shape mismatch
    with pytest.raises(ValueError, match="R must match the order of N") as exc:
        sp.has_sssp_in_direction(N_SPLIT, np.eye(4))
    assert not isinstance(exc.value, np.linalg.LinAlgError)


def _lstsq_in_tangent_space(N, R):
    # the tangent test before the Williamson basis: least squares over every tangent row
    b = sp.vec_triangle(R)
    if not np.any(b):
        return True
    A = sssp._tangent_rows(N, *sssp._triangle(N.shape[0]))
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ x - b)) <= 1e-8 * max(1.0, float(np.linalg.norm(b)))


def _random_hamiltonian(p, rng):
    # Omega @ M = H is symmetric
    H = rng.standard_normal((2 * p, 2 * p))
    return sp.omega(p).T @ (H + H.T)


def _tangent_cases():
    """Random patterns, shear squares and doubled-target smears at p <= 5, each
    with tangent and non-tangent directions, and a double eigenvalue split by a
    relative gap outside the band, about 1e-8 to 1e-6 on this case, where the
    two tests differ."""
    rng = np.random.default_rng(21)
    mats = []
    for p in range(1, 6):
        for density in (0.2, 0.5, 0.9):
            n = 2 * p
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.uniform() < density]
            mats.append(sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng))
        mats += [sp.shear_square(sp.path_shear_block(p)), sp.shear_square(np.ones((p, p)))]
        mats.append(sp.random_smear([1.0, 1.0, 2.0, 0.5, 3.0][:p], seed=p))
    cases = []
    for N in mats:
        p = N.shape[0] // 2
        T = sp.tangent_element(N, _random_hamiltonian(p, rng))
        E = rng.standard_normal(N.shape)
        basis = sp.sp_basis(p)
        sparse = sum(rng.standard_normal() * basis[k]
                     for k in rng.choice(len(basis), min(2, len(basis)), replace=False))
        cases += [(N, T), (N, sp.tangent_element(N, sparse)), (N, T + 1e-3 * (E + E.T)),
                  (N, E + E.T), (N, np.zeros_like(N))]
    for gap in (1e-5, 1e-8):
        N = np.diag([1.0, 1.0 + gap, 1.0, 1.0 + gap])
        R = np.zeros((4, 4))
        R[0, 1] = R[1, 0] = 1.0
        cases.append((N, R))
    return cases


def test_tangent_test_agrees_with_least_squares():
    tally = {True: 0, False: 0}
    for N, R in _tangent_cases():
        want = _lstsq_in_tangent_space(N, R)
        assert sp.in_tangent_space(N, R) == want
        tally[want] += 1
    assert tally[True] >= 60 and tally[False] >= 40, tally


def test_tangent_test_at_p30_needs_no_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("in_tangent_space ran a least-squares solve")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    rng = np.random.default_rng(30)
    N = sp.random_pd(60, rng)
    R = sp.tangent_element(N, _random_hamiltonian(30, rng))
    E = rng.standard_normal((60, 60))
    assert sp.in_tangent_space(N, R)
    assert not sp.in_tangent_space(N, R + 1e-3 * (E + E.T))


def test_tangent_test_requires_positive_definite_n():
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.in_tangent_space(np.diag([1.0, -1.0, 2.0, 3.0]), np.zeros((4, 4)))


def test_tangent_element_rejects_non_hamiltonian():
    with pytest.raises(ValueError):
        sp.tangent_element(np.eye(4), np.diag([1.0, 2, 3, 4]))


def test_sssp_in_direction_trivial_when_already_sssp():
    N = sp.random_pd_with_graph(sp.complete_graph(4), np.random.default_rng(5))
    M = sp.sp_basis(2)[0]
    R = sp.tangent_element(N, M)
    assert sp.has_sssp_in_direction(N, R)


def test_direction_graph_monotone():
    rng = np.random.default_rng(6)
    G = sp.LabeledGraph.from_edges(4, [(1, 2)])
    R = sp.random_symmetric(4, rng)
    assert G.edges <= sp.direction_graph(G, R).edges
    assert sp.direction_graph(G, np.zeros((4, 4))) == G


def test_direct_sum_interleave_diagonal():
    # each 2x2 block diag(c, c) contributes sqrt(c * c) = c
    N = sp.direct_sum_interleave(np.eye(2), 4.0 * np.eye(2))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), [1.0, 4.0], rtol=1e-12)
    N = sp.direct_sum_interleave(np.diag([1.0, 4.0]), np.diag([9.0, 4.0]))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), [2.0, 6.0], rtol=1e-12)


def test_direct_sum_interleave_spectrum_union_2x2():
    rng = np.random.default_rng(7)
    for _ in range(10):
        P = sp.random_pd(2, rng)
        Q = sp.random_pd(2, rng)
        N = sp.direct_sum_interleave(P, Q)
        want = np.sort([np.sqrt(np.linalg.det(P)), np.sqrt(np.linalg.det(Q))])
        np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), want, rtol=1e-10)


def test_direct_sum_interleave_inherits_sssp():
    rng = np.random.default_rng(8)
    done = 0
    while done < 20:
        P = sp.random_pd(4, rng)
        Q = sp.random_pd(4, rng) * rng.uniform(2.0, 4.0)
        sP = sp.symplectic_spectrum(P).as_array()
        sQ = sp.symplectic_spectrum(Q).as_array()
        if np.min(np.abs(sP[:, None] - sQ[None, :])) < 1e-3:
            continue
        if not (sp.has_sssp_nullspace(P)[0] and sp.has_sssp_nullspace(Q)[0]):
            continue
        N = sp.direct_sum_interleave(P, Q)
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(),
            np.sort(np.concatenate([sP, sQ])),
            rtol=1e-9,
        )
        assert sp.has_sssp_nullspace(N)[0]
        assert sp.has_sssp_rank(N)
        done += 1


def test_sssp_is_open_under_perturbation():
    rng = np.random.default_rng(9)
    N = sp.random_pd_with_graph(sp.complete_bipartite_matching(2).graph, rng)
    if not sp.has_sssp_rank(N):
        N = sp.shear_square(sp.householder_all_nonzero(2))
    assert sp.has_sssp_rank(N)
    scale = np.max(np.abs(N))
    for _ in range(50):
        E = sp.random_symmetric(4, rng) * 1e-6 * scale
        M = N + E
        assert sp.is_positive_definite(M)
        assert sp.has_sssp_rank(M)


def test_continuation_realizes_distinct_targets():
    rng = np.random.default_rng(10)
    G = sp.triangular_path(8).graph
    target = np.array([0.5, 1.0, 2.0, 3.5])
    N = sp.continuation_realize(G, target, rng=rng)
    np.testing.assert_allclose(
        sp.symplectic_spectrum(N).as_array(), target, atol=1e-6
    )
    assert sp.graph_of_matrix(N) == G


def test_continuation_refines_multiplicity_from_seed():
    # seed: path pattern with spectrum {sqrt(209)/20, 1, 1} and the SSSP;
    # refining the double eigenvalue into close distinct values stays realizable
    N_seed = N_PATH6
    assert sp.has_sssp_rank(N_seed)
    G = sp.graph_of_matrix(N_seed)
    target = np.array([np.sqrt(209) / 20, 0.98, 1.02])
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(11), seed_matrix=N_seed)
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), target, atol=1e-6)
    assert sp.graph_of_matrix(N) == G


def test_continuation_rejects_bad_targets():
    with pytest.raises(ValueError):
        sp.continuation_realize(sp.empty_graph(4), [1.0, -2.0])
    with pytest.raises(ValueError):
        sp.continuation_realize(sp.empty_graph(4), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_continuation_rejects_targets_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="targets must be positive and finite"):
        sp.continuation_realize(sp.path_graph(4), [1.0, bad])


def test_continuation_rejects_non_pd_seed():
    G = sp.graph_of_matrix(N_PATH6)
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.continuation_realize(G, [0.5, 1.0, 2.0], seed_matrix=-N_PATH6)


def test_continuation_residual_is_infinite_outside_the_pd_cone(monkeypatch):
    least_squares = scipy.optimize.least_squares
    seen = []

    def spy(fun, x0, **kwargs):
        outside = x0.copy()
        outside[0] = -1.0  # a negative diagonal entry
        seen.append((fun(x0), fun(outside)))
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    sp.continuation_realize(sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5],
                            rng=np.random.default_rng(10))
    inside, outside = seen[0]
    assert np.isfinite(inside).all() and np.isinf(outside).all()


def test_continuation_counts_a_start_outside_the_pd_cone_as_failed(monkeypatch):
    # edges up to 10x the smallest target cannot sit on diag(target, target)
    monkeypatch.setattr(sssp, "_EDGE_SCALE", 10.0)
    monkeypatch.setattr(sssp, "_MAX_ATTEMPTS", 3)
    with pytest.raises(ArithmeticError, match="best residual inf"):
        sp.continuation_realize(sp.complete_graph(4), [1.0, 2.0])


class _Captured(Exception):
    pass


def _capture_least_squares(monkeypatch, G, target, rng):
    # the residual, start and Jacobian continuation_realize hands to least_squares
    seen = {}

    def spy(fun, x0, **kwargs):
        seen.update(fun=fun, x0=x0, jac=kwargs.get("jac"))
        raise _Captured

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    with pytest.raises(_Captured):
        sp.continuation_realize(G, target, rng=rng)
    monkeypatch.undo()
    return seen["fun"], seen["x0"], seen["jac"]


def test_continuation_jacobian_matches_central_differences(monkeypatch):
    # residual(x) is the sorted spectrum of the matrix on the free entries x,
    # minus the target; its central difference is the spectrum's
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 120:
        p = int(rng.integers(1, 9))
        n = 2 * p
        G = sp.LabeledGraph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.uniform() < rng.uniform(0.1, 0.9)]
        )
        target = np.sort(rng.uniform(0.5, 3.0, p))
        fun, x0, jac = _capture_least_squares(monkeypatch, G, target, rng)
        x = x0.copy()
        x[n:] += 0.05 * rng.uniform(-1.0, 1.0, x.size - n)  # well off the diagonal seed
        d = fun(x) + target
        if not np.isfinite(d).all() or (p > 1 and np.min(np.diff(d)) < 1e-3 * d[-1]):
            continue
        J = jac(x)
        assert J.shape == (p, x.size)
        h = 1e-6
        fd = np.column_stack([(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(x.size)])
        assert np.linalg.norm(J - fd) <= 1e-6 * np.linalg.norm(fd)
        # d is homogeneous of degree one in N, which is linear in x
        np.testing.assert_allclose(J @ x, d, rtol=1e-10)
        checked += 1


def test_continuation_passes_the_exact_jacobian(monkeypatch):
    least_squares = scipy.optimize.least_squares
    jacs = []

    def spy(fun, x0, **kwargs):
        jacs.append(kwargs.get("jac"))
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    sp.continuation_realize(sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5],
                            rng=np.random.default_rng(10))
    assert jacs and all(callable(j) for j in jacs)


def test_continuation_converges_in_a_few_gauss_newton_steps(monkeypatch):
    # with fewer residuals than free entries, steps pinned to the trust-region
    # boundary converge linearly (22 Jacobians here); minimum-norm
    # Gauss-Newton steps converge quadratically
    least_squares = scipy.optimize.least_squares
    runs = []

    def spy(fun, x0, **kwargs):
        runs.append(least_squares(fun, x0, **kwargs))
        return runs[-1]

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    sp.continuation_realize(sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5],
                            rng=np.random.default_rng(10))
    assert len(runs) == 1 and runs[0].njev <= 8


def test_continuation_raises_arithmetic_error_where_the_schur_form_stalls():
    # the iterates reach matrices whose symplectic eigenvalues are both 1 to
    # rounding, where the QR iteration of a real Schur form of K can stall;
    # every attempt loses the edge (3, 4), and that is the documented
    # ArithmeticError
    G = sp.LabeledGraph.from_edges(4, [(1, 3), (3, 4)])
    for seed in (0, 1):
        with pytest.raises(ArithmeticError):
            sp.continuation_realize(G, [1.0, 1.0], rng=np.random.default_rng(seed))


def test_continuation_error_counts_attempts_that_meet_the_spectrum_but_lose_an_edge():
    # a best residual of 0 alone does not say why the realization failed
    G = sp.LabeledGraph.from_edges(4, [(1, 3), (3, 4)])
    with pytest.raises(ArithmeticError, match="8 meeting the spectrum but failing the PD check"):
        sp.continuation_realize(G, [1.0, 1.0], rng=np.random.default_rng(0))


def test_continuation_solves_once_per_residual_evaluation(monkeypatch):
    # least_squares asks for the Jacobian at the point it last evaluated, so
    # every Jacobian reads the Williamson factor the residual computed there
    williamson_columns, least_squares = sssp._williamson_columns, scipy.optimize.least_squares
    solves, evaluations = [], []

    def solve_spy(N):
        solves.append(N)
        return williamson_columns(N)

    def least_squares_spy(fun, x0, jac, **kwargs):
        def counted(x):
            evaluations.append("f")
            return fun(x)

        def counted_jac(x):
            evaluations.append("J")
            return jac(x)

        evaluations.append("f")  # the attempt's start was checked by one residual evaluation
        return least_squares(counted, x0, jac=counted_jac, **kwargs)

    monkeypatch.setattr(sssp, "_williamson_columns", solve_spy)
    monkeypatch.setattr(sssp.scipy.optimize, "least_squares", least_squares_spy)
    rng = np.random.default_rng(5)
    G = sp.LabeledGraph.from_edges(
        20, [(i, j) for i in range(1, 21) for j in range(i + 1, 21) if rng.uniform() < 0.35]
    )
    N = sp.continuation_realize(G, np.sort(rng.uniform(0.5, 3.0, 10)), rng=rng)
    assert sp.graph_of_matrix(N) == G
    assert "J" in evaluations
    assert len(solves) == evaluations.count("f")


@pytest.mark.parametrize("G, target", [
    (sp.triangular_path(6).graph, [0.7, 0.7, 1.9]),
    (sp.complete_graph(6), [0.6, 1.3, 1.3]),
])
def test_continuation_realizes_double_targets(G, target):
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(3))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), target, atol=1e-10)
    assert sp.graph_of_matrix(N) == G


@pytest.mark.parametrize("n", [20, 30])
def test_continuation_realizes_distinct_targets_at_scale(n):
    rng = np.random.default_rng(n)
    G = sp.LabeledGraph.from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < 0.35]
    )
    target = np.sort(rng.uniform(0.5, 3.0, n // 2))
    N = sp.continuation_realize(G, target, rng=rng)
    assert sp.is_positive_definite(N)
    assert sp.graph_of_matrix(N) == G
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), target, atol=1e-6)


def _commutation_system_n2(N, a, b):
    # reference: all n^2 entries of Omega N Y - Y N Omega, one column per Y = E_ab + E_ba
    n = N.shape[0]
    om = sp.omega(n // 2)
    cols = []
    for i, j in zip(a, b):
        Y = np.zeros((n, n))
        Y[i, j] = Y[j, i] = 1.0
        cols.append((om @ N @ Y - Y @ N @ om).reshape(-1))
    return np.column_stack(cols)


def _oracle_cases():
    """The worked matrices of this file plus random patterned PD matrices at p = 1..5."""
    B = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    A = sp.random_pd(3, np.random.default_rng(3))
    cases = [
        N_SPLIT, N_CYCLE, N_PATH6, sp.shear_square(B),
        sp.shear_square(sp.path_shear_block(3)), np.eye(2), np.eye(4),
        np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0, 2.0, 1.0]),
        np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), np.linalg.inv(A)]]),
        sp.random_pd_with_graph(sp.complete_graph(6), np.random.default_rng(2)),
    ]
    rng = np.random.default_rng(12)
    for p in range(1, 6):
        n = 2 * p
        for _ in range(8):
            prob = rng.uniform(0.1, 0.9)
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.uniform() < prob]
            cases.append(sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng))
    return cases


def test_direct_rows_equal_reference_reduced_rows():
    for N in _oracle_cases():
        a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
        vm = sp.verification_matrix(N)
        assert vm.row_index == tuple((int(i) + 1, int(j) + 1) for i, j in zip(a, b))
        np.testing.assert_allclose(sssp._tangent_rows(N, a, b), vm.reduced, rtol=0, atol=1e-13)
        j, i = np.tril_indices(N.shape[0])
        np.testing.assert_allclose(sssp._tangent_rows(N, i, j), vm.full, rtol=0, atol=1e-13)


def test_triangle_commutation_system_keeps_singular_values():
    for N in _oracle_cases():
        a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
        if a.size == 0:
            continue
        s = np.linalg.svd(sssp._commutation_rows(N, a, b), compute_uv=False)
        want = np.linalg.svd(_commutation_system_n2(N, a, b), compute_uv=False)
        # rounding-level singular values of failing inputs need an absolute floor
        np.testing.assert_allclose(s, want, rtol=1e-10, atol=1e-13 * want[0])


def test_failure_witnesses_certify_failure():
    failures = 0
    for N in _oracle_cases():
        flag, W = sp.has_sssp_nullspace(N)
        assert flag == sp.has_sssp_rank(N)
        if flag:
            assert W is None
            continue
        failures += 1
        assert np.max(np.abs(W)) == 1.0
        assert np.max(np.abs(N * W)) == 0
        om = sp.omega(N.shape[0] // 2)
        resid = np.linalg.norm(om @ N @ W - W @ N @ om)
        assert resid <= 1e-8 * np.linalg.norm(N) * np.linalg.norm(W)
    assert failures >= 5


@pytest.mark.parametrize(
    "N", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, -1.0, 2.0, 3.0])]
)
def test_both_oracles_reject_the_same_indefinite_input(N):
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.has_sssp_rank(N)
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.has_sssp_nullspace(N)
    # the in-direction oracle shares the gate, ahead of its tangent test
    with pytest.raises(sp.NotPositiveDefiniteError):
        sp.has_sssp_in_direction(N, np.zeros_like(N))


@pytest.mark.parametrize("zero_tol", [None, 0.0, 1e-3, 0.3])
def test_reduced_rows_sit_at_the_non_edges_of_the_graph(zero_tol):
    # one structural-zero rule: the verification matrix drops exactly the
    # edges that graph_of_matrix reports, at every tolerance
    rng = np.random.default_rng(21)
    for p in range(1, 6):
        n = 2 * p
        N = sp.random_pd(n, rng) * (rng.uniform(size=(n, n)) < 0.5)
        N = N + N.T + 2 * n * np.eye(n) + 1e-12 * sp.random_symmetric(n, rng)
        G = sp.graph_of_matrix(N, zero_tol)
        V = sp.verification_matrix(N, zero_tol)
        assert V.row_index == tuple(
            (i, j) for i, j in sp.triangle_pairs(n) if i != j and not G.has_edge(i, j)
        )
        rows = [sp.triangle_pairs(n).index(ij) for ij in V.row_index]
        assert np.array_equal(V.reduced, V.full[rows])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sssp_verdicts_invariant_under_monomial_relabeling(data):
    p = data.draw(st.integers(1, 4))
    n = 2 * p
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = sp.LabeledGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    N = sp.random_pd_with_graph(G, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    # a valid sigma permutes the pairs {i, i+p} and may flip each one
    perm = data.draw(st.permutations(range(1, p + 1)))
    flips = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
    sigma = [0] * n
    for i, (k, flip) in enumerate(zip(perm, flips)):
        sigma[i], sigma[i + p] = (k + p, k) if flip else (k, k + p)
    assert sp.is_valid_symplectic_relabeling(sigma)
    M = sp.monomial_relabel(N, sigma)
    verdict = sp.has_sssp_rank(N)
    assert sp.has_sssp_nullspace(N)[0] == verdict
    assert sp.has_sssp_rank(M) == verdict
    assert sp.has_sssp_nullspace(M)[0] == verdict


def test_oracles_skip_the_basis_and_the_square_systems(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called the reference path")

    for name in ("sp_basis", "verification_matrix_full", "verification_matrix"):
        monkeypatch.setattr(sssp, name, refuse)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(A, full_matrices=True, compute_uv=True, **kwargs):
        assert not (compute_uv and full_matrices)
        shapes.append(A.shape)
        return svd(A, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    N = sp.shear_square(sp.path_shear_block(3))  # fails, so the witness path runs too
    assert not sp.has_sssp_rank(N)
    assert not sp.has_sssp_nullspace(N)[0]
    assert len(shapes) == 3 and max(max(s) for s in shapes) <= 6 * 7 // 2


def _with_singular_values(rng, m, k, sigma):
    """U diag(sigma) V^T for random orthogonal U (m x m) and V (k x k)."""
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (U[:, : sigma.size] * sigma) @ V[:, : sigma.size].T


CERTIFICATE_SHAPES = [(3, 5), (5, 3), (40, 60), (60, 40), (200, 300), (300, 200)]


@pytest.mark.parametrize("ratio", [0.0, 1e-14, 1e-12, 1e-10, 5e-10])
def test_certificate_never_proves_a_rank_deficient_matrix(ratio):
    rng = np.random.default_rng(7)
    for m, k in CERTIFICATE_SHAPES:
        n = min(m, k)
        for _ in range(4):
            # the rest of the spectrum spread over [0.5, 1], so trace G is about n * sigma_1^2
            sigma = np.sort(rng.uniform(0.5, 1.0, n))[::-1]
            sigma[0], sigma[-1] = 1.0, ratio
            A = _with_singular_values(rng, m, k, sigma)
            assert not sssp._certified_full_rank(A, sssp.DEFAULT_RANK_TOL), (m, k, ratio)


@pytest.mark.parametrize("ratio", [1e-3, 1e-1, 1.0])
def test_certificate_proves_a_well_conditioned_matrix(ratio):
    rng = np.random.default_rng(3)
    for m, k in CERTIFICATE_SHAPES:
        sigma = np.geomspace(1.0, ratio, min(m, k))
        assert sssp._certified_full_rank(_with_singular_values(rng, m, k, sigma), 1e-9)
    assert not sssp._certified_full_rank(np.zeros((3, 5)), 1e-9)
    assert not sssp._certified_full_rank(np.full((3, 5), np.nan), 1e-9)


def _svd_only_full_rank(A, rank_tol):
    # the rank decision before the Cholesky certificate: the values-only SVD alone
    s = np.linalg.svd(A, compute_uv=False)
    return s[0] != 0.0 and int(np.sum(s > rank_tol * s[0])) == min(A.shape)


def _svd_only_rank(N, rank_tol=sssp.DEFAULT_RANK_TOL):
    a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
    return a.size == 0 or _svd_only_full_rank(sssp._tangent_rows(N, a, b), rank_tol)


def _svd_only_nullspace(N, rank_tol=sssp.DEFAULT_RANK_TOL):
    a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
    if a.size == 0:
        return True, None
    A = sssp._commutation_rows(N, a, b)
    if _svd_only_full_rank(A, rank_tol):
        return True, None
    y = np.linalg.svd(A, full_matrices=False)[2][-1]
    W = np.zeros_like(N)
    W[a, b] = W[b, a] = y
    return False, W / np.max(np.abs(W))


def _svd_only_in_direction(N, R, rank_tol=sssp.DEFAULT_RANK_TOL):
    a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
    keep = np.abs(R[a, b]) <= core.pattern_tol(R)
    a, b = a[keep], b[keep]
    return a.size == 0 or _svd_only_full_rank(sssp._commutation_rows(N, a, b), rank_tol)


def _benchmark_scale_cases():
    """Seeded 30%-density patterns at p = 8..12 and failing shear squares at p = 3..6,
    each with a tangent direction R built from two basis elements, so sparse enough
    to leave non-edges for the in-direction oracle."""
    rng = np.random.default_rng(9)
    cases = []
    for p in range(8, 13):
        n = 2 * p
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.3]
        cases.append(sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng))
    cases += [sp.shear_square(sp.path_shear_block(p)) for p in range(3, 7)]
    out = []
    for N in cases:
        basis = sp.sp_basis(N.shape[0] // 2)
        M = sum(rng.standard_normal() * basis[k]
                for k in rng.choice(len(basis), 2, replace=False))
        out.append((N, sp.tangent_element(N, M)))
    return out


def test_certified_oracles_match_the_svd_only_oracles_and_their_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def recording_svd(A, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((A.shape, full_matrices, compute_uv, A.tobytes()))
        return svd(A, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def run(f, *args):
        calls.clear()
        return f(*args), list(calls)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    tally = {True: 0, False: 0}
    for N, R in _benchmark_scale_cases():
        for oracle, reference, args in [
            (sp.has_sssp_rank, _svd_only_rank, (N,)),
            (sp.has_sssp_nullspace, _svd_only_nullspace, (N,)),
            (sp.has_sssp_in_direction, _svd_only_in_direction, (N, R)),
        ]:
            want, want_calls = run(reference, *args)
            got, got_calls = run(oracle, *args)
            if oracle is sp.has_sssp_nullspace:
                (want, W), (got, got_W) = want, got
                assert (got_W is None) == (W is None)
                assert W is None or got_W.tobytes() == W.tobytes()
            assert got == want
            # a pass is proven without any SVD; a failure makes exactly the reference's calls
            assert got_calls == ([] if want else want_calls)
            tally[want] += 1
    assert tally[True] >= 10 and tally[False] >= 8, tally
