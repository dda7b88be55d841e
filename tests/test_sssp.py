import itertools
import logging
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg.lapack import dtrttf
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
        full = sp.verification_matrix(N).full
        assert full.shape == (2 * p * p + p, 2 * p * p + p)
        np.testing.assert_allclose(
            sp.verification_matrix(2.5 * N).full, 2.5 * full, atol=1e-12
        )
    assert not np.any(sp.verification_matrix(np.zeros((4, 4))).full)


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
        assert vm.reduced.shape[0] == 2 * p * p - p - G.size


def test_complete_pattern_vacuously_passes():
    rng = np.random.default_rng(2)
    N = sp.random_pd_with_graph(sp.complete_graph(6), rng)
    vm = sp.verification_matrix(N)
    assert vm.reduced.shape[0] == 0
    assert sp.has_sssp_rank(N)
    flag, witness = sp.has_sssp_nullspace(N)
    assert flag and witness is None


@pytest.mark.parametrize("graph", [sp.empty_graph(4), sp.complete_graph(4)])
@pytest.mark.parametrize("rank_tol", [np.nan, -1.0, -1e-300, 1.0, np.inf])
def test_oracles_refuse_a_rank_tolerance_outside_0_1(graph, rank_tol):
    # a complete pattern leaves nothing to test, yet the tolerance is still refused
    N = sp.random_pd_with_graph(graph, np.random.default_rng(0))
    for oracle in (sp.has_sssp_rank, sp.has_sssp_nullspace):
        with pytest.raises(ValueError, match="rank_tol must lie in"):
            oracle(N, rank_tol=rank_tol)
    with pytest.raises(ValueError, match="rank_tol must lie in"):
        sp.has_sssp_in_direction(N, np.zeros((4, 4)), rank_tol=rank_tol)


@pytest.mark.parametrize("graph", [sp.empty_graph(4), sp.complete_graph(4)])
@pytest.mark.parametrize("zero_tol", [np.nan, -1.0, np.inf, -np.inf])
def test_structural_zero_rule_refuses_a_negative_or_infinite_tolerance(graph, zero_tol):
    N = sp.random_pd_with_graph(graph, np.random.default_rng(0))
    calls = [sp.has_sssp_rank, sp.has_sssp_nullspace, sp.graph_of_matrix, sp.sparsity_audit,
             lambda N, zero_tol: sp.has_sssp_in_direction(N, np.zeros((4, 4)), zero_tol=zero_tol)]
    for call in calls:
        with pytest.raises(ValueError, match="zero_tol must be nonnegative and finite"):
            call(N, zero_tol=zero_tol)
    # zero itself is a tolerance: every nonzero entry is an edge
    assert sp.graph_of_matrix(N, zero_tol=0.0) == graph
    assert sp.has_sssp_rank(N, zero_tol=0.0) == sp.has_sssp_nullspace(N, zero_tol=0.0)[0]


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


def test_direction_verdict_proves_n_positive_definite_once(monkeypatch):
    # the tangency check reads the N the oracle gate has proven, where it once
    # went through the public in_tangent_space and a second PD proof
    R = sp.tangent_element(N_SPLIT, M_LIB)
    proofs = _count_calls(monkeypatch, core, "_certified_pd")
    assert sp.has_sssp_in_direction(N_SPLIT, R)
    assert not sp.has_sssp_in_direction(N_SPLIT, np.zeros((6, 6)))
    assert len(proofs) == 2


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


def _count_calls(monkeypatch, owner, name):
    # the arguments of every call of owner.name from here to the end of the test
    calls, f = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _assert_realizes(N, G, target):
    assert sp.is_positive_definite(N)
    assert sp.graph_of_matrix(N) == G
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), np.sort(target), atol=1e-10)


def test_continuation_line_search_steps_back_from_a_failed_solve(monkeypatch):
    # the first trial point fails its eigensolve, as it would outside the PD
    # cone; the line search halves the step and the attempt still converges
    williamson_columns = sssp._williamson_columns
    tried = []

    def fail_first_trial(N):
        tried.append(N)
        if len(tried) == 2:  # the start's solve, then the first trial
            raise sp.NotPositiveDefiniteError("matrix is not positive definite")
        return williamson_columns(N)

    monkeypatch.setattr(sssp, "_williamson_columns", fail_first_trial)
    G, target = sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5]
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(10))
    _assert_realizes(N, G, target)
    np.testing.assert_allclose(tried[2] - tried[0], (tried[1] - tried[0]) / 2, atol=1e-15)


def test_continuation_gives_up_an_attempt_whose_line_search_fails(monkeypatch):
    # a step solved for +f only raises |f|, so each of the 8 attempts halves it
    # 34 times down to _MIN_STEP and gives up: 1 + 34 solves per attempt
    solve = sssp._min_norm_solve
    monkeypatch.setattr(sssp, "_min_norm_solve", lambda J, f: solve(J, -f))
    with pytest.raises(ArithmeticError, match=r"took 8 steps and 280 Williamson solves\)$"):
        sp.continuation_realize(sp.path_graph(6), [0.5, 1, 2], rng=np.random.default_rng(0))


def test_continuation_counts_a_start_outside_the_pd_cone_as_failed(monkeypatch):
    # edges up to 10x the smallest target cannot sit on diag(target, target)
    monkeypatch.setattr(sssp, "_EDGE_SCALE", 10.0)
    monkeypatch.setattr(sssp, "_MAX_ATTEMPTS", 3)
    with pytest.raises(ArithmeticError, match="best residual inf"):
        sp.continuation_realize(sp.complete_graph(4), [1.0, 2.0])


def _random_pattern(n, rng, density=0.35):
    return sp.LabeledGraph.from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < density]
    )


def _free_entries(G):
    # the continuation's free entries: the diagonal, then the sorted edges
    free = [(i, i) for i in range(1, G.order + 1)] + sorted(G.edges)
    return tuple(np.array(ix) - 1 for ix in zip(*free))


def _on_pattern(x, rows, cols, n):
    N = np.zeros((n, n))
    N[rows, cols] = N[cols, rows] = x
    return N


def _fixed_basis_entries(N, S, k, l):
    # diag(H), Re H[k, l] and Im H[k, l] for H = (U.T N U + V.T N V) / 2
    # + i (U.T N V - V.T N U) / 2, with U, V the column halves of S
    p = N.shape[0] // 2
    U, V = S[:, :p], S[:, p:]
    H = (U.T @ N @ U + V.T @ N @ V) / 2 + 1j * (U.T @ N @ V - V.T @ N @ U) / 2
    return np.concatenate([np.diag(H).real, H[k, l].real, H[k, l].imag])


def _central_differences(fun, x, h=1e-6):
    return np.column_stack([(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(x.size)])


def test_continuation_jacobian_matches_central_differences():
    # the rows for d are the gradient of the spectrum, simple here; with the
    # basis held fixed every row is linear in N, and so matches central
    # differences of the block entries
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 120:
        p = int(rng.integers(1, 9))
        n = 2 * p
        G = _random_pattern(n, rng, density=rng.uniform(0.1, 0.9))
        rows, cols = _free_entries(G)
        x = sp.random_pd_with_graph(G, rng)[rows, cols]
        d, S = core._williamson_columns(_on_pattern(x, rows, cols, n))
        if p > 1 and np.min(np.diff(d)) < 1e-3 * d[-1]:
            continue
        k, l = np.triu_indices(p, 1)
        J = sssp._spectral_rows(S, rows, cols, k, l)
        assert J.shape == (p + 2 * k.size, x.size)

        def spectrum(y):
            return sp.symplectic_spectrum(_on_pattern(y, rows, cols, n)).as_array()

        fd = _central_differences(spectrum, x)
        assert np.linalg.norm(J[:p] - fd) <= 1e-6 * np.linalg.norm(fd)
        fd = _central_differences(lambda y: _fixed_basis_entries(_on_pattern(y, rows, cols, n), S, k, l), x)
        assert np.linalg.norm(J - fd) <= 1e-8 * np.linalg.norm(fd)
        # d is homogeneous of degree one in N, which is linear in x, and the
        # pair entries are 0 in the Williamson basis
        np.testing.assert_allclose(J[:p] @ x, d, rtol=1e-10)
        np.testing.assert_allclose(J[p:] @ x, 0.0, atol=1e-10 * d[-1])
        checked += 1


def test_pair_rows_match_central_differences_at_a_double_eigenvalue():
    # d is not differentiable at a double value, but the fixed-basis block is
    N = sp.random_smear([0.7, 1.3, 1.3, 2.0], seed=5)
    G = sp.graph_of_matrix(N)
    rows, cols = _free_entries(G)
    x = N[rows, cols]
    d, S = core._williamson_columns(N)
    k, l = np.array([0, 1]), np.array([1, 2])
    J = sssp._spectral_rows(S, rows, cols, k, l)
    fd = _central_differences(lambda y: _fixed_basis_entries(_on_pattern(y, rows, cols, 8), S, k, l), x)
    assert np.linalg.norm(J - fd) <= 1e-8 * np.linalg.norm(fd)
    np.testing.assert_allclose(J @ x, np.concatenate([d, np.zeros(4)]), atol=1e-10)


def test_continuation_jacobian_without_pairs_is_the_simple_gradient(monkeypatch):
    # targets 2.5e-3 apart (relative, as in realize-ladder) get no pair rows,
    # and the Jacobian is the one-row-per-value gradient bit for bit; a gap
    # just inside 1e-3 gets its pair
    spectral_rows = sssp._spectral_rows
    seen = _count_calls(monkeypatch, sssp, "_spectral_rows")
    G = sp.triangular_path(8).graph
    sp.continuation_realize(G, [0.5, 1.0, 1.0025, 3.5], rng=np.random.default_rng(10))
    assert seen
    for S, rows, cols, k, l in seen:
        U, V = S[:, :4], S[:, 4:]
        half = np.where(rows == cols, 0.5, 1.0)
        expected = ((U[rows] * U[cols] + V[rows] * V[cols]) * half[:, None]).T
        assert k.size == 0 and np.array_equal(spectral_rows(S, rows, cols, k, l), expected)
    seen.clear()
    sp.continuation_realize(G, [0.5, 1.0, 1.0009, 3.5], rng=np.random.default_rng(10))
    assert seen and all(list(k) == [1] and list(l) == [2] for _, _, _, k, l in seen)


def test_continuation_pair_rows_are_the_pairs_in_one_target_cluster(monkeypatch):
    # t, t (1 + 0.6e-3) and t (1 + 1.2e-3): both neighbouring gaps lie within
    # the pair gap 1e-3, but the cluster opened at t cannot take the third value,
    # so only (0, 1) gets pair rows, where a pairwise rule also paired (1, 2);
    # the clusters of 2 and 1 give 2^2 + 1^2 rows
    spectral_rows = sssp._spectral_rows
    seen = _count_calls(monkeypatch, sssp, "_spectral_rows")
    G = sp.triangular_path(6).graph
    target = [0.8, 0.8 * (1 + 0.6e-3), 0.8 * (1 + 1.2e-3)]
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(3))
    assert seen
    for S, rows, cols, k, l in seen:
        assert list(k) == [0] and list(l) == [1]
        assert spectral_rows(S, rows, cols, k, l).shape[0] == 5
    _assert_realizes(N, G, target)


def _four_gather_rows(S, rows, cols, k, l):
    # the reference formula of the spectral rows: four row gathers of S
    p = S.shape[0] // 2
    Ur, Uc, Vr, Vc = S[rows, :p], S[cols, :p], S[rows, p:], S[cols, p:]
    re = Ur[:, k] * Uc[:, l] + Uc[:, k] * Ur[:, l] + Vr[:, k] * Vc[:, l] + Vc[:, k] * Vr[:, l]
    im = Ur[:, k] * Vc[:, l] + Uc[:, k] * Vr[:, l] - Vr[:, k] * Uc[:, l] - Vc[:, k] * Ur[:, l]
    half = np.where(rows == cols, 0.5, 1.0)[:, None]
    return (np.hstack([Ur * Uc + Vr * Vc, 0.5 * re, 0.5 * im]) * half).T


@pytest.mark.parametrize("target, k, l", [
    ([0.5, 0.9, 1.4, 2.0, 2.6, 3.1], [], []),
    # a double (0, 1) and a triple (2, 3, 4)
    ([0.7, 0.7, 1.3, 1.3, 1.3, 2.0], [0, 2, 2, 3], [1, 3, 4, 4]),
])
def test_spectral_rows_equal_the_four_gather_formula_bit_for_bit(target, k, l):
    G = _random_pattern(12, np.random.default_rng(4))
    rows, cols = _free_entries(G)
    assert np.any(rows == cols) and np.any(rows != cols)
    S = core._williamson_columns(sp.random_smear(target, seed=2))[1]
    k, l = np.array(k, dtype=np.intp), np.array(l, dtype=np.intp)
    J, want = sssp._spectral_rows(S, rows, cols, k, l), _four_gather_rows(S, rows, cols, k, l)
    assert J.shape == want.shape == (6 + 2 * k.size, rows.size)
    assert J.tobytes() == want.tobytes()
    # the same memory layout too, so J J.T in the step goes through the same BLAS call
    assert J.flags.f_contiguous and want.flags.f_contiguous


def test_continuation_output_does_not_depend_on_how_the_graph_was_built(monkeypatch):
    # the free entries are the sorted edges however the edge set was built, so
    # the rng draws, the iterates and the result are the same bytes
    rng = np.random.default_rng(8)
    G = _random_pattern(16, rng)
    target = np.sort(rng.uniform(0.5, 3.0, 8))
    edges = sorted(G.edges)
    built = [G, G.relabeled(range(1, 17))]
    for seed in range(3):
        shuffled = [edges[i] for i in np.random.default_rng(seed).permutation(len(edges))]
        built.append(sp.LabeledGraph.from_edges(16, [(j, i) for i, j in shuffled]))
        half = len(shuffled) // 2
        built.append(sp.LabeledGraph.from_edges(16, shuffled[:half]).with_edges(shuffled[half:]))
    seen = _count_calls(monkeypatch, sssp, "_spectral_rows")
    out = set()
    for H in built:
        assert H == G
        out.add(sp.continuation_realize(H, target, rng=np.random.default_rng(1)).tobytes())
    assert len(out) == 1
    want = _free_entries(G)
    assert seen and all(np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
                        for _, rows, cols, _, _ in seen)


@pytest.mark.parametrize("target", [
    [0.5, 0.9, 1.4, 2.0, 2.6, 3.1],
    [0.5, 0.9, 1.4, 1.4, 2.6, 3.1],
    [0.6, 0.6, 0.6, 1.1, 1.1, 2.0, 2.5, 2.5],
])
def test_continuation_pairs_are_the_upper_triangle_pairs_in_one_cluster(target, monkeypatch):
    # 0, 1 and 3 clusters of repeated targets; the pairs are filtered from
    # triu_indices, in its row-major order
    p = len(target)
    start = core._cluster_starts(np.array(target), sssp._PAIR_GAP)
    k, l = np.triu_indices(p, 1)
    near = start[k] == start[l]
    seen = _count_calls(monkeypatch, sssp, "_spectral_rows")
    G = _random_pattern(2 * p, np.random.default_rng(p))
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(3))
    _assert_realizes(N, G, target)
    assert seen
    for _, _, _, got_k, got_l in seen:
        assert np.array_equal(got_k, k[near]) and np.array_equal(got_l, l[near])


def test_continuation_converges_in_a_few_gauss_newton_steps(monkeypatch):
    # minimum-norm Gauss-Newton steps converge quadratically near a solution;
    # steps pinned to a trust-region boundary took 22 Jacobians here
    steps = _count_calls(monkeypatch, sssp, "_min_norm_solve")
    sp.continuation_realize(sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5],
                            rng=np.random.default_rng(10))
    assert 0 < len(steps) <= 8


@pytest.mark.parametrize("n", [20, 30, 40])
def test_min_norm_solve_matches_least_squares_on_spectral_rows(n):
    # the continuation's Jacobian with a pair row for each neighbouring pair of
    # values, at a positive definite matrix on a realize-ladder-like pattern
    rng = np.random.default_rng(n)
    G = _random_pattern(n, rng)
    rows, cols = _free_entries(G)
    S = core._williamson_columns(sp.random_pd_with_graph(G, rng))[1]
    k = np.arange(n // 2 - 1)
    J = sssp._spectral_rows(S, rows, cols, k, k + 1)
    assert J.shape[0] < J.shape[1] and np.linalg.cond(J) <= 1e4
    for _ in range(5):
        f = rng.standard_normal(J.shape[0])
        want = np.linalg.lstsq(J, f, rcond=None)[0]
        assert np.linalg.norm(sssp._min_norm_solve(J, f) - want) <= 1e-10 * np.linalg.norm(want)


def test_continuation_ends_an_attempt_where_the_jacobian_loses_row_rank(monkeypatch):
    # with its last row a copy of its first, J has no unique minimum-norm
    # step, so each of the 8 attempts ends at its start
    spectral_rows = sssp._spectral_rows

    def repeat_first_row(*args):
        J = spectral_rows(*args)
        J[-1] = J[0]
        return J

    monkeypatch.setattr(sssp, "_spectral_rows", repeat_first_row)
    solves = _count_calls(monkeypatch, sssp, "_williamson_columns")
    with pytest.raises(ArithmeticError, match=r"8 ending where the Jacobian lost row rank; "
                       r"Gauss-Newton took 8 steps and 8 Williamson solves\)$"):
        sp.continuation_realize(sp.triangular_path(8).graph, [0.5, 1.0, 2.0, 3.5],
                                rng=np.random.default_rng(10))
    assert len(solves) == 8


def test_continuation_ends_an_attempt_whose_residual_has_stalled(monkeypatch):
    # tools/continuation_corpus.py's case at seed 3040, density 0.2, a triple:
    # each attempt crawled on to its 100 steps, at 9931 Williamson solves in all
    rng = np.random.default_rng(3040)
    pairs = list(itertools.combinations(range(1, 9), 2))
    G = sp.LabeledGraph.from_edges(8, [pairs[i] for i in sorted(rng.choice(28, 6, replace=False))])
    target = np.sort(rng.uniform(0.5, 3.0, 4))
    target[:3] = target[0]
    solves, attempts = [], []
    williamson_columns, min_norm_solve = sssp._williamson_columns, sssp._min_norm_solve

    def solve(N):
        if np.array_equal(np.diag(N), np.tile(target, 2)):  # an attempt's start
            attempts.append([])
        solves.append(N)
        return williamson_columns(N)

    def step(J, f):
        attempts[-1].append(float(np.linalg.norm(f)))
        return min_norm_solve(J, f)

    monkeypatch.setattr(sssp, "_williamson_columns", solve)
    monkeypatch.setattr(sssp, "_min_norm_solve", step)
    with pytest.raises(ArithmeticError, match="8 stalling and 0 ending where") as err:
        sp.continuation_realize(G, target, rng=np.random.default_rng(3040))
    assert len(attempts) == 8
    for norms in attempts:
        # |f| at each step had halved over the 20 steps before it, and the
        # attempt ended when it had not, long before its 100 steps
        assert 20 <= len(norms) < 100
        assert all(later <= earlier / 2 for earlier, later in zip(norms, norms[20:]))
    took = re.search(r"took (\d+) steps and (\d+) Williamson solves\)$", str(err.value))
    assert took and [int(k) for k in took.groups()] == [sum(map(len, attempts)), len(solves)]
    assert len(solves) < 9931 / 3


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
    # each accepted point's one Williamson solve gives both the residual and
    # the Jacobian; here every full step passes the line search, so the run
    # solves once for its start and once per step
    solves = _count_calls(monkeypatch, sssp, "_williamson_columns")
    steps = _count_calls(monkeypatch, sssp, "_min_norm_solve")
    rng = np.random.default_rng(5)
    G = _random_pattern(20, rng)
    N = sp.continuation_realize(G, np.sort(rng.uniform(0.5, 3.0, 10)), rng=rng)
    assert sp.graph_of_matrix(N) == G
    assert steps and len(solves) == len(steps) + 1


@pytest.mark.parametrize("G, target", [
    (sp.triangular_path(6).graph, [0.7, 0.7, 1.9]),
    (sp.complete_graph(6), [0.6, 1.3, 1.3]),
])
def test_continuation_realizes_double_targets(G, target):
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(3))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), target, atol=1e-10)
    assert sp.graph_of_matrix(N) == G


@pytest.mark.parametrize("n, seed, gaps", [
    *[(n, seed, (0.0,)) for n, seed in [(8, 1), (10, 2), (10, 3), (12, 4), (12, 5), (16, 6)]],
    (14, 14, (0.0, 0.0)),
    (12, 7, (1e-5,)),
])
def test_continuation_realizes_repeated_targets_in_a_few_solves(n, seed, gaps, monkeypatch):
    # the smallest target repeated, or nearly, at the relative gaps given, on a
    # 0.35-density pattern; with one row per value, under least squares, the
    # doubles took 11,201 to 57,606 Williamson solves or failed after 60,808,
    # the triple failed after 137,608 and the near double took 7,713
    rng = np.random.default_rng(seed)
    G = _random_pattern(n, rng)
    target = np.sort(rng.uniform(0.5, 3.0, n // 2))
    target[1:1 + len(gaps)] = target[0] * (1.0 + np.array(gaps))
    solves = _count_calls(monkeypatch, sssp, "_williamson_columns")
    N = sp.continuation_realize(G, target, rng=rng)
    assert len(solves) <= 10
    _assert_realizes(N, G, target)


@pytest.mark.parametrize("edge", [(i, j) for i in range(1, 7) for j in range(i + 2, 7)])
def test_continuation_keeps_the_double_on_each_supergraph_of_the_path(edge, monkeypatch):
    # from N_PATH6 (spectrum {sqrt(209)/20, 1, 1}, graph the path) onto the
    # path plus one edge; the unjittered first attempt keeps that edge at 0
    G = sp.LabeledGraph.from_edges(6, sorted(sp.graph_of_matrix(N_PATH6).edges) + [edge])
    target = [np.sqrt(209) / 20, 1.0, 1.0]
    solves = _count_calls(monkeypatch, sssp, "_williamson_columns")
    N = sp.continuation_realize(G, target, rng=np.random.default_rng(0), seed_matrix=N_PATH6)
    assert len(solves) <= 8
    _assert_realizes(N, G, target)


def test_importing_spisep_does_not_load_scipy_optimize():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spisep; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


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


def _reference_full(N):
    # the verification matrix from its definition: one column per sp_basis element
    basis = sp.sp_basis(N.shape[0] // 2)
    return np.column_stack([sp.vec_triangle(M.T @ N + N @ M) for M in basis])


def _sweep_cases():
    """One 30%-density PD matrix at each of p = 10, 20, 30; from p = 14 on the
    full matrix's triangle rows take the sparse (CSC) path of the gather."""
    rng = np.random.default_rng(0)
    cases = []
    for p in (10, 20, 30):
        n = 2 * p
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.3]
        cases.append(sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng))
    return cases


def test_direct_rows_equal_reference_reduced_rows():
    # each entry is one entry of the symmetrized N or the sum of two, on either
    # route, so the gather equals the basis route exactly, up to the sign of a zero
    for N in map(sp.as_symmetric, _oracle_cases() + _sweep_cases()):
        ref = _reference_full(N)
        a, b = sssp._nonedge_pairs(N, core.pattern_tol(N))
        vm = sp.verification_matrix(N)
        assert vm.row_index == tuple((int(i) + 1, int(j) + 1) for i, j in zip(a, b))
        rows = b * (b + 1) // 2 + a
        np.testing.assert_array_equal(sssp._dense(sssp._tangent_rows(N, a, b)), ref[rows])
        np.testing.assert_array_equal(vm.reduced, ref[rows])
        np.testing.assert_array_equal(vm.full, ref)
        j, i = np.tril_indices(N.shape[0])
        np.testing.assert_array_equal(sssp._dense(sssp._tangent_rows(N, i, j)), ref)


def test_verification_matrix_assembles_dense_rows_from_the_sparse_gram_order():
    # from p = 12 the Gram-order rule builds the triangle rows sparse; the
    # verification matrix asks for them dense and gets the same values
    for p in (14, 20):
        rng = np.random.default_rng(p)
        n = 2 * p
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.3]
        N = sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng)
        sparse = sssp._tangent_rows(N, *sssp._triangle(n))
        assert scipy.sparse.issparse(sparse)
        a, b = sssp._nonedge_pairs(N, None)
        vm = sp.verification_matrix(N)
        assert vm.full.flags.c_contiguous
        assert np.array_equal(vm.full, sparse.toarray())
        assert np.array_equal(vm.reduced, sparse.toarray()[b * (b + 1) // 2 + a])


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
    # one structural-zero rule: the oracles' rows drop exactly the edges that
    # graph_of_matrix reports, at every tolerance, and are the full matrix's
    # rows there; the public reduced matrix is the same cut at the default
    rng = np.random.default_rng(21)
    for p in range(1, 6):
        n = 2 * p
        N = sp.random_pd(n, rng) * (rng.uniform(size=(n, n)) < 0.5)
        N = N + N.T + 2 * n * np.eye(n) + 1e-12 * sp.random_symmetric(n, rng)
        G = sp.graph_of_matrix(N, zero_tol)
        a, b = sssp._nonedge_pairs(N, zero_tol)
        row_index = tuple(zip((a + 1).tolist(), (b + 1).tolist()))
        assert row_index == tuple(
            (i, j) for i, j in sp.triangle_pairs(n) if i != j and not G.has_edge(i, j)
        )
        V = sp.verification_matrix(N)
        rows = [sp.triangle_pairs(n).index(ij) for ij in row_index]
        assert np.array_equal(sssp._dense(sssp._tangent_rows(N, a, b)), V.full[rows])
        if zero_tol is None:
            assert V.row_index == row_index
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

    public = sssp.verification_matrix
    for name in ("sp_basis", "verification_matrix"):
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
    # one thin SVD for each verdict, the nullspace one's also giving the witness
    assert len(shapes) == 2 and max(max(s) for s in shapes) <= 6 * 7 // 2
    # the public verification matrix reads the gathered rows, not the basis
    monkeypatch.setattr(sssp, "verification_matrix", public)
    vm = sp.verification_matrix(N)
    assert vm.full.shape == (21, 21) and vm.reduced.shape == (8, 21)


@pytest.mark.parametrize("name", ["rank", "nullspace"])
def test_oracles_fall_back_to_the_svd_where_the_certificate_fails(name, monkeypatch):
    # just below sigma_min / sigma_1 of the oracle's own rows the certificate
    # cannot prove full rank, so the SVD alone says True; just above it, False
    N = sp.random_pd_with_graph(sp.path_graph(6), np.random.default_rng(3))
    N, a, b = sssp._oracle_input(N, 0.0, None)
    A = {"rank": sssp._tangent_rows, "nullspace": sssp._commutation_rows}[name](N, a, b)
    s = np.linalg.svd(sssp._dense(A), compute_uv=False)
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    for factor, verdict in ((0.9, True), (1.1, False)):
        rank_tol = factor * s[-1] / s[0]
        assert not sssp._certified_full_rank(A, rank_tol)
        if name == "rank":
            assert sp.has_sssp_rank(N, rank_tol=rank_tol) is verdict
        else:
            flag, witness = sp.has_sssp_nullspace(N, rank_tol=rank_tol)
            assert flag is verdict and (witness is None) is verdict
    assert len(svds) == 2


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
            # the sparse Gram product sums in another order, and must prove no more
            for form in (A, scipy.sparse.csr_array(A)):
                assert not sssp._certified_full_rank(form, sssp.DEFAULT_RANK_TOL), (m, k, ratio)


@pytest.mark.parametrize("ratio", [1e-3, 1e-1, 1.0])
def test_certificate_proves_a_well_conditioned_matrix(ratio):
    rng = np.random.default_rng(3)
    for m, k in CERTIFICATE_SHAPES:
        sigma = np.geomspace(1.0, ratio, min(m, k))
        A = _with_singular_values(rng, m, k, sigma)
        assert sssp._certified_full_rank(A, 1e-9)
        assert sssp._certified_full_rank(scipy.sparse.csr_array(A), 1e-9)
    assert not sssp._certified_full_rank(np.zeros((3, 5)), 1e-9)
    assert not sssp._certified_full_rank(np.full((3, 5), np.nan), 1e-9)


GRAM_BLOCK = sssp._GRAM_BLOCK


def _packed_lower(G):
    # the lower triangle of G in LAPACK's rectangular full packed format, TRANSR='N', UPLO='L'
    return dtrttf(np.asarray(G, dtype=float), transr="N", uplo="L")[0]


@pytest.mark.parametrize("wide", [True, False])
def test_gram_packs_every_entry_in_its_dtrttf_slot_at_every_order_to_16(wide):
    # every entry of a fully nonzero A is a distinct sum, so an entry added into
    # another's slot shows at every order 1..16, which covers both parities of
    # the packed layout; the dense path packs its product with dtrttf itself
    rng = np.random.default_rng(16)
    for n in range(1, 17):
        D = rng.standard_normal((n, n + 3) if wide else (n + 3, n))
        full = (scipy.sparse.csr_array(D) @ scipy.sparse.csr_array(D).T if wide
                else scipy.sparse.csr_array(D).T @ scipy.sparse.csr_array(D)).toarray()
        G = sssp._gram(scipy.sparse.csr_array(D))
        assert G.shape == (n * (n + 1) // 2,)
        assert G.tobytes() == _packed_lower(full).tobytes(), n
        assert sssp._gram(D).tobytes() == _packed_lower(D @ D.T if wide else D.T @ D).tobytes()


@pytest.mark.parametrize("n", [GRAM_BLOCK // 2, GRAM_BLOCK, GRAM_BLOCK + 1, 2 * GRAM_BLOCK + 1])
@pytest.mark.parametrize("wide", [True, False])
def test_blocked_gram_triangle_equals_the_full_sparse_product_bit_for_bit(n, wide):
    rng = np.random.default_rng(n)
    shape = (n, n + 37) if wide else (n + 37, n)
    A = scipy.sparse.random_array(shape, density=0.2, format="csr", rng=rng,
                                  data_sampler=rng.standard_normal)
    full = (A @ A.T if wide else A.T @ A).toarray()
    G = sssp._gram(A)
    # the lower triangle, packed in the slots dtrttf gives it
    assert G.tobytes() == _packed_lower(full).tobytes()


@pytest.mark.parametrize("summed", [GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1])
@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("fmt", [scipy.sparse.csr_array, scipy.sparse.csc_array])
def test_gram_triangle_is_exact_in_either_format_and_orientation(summed, wide, fmt):
    rng = np.random.default_rng(summed)
    n = 40
    D = rng.standard_normal((n, summed)) * (rng.uniform(size=(n, summed)) < 0.3)
    # Gram index 7 holds no entries, and summed indices 5 and the last hold none:
    # with GRAM_BLOCK + 1 summed indices the last chunk is that one empty index
    D[7, :] = 0.0
    D[:, [5, -1]] = 0.0
    A = fmt(D if wide else D.T)
    full = (A @ A.T if wide else A.T @ A).toarray()
    G = sssp._gram(A)
    assert G.tobytes() == _packed_lower(full).tobytes()


def _compressed(fmt, shape, slices):
    # a CSR or CSC array stored exactly as the given (index, value) slices of its
    # compressed axis, duplicates, unsorted indices and explicit zeros included
    indptr = np.cumsum([0] + [len(x) for x in slices])
    indices = [i for x in slices for i, _ in x]
    data = [v for x in slices for _, v in x]
    return fmt((np.array(data), np.array(indices), indptr), shape=shape)


@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("fmt", [scipy.sparse.csr_array, scipy.sparse.csc_array])
def test_gram_of_a_non_canonical_array_sums_its_duplicates(fmt, wide):
    # a slice holding (0, 1.0) and (0, 2.0) adds (1 + 2)^2 = 9 to Gram entry (0, 0)
    # when it is a summed index, where pairing the stored entries would add 7
    four = [[(2, 4.0), (0, 1.0), (0, 2.0)], [(1, 3.0), (2, 0.0)], [],
            [(0, -1.5), (1, 2.5), (0, 0.5)]]
    three = [[(3, 1.0), (0, 2.0), (3, 1.0)], [(1, 0.0), (2, 3.0)], [(3, -2.0), (0, 0.5), (3, 0.5)]]
    shape = (3, 4) if wide else (4, 3)
    # the compressed axis is the summed one (four slices) or the Gram one (three)
    summed_axis = (fmt is scipy.sparse.csc_array) == wide
    A = _compressed(fmt, shape, four if summed_axis else three)
    assert not A.has_canonical_format
    stored = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    full = (A @ A.T if wide else A.T @ A).toarray()
    D = A.toarray()
    G = sssp._gram(A)
    assert G.tobytes() == _packed_lower(full).tobytes()
    # the values are dyadic, so the dense product is exact
    assert np.array_equal(G, _packed_lower(D @ D.T if wide else D.T @ D))
    assert all(np.array_equal(x, y) for x, y in zip(stored, (A.data, A.indices, A.indptr)))


def test_certificate_holds_little_more_than_its_gram_matrix():
    rng = np.random.default_rng(0)
    n = 60
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.uniform() < 0.3]
    N = sp.random_pd_with_graph(sp.LabeledGraph.from_edges(n, edges), rng)
    a, b = sssp._nonedge_pairs(N, None)
    for build in (sssp._tangent_rows, sssp._commutation_rows):
        A = build(N, a, b)
        g = min(A.shape)
        assert scipy.sparse.issparse(A) and g == a.size
        tracemalloc.start()
        try:
            assert sssp._certified_full_rank(A, sssp.DEFAULT_RANK_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4 g (g + 1) bytes: the packed lower triangle of the Gram matrix
        assert peak < 1.35 * 4 * g * (g + 1), (build.__name__, peak / (4 * g * (g + 1)))


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
            # a pass is proven without any SVD; a failure makes one thin SVD of
            # the oracle's own matrix, the one the reference's first call reads
            if not want:
                shape, _, _, rows = want_calls[0]
                want_calls = [(shape, False, True, rows)]
            assert got_calls == ([] if want else want_calls)
            tally[want] += 1
    assert tally[True] >= 10 and tally[False] >= 8, tally


def _integer_pd_corpus():
    """100 seeded integer PD matrices at p = 3, 4 (edges +-1, +-2 at density 0.4,
    each diagonal entry the row's absolute sum plus 1 or 2), then the exact
    failures: I4, I6, diag(1, 2, 2, 1), the interleaved sum of two equal integer
    blocks and the shear squares of the path blocks at p = 3..6."""
    rng = np.random.default_rng(28)
    cases = []
    for _ in range(100):
        n = 2 * int(rng.choice([3, 4]))
        E = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
        E = np.triu(E, 1) + np.triu(E, 1).T
        cases.append(E + np.diag(np.abs(E).sum(axis=1) + rng.integers(1, 3, n)))
    block = np.array([[3.0, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]])
    failures = [np.eye(4), np.eye(6), np.diag([1.0, 2, 2, 1]),
                sp.direct_sum_interleave(block, block)]
    failures += [sp.shear_square(sp.path_shear_block(p)) for p in range(3, 7)]
    return cases, failures


def test_oracles_match_the_exact_rank_of_the_integer_reduced_matrix():
    import sympy

    cases, failures = _integer_pd_corpus()
    exact = []
    for N in cases + failures:
        R = sp.verification_matrix(N).reduced
        assert np.array_equal(R, np.round(R))
        full_row_rank = sympy.Matrix(R.astype(np.int64).tolist()).rank() == R.shape[0]
        assert sp.has_sssp_rank(N) is full_row_rank
        assert sp.has_sssp_nullspace(N)[0] is full_row_rank
        exact.append(full_row_rank)
    assert not any(exact[len(cases):])
    assert sum(exact[: len(cases)]) >= 50, sum(exact[: len(cases)])


def _sparse_gram_cases():
    """The benchmark-scale cases plus the failing shear squares p = 7, 8 (with no
    direction), so both oracles' SVD fallback and witness run on sparse input."""
    shears = [(sp.shear_square(sp.path_shear_block(p)), None) for p in (7, 8)]
    return _benchmark_scale_cases() + shears


def test_sparse_builders_hold_the_nonzeros_of_the_dense_rows(monkeypatch):
    for N, _ in _sparse_gram_cases():
        a, b = sssp._nonedge_pairs(N, None)
        for build in (sssp._tangent_rows, sssp._commutation_rows):
            monkeypatch.setattr(sssp, "_SPARSE_GRAM_ORDER", 10**9)
            A = build(N, a, b)
            monkeypatch.setattr(sssp, "_SPARSE_GRAM_ORDER", 0)
            S = build(N, a, b)
            # compressed along the summed index of the Gram matrix, as _gram reads it
            wide = build is sssp._tangent_rows
            assert isinstance(A, np.ndarray) and (A.shape[0] <= A.shape[1]) is wide
            assert isinstance(S, scipy.sparse.csc_array if wide else scipy.sparse.csr_array)
            assert S.nnz == np.count_nonzero(A) and S.has_canonical_format
            # bit for bit, once + 0.0 turns the dense rows' -0.0 (a coefficient -1
            # times a structural zero of N) into the +0.0 of a sparse array's absent entry
            assert S.toarray().tobytes() == (A + 0.0).tobytes()


def test_sparse_and_dense_gram_paths_give_identical_verdicts_and_witnesses(monkeypatch):
    def outputs(order):
        monkeypatch.setattr(sssp, "_SPARSE_GRAM_ORDER", order)
        out = []
        for N, R in _sparse_gram_cases():
            flag, W = sp.has_sssp_nullspace(N)
            out.append((sp.has_sssp_rank(N), flag, W if W is None else W.tobytes(),
                        R is None or sp.has_sssp_in_direction(N, R)))
        return out

    dense = outputs(10**9)
    assert outputs(0) == dense
    assert sum(not rank for rank, *_ in dense) >= 6


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("oracle", [sp.has_sssp_rank, sp.has_sssp_nullspace])
def test_each_oracle_call_logs_one_rank_decision(caplog, monkeypatch, oracle, sparse):
    if sparse:
        monkeypatch.setattr(sssp, "_SPARSE_GRAM_ORDER", 0)
    caplog.set_level(logging.DEBUG, logger="spisep")
    shear = sp.shear_square(sp.path_shear_block(3))
    for N, proof in ((N_CYCLE, "proved full rank"), (shear, "failed, SVD decides")):
        caplog.clear()
        oracle(N)
        (record,) = caplog.records
        assert record.name == "spisep.sssp" and record.levelno == logging.DEBUG
        order = sssp._nonedge_pairs(N, None)[0].size
        rows = "sparse" if sparse else "dense"
        assert record.getMessage() == (
            f"rank decision: Gram order {order}, {rows} rows, Cholesky certificate {proof}"
        )


def test_the_spisep_logger_is_silent_by_default():
    # without a handler of its own, a warning would reach logging's last-resort stderr handler
    code = (
        "import logging, spisep as sp\n"
        "sp.has_sssp_nullspace(sp.shear_square(sp.path_shear_block(3)))\n"
        "sp.zc_number(sp.corona(sp.complete_graph(4)))\n"
        "logging.getLogger('spisep.sssp').warning('unseen')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == proc.stderr == ""
