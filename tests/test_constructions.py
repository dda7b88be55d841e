import networkx as nx
import numpy as np
import pytest

import spisep as sp
from spisep import catalogue
from spisep.constructions import _random_pd_stack
from spisep.core import pattern_tol

B5_SQUARED = np.array(
    [
        [2.0, 1, 1, 0, 0],
        [1, 2, 0, 1, 0],
        [1, 0, 2, 0, 1],
        [0, 1, 0, 2, 0],
        [0, 0, 1, 0, 1],
    ]
)


def test_dopico_johnson_trivial_and_join():
    assert np.array_equal(sp.dopico_johnson(np.eye(3), np.zeros((3, 3))), np.eye(6))
    J = np.ones((3, 3))
    np.testing.assert_allclose(
        sp.dopico_johnson(np.eye(3), J),
        np.block([[np.eye(3), J], [J, 3 * J + np.eye(3)]]),
        atol=1e-12,
    )


def test_dopico_johnson_always_symplectic_pd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.choice([2, 3, 4]))
        N = sp.dopico_johnson(sp.random_pd(p, rng), sp.random_symmetric(p, rng))
        assert sp.is_symplectic_pd(N, tol=1e-7)
        assert sp.symplectic_pd_inverse_identity(N, tol=1e-7)


def test_dopico_johnson_rejects_bad_blocks():
    with pytest.raises(ValueError):
        sp.dopico_johnson(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sp.dopico_johnson(np.eye(2), np.array([[0.0, 1], [0, 0]]))


def test_shear_square_values():
    assert np.array_equal(sp.shear_square(np.zeros((3, 3))), np.eye(6))
    B5 = sp.path_shear_block(5)
    N = sp.shear_square(B5)
    np.testing.assert_array_equal(N[5:, 5:], np.eye(5) + B5_SQUARED)
    assert sp.graph_of_matrix(N) == sp.triangular_path(10).graph
    Bh = sp.householder_all_nonzero(4)
    Nk = sp.shear_square(Bh)
    np.testing.assert_allclose(Nk[4:, 4:], 2 * np.eye(4), atol=1e-12)
    assert sp.graph_of_matrix(Nk) == sp.complete_bipartite_matching(4).graph


def test_realize_shear_hits_target_spectrum():
    rng = np.random.default_rng(1)
    B5 = sp.path_shear_block(5)
    target = np.array([1.0, 2, 3, 4, 5])
    N = sp.realize_shear(B5, target)
    np.testing.assert_allclose(
        sp.symplectic_spectrum(N).as_array(), target, atol=1e-8
    )
    assert sp.graph_of_matrix(N) == sp.triangular_path(10).graph
    # pattern independent of the target, repeats included
    t2 = np.array([2.0, 2, 2, 7, 7])
    N2 = sp.realize_shear(B5, t2)
    assert sp.graph_of_matrix(N2) == sp.triangular_path(10).graph
    np.testing.assert_allclose(
        sp.symplectic_spectrum(N2).as_array(), np.sort(t2), atol=1e-8
    )
    with pytest.raises(ValueError):
        sp.realize_shear(B5, [1.0, -1, 2, 3, 4])


def test_realize_shear_all_ones_is_symplectic_pd():
    B = sp.path_shear_block(4)
    N = sp.realize_shear(B, np.ones(4))
    assert sp.is_symplectic_pd(N)
    np.testing.assert_allclose(N, sp.shear_square(B), atol=1e-12)


def test_realize_nonneg_symplectic():
    t = [0.5, 1.5, 2.5]
    np.testing.assert_allclose(
        sp.realize_nonneg_symplectic(np.eye(6), t),
        np.diag(t + t),
        atol=1e-12,
    )
    S = sp.basic_symplectic("shear", np.ones((3, 3)))
    N = sp.realize_nonneg_symplectic(S, t)
    assert sp.graph_of_matrix(N) == sp.graph_of_matrix(S.T @ S)
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), t, atol=1e-8)
    with pytest.raises(ValueError):
        sp.realize_nonneg_symplectic(-np.eye(6), t)
    with pytest.raises(ValueError):
        sp.realize_nonneg_symplectic(np.ones((6, 6)), t)


def test_realize_shear_tripath_spectrally_arbitrary_family():
    rng = np.random.default_rng(2)
    S = sp.basic_symplectic("shear", sp.path_shear_block(5))
    t = np.sort(rng.uniform(0.5, 4.0, 5))
    N = sp.realize_nonneg_symplectic(S, t)
    assert sp.graph_of_matrix(N) == sp.triangular_path(10).graph
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), t, atol=1e-8)


def test_random_smear_modes():
    t = [1.0, 2.0, 3.0]
    N = sp.random_smear(t, seed=5, mode="complete")
    assert sp.graph_of_matrix(N) == sp.complete_graph(6)
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), t, atol=1e-8)
    N2 = sp.random_smear(t, seed=5, mode="two_cliques")
    G = sp.graph_of_matrix(N2)
    # two disjoint cliques on {1..p} and {p+1..2p}
    want = {(i, j) for i in range(1, 4) for j in range(i + 1, 4)}
    want |= {(i, j) for i in range(4, 7) for j in range(i + 1, 7)}
    assert G.edges == frozenset(want)
    np.testing.assert_allclose(sp.symplectic_spectrum(N2).as_array(), t, atol=1e-8)
    # deterministic in the seed
    np.testing.assert_array_equal(N, sp.random_smear(t, seed=5, mode="complete"))
    assert not np.array_equal(N, sp.random_smear(t, seed=6, mode="complete"))
    with pytest.raises(ValueError):
        sp.random_smear(t, seed=5, mode="banana")


def test_smeared_block_matrix_fails_sssp_when_spectrum_flat():
    N = sp.random_smear([1.0, 1.0, 1.0], seed=9, mode="two_cliques")
    assert not sp.has_sssp_nullspace(N)[0]


def test_corona_realize_spectrum():
    nus = np.array([0.5, 1.25, 3.0])
    A = sp.jacobi_from_spectrum(nus**2 + 1.0)
    N = sp.corona_realize(A, np.ones(3), np.ones(3))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), nus, atol=1e-10)
    assert sp.graph_of_matrix(N) == sp.corona(sp.path_graph(3)).graph


def test_corona_realize_flat_case_and_rejection():
    N = sp.corona_realize(2.0 * np.eye(3), np.ones(3), np.ones(3))
    np.testing.assert_allclose(sp.symplectic_spectrum(N).as_array(), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="nonpositive eigenvalue"):
        sp.corona_realize(np.eye(3), np.ones(3), 2.0 * np.ones(3))


@pytest.mark.parametrize("build", [sp.corona_realize, sp.corona_spectrum])
def test_corona_forms_reject_bad_diagonals(build):
    with pytest.raises(ValueError, match="D must be positive"):
        build(np.eye(2), [-1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="D must be positive"):
        build(np.eye(2), [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="same order"):
        build(np.eye(2), [1.0, 1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="same order"):
        build(np.eye(2), [1.0, 1.0], [0.0])


def test_corona_spectrum_agrees_with_direct_computation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = int(rng.choice([2, 3, 4, 5]))
        A = sp.random_symmetric(p, rng)
        D = rng.uniform(0.5, 2.0, p)
        E = rng.uniform(-1.0, 1.0, p)
        rd = np.sqrt(D)
        core = rd[:, None] * A * rd[None, :] - np.diag(E * E)
        if np.linalg.eigvalsh(core)[0] <= 1e-3:
            A = A + (abs(np.linalg.eigvalsh(core)[0]) + 1.0) * np.diag(1.0 / D)
        pred = sp.corona_spectrum(A, D, E)
        N = sp.corona_realize(A, D, E)
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(), np.sort(pred), atol=1e-8
        )


def test_jacobi_from_spectrum():
    vals = np.array([1.0, 3.0, 4.5, 10.0])
    J = sp.jacobi_from_spectrum(vals)
    np.testing.assert_allclose(np.linalg.eigvalsh(J), vals, atol=1e-10)
    assert sp.graph_of_matrix(J) == sp.path_graph(4)
    with pytest.raises(ValueError):
        sp.jacobi_from_spectrum([1.0, 1.0, 2.0])


def test_forbidden_cycle_detector():
    cyc = np.zeros((3, 3))
    cyc[0, 1] = cyc[1, 2] = cyc[2, 0] = 1
    assert sp.forbidden_cycle_detector(cyc)
    assert not sp.forbidden_cycle_detector(cyc + cyc.T)
    assert not sp.forbidden_cycle_detector(np.eye(3))
    two_cycle = np.zeros((2, 2))
    two_cycle[0, 1] = two_cycle[1, 0] = 1
    assert not sp.forbidden_cycle_detector(two_cycle)
    # embedded 3-cycle as a strong component of a larger pattern
    big = np.zeros((5, 5))
    big[0, 1] = big[1, 2] = big[2, 0] = 1
    big[3, 4] = 1
    big[0, 3] = 1
    assert sp.forbidden_cycle_detector(big)


def test_forbidden_nilpotent_detector():
    assert sp.forbidden_nilpotent_detector(np.array([[0, 1], [0, 0]]))
    assert not sp.forbidden_nilpotent_detector(np.eye(2))
    assert not sp.forbidden_nilpotent_detector(np.zeros((2, 2)))
    # walk through an intermediate strong component
    pat = np.zeros((4, 4))
    pat[0, 1] = pat[1, 2] = pat[2, 1] = pat[2, 3] = 1
    pat[1, 1] = pat[2, 2] = 1
    assert sp.forbidden_nilpotent_detector(pat)


def _reference_obstructions(B) -> tuple[bool, bool]:
    """Both detectors rebuilt from networkx strong components and paths."""
    p = B.shape[0]
    D = nx.DiGraph()
    D.add_nodes_from(range(p))
    D.add_edges_from(zip(*np.nonzero(B)))
    comps = list(nx.strongly_connected_components(D))
    cycle = any(
        len(c) >= 3 and all(d == 1 for _, d in D.subgraph(c).out_degree()) for c in comps
    )
    zero = [v for c in comps if len(c) == 1 for v in c if not D.has_edge(v, v)]
    nilpotent = any(nx.has_path(D, s, t) for s in zero for t in zero if s != t)
    return cycle, nilpotent


def test_obstruction_detectors_match_networkx_reference():
    rng = np.random.default_rng(2026)
    hits = np.zeros(2, dtype=int)
    for trial in range(2400):
        p = int(rng.integers(1, 9))
        B = (rng.uniform(size=(p, p)) < rng.uniform(0.05, 0.6)) * rng.normal(size=(p, p))
        if trial % 2:
            np.fill_diagonal(B, 0.0)
        want = _reference_obstructions(B)
        got = (sp.forbidden_cycle_detector(B), sp.forbidden_nilpotent_detector(B))
        assert got == want, B
        hits += want
    # both verdicts occur often enough for the comparison to mean something
    assert hits.min() >= 20


def test_off_diagonal_block_pattern_of_dense_graph():
    # the nearly complete pattern missing a star of non-edges around two vertices
    p = 3
    n = 2 * p
    missing = {(i, p + 1) for i in range(1, p + 1)}
    missing |= {(i, p + 2) for i in range(2, p + 1)}
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in missing
    ]
    G = sp.LabeledGraph.from_edges(n, edges)
    B = np.zeros((p, p))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if G.has_edge(i, p + j):
                B[i - 1, j - 1] = 1
    assert sp.forbidden_nilpotent_detector(B)


def test_isolated_vertex_obstruction():
    G = sp.LabeledGraph.from_edges(4, [(2, 3), (3, 4)])
    assert sp.isolated_vertex_obstruction(G)
    assert not sp.isolated_vertex_obstruction(sp.empty_graph(4))
    paired_iso = sp.LabeledGraph.from_edges(4, [(2, 4)])  # isolated 1 and 3 = 1 + p
    assert not sp.isolated_vertex_obstruction(paired_iso)


def test_sparsity_audit_triangular_path_equality():
    for p in (2, 4, 6):
        N = sp.shear_square(sp.path_shear_block(p))
        rep = sp.sparsity_audit(N)
        n = 2 * p
        assert rep.nnz == 4 * n - 4
        assert rep.irreducible and rep.symplectic_pd
        assert rep.pair_bound_holds and rep.single_bound_holds
        assert not rep.violation


def _single_pd_reference(G, rng, margin=(0.5, 1.5)):
    # the sampler as a scalar loop over the edges
    n = G.order
    W = np.zeros((n, n))
    for i, j in G.edges:
        w = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        W[i - 1, j - 1] = W[j - 1, i - 1] = w
    lam = np.linalg.eigvalsh(W)[0] if G.edges else 0.0
    shift = abs(min(lam, 0.0)) + rng.uniform(*margin)
    return W + shift * np.eye(n)


def _batch_pd_reference(G, count, rng):
    # the catalogue's evidence sampler: per edge, count magnitudes then count signs
    n = G.order
    W = np.zeros((count, n, n))
    for i, j in G.edges:
        vals = rng.uniform(0.2, 1.0, size=count) * rng.choice([-1.0, 1.0], size=count)
        W[:, i - 1, j - 1] = W[:, j - 1, i - 1] = vals
    lam = np.linalg.eigvalsh(W)[:, 0] if G.edges else np.zeros(count)
    shift = np.abs(np.minimum(lam, 0.0)) + rng.uniform(0.5, 1.5, size=count)
    return W + shift[:, None, None] * np.eye(n)


def test_pd_sampler_is_bit_identical_to_references():
    rng = np.random.default_rng(12)
    for seed in range(300):
        n = int(rng.integers(1, 9))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.5]
        G = sp.LabeledGraph.from_edges(n, edges)
        assert np.array_equal(
            sp.random_pd_with_graph(G, np.random.default_rng(seed)),
            _single_pd_reference(G, np.random.default_rng(seed)),
        )
        assert np.array_equal(
            _random_pd_stack(G, 50, np.random.default_rng(seed)),
            _batch_pd_reference(G, 50, np.random.default_rng(seed)),
        )


def test_sparsity_audit_reducible_matrix():
    rep = sp.sparsity_audit(np.eye(6))
    assert not rep.irreducible
    assert rep.pair_bound_holds is None and rep.single_bound_holds is None
    assert not rep.violation


def test_sparsity_audit_random_irreducible():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        edges = [(i, i + 1) for i in range(1, n)]
        extra = [
            (i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
            if rng.uniform() < 0.3
        ]
        G = sp.LabeledGraph.from_edges(n, edges + extra)
        M = sp.random_pd_with_graph(G, rng)
        rep = sp.sparsity_audit(M)
        assert rep.irreducible
        assert rep.nnz + rep.nnz_inverse >= 8 * n - 8


def test_sparsity_audit_reports_the_inverse_threshold():
    # by default each matrix is cut at its own pattern_tol: 1e-7 for N and
    # 1e-13 for its inverse, whose (1, 2) entry of -1e-9 then counts
    N = 1e3 * np.eye(4)
    N[0, 1] = N[1, 0] = 1e-3
    rep = sp.sparsity_audit(N)
    assert rep.zero_tol == pattern_tol(N)
    assert rep.zero_tol_inverse == pattern_tol(np.linalg.inv(N))
    assert rep.nnz == 6 and rep.nnz_inverse == 6
    at = sp.sparsity_audit(N, zero_tol=1e-7)
    assert at.zero_tol == at.zero_tol_inverse == 1e-7
    assert at.nnz == 6 and at.nnz_inverse == 4


def test_sparsity_audit_rejects_non_pd():
    with pytest.raises(ValueError):
        sp.sparsity_audit(np.diag([1.0, -1.0]))


def test_householder_all_nonzero():
    for p in (1, 2, 3, 7, 24):
        B = sp.householder_all_nonzero(p)
        np.testing.assert_allclose(B @ B, np.eye(p), atol=1e-12)
        np.testing.assert_allclose(B, B.T, atol=1e-15)
        assert np.min(np.abs(B)) > 1e-8


@pytest.mark.parametrize("samples", [0, -3])
def test_catalogue_rejects_fewer_than_one_evidence_sample(samples):
    with pytest.raises(ValueError, match="evidence_samples must be at least 1"):
        sp.build_order4_catalogue(evidence_samples=samples)


def test_forced_entry_fires_exactly_on_simple_only_pairs():
    # under every representative labeling, the structural rule proves each
    # simple-only verdict and fires on no pair that has a witness
    entries = sp.build_order4_catalogue(evidence_samples=1)
    assert sum(e.verdict == "simple_only" for e in entries) == 15
    rng = np.random.default_rng(18)
    for e in entries:
        CG = sp.CoupledGraph(sp.ORDER4_GRAPHS[e.graph], sp.ORDER4_COUPLINGS[e.coupling_id])
        labelings = sp.representative_labelings(CG)
        assert len(labelings) == 8
        for lab in labelings:
            pattern = sp.apply_labeling(CG, lab)
            forced = catalogue._forced_entry(pattern)
            assert (forced is not None) == (e.verdict == "simple_only"), (e.graph, e.coupling_id, lab)
            if forced is not None:
                OmN = sp.omega(2) @ sp.random_pd_with_graph(pattern, rng)
                assert (OmN @ OmN)[forced[0] - 1, forced[1] - 1] != 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_targets_must_be_finite(bad):
    with pytest.raises(ValueError, match="targets must be positive and finite"):
        sp.realize_shear(np.ones((2, 2)), [1.0, bad])
    with pytest.raises(ValueError, match="targets must be positive and finite"):
        sp.random_smear([1.0, bad])
