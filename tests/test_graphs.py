import itertools
import math

import networkx as nx
import numpy as np
import pytest

import spisep as sp
from spisep import graphs
from spisep.core import pattern_tol


def test_graph_of_identity_is_empty():
    G = sp.graph_of_matrix(np.eye(4))
    assert G == sp.empty_graph(4)


def _graph_of_matrix_by_entry(N, zero_tol=None):
    N = 0.5 * (N + N.T)
    tol = pattern_tol(N) if zero_tol is None else zero_tol
    n = N.shape[0]
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if abs(N[i, j]) > tol]
    return sp.LabeledGraph.from_edges(n, edges)


@pytest.mark.parametrize("n", [1, 2, 6, 40])
def test_graph_of_matrix_matches_per_entry_reference(n):
    rng = np.random.default_rng(n)
    tol = 0.25
    # entries exactly at +-tol, just either side of it, and well clear of it
    choices = np.array([0.0, tol, -tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0), 1.0, -3.0])
    for _ in range(30):
        M = rng.choice(choices, size=(n, n))
        N = np.triu(M) + np.triu(M, 1).T
        for zero_tol in (None, tol, 0.0):
            G = sp.graph_of_matrix(N, zero_tol)
            assert G == _graph_of_matrix_by_entry(N, zero_tol)
            # connectivity against networkx, on graphs of order 1 and disconnected ones too
            T = nx.Graph(list(G.edges))
            T.add_nodes_from(range(1, n + 1))
            assert G.is_connected() == nx.is_connected(T)


def test_graph_of_join_construction():
    N = sp.shear_square(np.ones((3, 3)))
    G = sp.graph_of_matrix(N)
    want = sp.join_empty_complete_matching(3).graph
    assert G == want
    # the matching edges {i, 3+i} are present
    for i in (1, 2, 3):
        assert G.has_edge(i, 3 + i)


def test_graph_of_triangular_path_matrix():
    N = sp.shear_square(sp.path_shear_block(5))
    G = sp.graph_of_matrix(N)
    assert G.size == 13
    assert G == sp.triangular_path(10).graph


def test_pattern_tolerance_filters_noise():
    N = np.eye(4)
    N[0, 1] = N[1, 0] = 1e-14
    assert sp.graph_of_matrix(N) == sp.empty_graph(4)
    assert sp.graph_of_matrix(N, zero_tol=0.0).has_edge(1, 2)


def test_complement():
    c4 = sp.LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert sp.complement(c4).edges == frozenset({(1, 3), (2, 4)})
    assert sp.complement(sp.complete_graph(5)) == sp.empty_graph(5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.uniform() < 0.5]
        G = sp.LabeledGraph.from_edges(n, edges)
        assert sp.complement(sp.complement(G)) == G


def test_graph_relabel_tracks_matrix_relabel():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.choice([4, 6]))
        G = sp.LabeledGraph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.uniform() < 0.4]
        )
        N = sp.random_pd_with_graph(G, rng)
        sigma = tuple(rng.permutation(n) + 1)
        assert sp.graph_of_matrix(sp.relabel(N, sigma)) == G.relabeled(sigma)
    # a permutation of the wrong length and a non-permutation are both refused
    for sigma in [(1, 2, 3), (1, 1, 2, 3)]:
        with pytest.raises(ValueError, match="sigma must be a permutation of 1.."):
            sp.path_graph(4).relabeled(sigma)


def test_coupling_closure_graph():
    p6 = sp.path_with_matching(6)
    assert sp.coupling_closure_graph(p6) == p6.graph
    CG = sp.CoupledGraph(sp.empty_graph(4), sp.Coupling.from_pairs([(1, 2), (3, 4)]))
    assert sp.coupling_closure_graph(CG).edges == frozenset({(1, 2), (3, 4)})
    p4 = sp.CoupledGraph(sp.path_graph(4), sp.Coupling.from_pairs([(1, 3), (2, 4)]))
    assert sp.coupling_closure_graph(p4).edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)}
    )


def test_with_edges_checks_the_added_edges():
    G = sp.path_graph(5)
    H = G.with_edges([(4, 1), (2, 3), (5, 3)])
    assert H == sp.LabeledGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (3, 5)])
    assert hash(H) == hash(sp.LabeledGraph(5, H.edges)) and H.neighbors(3) == {2, 4, 5}
    assert G.with_edges([]) == G and G.size == 4
    for extra, match in [([(2, 6)], r"edge \(2, 6\) out of range 1..5"),
                         ([(0, 1)], r"edge \(0, 1\) out of range"),
                         ([(3, 3)], "loops are not allowed")]:
        with pytest.raises(ValueError, match=match):
            G.with_edges(extra)


def test_coupling_validation():
    with pytest.raises(ValueError, match="cover each vertex exactly once"):
        sp.Coupling.from_pairs([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="vertex 1 is paired with itself"):
        sp.Coupling.from_pairs([(1, 1), (2, 3)])
    with pytest.raises(ValueError, match=r"stored as \(low, high\)"):
        sp.Coupling(((2, 1), (3, 4)))
    c = sp.Coupling.from_pairs([(4, 1), (3, 2)])
    assert c.pairs == ((1, 4), (2, 3))
    assert c.partner(4) == 1 and c.partner(2) == 3


@pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_enumerate_couplings_double_factorial(n, count):
    couplings = sp.enumerate_couplings(n)
    assert len(couplings) == count
    assert len(set(couplings)) == count
    assert all(c == sp.Coupling.from_pairs(c.pairs) for c in couplings)


@pytest.mark.parametrize("build,arg", [
    (sp.enumerate_couplings, -2),
    (sp.matching_coupling, -2),
    (sp.split_coupling, -2),
    (sp.enumerate_couplings, 3),
    (sp.path_shear_block, 0),
    (sp.jacobi_from_spectrum, []),
    (sp.jacobi_from_spectrum, [1.0, np.nan]),
    (sp.jacobi_from_spectrum, [1.0, np.inf]),
    (sp.jacobi_from_spectrum, [-np.inf, 1.0]),
])
def test_builders_refuse_an_invalid_size(build, arg):
    with pytest.raises(ValueError):
        build(arg)


def test_enumerate_couplings_returns_a_fresh_list():
    first = sp.enumerate_couplings(6)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert sp.enumerate_couplings(6) == expected


def test_enumeration_guard(monkeypatch):
    with pytest.raises(ValueError, match="enumeration guard 12"):
        sp.enumerate_couplings(14)
    monkeypatch.setattr(graphs, "_ENUMERATION_GUARD", 14)
    assert len(sp.enumerate_couplings(14)) == 135135


def test_representative_labelings_match_enumeration():
    CG = sp.CoupledGraph(sp.empty_graph(4), sp.Coupling.from_pairs([(1, 3), (2, 4)]))
    labs = sp.representative_labelings(CG)
    expected = {
        (1, 2, 3, 4), (1, 4, 3, 2), (2, 1, 4, 3), (2, 3, 4, 1),
        (3, 2, 1, 4), (3, 4, 1, 2), (4, 1, 2, 3), (4, 3, 2, 1),
    }
    assert set(labs) == expected and len(labs) == 8


@pytest.mark.parametrize("p", [1, 2, 3])
def test_representative_labelings_send_pairs_to_form_pairs(p):
    for coupling in sp.enumerate_couplings(2 * p):
        CG = sp.CoupledGraph(sp.empty_graph(2 * p), coupling)
        labs = sp.representative_labelings(CG)
        assert len(labs) == 2**p * math.factorial(p)
        assert len(set(labs)) == len(labs)
        for lab in labs:
            for a, b in coupling.pairs:
                lo, hi = sorted((lab[a - 1], lab[b - 1]))
                assert hi == lo + p


def test_triangular_path_edge_count():
    for p in range(2, 9):
        G = sp.triangular_path(2 * p).graph
        assert G.size == 3 * p - 2
        assert G.is_connected()


def test_triangular_path_small_layout():
    G = sp.triangular_path(4).graph
    assert G.edges == frozenset({(1, 3), (1, 4), (2, 3), (3, 4)})


def test_corona_comb():
    comb = sp.corona(sp.path_graph(3))
    assert comb.graph.order == 6
    assert comb.graph.edges == frozenset(
        {(1, 4), (2, 5), (3, 6), (4, 5), (5, 6)}
    )
    assert comb.coupling == sp.split_coupling(6)


def test_complete_bipartite_matching_is_cycle_for_p2():
    CG = sp.complete_bipartite_matching(2)
    assert CG.graph.edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    assert all(CG.graph.degree(v) == 2 for v in range(1, 5))


def test_is_caterpillar():
    assert sp.is_caterpillar(sp.path_graph(6))
    assert sp.is_caterpillar(sp.star_graph(4))
    assert sp.is_caterpillar(sp.LabeledGraph.from_edges(1, []))
    assert not sp.is_caterpillar(sp.cycle_graph(5))
    assert not sp.is_caterpillar(sp.LabeledGraph.from_edges(4, [(1, 2), (3, 4)]))
    # spider with three legs of length 2 is a tree but not a caterpillar
    spider = sp.LabeledGraph.from_edges(
        7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]
    )
    assert spider.is_tree() and not sp.is_caterpillar(spider)


def _long_caterpillar():
    # path 1..15 with legs 16, 17, 18 hanging from 5, 12, 13
    edges = [(i, i + 1) for i in range(1, 15)] + [(5, 16), (12, 17), (13, 18)]
    return sp.LabeledGraph.from_edges(18, edges)


def test_caterpillar_with_perfect_matching():
    T = _long_caterpillar()
    assert sp.is_caterpillar(T)
    matching = sp.tree_perfect_matching(T)
    assert matching is not None
    assert {(5, 16), (12, 17), (13, 18)} <= set(matching.pairs)


def test_tree_matching_paths_and_stars():
    m = sp.tree_perfect_matching(sp.path_graph(8))
    assert m.pairs == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert sp.tree_perfect_matching(sp.star_graph(4)) is None
    assert sp.tree_perfect_matching(sp.star_graph(6)) is None
    with pytest.raises(ValueError):
        sp.tree_perfect_matching(sp.cycle_graph(4))


def _relabeled_trees(max_order: int, rng):
    """Every nonisomorphic tree of order <= max_order, under a random relabeling."""
    yield sp.LabeledGraph.from_edges(1, [])
    for k in range(2, max_order + 1):
        for T in nx.nonisomorphic_trees(k):
            sigma = rng.permutation(k) + 1
            yield sp.LabeledGraph.from_edges(k, [(sigma[u], sigma[v]) for u, v in T.edges])


def test_caterpillar_and_tree_matching_match_networkx_on_all_small_trees():
    rng = np.random.default_rng(7)
    count = 0
    for G in _relabeled_trees(10, rng):
        T = nx.Graph(list(G.edges))
        T.add_nodes_from(range(1, G.order + 1))
        inner = T.subgraph([v for v, d in T.degree() if d >= 2])
        spine_is_path = inner.number_of_nodes() == 0 or (
            nx.is_connected(inner) and max(d for _, d in inner.degree()) <= 2
        )
        assert sp.is_caterpillar(G) == spine_is_path, sorted(G.edges)
        M = nx.max_weight_matching(T, maxcardinality=True)
        want = sorted(tuple(sorted(e)) for e in M) if 2 * len(M) == G.order else None
        got = sp.tree_perfect_matching(G)
        assert (got and list(got.pairs)) == want, sorted(G.edges)
        count += 1
    assert count == 201  # OEIS A000055 summed over orders 1..10


def test_labeled_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        sp.LabeledGraph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        sp.LabeledGraph.from_edges(3, [(2, 2)])


def test_neighbors_match_edge_scan_and_leave_equality_alone():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < 0.4]
        G = sp.LabeledGraph.from_edges(n, edges)
        fresh = sp.LabeledGraph.from_edges(n, edges)
        for v in range(0, n + 2):
            assert G.neighbors(v) == {j if i == v else i for i, j in edges if v in (i, j)}
            assert G.degree(v) == sum(v in e for e in edges)
        assert G.min_degree() == min(G.degree(v) for v in range(1, n + 1))
        assert G == fresh and hash(G) == hash(fresh)
        assert len({G, fresh}) == 1


def _atlas_graphs(max_order, rng):
    """Every graph of graph_atlas_g of order 1..max_order, under a random relabeling."""
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n > max_order:
            return
        sigma = rng.permutation(n) + 1
        yield sp.LabeledGraph.from_edges(n, [(sigma[u], sigma[v]) for u, v in g.edges()])


def _assert_components_match_networkx(G):
    H = nx.Graph(list(G.edges))
    H.add_nodes_from(range(1, G.order + 1))
    want = sorted(sorted(c) for c in nx.connected_components(H))
    got = sorted(sorted(graphs._to_set(c)) for c in graphs._components(G._masks, G.order))
    assert got == want, sorted(G.edges)
    assert G.is_connected() == (len(want) == 1)


def test_components_match_networkx_on_the_atlas_and_random_graphs():
    rng = np.random.default_rng(35)
    count = 0
    for G in _atlas_graphs(7, rng):
        _assert_components_match_networkx(G)
        count += 1
    assert count == 1252  # graph_atlas_g has 1252 graphs of order 1..7
    isolated = 0
    for _ in range(200):
        n = int(rng.integers(1, 41))
        prob = rng.uniform(0.0, 4.0 / n)
        G = sp.LabeledGraph.from_edges(n, [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < prob])
        _assert_components_match_networkx(G)
        isolated += G.min_degree() == 0
    assert isolated >= 100


def test_masks_are_the_adjacency_matrix():
    G = sp.LabeledGraph.from_edges(5, [(1, 2), (2, 5), (3, 5)])
    A = G.adjacency()
    assert G._masks == tuple(sum(1 << u for u in range(5) if A[v, u]) for v in range(5))
    assert G.with_edges([(1, 4)])._masks[0] == 0b1010


@pytest.mark.parametrize("build", [
    lambda: sp.LabeledGraph.from_edges(4.9, [(1, 2)]),
    lambda: sp.LabeledGraph.from_edges(4, [(1.5, 2)]),
    lambda: sp.LabeledGraph.from_edges(4, [(2, 3.99)]),
    lambda: sp.path_graph(4).has_edge(1, 2.5),
    lambda: sp.Coupling.from_pairs([(1, 2.7), (3, 4)]),
    lambda: sp.path_graph(4).relabeled([1.5, 2, 3, 4]),
    lambda: sp.path_shear_block(2.5),
])
def test_graphs_refuse_non_integral_vertices_and_sizes(build):
    # each was once truncated: from_edges(4.9, ...) made an order-4 graph
    with pytest.raises(ValueError, match="expected an integer"):
        build()


def test_graphs_take_numpy_integers_and_integral_floats():
    G = sp.LabeledGraph.from_edges(np.int64(3), [(np.int64(1), 2), (2.0, 3)])
    assert G == sp.path_graph(3) and type(G.order) is int
    assert all(type(v) is int for e in G.edges for v in e)
    assert sp.Coupling.from_pairs(np.array([[2, 1], [3, 4]])) == sp.matching_coupling(4)
