import itertools
import logging
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spisep as sp
from spisep import graphs
from spisep import zero_forcing as zf


def _random_graph(rng, n, prob):
    edges = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if rng.uniform() < prob
    ]
    return sp.LabeledGraph.from_edges(n, edges)


def _brute_force_number(masks, n, self_ok):
    """Smallest forcing set found by trying every subset in order of size."""
    full = (1 << n) - 1
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if zf._closure(masks, n, sum(1 << v for v in combo), self_ok) == full:
                return k


def _assert_search_is_exact(masks, n, self_ok, number):
    k, witness = zf._min_forcing_set(masks, n, self_ok)
    assert k == number == _brute_force_number(masks, n, self_ok)
    assert witness.bit_count() == k
    assert zf._closure(masks, n, witness, self_ok) == (1 << n) - 1


def _assert_all_rules_exact(G, couplings=()):
    """Standard, loop and coupled searches against the brute force oracle."""
    n = G.order
    full = (1 << n) - 1
    masks = [sum(1 << (u - 1) for u in G.neighbors(v)) for v in range(1, n + 1)]
    non_isolated = sum(1 << v for v in range(n) if masks[v])
    _assert_search_is_exact(masks, n, 0, sp.standard_zf_number(G))
    _assert_search_is_exact(masks, n, non_isolated, sp.loop_zf_number(G))
    for coupling in couplings:
        CG = sp.CoupledGraph(G, coupling)
        coupled = [m | 1 << (coupling.partner(v) - 1) for v, m in enumerate(masks, 1)]
        zc = sp.zc_number(CG)
        _assert_search_is_exact(coupled, n, full, zc)
        witness = sp.zc_minimum_set(CG)
        assert len(witness) == zc
        assert sp.coupled_closure(CG, witness) == frozenset(range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 11))
def test_search_matches_brute_force_on_all_trees(n):
    # every coupling up to order 8; of the 945 at order 10, a seeded 15 per tree
    couplings = sp.enumerate_couplings(n) if n % 2 == 0 else []
    rng = np.random.default_rng(n)
    for T in nx.nonisomorphic_trees(n) if n > 1 else [nx.empty_graph(1)]:
        G = sp.LabeledGraph.from_edges(n, [(u + 1, v + 1) for u, v in T.edges])
        if n == 10:
            picks = rng.choice(len(couplings), 15, replace=False)
            _assert_all_rules_exact(G, [couplings[k] for k in picks])
        else:
            _assert_all_rules_exact(G, couplings)


def test_search_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        G = _random_graph(rng, n, rng.uniform(0.05, 0.7))
        order = [int(v) for v in rng.permutation(n) + 1]
        couplings = [sp.Coupling.from_pairs(zip(order[::2], order[1::2]))] if n % 2 == 0 else []
        _assert_all_rules_exact(G, couplings)


def _min_forcing_set_reference(masks, n, self_ok):
    # the Wavefront search of the whole graph without the bound by the
    # cheapest full set: every step's closure is computed and every improved
    # closed set is stored; vertices with an empty relevant set are pinned
    full = (1 << n) - 1
    pinned = sum(1 << v for v in range(n) if not masks[v])
    start = zf._closure(masks, n, pinned, self_ok)
    best = {start: (0, pinned)}
    buckets = [set() for _ in range(n + 1)]
    buckets[0].add(start)
    for cost in range(n + 1):
        if best.get(full, (n + 1,))[0] == cost:
            return pinned.bit_count() + cost, best[full][1]
        for S in buckets[cost]:
            if best[S][0] != cost:
                continue
            witness = best[S][1]
            for v in range(n):
                bit = 1 << v
                add = (masks[v] | bit) & ~S
                if not add:
                    continue
                free = 1 << (add.bit_length() - 1)
                if free == bit and not self_ok & bit:
                    rest = add ^ bit
                    free = 1 << (rest.bit_length() - 1) if rest else 0
                bought = add ^ free
                step = cost + bought.bit_count()
                T = zf._closure(masks, n, S | add, self_ok)
                entry = (step, witness | bought)
                if entry < best.get(T, (n + 1, 0)):
                    best[T] = entry
                    buckets[step].add(T)


def _components_with_an_edge(masks, n):
    return nx.number_connected_components(
        nx.Graph((u, v) for u in range(n) for v in range(n) if masks[u] >> v & 1))


def _assert_rules_match_reference(G, couplings=()):
    rules = [zf._rule(G, self_forcing=False), zf._rule(G)]
    rules += [zf._rule(G.with_edges(c.pairs)) for c in couplings]
    for masks, n, self_ok in rules:
        found = zf._min_forcing_set(masks, n, self_ok)
        want = _min_forcing_set_reference(masks, n, self_ok)
        if _components_with_an_edge(masks, n) <= 1:
            assert found == want
        else:
            # each component runs its own tie-break, so only the size is fixed
            assert found[0] == want[0] == found[1].bit_count()
            assert zf._closure(masks, n, found[1], self_ok) == (1 << n) - 1


def test_search_matches_the_unbounded_reference():
    # the same (size, mask), tie-break included, for all three rules, where at
    # most one component has an edge (isolated vertices cost 1 each, as the
    # reference's pinned vertices do); the same size elsewhere
    couplings = sp.enumerate_couplings(6)
    atlas6 = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6]
    assert len(atlas6) == 156 and len(couplings) == 15
    for g in atlas6:
        _assert_rules_match_reference(
            sp.LabeledGraph.from_edges(6, [(u + 1, v + 1) for u, v in g.edges]), couplings)
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        G = _random_graph(rng, n, rng.uniform(0.05, 0.7))
        order = [int(v) for v in rng.permutation(n) + 1]
        couplings = [sp.Coupling.from_pairs(zip(order[::2], order[1::2]))] if n % 2 == 0 else []
        _assert_rules_match_reference(G, couplings)


def test_search_skips_steps_above_the_cheapest_full_set(monkeypatch):
    calls = [0]
    closure = zf._closure

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(zf, "_closure", counted)
    G = _random_graph(np.random.default_rng(11), 20, 0.3)
    rule = zf._rule(G.with_edges(sp.split_coupling(20).pairs))
    found = zf._min_forcing_set(*rule)
    bounded, calls[0] = calls[0], 0
    assert found == _min_forcing_set_reference(*rule)
    assert 2 * bounded <= calls[0]


def test_search_computes_each_closure_once(monkeypatch):
    # distinct steps reach the same S | T_v; the search closes each union once
    inputs = []
    closure = zf._closure

    def spy(masks, n, blue, self_ok):
        inputs.append(blue)
        return closure(masks, n, blue, self_ok)

    monkeypatch.setattr(zf, "_closure", spy)
    for seed, density in [(11, 0.3), (12, 0.6), (13, 0.15)]:
        G = _random_graph(np.random.default_rng(seed), 20, density)
        inputs.clear()
        zf._min_forcing_set(*zf._rule(G.with_edges(sp.split_coupling(20).pairs)))
        assert inputs and len(set(inputs)) == len(inputs)


def test_search_matches_the_reference_on_forcing_ladder_shapes():
    # split-coupled graphs of the forcing-ladder's orders and densities, plus
    # the standard and loop rules of their graphs
    rng = np.random.default_rng(16)
    for n in (16, 18, 20):
        for density in (0.3, 0.6):
            _assert_rules_match_reference(_random_graph(rng, n, density), [sp.split_coupling(n)])


def test_search_matches_the_reference_under_all_three_rules():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        G = _random_graph(rng, n, rng.uniform(0.05, 0.7))
        order = [int(v) for v in rng.permutation(n) + 1]
        couplings = [sp.Coupling.from_pairs(zip(order[::2], order[1::2]))] if n % 2 == 0 else []
        _assert_rules_match_reference(G, couplings)


def test_search_skips_steps_that_lose_the_tie_break_at_the_cheapest_full_cost(
    monkeypatch, caplog
):
    # a step at the cost of the stored full set whose mask is not below the
    # stored one is skipped before its closure; the counts with only the steps
    # above that cost skipped were 118, 57 and 297.  The pinned counts are
    # exact: the start's closure, then one per memo entry, and the DEBUG
    # record's (closed sets stored, closures computed)
    calls = [0]
    closure = zf._closure

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(zf, "_closure", counted)
    caplog.set_level(logging.DEBUG, logger="spisep")
    pins = {(11, 0.3): (118, 71, 41, 70), (12, 0.6): (57, 29, 18, 28),
            (13, 0.15): (297, 151, 49, 150)}
    for (seed, density), (before, after, stored, computed) in pins.items():
        rule = zf._rule(_random_graph(np.random.default_rng(seed), 20, density)
                        .with_edges(sp.split_coupling(20).pairs))
        calls[0] = 0
        caplog.clear()
        found = zf._min_forcing_set(*rule)
        assert calls[0] == after <= 0.7 * before, (seed, calls[0])
        assert [r.args[2:] for r in caplog.records] == [(stored, computed)]
        assert found == _min_forcing_set_reference(*rule)


def test_each_component_search_logs_one_record(caplog):
    rng = np.random.default_rng(18)
    CG = _direct_sum(_connected_coupled_graph(rng, 8), _connected_coupled_graph(rng, 6), rng)
    caplog.set_level(logging.DEBUG, logger="spisep")
    size = sp.zc_number(CG)
    records = caplog.records
    assert [(r.name, r.levelno) for r in records] == [("spisep.zero_forcing", logging.DEBUG)] * 2
    assert sorted(r.args[0] for r in records) == [6, 8]
    assert sum(r.args[1] for r in records) == size
    for r in records:
        order, _, stored, computed = r.args
        assert 1 <= stored <= 2**order and 1 <= computed
        assert r.getMessage() == (f"forcing search: component of order {order}, size {r.args[1]}, "
                                  f"{stored} closed sets stored, {computed} closures computed")


def _direct_sum(first: sp.CoupledGraph, second: sp.CoupledGraph, rng) -> sp.CoupledGraph:
    # the disjoint union, with the vertex names of the two parts interleaved
    a, b = first.graph.order, second.graph.order
    names = [int(v) for v in rng.permutation(a + b) + 1]
    one, two = names[:a], names[a:]
    edges = [(one[i - 1], one[j - 1]) for i, j in first.graph.edges]
    edges += [(two[i - 1], two[j - 1]) for i, j in second.graph.edges]
    pairs = [(one[i - 1], one[j - 1]) for i, j in first.coupling.pairs]
    pairs += [(two[i - 1], two[j - 1]) for i, j in second.coupling.pairs]
    return sp.CoupledGraph(sp.LabeledGraph.from_edges(a + b, edges), sp.Coupling.from_pairs(pairs))


def _connected_coupled_graph(rng, n):
    while True:
        G = _random_graph(rng, n, rng.uniform(0.1, 0.5))
        order = [int(v) for v in rng.permutation(n) + 1]
        CG = sp.CoupledGraph(G, sp.Coupling.from_pairs(zip(order[::2], order[1::2])))
        # every vertex lies on a coupling edge, so the graph has all n vertices
        if nx.is_connected(nx.Graph(list(sp.coupling_closure_graph(CG).edges))):
            return CG


def test_search_matches_brute_force_on_disconnected_graphs():
    # all three rules on direct sums, with the couplings of the two parts (a
    # disconnected closure graph) and a seeded coupling across them
    rng = np.random.default_rng(14)
    for _ in range(60):
        a, b = (2 * int(k) for k in rng.integers(1, 4, size=2))
        CG = _direct_sum(_connected_coupled_graph(rng, a), _connected_coupled_graph(rng, b), rng)
        if rng.uniform() < 0.5:  # an isolated vertex, for the loop and standard rules
            G = sp.LabeledGraph.from_edges(a + b, [e for e in CG.graph.edges if 1 not in e])
            CG = sp.CoupledGraph(G, CG.coupling)
        order = [int(v) for v in rng.permutation(a + b) + 1]
        _assert_all_rules_exact(
            CG.graph, [CG.coupling, sp.Coupling.from_pairs(zip(order[::2], order[1::2]))])


def test_zc_of_a_direct_sum_is_the_sum():
    rng = np.random.default_rng(15)
    parts = [sp.path_with_matching(8), sp.cycle_with_matching(10), sp.corona(sp.complete_graph(5)),
             sp.triangular_path(12), sp.complete_bipartite_matching(4)]
    parts += [_connected_coupled_graph(rng, n) for n in (10, 14, 16, 18)]
    for first, second in itertools.combinations(parts, 2):
        CG = _direct_sum(first, second, rng)
        witness = sp.zc_minimum_set(CG)
        assert len(witness) == sp.zc_number(first) + sp.zc_number(second)
        assert sp.coupled_closure(CG, witness) == frozenset(range(1, CG.graph.order + 1))


def test_msp_upper_bound_of_a_large_identity():
    # the empty pattern of order 2p has p components, each of zc 1; the
    # search is timed alone, since a threaded eigensolve of order 100 can
    # take a good part of a second on a busy host
    rep = sp.msp_upper_bound(np.eye(100))
    assert rep.zc == rep.max_multiplicity == 50 and rep.holds
    start = time.perf_counter()
    assert sp.zc_number(sp.CoupledGraph(sp.empty_graph(100), sp.split_coupling(100))) == 50
    assert time.perf_counter() - start < 1.0


def test_order_20_dense_split_coupling():
    # the largest forcing-ladder shape: n = 20, density 0.6, split coupling
    CG = sp.CoupledGraph(_random_graph(np.random.default_rng(9), 20, 0.6), sp.split_coupling(20))
    witness = sp.zc_minimum_set(CG)
    assert sp.coupled_closure(CG, witness) == frozenset(range(1, 21))
    assert len(witness) == sp.loop_zf_number(sp.coupling_closure_graph(CG))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zc_invariant_under_relabeling(data):
    n = 2 * data.draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = sp.LabeledGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    order = data.draw(st.permutations(range(1, n + 1)))
    coupling = sp.Coupling.from_pairs(zip(order[::2], order[1::2]))
    sigma = data.draw(st.permutations(range(1, n + 1)))
    moved = sp.Coupling.from_pairs((sigma[a - 1], sigma[b - 1]) for a, b in coupling.pairs)
    assert sp.zc_number(sp.CoupledGraph(G, coupling)) == sp.zc_number(
        sp.CoupledGraph(G.relabeled(sigma), moved)
    )


def test_path_endpoint_forces_everything():
    CG = sp.path_with_matching(6)
    assert sp.coupled_closure(CG, {1}) == frozenset(range(1, 7))
    assert sp.zc_number(CG) == 1
    assert sp.zc_minimum_set(CG) == frozenset({1})


def test_closure_follows_a_forcing_chain_in_one_pass():
    # the last vertex of a path forces the rest along one chain; a pass over
    # the vertices per force would take about n^2 vertex visits
    G = sp.path_graph(1000)
    start = time.perf_counter()
    assert sp.standard_closure(G, {1000}) == frozenset(range(1, 1001))
    assert time.perf_counter() - start < 0.05


def test_closure_of_full_and_empty_sets():
    CG = sp.path_with_matching(4)
    assert sp.coupled_closure(CG, range(1, 5)) == frozenset(range(1, 5))
    # on a single coupled edge nothing fires from an all-white start
    K2 = sp.CoupledGraph(sp.LabeledGraph.from_edges(2, [(1, 2)]), sp.matching_coupling(2))
    assert sp.coupled_closure(K2, ()) == frozenset()


def test_closures_refuse_vertices_outside_the_graph():
    CG = sp.CoupledGraph(sp.path_graph(6), sp.split_coupling(6))
    G = sp.path_graph(4)
    cases = [(sp.coupled_closure, CG, 6), (sp.loop_closure, G, 4), (sp.standard_closure, G, 4)]
    for close, graph, n in cases:
        for v in (0, n + 1, -1):
            with pytest.raises(ValueError, match=rf"vertex {v} out of range 1\.\.{n}"):
                close(graph, {1, v})
        assert close(graph, [np.int64(1), 2.0]) == close(graph, {1, 2})
        # 1.5 was once truncated, so the closure started from {1}
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            close(graph, [1.5])


def _closure_one_force_at_a_time(masks, n, blue, self_ok, rng):
    # every force applicable to the current coloring, then one of them at random
    while True:
        moves = []
        for v in range(n):
            white = masks[v] & ~blue
            if blue >> v & 1:
                if white and not white & (white - 1):
                    moves.append(white)
            elif not white and self_ok >> v & 1:
                moves.append(1 << v)
        if not moves:
            return blue
        blue |= moves[int(rng.integers(len(moves)))]


def test_closure_matches_one_force_at_a_time():
    # standard, loop and (at even order) coupled rules; the vertices fall into
    # up to three groups with no edge between them, so many graphs are
    # disconnected and the sparse ones have isolated vertices
    rng = np.random.default_rng(19)
    inputs = disconnected = isolated = 0
    for _ in range(1300):
        n = int(rng.integers(1, 17))
        group = rng.integers(0, rng.integers(1, 4), size=n)
        prob = rng.uniform(0.0, 0.7)
        G = sp.LabeledGraph.from_edges(n, [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if group[i - 1] == group[j - 1] and rng.uniform() < prob])
        rules = [zf._rule(G, self_forcing=False), zf._rule(G)]
        if n % 2 == 0:
            order = [int(v) for v in rng.permutation(n) + 1]
            rules.append(zf._rule(G.with_edges(zip(order[::2], order[1::2]))))
        for masks, _, self_ok in rules:
            blue = int(rng.integers(0, 1 << n))
            want = _closure_one_force_at_a_time(masks, n, blue, self_ok, rng)
            assert zf._closure(masks, n, blue, self_ok) == want, (masks, blue, self_ok)
            inputs += 1
            disconnected += len(graphs._components(masks, n)) > 1
            isolated += not all(masks)
    assert inputs >= 3000 and disconnected >= 1000 and isolated >= 1000


def test_coupled_closure_monotone_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.choice([4, 6, 8]))
        G = _random_graph(rng, n, 0.3)
        coupling = sp.enumerate_couplings(n)[int(rng.integers(0, 3))]
        CG = sp.CoupledGraph(G, coupling)
        B1 = {int(v) for v in rng.choice(n, size=2, replace=False) + 1}
        B2 = B1 | {int(rng.integers(1, n + 1))}
        c1 = sp.coupled_closure(CG, B1)
        c2 = sp.coupled_closure(CG, B2)
        assert c1 <= c2
        assert sp.coupled_closure(CG, c1) == c1


def _closure_random_order(CG, blue, rng):
    """Reference implementation applying one applicable force at a time, in random order."""
    n = CG.graph.order
    relevant = {
        v: set(CG.graph.neighbors(v)) | {CG.coupling.partner(v)}
        for v in range(1, n + 1)
    }
    blue = set(blue)
    while True:
        moves = []
        for v in range(1, n + 1):
            white = relevant[v] - blue
            if v in blue:
                if len(white) == 1:
                    moves.append(next(iter(white)))
            elif not white:
                moves.append(v)
        moves = [m for m in moves if m not in blue]
        if not moves:
            return frozenset(blue)
        blue.add(moves[int(rng.integers(len(moves)))])


def test_loop_and_standard_closures():
    rng = np.random.default_rng(8)
    for n in (4, 6, 8, 10):
        CG = sp.path_with_matching(n)
        # the coupling pairs are edges of the path, so they add no relevant vertex
        assert set(CG.coupling.pairs) <= CG.graph.edges
        assert sp.standard_closure(sp.path_graph(n), {1}) == frozenset(range(1, n + 1))
        for _ in range(20):
            blue = {v for v in range(1, n + 1) if rng.uniform() < 0.3}
            assert sp.coupled_closure(CG, blue) == sp.loop_closure(CG.graph, blue)
            G = _random_graph(rng, n, 0.4)
            assert sp.standard_closure(G, blue) <= sp.loop_closure(G, blue)


def test_final_coloring_is_order_independent():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.choice([4, 6, 8]))
        G = _random_graph(rng, n, 0.35)
        coupling = sp.enumerate_couplings(n)[int(rng.integers(0, 3))]
        CG = sp.CoupledGraph(G, coupling)
        B = {int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)), replace=False) + 1}
        expected = sp.coupled_closure(CG, B)
        for _ in range(3):
            assert _closure_random_order(CG, B, rng) == expected


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_path_and_cycle_families(p):
    assert sp.zc_number(sp.path_with_matching(2 * p)) == 1
    if p >= 2:
        assert sp.zc_number(sp.cycle_with_matching(2 * p)) == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_complete_graph_coupled_number(p):
    for coupling in (sp.split_coupling(2 * p), sp.matching_coupling(2 * p)):
        CG = sp.CoupledGraph(sp.complete_graph(2 * p), coupling)
        assert sp.zc_number(CG) == 2 * p - 1


def test_zc_equals_loop_number_of_closure_graph():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        G = _random_graph(rng, n, rng.uniform(0.15, 0.5))
        couplings = sp.enumerate_couplings(n)
        coupling = couplings[int(rng.integers(len(couplings)))]
        CG = sp.CoupledGraph(G, coupling)
        assert sp.zc_number(CG) == sp.loop_zf_number(sp.coupling_closure_graph(CG))


def test_loop_numbers():
    assert sp.loop_zf_number(sp.path_graph(7)) == 1
    assert sp.loop_zf_number(sp.star_graph(5)) == 1
    for n in (4, 5, 6, 8):
        assert sp.loop_zf_number(sp.cycle_graph(n)) == 2
    for n in (3, 4, 5, 6):
        assert sp.loop_zf_number(sp.complete_graph(n)) == n - 1
    # isolated vertices can never be forced
    assert sp.loop_zf_number(sp.empty_graph(3)) == 3


def test_standard_numbers():
    for p in (2, 4, 6):
        assert sp.standard_zf_number(sp.path_graph(p)) == 1
    for p in (3, 4, 5):
        assert sp.standard_zf_number(sp.complete_graph(p)) == p - 1
    for p in (4, 5, 6):
        assert sp.standard_zf_number(sp.cycle_graph(p)) == 2
    assert sp.standard_zf_number(sp.empty_graph(4)) == 4


def test_degree_sandwich_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        G = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        zl = sp.loop_zf_number(G)
        z = sp.standard_zf_number(G)
        assert G.min_degree() <= zl <= z


def test_zc_one_iff_closure_graph_caterpillar():
    comb = sp.corona(sp.path_graph(4))
    assert sp.zc_equals_one(comb)
    assert sp.zc_number(comb) == 1
    c4 = sp.cycle_with_matching(4)
    assert not sp.zc_equals_one(c4)
    assert sp.zc_number(c4) == 2
    # matching coupling of a caterpillar
    edges = [(i, i + 1) for i in range(1, 7)] + [(3, 8)]
    cat = sp.LabeledGraph.from_edges(8, edges)
    matching = sp.tree_perfect_matching(cat)
    assert matching is not None
    CG = sp.CoupledGraph(cat, matching)
    assert sp.zc_equals_one(CG) and sp.zc_number(CG) == 1
    # same tree, different coupling: closure graph gains a cycle
    other = sp.Coupling.from_pairs([(1, 3), (2, 4), (5, 7), (6, 8)])
    CG2 = sp.CoupledGraph(cat, other)
    assert not sp.zc_equals_one(CG2)
    assert sp.zc_number(CG2) > 1


def test_zc_equals_one_against_brute_force_small_trees():
    rng = np.random.default_rng(4)
    trees = [
        sp.path_graph(6),
        sp.star_graph(6),
        sp.LabeledGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)]),
    ]
    for T in trees:
        for coupling in sp.enumerate_couplings(6):
            CG = sp.CoupledGraph(T, coupling)
            brute = any(
                sp.coupled_closure(CG, {v}) == frozenset(range(1, 7))
                for v in range(1, 7)
            )
            assert brute == sp.zc_equals_one(CG)


def test_corona_reduces_to_loop_forcing():
    for H, z in ((sp.path_graph(5), 1), (sp.complete_graph(4), 3), (sp.cycle_graph(5), 2)):
        CG = sp.corona(H)
        corona_graph = CG.graph
        assert sp.zc_number(CG) == sp.loop_zf_number(corona_graph) == z
        assert z <= sp.standard_zf_number(H)


def test_msp_upper_bound_on_path():
    rng = np.random.default_rng(5)
    CG = sp.path_with_matching(6)
    labeling = sp.representative_labelings(CG)[0]
    pattern = sp.apply_labeling(CG, labeling)
    for _ in range(5):
        N = sp.random_pd_with_graph(pattern, rng)
        rep = sp.msp_upper_bound(N)
        assert rep.zc == 1
        assert rep.max_multiplicity == 1
        assert rep.holds


@pytest.mark.parametrize("CG", [
    sp.path_with_matching(6),
    sp.cycle_with_matching(6),
    sp.corona(sp.path_graph(3)),
    sp.triangular_path(6),
    sp.complete_bipartite_matching(3),
], ids=["path", "cycle", "corona", "tripath", "bipartite"])
def test_msp_upper_bound_reads_the_class_off_the_labels(CG):
    # every representative labeling carries CG onto the split-coupled graph of
    # the pattern it labels, so the report's zc is CG's own
    rng = np.random.default_rng(7)
    zc = sp.zc_number(CG)
    labelings = sp.representative_labelings(CG)
    assert len(labelings) == 48
    for L in labelings:
        N = sp.random_pd_with_graph(sp.apply_labeling(CG, L), rng)
        assert sp.msp_upper_bound(N).zc == zc


def test_path_order_labeling_is_not_in_the_matching_class():
    # the path-order pattern represents the distance-p coupling, not the
    # matching coupling: the report carries the split-coupled path's zc
    N = sp.random_pd_with_graph(sp.path_graph(6), np.random.default_rng(6))
    rep = sp.msp_upper_bound(N)
    assert rep.zc == sp.zc_number(sp.CoupledGraph(sp.path_graph(6), sp.split_coupling(6))) == 3
    assert sp.zc_number(sp.path_with_matching(6)) == 1
    assert rep.holds


def test_msp_bound_attained_on_corona_of_complete_graph():
    p = 4
    nus = np.array([1.0] * (p - 1) + [2.0])
    A = (nus[0] ** 2 + 1) * np.eye(p) + ((nus[-1] ** 2 + 1) - (nus[0] ** 2 + 1)) / p * np.ones((p, p))
    N = sp.corona_realize(A, np.ones(p), np.ones(p))
    rep = sp.msp_upper_bound(N)
    assert rep.zc == p - 1
    assert rep.max_multiplicity == p - 1
    assert rep.holds


def test_msp_upper_bound_of_the_identity():
    # the empty graph with the split coupling needs one vertex of each pair
    rep = sp.msp_upper_bound(np.eye(4))
    assert rep.zc == 2
    assert rep.max_multiplicity == 2
    assert rep.holds


def test_labeling_guard():
    # p = 6 has 2^6 * 6! labelings; the guard stops the enumeration at p = 5,
    # while the bound reads the class off the pattern and needs no labelings
    CG = sp.path_with_matching(12)
    with pytest.raises(ValueError, match="enumeration guard 5"):
        sp.representative_labelings(CG)
    CG = sp.triangular_path(12)
    L = [0] * 12
    for k, (a, b) in enumerate(CG.coupling.pairs, start=1):
        L[a - 1], L[b - 1] = k, k + 6
    N = sp.random_pd_with_graph(sp.apply_labeling(CG, L), np.random.default_rng(8))
    rep = sp.msp_upper_bound(N)
    assert rep.zc == sp.zc_number(CG)
    assert rep.holds


def test_exhaustive_guard():
    # no order guard: above order 20 the search runs
    assert sp.zc_number(sp.path_with_matching(22)) == 1


def test_closed_set_budget(monkeypatch):
    # the budget bounds one component's closed sets: the split coupling of the
    # empty graph on 10 vertices is 5 pairs of 2 closed sets each, while the
    # corona of K5, one component, stores 27
    monkeypatch.setattr(zf, "_CLOSED_SET_BUDGET", 16)
    assert sp.zc_number(sp.CoupledGraph(sp.empty_graph(10), sp.split_coupling(10))) == 5
    with pytest.raises(ValueError, match="closed sets of one component, over its budget of 16"):
        sp.zc_number(sp.corona(sp.complete_graph(5)))
    monkeypatch.setattr(zf, "_CLOSED_SET_BUDGET", 27)
    assert sp.zc_number(sp.corona(sp.complete_graph(5))) == 4


@pytest.mark.parametrize("CG,zc", [
    (sp.path_with_matching(40), 1),
    (sp.cycle_with_matching(24), 2),
    (sp.corona(sp.complete_graph(11)), 10),
])
def test_known_zc_above_order_20(CG, zc):
    blue = sp.zc_minimum_set(CG)
    assert len(blue) == zc
    assert sp.coupled_closure(CG, blue) == frozenset(range(1, CG.graph.order + 1))
