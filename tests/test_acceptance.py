"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import itertools
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

import spisep as sp
from spisep.zero_forcing import _closure, _to_mask


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL: {desc}")
        raise
    print(f"[criterion {num:02d}] PASS: {desc}")


def _random_connected_graph(rng, n, extra_prob):
    order = list(rng.permutation(n) + 1)
    edges = [tuple(sorted((order[i], order[i + 1]))) for i in range(n - 1)]
    edges += [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if rng.uniform() < extra_prob
    ]
    return sp.LabeledGraph.from_edges(n, edges)


def test_criterion_01_path_relabeling_spectra():
    with criterion(1, "two labelings of the 4-path give {1.902, 1.176} and {3.078, 0.727}"):
        N = np.array([[2.0, 0, 1, 1], [0, 2, 1, 0], [1, 1, 2, 0], [1, 0, 0, 2]])
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(), [1.176, 1.902], atol=1e-3
        )
        M = sp.relabel(N, (2, 4, 3, 1))
        assert np.array_equal(
            M, np.array([[2.0, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
        )
        np.testing.assert_allclose(
            sp.symplectic_spectrum(M).as_array(), [0.727, 3.078], atol=1e-3
        )


def test_criterion_02_paw_witness():
    with criterion(2, "paw witness is symplectic PD to 1e-10 and has the SSSP (both tests)"):
        N = np.array([[3.0, -1, 1, 1], [-1, 1, 0, 0], [1, 0, 1, 1], [1, 0, 1, 2]])
        minors = [np.linalg.det(N[:k, :k]) for k in range(1, 5)]
        np.testing.assert_allclose(minors, [3, 2, 1, 1], atol=1e-12)
        om = sp.omega(2)
        assert np.max(np.abs(om @ N @ om @ N + np.eye(4))) <= 1e-10
        assert sp.has_sssp_rank(N)
        flag, _ = sp.has_sssp_nullspace(N)
        assert flag


def test_criterion_03_cycle_witness():
    with criterion(3, "4-cycle witness squares to -2I and has spectrum {sqrt2, sqrt2}"):
        N = np.array([[2.0, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, -1], [1, 0, -1, 2]])
        om = sp.omega(2)
        assert np.max(np.abs(om @ N @ om @ N + 2 * np.eye(4))) <= 1e-10
        spec = sp.symplectic_spectrum(N)
        np.testing.assert_allclose(spec.as_array(), np.sqrt(2), atol=1e-12)
        assert spec.clusters[0][1] == 2


def test_criterion_04_path6_witness():
    with criterion(4, "6-path witness: spectrum {1, 1, sqrt(209/400)}, SSSP, char poly"):
        N = np.array(
            [
                [1, 1 / 2, 0, 0, 0, 0],
                [1 / 2, 5 / 4, 1 / 2, 0, 0, 0],
                [0, 1 / 2, 24 / 25, 1 / 10, 0, 0],
                [0, 0, 1 / 10, 1, -1 / 2, 0],
                [0, 0, 0, -1 / 2, 5 / 4, -1 / 2],
                [0, 0, 0, 0, -1 / 2, 1],
            ]
        )
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(),
            [np.sqrt(209.0 / 400.0), 1.0, 1.0],
            atol=1e-10,
        )
        assert sp.has_sssp_rank(N) and sp.has_sssp_nullspace(N)[0]
        coeffs = np.poly(sp.omega(3) @ N)
        want = np.polymul(np.polymul([1, 0, 209 / 400], [1, 0, 1]), [1, 0, 1])
        np.testing.assert_allclose(coeffs, want, atol=1e-9)


def _verification_grid(N):
    n11, n12, n13, n14 = N[0, 0], N[0, 1], N[0, 2], N[0, 3]
    n22, n23, n24 = N[1, 1], N[1, 2], N[1, 3]
    n33, n34, n44 = N[2, 2], N[2, 3], N[3, 3]
    return np.array(
        [
            [0, 0, 0, 4 * n13, 0, 2 * n14, 2 * n11, 0, 0, 2 * n12],
            [0, 0, 0, 2 * n23, 2 * n14, n13 + n24, n12, n12, n11, n22],
            [0, 0, 0, 0, 4 * n24, 2 * n23, 0, 2 * n22, 2 * n12, 0],
            [2 * n11, 0, n12, 2 * n33, 0, n34, 0, 0, -n14, n23],
            [2 * n12, 0, n22, 0, 2 * n34, n33, -n23, n23, n13 - n24, 0],
            [4 * n13, 0, 2 * n23, 0, 0, 0, -2 * n33, 0, -2 * n34, 0],
            [0, 2 * n12, n11, 2 * n34, 0, n44, n14, -n14, 0, -n13 + n24],
            [0, 2 * n22, n12, 0, 2 * n44, n34, 0, 0, n14, -n23],
            [2 * n14, 2 * n23, n13 + n24, 0, 0, 0, -n34, -n34, -n44, -n33],
            [0, 4 * n24, 2 * n14, 0, 0, 0, 0, -2 * n44, 0, -2 * n34],
        ]
    )


def test_criterion_05_verification_matrix_formulas():
    with criterion(5, "verification matrix matches the symbolic 10x10 grid on 200 inputs"):
        rng = np.random.default_rng(50)
        for _ in range(200):
            N = sp.random_symmetric(4, rng) * rng.uniform(0.1, 10.0)
            err = np.max(
                np.abs(sp.verification_matrix(N).full - _verification_grid(N))
            )
            assert err <= 1e-12


def test_criterion_06_liberation_example():
    with criterion(6, "6x6 split example: SSSP fails, holds in the printed direction"):
        A = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
        B = np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 2]])
        N = np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), B]])
        np.testing.assert_allclose(
            sp.symplectic_spectrum(N).as_array(), [np.sqrt(2), 2, 2], atol=1e-10
        )
        flag, Y = sp.has_sssp_nullspace(N)
        assert not flag and Y is not None
        assert np.max(np.abs(N * Y)) == 0
        om = sp.omega(3)
        assert (
            np.max(np.abs(om @ N @ Y - Y @ N @ om))
            <= 1e-8 * np.max(np.abs(N)) * np.max(np.abs(Y))
        )
        assert not sp.has_sssp_rank(N)
        M = np.array(
            [
                [0.0, 0, 0, 0, 5, 4],
                [0, 0, 0, 5, 5, 2],
                [0, 0, 0, 4, 2, 0],
                [4, -3, 0, 0, 0, 0],
                [-3, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
            ]
        ) / 3.0
        R = sp.tangent_element(N, M)
        want = np.zeros((6, 6))
        want[0, 5] = want[5, 0] = want[2, 3] = want[3, 2] = 1.0
        np.testing.assert_allclose(R, want, atol=1e-12)
        assert sp.has_sssp_in_direction(N, R)
        assert sp.direction_graph(sp.graph_of_matrix(N), R) == sp.cycle_graph(6)


def test_criterion_07_diagonal_lemma_suite():
    with criterion(7, "500 random diagonal matrices: spectrum and SSSP verdicts"):
        rng = np.random.default_rng(70)
        for _ in range(500):
            p = int(rng.integers(2, 6))
            d = rng.uniform(0.2, 4.0, p)
            e = rng.uniform(0.2, 4.0, p)
            make_repeat = rng.uniform() < 0.5
            if make_repeat:
                i, j = rng.choice(p, size=2, replace=False)
                e[j] = d[i] * e[i] / d[j]
            else:
                prods = np.sort(d * e)
                while np.min(np.diff(prods)) < 1e-2:
                    d = rng.uniform(0.2, 4.0, p)
                    e = rng.uniform(0.2, 4.0, p)
                    prods = np.sort(d * e)
            N = np.diag(np.concatenate([d, e]))
            np.testing.assert_allclose(
                sp.symplectic_spectrum(N).as_array(),
                np.sort(np.sqrt(d * e)),
                rtol=1e-12,
            )
            flag, _ = sp.has_sssp_nullspace(N)
            assert flag == (not make_repeat)
            assert sp.has_sssp_rank(N) == flag


def test_criterion_08_cross_oracle():
    with criterion(8, "rank and nullspace SSSP tests agree on 1000 random patterned inputs"):
        rng = np.random.default_rng(80)
        seen = {True: 0, False: 0}
        for _ in range(1000):
            n = int(rng.choice([4, 6, 8, 10]))
            prob = rng.uniform(0.1, 0.9)
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.uniform() < prob
            ]
            G = sp.LabeledGraph.from_edges(n, edges)
            N = sp.random_pd_with_graph(G, rng)
            a = sp.has_sssp_rank(N)
            b, _ = sp.has_sssp_nullspace(N)
            assert a == b
            seen[b] += 1
        assert seen[True] > 0 and seen[False] > 0


def test_criterion_09_sparsity_bounds():
    with criterion(9, "inverse-pair bound on 200 random irreducible PD; tight tripaths"):
        rng = np.random.default_rng(90)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            G = _random_connected_graph(rng, n, rng.uniform(0.0, 0.4))
            M = sp.random_pd_with_graph(G, rng)
            rep = sp.sparsity_audit(M)
            assert rep.irreducible
            assert rep.nnz + rep.nnz_inverse >= 8 * n - 8
        for p in range(2, 9):
            N = sp.shear_square(sp.path_shear_block(p))
            rep = sp.sparsity_audit(N)
            assert rep.nnz == 4 * (2 * p) - 4
            assert rep.symplectic_pd and rep.single_bound_holds


def test_criterion_10_realization_suite():
    with criterion(10, "shear realizations hit random targets on tripath and K_{p,p}"):
        rng = np.random.default_rng(100)
        for p in range(2, 7):
            tripath = sp.triangular_path(2 * p).graph
            kpp = sp.complete_bipartite_matching(p).graph
            for trial in range(3):
                t = rng.uniform(0.3, 5.0, p)
                if trial == 1:  # force a repeated target
                    t[-1] = t[0]
                t = np.sort(t)
                N = sp.realize_shear(sp.path_shear_block(p), t)
                np.testing.assert_allclose(
                    sp.symplectic_spectrum(N).as_array(), t, atol=1e-8
                )
                assert sp.graph_of_matrix(N) == tripath
                N2 = sp.realize_shear(sp.householder_all_nonzero(p), t)
                np.testing.assert_allclose(
                    sp.symplectic_spectrum(N2).as_array(), t, atol=1e-8
                )
                assert sp.graph_of_matrix(N2) == kpp


def _brute_zc_is_one(G, coupling):
    n = G.order
    masks = [0] * n
    for i, j in G.edges:
        masks[i - 1] |= 1 << (j - 1)
        masks[j - 1] |= 1 << (i - 1)
    for a, b in coupling.pairs:
        masks[a - 1] |= 1 << (b - 1)
        masks[b - 1] |= 1 << (a - 1)
    full = (1 << n) - 1
    return any(_closure(masks, n, 1 << v, full) == full for v in range(n))


def test_criterion_11_zero_forcing():
    with criterion(11, "forcing numbers of families; structural ZC=1 on all small trees"):
        for p in range(1, 7):
            assert sp.zc_number(sp.path_with_matching(2 * p)) == 1
            if p >= 2:
                assert sp.zc_number(sp.cycle_with_matching(2 * p)) == 2
        for p in range(1, 5):
            CG = sp.CoupledGraph(sp.complete_graph(2 * p), sp.split_coupling(2 * p))
            assert sp.zc_number(CG) == 2 * p - 1

        # every nonisomorphic tree on <= 10 vertices, every coupling
        for n in (2, 4, 6, 8, 10):
            couplings = sp.enumerate_couplings(n)
            for T in nx.nonisomorphic_trees(n):
                G = sp.LabeledGraph.from_edges(
                    n, [(u + 1, v + 1) for u, v in T.edges()]
                )
                for c in couplings:
                    CG = sp.CoupledGraph(G, c)
                    assert sp.zc_equals_one(CG) == _brute_zc_is_one(G, c)

        # the internal brute force agrees with the public api on a slice
        rng = np.random.default_rng(110)
        for _ in range(30):
            n = int(rng.choice([4, 6, 8]))
            T = nx.random_labeled_tree(n, seed=int(rng.integers(1 << 31)))
            G = sp.LabeledGraph.from_edges(n, [(u + 1, v + 1) for u, v in T.edges()])
            couplings = sp.enumerate_couplings(n)
            c = couplings[int(rng.integers(len(couplings)))]
            CG = sp.CoupledGraph(G, c)
            assert _brute_zc_is_one(G, c) == (sp.zc_number(CG) == 1)

        # degree sandwich on 500 random graphs
        for _ in range(500):
            n = int(rng.integers(3, 9))
            prob = rng.uniform(0.15, 0.9)
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.uniform() < prob
            ]
            G = sp.LabeledGraph.from_edges(n, edges)
            zl = sp.loop_zf_number(G)
            z = sp.standard_zf_number(G)
            assert G.min_degree() <= zl <= z


def test_criterion_12_corona_realizations():
    with criterion(12, "corona families attain their multiplicity patterns; bound holds"):
        rng = np.random.default_rng(120)
        zc_cache = {}

        def zc_of(kind, p):
            if (kind, p) not in zc_cache:
                H = {"path": sp.path_graph, "cycle": sp.cycle_graph,
                     "complete": sp.complete_graph}[kind](p)
                zc_cache[(kind, p)] = (sp.corona(H), sp.zc_number(sp.corona(H)))
            return zc_cache[(kind, p)]

        # paths: every distinct spectrum, all multiplicities one, bound 1 tight
        for p in range(2, 7):
            CG, zc = zc_of("path", p)
            assert zc == 1
            nus = np.sort(rng.uniform(0.3, 3.0, p))
            while np.min(np.diff(nus)) < 0.05:
                nus = np.sort(rng.uniform(0.3, 3.0, p))
            A = sp.jacobi_from_spectrum(nus**2 + 1.0)
            N = sp.corona_realize(A, np.ones(p), np.ones(p))
            spec = sp.symplectic_spectrum(N)
            np.testing.assert_allclose(spec.as_array(), nus, atol=1e-8)
            assert spec.max_multiplicity == 1 == zc

        # complete graphs: multiplicity p-1 attained, equal to the bound
        for p in range(2, 7):
            CG, zc = zc_of("complete", p)
            assert zc == p - 1
            lo, hi = 2.0, 5.0
            A = lo * np.eye(p) + (hi - lo) / p * np.ones((p, p))
            N = sp.corona_realize(A, np.ones(p), np.ones(p))
            spec = sp.symplectic_spectrum(N)
            assert spec.max_multiplicity == max(p - 1, 1)
            assert spec.max_multiplicity <= zc

        # cycles: multiplicity-two patterns attained, bound 2 tight
        for p in range(3, 7):
            CG, zc = zc_of("cycle", p)
            assert zc == 2
            adj = sp.cycle_graph(p).adjacency()
            A = 4.0 * np.eye(p) + 0.5 * adj
            N = sp.corona_realize(A, np.ones(p), np.ones(p))
            spec = sp.symplectic_spectrum(N)
            assert spec.max_multiplicity == 2 == zc

        # 1000 random corona matrices never violate the bound
        kinds = ["path", "cycle", "complete"]
        for _ in range(1000):
            kind = kinds[int(rng.integers(3))]
            p = int(rng.integers(3, 7))
            H = {"path": sp.path_graph, "cycle": sp.cycle_graph,
                 "complete": sp.complete_graph}[kind](p)
            A = np.zeros((p, p))
            for i, j in H.edges:
                w = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
                A[i - 1, j - 1] = A[j - 1, i - 1] = w
            A += np.diag(rng.uniform(0.5, 1.5, p))
            D = rng.uniform(0.5, 2.0, p)
            E = rng.uniform(0.2, 1.0, p) * rng.choice([-1.0, 1.0], p)
            rd = np.sqrt(D)
            core_min = np.linalg.eigvalsh(rd[:, None] * A * rd[None, :] - np.diag(E**2))[0]
            if core_min <= 1e-6:
                A += (abs(core_min) + rng.uniform(0.1, 1.0)) * np.diag(1.0 / D)
            N = sp.corona_realize(A, D, E)
            _, zc = zc_of(kind, p)
            assert sp.symplectic_spectrum(N).max_multiplicity <= zc


def _min_scalar_distance(pattern, count, rng):
    # min over random PD N with the pattern of the max-norm distance of
    # (Omega N)^2 from the nearest scalar matrix
    om = sp.omega(pattern.order // 2)
    sq = np.array([om @ N @ om @ N for N in
                   (sp.random_pd_with_graph(pattern, rng) for _ in range(count))])
    off = np.abs(sq * (1.0 - np.eye(pattern.order))).max(axis=(1, 2))
    diag = np.diagonal(sq, axis1=1, axis2=2)
    return float(np.maximum(off, 0.5 * (diag.max(axis=1) - diag.min(axis=1))).min())


def test_criterion_13_order4_catalogue():
    with criterion(13, "order-4 catalogue: 33 machine-checked verdicts"):
        rng = np.random.default_rng(13)
        entries = sp.build_order4_catalogue(seed=13)
        assert len(entries) == 33
        assert all(e.ok for e in entries)
        verdicts = {(e.graph, e.coupling_id): e.verdict for e in entries}
        A, S, W = "spectrally_arbitrary", "simple_only", "arbitrary_with_SSSP_witness"
        expected = {
            "K4": (W, W, W),
            "K4-e": (W, W, W),
            "C4": (W, W, W),
            "paw": (S, W, W),
            "P4": (S, S, S),
            "K1,3": (S, S, S),
            "2K2": (A, A, A),
            "K1+K3": (S, S, S),
            "K1+P3": (S, S, S),
            "2K1+K2": (S, A, S),
            "4K1": (A, A, A),
        }
        for name, (v1, v2, v3) in expected.items():
            assert verdicts[(name, 1)] == v1, name
            assert verdicts[(name, 2)] == v2, name
            assert verdicts[(name, 3)] == v3, name
        for e in entries:
            if e.verdict in (A, W):
                assert e.checks["witness_pattern"]
                assert e.checks["witness_symplectic_pd"]
                assert e.checks["witness_inverse_identity"]
            if e.verdict == W:
                assert e.checks["witness_sssp_rank"] and e.checks["witness_sssp_nullspace"]
            if e.verdict == S:
                assert e.checks["forced_nonscalar_entry"]
                # beside the proof, (Omega N)^2 stays away from every scalar
                # matrix on 1000 random PD matrices with the pattern
                assert _min_scalar_distance(e.pattern, 1000, rng) > 1e-6


def test_criterion_14_all_patterns_realize_distinct_targets():
    with criterion(14, "diagonal seed + continuation realizes distinct targets on random patterns"):
        rng = np.random.default_rng(140)
        for n in (2, 4, 6, 8, 10):
            p = n // 2
            patterns = [sp.empty_graph(n), sp.complete_graph(n)]
            for _ in range(3):
                prob = rng.uniform(0.15, 0.85)
                edges = [
                    (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                    if rng.uniform() < prob
                ]
                patterns.append(sp.LabeledGraph.from_edges(n, edges))
            for G in patterns:
                target = np.sort(rng.uniform(0.5, 3.0, p))
                while p > 1 and np.min(np.diff(target)) < 0.1:
                    target = np.sort(rng.uniform(0.5, 3.0, p))
                N = sp.continuation_realize(G, target, rng=rng)
                assert sp.graph_of_matrix(N) == G
                np.testing.assert_allclose(
                    sp.symplectic_spectrum(N).as_array(), target, atol=1e-6
                )
