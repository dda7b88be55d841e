"""The timing scripts under tools/ still run against the library they time."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import spisep as sp
from spisep import sssp

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def small_n():
    g = sp.LabeledGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)])
    return sp.random_pd_with_graph(g, np.random.default_rng(0))


def test_gram_crossover_times_both_gram_paths(monkeypatch, small_n):
    gram_crossover = _load("gram_crossover")
    monkeypatch.setattr(sssp, "_SPARSE_GRAM_ORDER", sssp._SPARSE_GRAM_ORDER)
    for f in (sssp.has_sssp_rank, sssp.has_sssp_nullspace):
        times = gram_crossover.median_ms(f, small_n, (100, 0), 1)
        assert len(times) == 2 and all(t >= 0.0 for t in times)
        assert gram_crossover.peak_mib(f, small_n, 0) > 0.0


def test_verification_sweep_routes_agree(small_n):
    verification_sweep = _load("verification_sweep")
    ref, _, _ = verification_sweep.measure(verification_sweep.basis_route, small_n, 1)
    got, _, ref_mb = verification_sweep.measure(verification_sweep.gathered, small_n, 1)
    assert np.array_equal(got, ref) and ref_mb >= 0.0


def test_continuation_corpus_counts_each_call():
    continuation_corpus = _load("continuation_corpus")
    # seed 3050 draws the pattern of the returned near-subgraph triple in ROADMAP
    G, target = continuation_corpus.case(3050, 0.2, 3)
    assert sorted(G.edges) == [(1, 4), (1, 5), (2, 6), (2, 7), (2, 8), (3, 4)]
    assert target[0] == target[1] == target[2] < target[3]
    williamson_columns = sssp._williamson_columns
    c = continuation_corpus.cell([3000, 3001], 0.35, 2)
    assert c["realized"] + c["failed"] == len(c["solves"]) == 2
    assert all(s >= 1 for s in c["solves"]) and len(c["failed_solves"]) == c["failed"]
    assert sssp._williamson_columns is williamson_columns
