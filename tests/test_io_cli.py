import json
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.io

import spisep as sp
from spisep import catalogue
from spisep import cli
from spisep import zero_forcing as zf
from spisep.cli import _CONSTRUCT_BUILDERS, main
from spisep.io import ParseError, load_graph, load_matrix, save_graph, save_matrix


def test_matrix_json_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    N = sp.random_pd(6, rng) * np.pi
    path = tmp_path / "m.json"
    save_matrix(str(path), N)
    M = load_matrix(str(path))
    assert np.array_equal(M, N)
    save_matrix(str(path), M)
    assert np.array_equal(load_matrix(str(path)), N)


def test_matrix_market_round_trip(tmp_path):
    N = sp.shear_square(sp.path_shear_block(4))
    path = tmp_path / "m.mtx"
    save_matrix(str(path), N)
    M = load_matrix(str(path))
    assert np.array_equal(M, N)


@pytest.mark.parametrize("name", ["m.mm", "M.MTX"])
def test_matrix_market_writes_exactly_the_path_it_is_given(tmp_path, name):
    # mmwrite given a name appends .mtx unless it ends in .mtx, so these two
    # once landed in m.mm.mtx and M.MTX.mtx
    N = sp.random_pd(6, np.random.default_rng(1)) * np.pi
    path = tmp_path / name
    save_matrix(str(path), N)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    assert path.read_text().startswith("%%MatrixMarket")
    assert np.array_equal(load_matrix(str(path)), N)


def test_complex_matrix_market_is_refused(tmp_path, capsys):
    # once loaded as 2I with only a ComplexWarning, and spectrum exited 0
    path = str(tmp_path / "h.mtx")
    scipy.io.mmwrite(path, np.array([[2, 1j], [-1j, 2]]), field="complex")
    with pytest.raises(ParseError, match="complex"):
        load_matrix(path)
    assert main(["spectrum", path]) == 2
    assert "complex" in capsys.readouterr().err


def test_load_matrix_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ParseError):
        load_matrix(str(bad))
    bad.write_text(json.dumps({"order": 3, "entries": [[1, 0], [0, 1]]}))
    with pytest.raises(ParseError):
        load_matrix(str(bad))
    with pytest.raises(ParseError):
        load_matrix(str(tmp_path / "missing.json"))


def test_integral_floats_in_files_are_read_as_integers(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"order": 4.0, "edges": [[1, 2.0], [2, 3], [3, 4]], '
                    '"coupling": [[1.0, 2], [3, 4]]}')
    assert load_graph(str(path)) == (sp.path_graph(4), sp.matching_coupling(4))
    path.write_text('{"order": 2.0, "entries": [[2, 0], [0, 2]]}')
    assert np.array_equal(load_matrix(str(path)), 2 * np.eye(2))


def test_load_matrix_symmetrizes_within_the_symmetric_block_rule(tmp_path):
    # an asymmetry within 1e-10 max(1, max |N|) is rounding, and the symmetric part is read
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"order": 2, "entries": [[2.0, 5.0], [5.0 + 4e-10, 3.0]]}))
    assert np.array_equal(load_matrix(str(path)), [[2.0, 5.0 + 2e-10], [5.0 + 2e-10, 3.0]])
    path.write_text(json.dumps({"order": 2, "entries": [[2.0, 5.0], [5.0 + 6e-10, 3.0]]}))
    with pytest.raises(ParseError, match="block must be symmetric"):
        load_matrix(str(path))


def test_graph_round_trip(tmp_path):
    G = sp.triangular_path(8).graph
    coupling = sp.split_coupling(8)
    path = tmp_path / "g.json"
    save_graph(str(path), G, coupling)
    G2, c2 = load_graph(str(path))
    assert G2 == G and c2 == coupling
    save_graph(str(path), G)
    G3, c3 = load_graph(str(path))
    assert G3 == G and c3 is None


def _write_matrix(tmp_path, name, N):
    path = tmp_path / name
    save_matrix(str(path), np.asarray(N, dtype=float))
    return str(path)


def test_cli_spectrum(tmp_path, capsys):
    path = _write_matrix(
        tmp_path, "n.json", [[2, 0, 1, 1], [0, 2, 1, 0], [1, 1, 2, 0], [1, 0, 0, 2]]
    )
    assert main(["spectrum", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["values"], [1.176, 1.902], atol=1e-3)
    assert report["tolerances"]["cluster_tol"] == 1e-6


def test_cli_spectrum_clusters(tmp_path, capsys):
    path = _write_matrix(tmp_path, "i.json", np.eye(6))
    assert main(["spectrum", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clusters"] == [[1.0, 3]]
    A = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
    B = np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 2]])
    path = _write_matrix(
        tmp_path, "split.json", np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), B]])
    )
    assert main(["spectrum", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (rep1, m1), (rep2, m2) = report["clusters"]
    assert (m1, m2) == (1, 2)
    assert abs(rep1 - np.sqrt(2)) < 1e-9 and abs(rep2 - 2.0) < 1e-9


def test_cli_sssp_verdicts_on_known_matrices(tmp_path, capsys):
    paw = _write_matrix(
        tmp_path, "paw.json", [[3, -1, 1, 1], [-1, 1, 0, 0], [1, 0, 1, 1], [1, 0, 1, 2]]
    )
    assert main(["sssp", paw, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sssp"] is True
    blocked = _write_matrix(
        tmp_path, "blocked.json", sp.shear_square(sp.path_shear_block(3))
    )
    assert main(["sssp", blocked, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sssp"] is False and report["witness"] is not None


def test_cli_tol_cluster_merges_close_values(tmp_path, capsys):
    path = _write_matrix(tmp_path, "close.json", np.diag([1.0, 1.001, 1.0, 1.001]))
    assert main(["spectrum", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["clusters"] == [[1.0, 1], [1.001, 1]]
    assert main(["spectrum", path, "--tol-cluster", "1e-2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [mult for _, mult in report["clusters"]] == [2]
    assert report["tolerances"]["cluster_tol"] == 1e-2


def test_cli_tol_zero_decides_structural_zeros(tmp_path, capsys):
    # entries of 1e-12 are zeros at the default scale-relative threshold, so the
    # pattern is empty and the double eigenvalue of I fails the SSSP; at
    # --tol-zero 0 they are edges, the pattern is complete and nothing is left to test
    N = np.eye(4) + 1e-12 * (np.ones((4, 4)) - np.eye(4))
    path = _write_matrix(tmp_path, "tiny.json", N)
    assert main(["sssp", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sssp"] is False
    assert np.count_nonzero(report["witness"]) > 0
    # the report shows the threshold the verdicts used, not a null
    assert report["tolerances"]["zero_tol"] == 1e-10 * np.max(np.abs(N))
    assert main(["sssp", path, "--tol-zero", "0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sssp"] is True and report["witness"] is None
    assert report["tolerances"]["zero_tol"] == 0.0


@pytest.mark.parametrize("argv", [
    ["zc", "g.json", "--seed", "1"],
    ["williamson", "N.json", "--tol-cluster", "1e-3"],
    ["construct", "tripath", "--size", "2", "--tol-cluster", "1e-3"],
    ["spectrum", "N.json", "--tol-rank", "1e-3"],
    ["catalogue-order4", "--samples", "60"],
    ["construct", "tripath", "--size", "2", "--format", "mtx"],
])
def test_cli_rejects_options_a_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_zc_caterpillar(tmp_path, capsys):
    edges = [(i, i + 1) for i in range(1, 15)] + [(5, 16), (12, 17), (13, 18)]
    cat = sp.LabeledGraph.from_edges(18, edges)
    matching = sp.tree_perfect_matching(cat)
    gpath = tmp_path / "cat.json"
    save_graph(str(gpath), cat, matching)
    assert main(["zc", str(gpath), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zc"] == 1 and report["zc_equals_one_structural"] is True


def test_cli_exit_codes(tmp_path, capsys):
    odd = _write_matrix(tmp_path, "odd.json", np.eye(3))
    assert main(["spectrum", odd]) == 3
    capsys.readouterr()
    not_pd = _write_matrix(tmp_path, "npd.json", np.diag([1.0, 1.0, -1.0, 1.0]))
    assert main(["spectrum", not_pd]) == 3
    capsys.readouterr()
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{{{")
    assert main(["spectrum", str(garbage)]) == 2
    capsys.readouterr()
    assert main(["spectrum", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["sssp", "N.json", "--direction", "R.json"], "R must match the order of N"),
    (["catalogue-order4", "--seed", "-1"], "seed must be nonnegative"),
    (["catalogue-order4", "--seed", "-2"], "seed must be nonnegative"),
    # tolerances no decision can use; each once exited 0 with a wrong answer:
    # SSSP true for I4, three distinct values in one cluster, a double 1 split
    # in two, 0 nonzeros
    (["sssp", "I4.json", "--tol-rank", "nan"], "rank_tol must lie in [0, 1)"),
    (["sssp", "I4.json", "--tol-rank", "-1"], "rank_tol must lie in [0, 1)"),
    (["sssp", "I4.json", "--tol-zero", "nan"], "zero_tol must be nonnegative and finite"),
    (["spectrum", "N.json", "--tol-cluster", "nan"], "cluster_tol must be nonnegative and finite"),
    (["spectrum", "I4.json", "--tol-cluster", "-1"], "cluster_tol must be nonnegative and finite"),
    (["audit-sparsity", "N.json", "--tol-zero", "nan"], "zero_tol must be nonnegative and finite"),
    (["audit-sparsity", "N.json", "--tol-zero", "-1"], "zero_tol must be nonnegative and finite"),
])
def test_cli_violated_preconditions_exit_3(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_matrix("N.json", sp.random_pd(6, np.random.default_rng(0)))
    save_matrix("R.json", np.eye(4))
    save_matrix("I4.json", np.eye(4))
    assert main(argv) == 3
    assert message in capsys.readouterr().err


_REJECTED_FILES = {
    "order_only.json": '{"order": 2}',
    "truncated.mtx": "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n",
    "wide.mtx": "%%MatrixMarket matrix array real general\n2 3\n" + "1\n" * 6,
    # [[2, 5], [-5, 3]], whose symmetric part diag(2, 3) was once read in its place
    "skew.json": '{"order": 2, "entries": [[2, 5], [-5, 3]]}',
    "skew.mtx": "%%MatrixMarket matrix array real general\n2 2\n2\n-5\n5\n3\n",
    "garbage.json": "{",
    "no_order.json": '{"edges": [[1, 2]]}',
    "loop.json": '{"order": 2, "edges": [[1, 1]]}',
    "repeated.json": '{"order": 4, "edges": [], "coupling": [[1, 1], [2, 3]]}',
    "uncovered.json": '{"order": 6, "edges": [], "coupling": [[1, 2], [3, 4]]}',
    # each once ran as the order-4 path or 4 x 4 matrix it was truncated to
    "fractional.json": '{"order": 4.9, "edges": [[1.5, 2], [2, 3.99], [3, 4]], '
                       '"coupling": [[1, 2.7], [3, 4]]}',
    "fractional_edge.json": '{"order": 4, "edges": [[1.5, 2], [2, 3], [3, 4]]}',
    "fractional_pair.json": '{"order": 4, "edges": [[1, 2]], "coupling": [[1, 2.7], [3, 4]]}',
    "boolean_order.json": '{"order": true, "edges": []}',
    "half_order.json": '{"order": 4.5, "entries": [[2, 0, 0, 0], [0, 2, 0, 0], '
                       '[0, 0, 2, 0], [0, 0, 0, 2]]}',
}


@pytest.mark.parametrize("argv, code, message", [
    (["construct", "tripath", "--size", "2", "--targets", "a,b"], 2, "bad targets"),
    (["construct", "tripath", "--size", "2", "--targets", ","], 3, "--targets is empty"),
    (["construct", "tripath", "--size", "0"], 3, "--size must be a positive integer"),
    (["construct", "tripath", "--size", "3", "--targets", "1,2"], 3, "must equal --size"),
    # with the two oracles made to disagree
    (["sssp", "I4.json"], 4, "SSSP tests disagree"),
    (["spectrum", "order_only.json"], 2, "expected fields 'order' and 'entries'"),
    (["spectrum", "truncated.mtx"], 2, "bad Matrix Market file"),
    (["spectrum", "wide.mtx"], 2, "expected a square matrix"),
    (["zc", "garbage.json"], 2, "bad graph file"),
    (["zc", "no_order.json"], 2, "expected fields 'order' and 'edges'"),
    (["zc", "loop.json"], 2, "loops are not allowed"),
    (["zc", "repeated.json"], 2, "coupling: vertex 1 is paired with itself"),
    (["zc", "uncovered.json"], 2, "coupling does not cover 1..6"),
    # each once exited 0: spectrum reported sqrt 6 and sssp true
    *[([cmd, name], 2, "block must be symmetric")
      for cmd in ("spectrum", "sssp") for name in ("skew.json", "skew.mtx")],
    (["zc", "fractional.json"], 2, "expected an integer, got 4.9"),
    (["zc", "fractional_edge.json"], 2, "expected an integer, got 1.5"),
    (["zc", "fractional_pair.json"], 2, "bad coupling: expected an integer, got 2.7"),
    (["zc", "boolean_order.json"], 2, "expected an integer, got True"),
    (["spectrum", "half_order.json"], 2, "expected an integer, got 4.5"),
])
def test_cli_rejects_bad_inputs(argv, code, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _REJECTED_FILES.items():
        (tmp_path / name).write_text(text)
    save_matrix("I4.json", np.eye(4))
    has_sssp_rank = cli.has_sssp_rank
    monkeypatch.setattr(cli, "has_sssp_rank", lambda *a, **k: not has_sssp_rank(*a, **k))
    assert main(argv) == code
    assert message in capsys.readouterr().err
    if argv[1] in _REJECTED_FILES:
        with pytest.raises(ParseError, match=message):
            (load_graph if argv[0] == "zc" else load_matrix)(argv[1])


@pytest.mark.parametrize("command, kernel", [
    ("williamson", "williamson"), ("spectrum", "symplectic_spectrum"),
])
def test_cli_numerical_failure_exits_4(tmp_path, capsys, monkeypatch, command, kernel):
    # LinAlgError subclasses ValueError, yet it is a numerical failure, not a precondition
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Williamson reconstruction residual too large")

    monkeypatch.setattr(cli, kernel, fail)
    path = _write_matrix(tmp_path, "n.json", np.eye(4))
    assert main([command, path]) == 4
    assert "residual too large" in capsys.readouterr().err


def test_cli_williamson(tmp_path, capsys):
    path = _write_matrix(tmp_path, "n.json", sp.random_pd(6, np.random.default_rng(1)))
    assert main(["williamson", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residuals"]["diagonalization"] < 1e-10
    assert report["residuals"]["symplectic"] < 1e-10
    assert len(report["symplectic_eigenvalues"]) == 3


def test_cli_sssp_with_witness_and_direction(tmp_path, capsys):
    A = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
    B = np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 2]])
    N = np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), B]])
    R = np.zeros((6, 6))
    R[0, 5] = R[5, 0] = R[2, 3] = R[3, 2] = 1.0
    npath = _write_matrix(tmp_path, "n.json", N)
    rpath = _write_matrix(tmp_path, "r.json", R)
    assert main(["sssp", npath, "--direction", rpath, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sssp"] is False
    assert report["rank_test"] is False and report["nullspace_test"] is False
    W = np.array(report["witness"])
    assert np.max(np.abs(N * W)) == 0
    assert report["direction"]["sssp_in_direction"] is True
    assert report["direction"]["enlarged_pattern_edges"] == [
        [1, 2], [1, 6], [2, 3], [3, 4], [4, 5], [5, 6]
    ]


def test_cli_sssp_direction_reports_the_pattern_its_verdict_used(tmp_path, capsys):
    N = sp.shear_square(sp.path_shear_block(3))
    rng = np.random.default_rng(0)
    R = sp.tangent_element(N, sum(rng.standard_normal() * M for M in sp.sp_basis(3)))
    off = np.abs(R[np.triu_indices(6, 1)])
    # just above R's smallest off-diagonal entry, which sits on a non-edge of N
    tol_zero = 1.01 * float(off.min())
    assert off.min() < tol_zero < np.sort(off)[1]
    npath = _write_matrix(tmp_path, "n.json", N)
    rpath = _write_matrix(tmp_path, "r.json", R)
    assert main(["sssp", npath, "--direction", rpath, "--tol-zero", str(tol_zero), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["direction"]["sssp_in_direction"] is True
    # the verdict cuts R at its own default tolerance, so every pair is an edge
    assert report["direction"]["enlarged_pattern_edges"] == [
        [i, j] for i in range(1, 7) for j in range(i + 1, 7)
    ]


def test_cli_construct_join_matches_shear_of_ones(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["construct", "join", "--size", "3", "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    N = load_matrix(out)
    J = np.ones((3, 3))
    assert np.array_equal(N, np.block([[np.eye(3), J], [J, 3 * J + np.eye(3)]]))
    assert np.allclose(report["spectrum"], 1.0)


def test_cli_construct_tripath_round_trips(tmp_path, capsys):
    out = str(tmp_path / "tp.json")
    assert (
        main(["construct", "tripath", "--size", "5", "--targets", "1,2,3,4,5",
              "--out", out, "--json"]) == 0
    )
    capsys.readouterr()
    assert main(["spectrum", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["values"], [1, 2, 3, 4, 5], atol=1e-8)


def test_cli_construct_dopico_johnson_is_symplectic_pd(tmp_path, capsys):
    out = str(tmp_path / "dj.json")
    assert main(["construct", "dopico-johnson", "--size", "3", "--seed", "4",
                 "--out", out, "--json"]) == 0
    capsys.readouterr()
    assert sp.is_symplectic_pd(load_matrix(out))


def test_cli_construct_dopico_johnson_rejects_targets(capsys):
    argv = ["construct", "dopico-johnson", "--size", "2", "--targets", "2,3", "--json"]
    assert main(argv) == 3
    assert "--targets" in capsys.readouterr().err


@pytest.mark.parametrize("targets", ["1,inf", "1,nan", "1,-2"])
def test_cli_construct_rejects_targets_that_are_not_positive_and_finite(targets, capsys):
    assert main(["construct", "tripath", "--size", "2", "--targets", targets, "--json"]) == 3
    assert "targets must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, targets",
    [(f, None) for f in _CONSTRUCT_BUILDERS]
    # dopico-johnson builds symplectic matrices only and rejects targets
    + [(f, [0.5, 1.5, 2.0]) for f in _CONSTRUCT_BUILDERS if f != "dopico-johnson"],
)
def test_cli_construct_every_family(family, targets, capsys):
    argv = ["construct", family, "--size", "3", "--json"]
    if targets:
        argv += ["--targets", ",".join(map(str, targets))]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["spectrum"], targets or [1.0] * 3, rtol=1e-8)
    assert "tolerances" not in report


def test_cli_seed_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # --seed is the one setter of the seed; an environment variable named like it is ignored
    def construct(seed, name):
        out = str(tmp_path / name)
        assert main(["construct", "dopico-johnson", "--size", "2", "--seed", str(seed),
                     "--out", out, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["seed"], load_matrix(out)

    monkeypatch.setenv("SPISEP_SEED", "99")
    seed, with_env = construct(1, "a.json")
    assert seed == 1
    monkeypatch.delenv("SPISEP_SEED")
    assert np.array_equal(construct(1, "b.json")[1], with_env)
    seed, first = construct(99, "c.json")
    assert seed == 99 and np.array_equal(construct(99, "d.json")[1], first)
    assert not np.array_equal(first, with_env)


def test_cli_zc(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    save_graph(str(gpath), sp.path_graph(6), sp.matching_coupling(6))
    assert main(["zc", str(gpath), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zc"] == 1
    assert report["minimum_set"] == [1]
    assert "loop_zf_of_closure_graph" not in report
    assert report["zc_equals_one_structural"] is True
    save_graph(str(gpath), sp.cycle_graph(6), sp.matching_coupling(6))
    assert main(["zc", str(gpath), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zc"] == 2
    save_graph(str(gpath), sp.path_graph(6))
    assert main(["zc", str(gpath)]) == 3
    capsys.readouterr()


def test_cli_zc_above_order_20(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    CG = sp.path_with_matching(22)
    save_graph(str(gpath), CG.graph, CG.coupling)
    assert main(["zc", str(gpath), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["zc"] == 1
    # the search stores two closed sets on this graph
    monkeypatch.setattr(zf, "_CLOSED_SET_BUDGET", 1)
    assert main(["zc", str(gpath), "--json"]) == 3
    assert "budget of 1" in capsys.readouterr().err


def test_cli_zc_on_a_disconnected_pattern(tmp_path, capsys):
    # the empty graph with the split coupling is 20 components of one pair each
    gpath = tmp_path / "g.json"
    save_graph(str(gpath), sp.empty_graph(40), sp.split_coupling(40))
    start = time.perf_counter()
    assert main(["zc", str(gpath), "--json"]) == 0
    assert time.perf_counter() - start < 0.5
    report = json.loads(capsys.readouterr().out)
    assert report["zc"] == len(report["minimum_set"]) == 20
    # one vertex of each pair {i, i + 20}
    assert sorted((v - 1) % 20 for v in report["minimum_set"]) == list(range(20))
    assert report["zc_equals_one_structural"] is False


def test_cli_audit_sparsity(tmp_path, capsys):
    path = _write_matrix(tmp_path, "tp.json", sp.shear_square(sp.path_shear_block(5)))
    assert main(["audit-sparsity", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nnz"] == 36 and report["single_bound_holds"] is True
    assert not report["violation"]


def test_cli_audit_sparsity_reports_both_thresholds(tmp_path, capsys):
    N = 1e3 * np.eye(4)
    N[0, 1] = N[1, 0] = 1e-3
    path = _write_matrix(tmp_path, "n.json", N)
    assert main(["audit-sparsity", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nnz_inverse"] == 6
    assert report["tolerances"] == {"zero_tol": pytest.approx(1e-7),
                                    "zero_tol_inverse": pytest.approx(1e-13)}
    assert main(["audit-sparsity", path, "--tol-zero", "1e-7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nnz_inverse"] == 4
    assert report["tolerances"] == {"zero_tol": 1e-7, "zero_tol_inverse": 1e-7}


def test_cli_catalogue_small_sample(capsys):
    assert main(["catalogue-order4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_checks_pass"] is True
    assert len(report["entries"]) == 33
    assert "evidence_samples" not in report
    verdicts = {(e["graph"], e["coupling_id"]): e["verdict"] for e in report["entries"]}
    assert verdicts[("paw", 1)] == "simple_only"
    assert verdicts[("paw", 2)] == "arbitrary_with_SSSP_witness"
    assert verdicts[("2K2", 3)] == "spectrally_arbitrary"


def test_cli_catalogue_exits_4_when_a_simple_only_proof_fails(capsys, monkeypatch):
    # every simple-only entry fails without its proof
    simple = {f"{e.graph}/{e.coupling_id}" for e in sp.build_order4_catalogue()
              if e.verdict == "simple_only"}
    monkeypatch.setattr(catalogue, "_forced_entry", lambda pattern: None)
    assert main(["catalogue-order4", "--json"]) == 4
    err = capsys.readouterr().err
    assert set(err.split("catalogue checks failed for: ")[1].strip().split(", ")) == simple


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spisep.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout and "catalogue-order4" in proc.stdout
