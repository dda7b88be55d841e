"""Command line front end.

Every subcommand prints a JSON report (pretty by default, compact with
--json); those of spectrum, sssp and audit-sparsity include the tolerances
they used.  Exit codes: 0 success, 2 unparseable input, 3 violated
precondition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalogue as cat
from .constructions import (
    dopico_johnson,
    householder_all_nonzero,
    random_pd,
    random_symmetric,
    random_smear,
    realize_shear,
    sparsity_audit,
)
from .core import (
    DEFAULT_CLUSTER_TOL,
    pattern_tol,
    symplectic_spectrum,
    williamson,
)
from .graphs import CoupledGraph, graph_of_matrix, path_shear_block
from .io import ParseError, load_graph, load_matrix, save_matrix
from .sssp import (
    DEFAULT_RANK_TOL,
    direction_graph,
    has_sssp_in_direction,
    has_sssp_nullspace,
    has_sssp_rank,
)
from .zero_forcing import zc_equals_one, zc_minimum_set

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class NumericalFailure(Exception):
    pass


def _emit(report: dict, compact: bool) -> None:
    if compact:
        print(json.dumps(report, separators=(",", ":")))
    else:
        print(json.dumps(report, indent=2))


def _parse_targets(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        vals = [float(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad targets {text!r}") from exc
    if not vals:
        raise ValueError("--targets is empty")
    return vals


def cmd_spectrum(args) -> dict:
    N = load_matrix(args.matrix)
    spec = symplectic_spectrum(N, cluster_tol=args.tol_cluster)
    return {
        "command": "spectrum",
        "order": N.shape[0],
        "values": list(spec.values),
        "clusters": [[rep, mult] for rep, mult in spec.clusters],
        "tolerances": {"cluster_tol": spec.cluster_tol},
    }


def cmd_williamson(args) -> dict:
    N = load_matrix(args.matrix)
    pair = williamson(N)
    return {
        "command": "williamson",
        "order": N.shape[0],
        "symplectic_eigenvalues": list(pair.d),
        "S": pair.S.tolist(),
        "residuals": {"diagonalization": pair.diagonalization_residual,
                      "symplectic": pair.symplectic_residual},
    }


def cmd_sssp(args) -> dict:
    N = load_matrix(args.matrix)
    zero_tol = pattern_tol(N) if args.tol_zero is None else args.tol_zero
    rank_verdict = has_sssp_rank(N, rank_tol=args.tol_rank, zero_tol=zero_tol)
    null_verdict, witness = has_sssp_nullspace(N, rank_tol=args.tol_rank, zero_tol=zero_tol)
    if rank_verdict != null_verdict:
        raise NumericalFailure(
            f"SSSP tests disagree: rank test {rank_verdict}, nullspace test {null_verdict}"
        )
    report = {
        "command": "sssp",
        "order": N.shape[0],
        "sssp": null_verdict,
        "rank_test": rank_verdict,
        "nullspace_test": null_verdict,
        "witness": None if witness is None else witness.tolist(),
        "tolerances": {"rank_tol": args.tol_rank, "zero_tol": zero_tol},
    }
    if args.direction:
        R = load_matrix(args.direction)
        verdict = has_sssp_in_direction(N, R, rank_tol=args.tol_rank, zero_tol=zero_tol)
        enlarged = direction_graph(graph_of_matrix(N, zero_tol=zero_tol), R)
        report["direction"] = {
            "sssp_in_direction": verdict,
            "enlarged_pattern_edges": sorted(list(e) for e in enlarged.edges),
        }
    return report


def _shear_family(block):
    return lambda p, targets, seed: realize_shear(block(p), targets or [1.0] * p)


def _smear_family(mode):
    return lambda p, targets, seed: random_smear(targets or [1.0] * p, seed=seed, mode=mode)


def _random_dopico_johnson(p, targets, seed):
    if targets:
        raise ValueError("dopico-johnson builds symplectic matrices only; it takes no --targets")
    rng = np.random.default_rng(seed)
    return dopico_johnson(random_pd(p, rng), random_symmetric(p, rng))


# family name -> builder(p, targets, seed); also the argparse choices
_CONSTRUCT_BUILDERS = {
    "tripath": _shear_family(path_shear_block),
    "complete-bipartite": _shear_family(householder_all_nonzero),
    "join": _shear_family(lambda p: np.ones((p, p))),
    "dopico-johnson": _random_dopico_johnson,
    "smear-two-cliques": _smear_family("two_cliques"),
    "smear-complete": _smear_family("complete"),
}


def cmd_construct(args) -> dict:
    seed = args.seed
    targets = _parse_targets(args.targets)
    p = args.size
    if p < 1:
        raise ValueError("--size must be a positive integer")
    if targets and len(targets) != p:
        raise ValueError("number of targets must equal --size")
    N = _CONSTRUCT_BUILDERS[args.family](p, targets, seed)
    if args.out:
        save_matrix(args.out, N)
    return {
        "command": "construct",
        "family": args.family,
        "size": p,
        "targets": targets,
        "seed": seed,
        "out": args.out,
        "order": N.shape[0],
        "spectrum": list(symplectic_spectrum(N).values),
        "entries": None if args.out else N.tolist(),
    }


def cmd_zc(args) -> dict:
    G, coupling = load_graph(args.graph)
    if coupling is None:
        raise ValueError("graph file must carry a coupling for coupled zero forcing")
    CG = CoupledGraph(G, coupling)
    blue = zc_minimum_set(CG)
    return {
        "command": "zc",
        "order": G.order,
        "zc": len(blue),
        "minimum_set": sorted(blue),
        "zc_equals_one_structural": zc_equals_one(CG),
    }


def cmd_catalogue(args) -> dict:
    seed = args.seed
    entries = cat.build_order4_catalogue(seed=seed)
    failures = [f"{e.graph}/{e.coupling_id}" for e in entries if not e.ok]
    report = {
        "command": "catalogue-order4",
        "seed": seed,
        "entries": cat.catalogue_as_dicts(entries),
        "all_checks_pass": not failures,
    }
    if failures:
        raise NumericalFailure(f"catalogue checks failed for: {', '.join(failures)}")
    return report


def cmd_audit_sparsity(args) -> dict:
    N = load_matrix(args.matrix)
    rep = sparsity_audit(N, zero_tol=args.tol_zero)
    return {
        "command": "audit-sparsity",
        "order": rep.order,
        "nnz": rep.nnz,
        "nnz_inverse": rep.nnz_inverse,
        "irreducible": rep.irreducible,
        "pair_bound": rep.pair_bound,
        "pair_bound_holds": rep.pair_bound_holds,
        "symplectic_pd": rep.symplectic_pd,
        "single_bound": rep.single_bound,
        "single_bound_holds": rep.single_bound_holds,
        "violation": rep.violation,
        "tolerances": {"zero_tol": rep.zero_tol, "zero_tol_inverse": rep.zero_tol_inverse},
    }


# option -> add_argument keywords; each subcommand names the ones it reads
_OPTIONS = {
    "--tol-cluster": dict(type=float, default=DEFAULT_CLUSTER_TOL,
                          help="relative width bound of a multiplicity cluster"),
    "--tol-rank": dict(type=float, default=DEFAULT_RANK_TOL,
                       help="relative singular value threshold for rank decisions"),
    "--tol-zero": dict(type=float, default=None,
                       help="absolute threshold for structural zeros (default: scale-relative)"),
    "--seed": dict(type=int, default=0,
                   help="seed for randomized constructions"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spisep",
        description="Symplectic spectra of positive definite matrices with a given labeled graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *options):
        cmd = sub.add_parser(name, help=summary)
        for opt in options:
            cmd.add_argument(opt, **_OPTIONS[opt])
        cmd.add_argument("--json", action="store_true", help="compact single-line JSON output")
        cmd.set_defaults(func=func)
        return cmd

    command("spectrum", cmd_spectrum, "symplectic eigenvalues of a matrix",
            "--tol-cluster").add_argument("matrix")
    command("williamson", cmd_williamson, "Williamson normal form").add_argument("matrix")

    ss = command("sssp", cmd_sssp, "strong symplectic spectral property verdicts",
                 "--tol-rank", "--tol-zero")
    ss.add_argument("matrix")
    ss.add_argument("--direction", help="tangent direction matrix file")

    co = command("construct", cmd_construct, "build a realization matrix", "--seed")
    co.add_argument("family", choices=_CONSTRUCT_BUILDERS)
    co.add_argument("--size", type=int, required=True, help="block size p (matrix order 2p)")
    co.add_argument("--targets", help="comma separated positive target spectrum")
    co.add_argument("--out", help="output matrix file (.mtx or .mm: Matrix Market, else JSON)")

    zc = command("zc", cmd_zc, "coupled zero forcing number")
    zc.add_argument("graph", help="graph JSON file with a coupling")

    command("catalogue-order4", cmd_catalogue,
            "full order-4 classification with machine-checked verdicts", "--seed")

    command("audit-sparsity", cmd_audit_sparsity,
            "nonzero counts against the sparsity lower bounds", "--tol-zero").add_argument("matrix")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # LinAlgError subclasses ValueError, so numerical failures are caught first
    except (NumericalFailure, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # NotPositiveDefiniteError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, compact=args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
