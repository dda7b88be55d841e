"""Complete classification of symplectic spectra for the eleven graphs of order four.

For order four (p = 2) there are only two multiplicity cases, so classifying
a coupled graph reduces to whether some positive definite matrix with a
representative pattern is symplectic: if yes, the class realizes every pair
of positive reals (scale the witness for equal pairs, perturb for distinct
ones); if no, only distinct pairs occur.

Every verdict is machine-checked when the catalogue is built: "arbitrary"
verdicts carry a symplectic PD witness with the exact pattern (plus an SSSP
certificate where claimed), and "simple only" verdicts, the pairs without a
witness, carry a proof: an off-diagonal entry of (Omega N)^2 that is a single
product of structural nonzeros, so (Omega N)^2 is never scalar.  Randomized
evidence that (Omega N)^2 stays far from every scalar matrix is kept beside
the proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import (
    _random_pd_stack,
    dopico_johnson,
    random_smear,
    shear_square,
)
from .core import (
    basic_symplectic,
    is_symplectic_pd,
    monomial_relabel,
    omega,
    symplectic_pd_inverse_identity,
)
from .graphs import (
    Coupling,
    CoupledGraph,
    LabeledGraph,
    apply_labeling,
    enumerate_couplings,
    graph_of_matrix,
    representative_labelings,
)
from .sssp import direct_sum_interleave, has_sssp_nullspace, has_sssp_rank

ARBITRARY = "spectrally_arbitrary"
ARBITRARY_SSSP = "arbitrary_with_SSSP_witness"
SIMPLE_ONLY = "simple_only"

EVIDENCE_THRESHOLD = 1e-6

#: The eleven graphs of order four, on vertex names 1..4.
ORDER4_GRAPHS: dict[str, LabeledGraph] = {
    "K4": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "K4-e": LabeledGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "C4": LabeledGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)]),
    "paw": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4), (3, 4)]),
    "P4": LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    "K1,3": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),
    "2K2": LabeledGraph.from_edges(4, [(1, 3), (2, 4)]),
    "K1+K3": LabeledGraph.from_edges(4, [(2, 3), (2, 4), (3, 4)]),
    "K1+P3": LabeledGraph.from_edges(4, [(2, 3), (3, 4)]),
    "2K1+K2": LabeledGraph.from_edges(4, [(2, 4)]),
    "4K1": LabeledGraph.from_edges(4, []),
}

#: The three couplings of four vertex names.
ORDER4_COUPLINGS: dict[int, Coupling] = dict(enumerate(enumerate_couplings(4), 1))


@dataclass
class CatalogueEntry:
    graph: str
    coupling_id: int
    coupling: tuple[tuple[int, int], ...]
    labeling: tuple[int, ...]
    pattern: LabeledGraph
    verdict: str
    justification: str
    witness: np.ndarray | None = None
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(bool(v) for k, v in self.checks.items() if isinstance(v, (bool, np.bool_)))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _witness_paw() -> np.ndarray:
    # pendant vertex labeled 2; leading principal minors 3, 2, 1, 1
    return np.array(
        [[3.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 2.0]]
    )


def _witness_cycle4() -> np.ndarray:
    # cyclic labeling; (Omega N)^2 = -2 I, so N / sqrt(2) is symplectic PD
    N = np.array(
        [[2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, -1.0], [1.0, 0.0, -1.0, 2.0]]
    )
    return N / np.sqrt(2.0)


def _witness_bipartite_matching() -> np.ndarray:
    # shear by a dense symmetric orthogonal block: [[I, B], [B, 2I]]
    B = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return shear_square(B)


def _witness_diamond_offpair() -> np.ndarray:
    # zero forced at the (1,3) entry by choosing W with (N11 W)[0,0] = 0
    return dopico_johnson(
        np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([[1.0, -2.0], [-2.0, 1.0]])
    )


_PD_BLOCK = np.array([[2.0, 1.0], [1.0, 1.0]])


def _witness_two_edges_split() -> np.ndarray:
    # two coupled edges: one 2x2 positive definite block per label pair
    return direct_sum_interleave(_PD_BLOCK, _PD_BLOCK)


def _witness_two_edges_adjacent() -> np.ndarray:
    # both vertices of each edge in the same label pair: A plus inv(A)
    return basic_symplectic("block_diag", _PD_BLOCK)


def _witness_edge_plus_isolated() -> np.ndarray:
    return direct_sum_interleave(np.eye(2), _PD_BLOCK)


# ---------------------------------------------------------------------------
# randomized non-existence evidence
# ---------------------------------------------------------------------------

def scalar_distance(sq: np.ndarray) -> np.ndarray:
    """Max-norm distance of each matrix in a batch from the nearest scalar matrix."""
    n = sq.shape[-1]
    off = sq * (1.0 - np.eye(n))
    off_max = np.max(np.abs(off), axis=(-2, -1))
    diag = np.diagonal(sq, axis1=-2, axis2=-1)
    spread = 0.5 * (np.max(diag, axis=-1) - np.min(diag, axis=-1))
    return np.maximum(off_max, spread)


def _evidence_never_scalar(
    pattern: LabeledGraph, count: int, rng: np.random.Generator
) -> float:
    """Min over random PD samples of the distance of (Omega N)^2 from scalar matrices.

    A symplectic PD matrix with this pattern (after scaling) would make the
    distance zero, so a healthy margin across many samples is evidence that
    the pattern admits no equal symplectic eigenvalues.
    """
    om = omega(pattern.order // 2)
    batch = _random_pd_stack(pattern, count, rng)
    OmN = np.einsum("ij,bjk->bik", om, batch)
    sq = np.einsum("bij,bjk->bik", OmN, OmN)
    return float(np.min(scalar_distance(sq)))


# ---------------------------------------------------------------------------
# the verdict table
# ---------------------------------------------------------------------------

# (graph, coupling_id) -> (verdict, witness builder) for every pair with a
# symplectic PD witness; every other pair is simple only, proven by _forced_entry
_WITNESSES: dict[tuple[str, int], tuple[str, object]] = {
    ("K4", 1): (ARBITRARY_SSSP, "smear"),
    ("K4", 2): (ARBITRARY_SSSP, "smear"),
    ("K4", 3): (ARBITRARY_SSSP, "smear"),
    ("K4-e", 1): (ARBITRARY_SSSP, _witness_diamond_offpair),
    ("K4-e", 2): (ARBITRARY_SSSP, lambda: shear_square(np.ones((2, 2)))),
    ("K4-e", 3): (ARBITRARY_SSSP, lambda: shear_square(np.ones((2, 2)))),
    ("C4", 1): (ARBITRARY_SSSP, _witness_cycle4),
    ("C4", 2): (ARBITRARY_SSSP, _witness_bipartite_matching),
    ("C4", 3): (ARBITRARY_SSSP, _witness_bipartite_matching),
    ("paw", 2): (ARBITRARY_SSSP, _witness_paw),
    ("paw", 3): (ARBITRARY_SSSP, _witness_paw),
    ("2K2", 1): (ARBITRARY, _witness_two_edges_adjacent),
    ("2K2", 2): (ARBITRARY, _witness_two_edges_split),
    ("2K2", 3): (ARBITRARY, lambda: monomial_relabel(_witness_two_edges_adjacent(), (1, 4, 3, 2))),
    ("2K1+K2", 2): (ARBITRARY, _witness_edge_plus_isolated),
    ("4K1", 1): (ARBITRARY, lambda: np.eye(4)),
    ("4K1", 2): (ARBITRARY, lambda: np.eye(4)),
    ("4K1", 3): (ARBITRARY, lambda: np.eye(4)),
}


def _forced_entry(pattern: LabeledGraph) -> tuple[int, int] | None:
    """An off-diagonal entry (i, k) of (Omega N)^2 that is nonzero for every N
    with this pattern, or None.

    With A the pattern of N plus its diagonal (positive for a PD N), B = A
    with its two row blocks swapped is the pattern of Omega N, and
    (B @ B)[i, k] counts the products of structural nonzeros that make up
    (Omega N)^2 [i, k].  A count of one is a single product of nonzeros, so
    (Omega N)^2 is never scalar; since (Omega S)^2 = -I for symplectic S, no
    multiple of N is then symplectic.
    """
    off = ~np.eye(pattern.order, dtype=bool)
    B = np.roll(pattern.adjacency() + np.eye(pattern.order), pattern.order // 2, axis=0)
    single = np.argwhere((B @ B == 1) & off)
    return None if single.size == 0 else (int(single[0, 0]) + 1, int(single[0, 1]) + 1)


def _check_arbitrary(entry: CatalogueEntry, with_sssp: bool) -> None:
    N = entry.witness
    entry.checks["witness_pattern"] = N is not None and graph_of_matrix(N) == entry.pattern
    entry.checks["witness_symplectic_pd"] = is_symplectic_pd(N)
    entry.checks["witness_inverse_identity"] = symplectic_pd_inverse_identity(N)
    if with_sssp:
        rank_ok = has_sssp_rank(N)
        null_ok, _ = has_sssp_nullspace(N)
        entry.checks["witness_sssp_rank"] = rank_ok
        entry.checks["witness_sssp_nullspace"] = null_ok
        entry.checks["sssp_tests_agree"] = rank_ok == null_ok


def _check_simple(entry: CatalogueEntry, evidence_samples: int, rng) -> None:
    forced = _forced_entry(entry.pattern)
    entry.checks["forced_nonscalar_entry"] = forced is not None
    entry.justification = "no entry of (Omega N)^2 is forced nonzero" if forced is None else (
        f"the {forced} entry of (Omega N)^2 is a single product of structural nonzeros,"
        " so (Omega N)^2 is never scalar and no multiple of N is symplectic"
    )
    dist = _evidence_never_scalar(entry.pattern, evidence_samples, rng)
    entry.checks["evidence_min_scalar_distance"] = dist
    entry.checks["evidence_ok"] = dist > EVIDENCE_THRESHOLD


def build_order4_catalogue(seed: int = 0, evidence_samples: int = 1000) -> list[CatalogueEntry]:
    """Build and machine-check all 33 verdicts (11 graphs x 3 couplings)."""
    if evidence_samples < 1:
        raise ValueError(f"evidence_samples must be at least 1, got {evidence_samples}")
    rng = np.random.default_rng(seed)
    smear = random_smear([1.0, 1.0], seed=seed + 1, mode="complete")
    entries: list[CatalogueEntry] = []
    for name, G in ORDER4_GRAPHS.items():
        for cid, coupling in ORDER4_COUPLINGS.items():
            CG = CoupledGraph(G, coupling)
            # the first representative labeling sends the k-th pair to labels {k, k+p}
            labeling = representative_labelings(CG)[0]
            pattern = apply_labeling(CG, labeling)
            verdict, builder = _WITNESSES.get((name, cid), (SIMPLE_ONLY, None))
            witness = smear if builder == "smear" else builder() if builder else None
            entry = CatalogueEntry(
                graph=name,
                coupling_id=cid,
                coupling=coupling.pairs,
                labeling=labeling,
                pattern=pattern,
                verdict=verdict,
                justification="machine-verified symplectic PD witness",
                witness=witness,
            )
            if verdict == SIMPLE_ONLY:
                _check_simple(entry, evidence_samples, rng)
            else:
                _check_arbitrary(entry, with_sssp=(verdict == ARBITRARY_SSSP))
            entries.append(entry)
    return entries


def catalogue_as_dicts(entries: list[CatalogueEntry]) -> list[dict]:
    """JSON-ready view of the catalogue."""
    out = []
    for e in entries:
        out.append(
            {
                "graph": e.graph,
                "coupling_id": e.coupling_id,
                "coupling": [list(p) for p in e.coupling],
                "labeling": list(e.labeling),
                "pattern_edges": sorted(list(edge) for edge in e.pattern.edges),
                "verdict": e.verdict,
                "justification": e.justification,
                "witness": None if e.witness is None else [list(map(float, r)) for r in e.witness],
                "checks": {
                    k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                    for k, v in e.checks.items()
                },
                "all_checks_pass": e.ok,
            }
        )
    return out
