"""Labeled graphs, couplings, and the graph families used throughout.

Vertices of a :class:`LabeledGraph` are always 1..n.  A :class:`Coupling`
partitions 1..2p into p unordered pairs; a :class:`CoupledGraph` is a graph
on vertex *names* 1..2p together with a coupling of those names.  The names
are turned into matrix labels only by an explicit representative labeling.
Neighbourhoods, degrees, connectivity, caterpillars, tree matchings and the
forcing rules of :mod:`spisep.zero_forcing` read one cached bitmask
adjacency, ``LabeledGraph._masks``, and one flood fill finds components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _as_int, _check_permutation, _check_size, _nonzero, as_symmetric


def _norm_edge(e) -> tuple[int, int]:
    i, j = _as_int(e[0]), _as_int(e[1])
    if i == j:
        raise ValueError(f"loops are not allowed: ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _check_edges(order: int, edges) -> None:
    for i, j in edges:
        if not (1 <= i < j <= order):
            raise ValueError(f"edge ({i}, {j}) out of range 1..{order}")


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with vertex set {1, ..., order}."""

    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("graph order must be positive")
        _check_edges(self.order, self.edges)

    @classmethod
    def from_edges(cls, order: int, edges=()) -> "LabeledGraph":
        return cls(order=_as_int(order), edges=frozenset(_norm_edge(e) for e in edges))

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return _norm_edge((i, j)) in self.edges

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        # bit u - 1 of _masks[v - 1] is set iff {u, v} is an edge; built once
        # per instance and not a field, so equality and hashing still see
        # only order and edges
        masks = [0] * self.order
        for i, j in self.edges:
            masks[i - 1] |= 1 << (j - 1)
            masks[j - 1] |= 1 << (i - 1)
        return tuple(masks)

    def neighbors(self, v: int) -> frozenset[int]:
        return _to_set(self._masks[v - 1]) if v in range(1, self.order + 1) else frozenset()

    def degree(self, v: int) -> int:
        return self._masks[v - 1].bit_count() if v in range(1, self.order + 1) else 0

    def min_degree(self) -> int:
        return min(m.bit_count() for m in self._masks)

    def with_edges(self, extra) -> "LabeledGraph":
        # this graph's own edges were checked when it was made, so only the
        # added ones are checked here
        added = frozenset(map(_norm_edge, extra)) - self.edges
        _check_edges(self.order, added)
        union = object.__new__(LabeledGraph)
        object.__setattr__(union, "order", self.order)
        object.__setattr__(union, "edges", self.edges | added)
        return union

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.order, self.order))
        for i, j in self.edges:
            A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
        return A

    def relabeled(self, sigma) -> "LabeledGraph":
        """Apply a permutation of 1..n to the vertices (edge {i,j} -> {s(i),s(j)})."""
        sigma = _check_permutation(sigma)
        if len(sigma) != self.order:
            raise ValueError("sigma must be a permutation of 1..order")
        return LabeledGraph.from_edges(
            self.order, ((sigma[i - 1], sigma[j - 1]) for i, j in self.edges)
        )

    def is_connected(self) -> bool:
        return len(_components(self._masks, self.order)) == 1

    def is_tree(self) -> bool:
        return self.size == self.order - 1 and self.is_connected()


def _to_set(mask: int) -> frozenset[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def _components(masks: tuple[int, ...], n: int) -> list[int]:
    """Vertex masks of the components of the graph, by bitmask flood fill."""
    comps, left = [], (1 << n) - 1
    while left:
        comp = todo = left & -left
        while todo:
            v = todo.bit_length() - 1
            new = masks[v] & ~comp
            comp |= new
            todo ^= 1 << v | new
        comps.append(comp)
        left ^= comp
    return comps


def graph_of_matrix(N, zero_tol: float | None = None) -> LabeledGraph:
    """The labeled graph of a symmetric matrix: edge {i, j} iff |N[i,j]| > zero_tol.

    The default tolerance is relative to the largest entry; constructions
    produce exact zeros but congruences introduce noise.
    """
    N = as_symmetric(N)
    i, j = np.nonzero(np.triu(_nonzero(N, zero_tol), k=1))
    return LabeledGraph(N.shape[0], frozenset(zip((i + 1).tolist(), (j + 1).tolist())))


def complement(G: LabeledGraph) -> LabeledGraph:
    edges = [
        (i, j)
        for i in range(1, G.order + 1)
        for j in range(i + 1, G.order + 1)
        if (i, j) not in G.edges
    ]
    return LabeledGraph.from_edges(G.order, edges)


@dataclass(frozen=True)
class Coupling:
    """A partition of {1, ..., 2p} into p unordered pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.pairs:
            if a == b:
                raise ValueError(f"vertex {a} is paired with itself")
            if a > b:
                raise ValueError("coupling pairs must be stored as (low, high)")
            seen.update((a, b))
        n = 2 * len(self.pairs)
        if seen != set(range(1, n + 1)):
            raise ValueError("coupling must cover each vertex exactly once")

    @classmethod
    def from_pairs(cls, pairs) -> "Coupling":
        norm = sorted(tuple(sorted(map(_as_int, ab))) for ab in pairs)
        return cls(pairs=tuple((a, b) for a, b in norm))

    @property
    def p(self) -> int:
        return len(self.pairs)

    def partner(self, v: int) -> int:
        for a, b in self.pairs:
            if v == a:
                return b
            if v == b:
                return a
        raise KeyError(v)


def _half_order(n: int) -> int:
    # the number p of coupled pairs on n = 2p vertices, or ValueError
    if n < 0 or n % 2 != 0:
        raise ValueError(f"n must be even and nonnegative, got {n}")
    return n // 2


def matching_coupling(n: int) -> Coupling:
    """The coupling pairing consecutive vertices (1,2), (3,4), ..."""
    return Coupling.from_pairs((2 * k + 1, 2 * k + 2) for k in range(_half_order(n)))


def split_coupling(n: int) -> Coupling:
    """The coupling pairing i with i + p, the index pairing of the symplectic form."""
    p = _half_order(n)
    return Coupling.from_pairs((i, i + p) for i in range(1, p + 1))


@dataclass(frozen=True)
class CoupledGraph:
    """A graph on vertex names 1..2p together with a coupling of the names."""

    graph: LabeledGraph
    coupling: Coupling

    def __post_init__(self):
        if self.graph.order != 2 * self.coupling.p:
            raise ValueError("coupling must cover the vertex set of the graph")

    @property
    def p(self) -> int:
        return self.coupling.p


def coupling_closure_graph(CG: CoupledGraph) -> LabeledGraph:
    """The graph plus an edge between v and its coupled partner, if not present."""
    return CG.graph.with_edges(CG.coupling.pairs)


_ENUMERATION_GUARD = 12
_LABELING_GUARD = 5


def enumerate_couplings(n: int) -> list[Coupling]:
    """All (n-1)!! perfect pairings of {1..n}.  Guarded against blowup."""
    _half_order(n)
    if n > _ENUMERATION_GUARD:
        raise ValueError(f"n={n} exceeds the enumeration guard {_ENUMERATION_GUARD}")

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            tail = rest[1:k] + rest[k + 1 :]
            for more in rec(tail):
                yield ((a, b),) + more

    # rec yields (low, high) pairs sorted by their low ends, the stored form
    return [Coupling(ps) for ps in rec(tuple(range(1, n + 1)))]


def representative_labelings(CG: CoupledGraph) -> list[tuple[int, ...]]:
    """All 2^p * p! labelings that assign the label pair {k, k+p} to each coupled pair.

    Each labeling L is returned as a tuple with L[name - 1] = label.
    """
    p = CG.p
    if p > _LABELING_GUARD:
        raise ValueError(f"p={p} exceeds the enumeration guard {_LABELING_GUARD}")
    pairs = CG.coupling.pairs
    out = []
    for sigma in itertools.permutations(range(1, p + 1)):
        for flips in itertools.product((False, True), repeat=p):
            lab = [0] * (2 * p)
            for k, ((a, b), flip) in enumerate(zip(pairs, flips)):
                lo, hi = sigma[k], sigma[k] + p
                if flip:
                    lo, hi = hi, lo
                lab[a - 1] = lo
                lab[b - 1] = hi
            out.append(tuple(lab))
    return out


def apply_labeling(CG: CoupledGraph, labeling) -> LabeledGraph:
    """The labeled graph obtained by sending vertex name v to label labeling[v-1]."""
    return CG.graph.relabeled(labeling)


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, ())


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def path_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return path_graph(n).with_edges([(1, n)])


def star_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, ((1, j) for j in range(2, n + 1)))


def path_with_matching(n: int) -> CoupledGraph:
    """P_n in path order with the coupling defined by its perfect matching."""
    return CoupledGraph(path_graph(n), matching_coupling(n))


def cycle_with_matching(n: int) -> CoupledGraph:
    return CoupledGraph(cycle_graph(n), matching_coupling(n))


def complete_bipartite_matching(p: int) -> CoupledGraph:
    """K_{p,p} with partite sets {1..p}, {p+1..2p} and coupling (i, p+i)."""
    edges = [(i, p + j) for i in range(1, p + 1) for j in range(1, p + 1)]
    return CoupledGraph(LabeledGraph.from_edges(2 * p, edges), split_coupling(2 * p))


def join_empty_complete_matching(p: int) -> CoupledGraph:
    """The join of p isolated vertices {1..p} with K_p on {p+1..2p}, coupled (i, p+i)."""
    edges = [(i, p + j) for i in range(1, p + 1) for j in range(1, p + 1)]
    edges += [(p + i, p + j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    return CoupledGraph(LabeledGraph.from_edges(2 * p, edges), split_coupling(2 * p))


def path_shear_block(p: int) -> np.ndarray:
    """The p x p path adjacency matrix with its (1,1) entry set to one.

    Shearing by this block produces the triangular-path pattern below.
    """
    p = _check_size(p)
    B = np.zeros((p, p))
    for i in range(p - 1):
        B[i, i + 1] = B[i + 1, i] = 1.0
    B[0, 0] = 1.0
    return B


def triangular_path(n: int) -> CoupledGraph:
    """The standard labeled triangular path on n = 2p >= 4 vertices.

    A chain of p-1 triangles plus a leaf, with 3p-2 edges: the sparsest
    connected pattern carrying a symplectic positive definite matrix.  Edges
    follow the pattern of [[I, B], [B, I + B^2]] for the path shear block B:
    {i, p+j} iff B[i,j] != 0, and {p+i, p+j} iff columns i, j of B share a
    nonzero row.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("triangular paths need even order n >= 4")
    p = n // 2
    B = path_shear_block(p)
    edges = [(i + 1, p + j + 1) for i in range(p) for j in range(p) if B[i, j] != 0]
    B2 = B @ B
    edges += [
        (p + i + 1, p + j + 1) for i in range(p) for j in range(i + 1, p) if B2[i, j] != 0
    ]
    return CoupledGraph(LabeledGraph.from_edges(n, edges), split_coupling(n))


def corona(H: LabeledGraph) -> CoupledGraph:
    """H with a pendant leaf on every vertex, coupled leaf-to-neighbor.

    Leaves take labels 1..p and the copy of H lives on p+1..2p, so matrices
    with this pattern have the block form [[D, E], [E, A]] with D, E diagonal.
    """
    p = H.order
    edges = [(i, p + i) for i in range(1, p + 1)]
    edges += [(p + u, p + v) for u, v in H.edges]
    return CoupledGraph(LabeledGraph.from_edges(2 * p, edges), split_coupling(2 * p))


# ---------------------------------------------------------------------------
# caterpillars and tree matchings
# ---------------------------------------------------------------------------

def is_caterpillar(G: LabeledGraph) -> bool:
    """True iff G is a tree whose non-leaf vertices induce a path (possibly empty).

    Deleting the leaves of a tree leaves a subtree, which is a path exactly
    when no vertex in it (nor any leaf) has more than two neighbours in it.
    """
    if not G.is_tree():
        return False
    spine = sum(1 << v for v, m in enumerate(G._masks) if m & (m - 1))
    return all((m & spine).bit_count() <= 2 for m in G._masks)


def tree_perfect_matching(G: LabeledGraph) -> Coupling | None:
    """The unique perfect matching of a tree, or None if there is none.

    Peels leaves: a leaf must take its only neighbour, and removing the pair
    leaves a forest whose perfect matchings are the rest of the tree's.  A
    vertex left with no neighbour has no mate.  Raises on non-tree input.
    """
    if not G.is_tree():
        raise ValueError("input graph is not a tree")
    left, pairs = (1 << G.order) - 1, []
    while left:
        # a nonempty forest has a vertex with at most one neighbour
        v = next(v for v, m in enumerate(G._masks) if left >> v & 1 and (m & left).bit_count() <= 1)
        mate = G._masks[v] & left
        if not mate:
            return None
        left ^= 1 << v | mate
        pairs.append((v + 1, mate.bit_length()))
    return Coupling.from_pairs(pairs)
