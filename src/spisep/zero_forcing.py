"""Coupled, loop, and standard zero forcing numbers by exact search.

The color change processes run on ``LabeledGraph._masks``, the graph's own
bitmask adjacency; minimum forcing sets are found by the Wavefront search of
Butler et al. (Sage Minimum Rank Library), a cheapest-first search over
closed blue sets, adapted here to the self-forcing rule of the loop and
coupled processes, and bounded by the cheapest full forcing set it has found
so far.  No force crosses a component of the graph, so each component of the
graph layer's flood fill, :func:`spisep.graphs._components`, is searched
alone with every other vertex blue, and the sizes add up; an isolated
vertex, which no rule can force, is a component of cost 1.  Within one
component's search each closure is computed once.  The search is exact; its
cost and memory grow with the closed sets it stores, so it raises ValueError
when one component's search stores more than 2**20 of them.  They are
distinct vertex subsets, so no component of order 20 or less reaches that
budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import _as_int, symplectic_spectrum
from .graphs import (
    CoupledGraph,
    LabeledGraph,
    _components,
    _to_set,
    coupling_closure_graph,
    graph_of_matrix,
    is_caterpillar,
    split_coupling,
)

_CLOSED_SET_BUDGET = 2**20

_log = logging.getLogger(__name__)


def _rule(G: LabeledGraph, *, self_forcing: bool = True) -> tuple[tuple[int, ...], int, int]:
    """``(masks, n, self_ok)`` of a forcing rule on G, as bitmasks.

    The relevant set of v is N(v), so ``masks`` is G's own adjacency; the
    coupled rule is the loop rule on the coupling closure graph.  A vertex
    with an empty relevant set can never be forced; every other vertex may
    force itself when ``self_forcing`` holds (the loop and coupled rules).
    """
    masks = G._masks
    live = sum(1 << v for v, m in enumerate(masks) if m)
    return masks, G.order, live if self_forcing else 0


def _closure(masks: tuple[int, ...], n: int, blue: int, self_ok: int) -> int:
    """Fixed point of the color change rules on bitmasks.

    Rule 1: a blue v forces the unique white vertex of its relevant set.
    Rule 2: a white v with fully blue relevant set forces itself, where
    allowed by ``self_ok``.  A forced vertex whose relevant set has one white
    vertex left forces it at once, so a forcing chain is followed to its end
    in one pass whatever the vertex order; the fixed point does not depend
    on the order of forces.  The passes keep the white set, not the blue one,
    so a relevant set's white part is one ``&`` and a force clears one bit.
    """
    full = (1 << n) - 1
    white = full ^ blue
    changed = True
    while changed and white:
        changed = False
        bit = 1
        for m in masks:
            left = m & white
            if not white & bit:
                while left and not left & (left - 1):
                    white ^= left
                    left = masks[left.bit_length() - 1] & white
                    changed = True
            elif not left and self_ok & bit:
                white ^= bit
                changed = True
            bit <<= 1
    return full ^ white


def _to_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _min_forcing_set(masks: tuple[int, ...], n: int, self_ok: int) -> tuple[int, int]:
    """``(size, blue mask)`` of a minimum forcing set: each component's, added up."""
    size = witness = 0
    for comp in _components(masks, n):
        k, bought = _min_component_set(masks, n, self_ok, comp)
        size, witness = size + k, witness | bought
    return size, witness


def _min_component_set(masks: tuple[int, ...], n: int, self_ok: int, comp: int) -> tuple[int, int]:
    """Minimum forcing set of one component by the Wavefront search over
    closed blue sets, with every vertex outside ``comp`` blue.

    From a closed set S, the step at vertex v buys every white vertex of
    ``T_v = {v} | R(v)`` but one, and that one is forced for free: by v if v
    is blue or bought, or by v itself under the self-forcing rule (allowed
    by ``self_ok``).  A white v whose relevant set is already blue and which
    may not self-force is simply bought.  Every step costs at least one
    vertex, so expanding closed sets in order of cost (Dijkstra with integer
    buckets) reaches the full set first at the minimum size; each closed set
    keeps the smallest ``(cost, bought mask)`` that reaches it, with the
    highest white vertex of ``T_v`` taken as the free one.  The search is
    bounded by ``(top, top_mask)``, the cost and bought mask of the cheapest
    full set stored so far: a step above ``top`` is skipped before its
    closure, and so is a step at ``top`` whose mask is not below
    ``top_mask``; any other step at ``top`` is stored only when it closes to
    the full set.  This changes no output: the loop returns at a cost of at
    most ``top``, so it never expands a set stored at ``top`` or above, and
    only a full set at ``top`` that wins the tie-break against ``top_mask``
    could still be stored.  A step buys every white vertex of ``T_v`` but at
    most one, so one with more than ``top - cost + 1`` white vertices costs
    more than ``top``; it is skipped as soon as its white vertices are known,
    before its free and bought vertices are formed.  The ``top`` test would
    skip it too, so this bound changes nothing but the work.  Distinct steps
    often reach the same ``S | T_v``; its closure is kept in a memo of at
    most ``_CLOSED_SET_BUDGET`` entries.  Each search logs one DEBUG record
    of the component's order, the size found, the closed sets stored and the
    closures computed.  Returns ``(size, bought mask)``, the mask inside
    ``comp``.
    """
    full = (1 << n) - 1
    verts = [v for v in range(n) if comp >> v & 1]
    start = _closure(masks, n, full ^ comp, self_ok)
    best = {start: (0, 0)}
    memo: dict[int, int] = {}
    buckets: list[set[int]] = [set() for _ in range(len(verts) + 1)]
    buckets[0].add(start)
    top, top_mask = best.get(full, (n + 1, 0))
    cost = 0
    # B = V always forces, so some step reaches the full set by cost len(verts)
    while top != cost:
        for S in buckets[cost]:
            c, witness = best[S]
            if c != cost:
                continue
            white = full ^ S
            for v in verts:
                bit = 1 << v
                add = (masks[v] | bit) & white
                if not 0 < add.bit_count() <= top - cost + 1:
                    continue
                free = 1 << (add.bit_length() - 1)
                if free == bit and not self_ok & bit:
                    rest = add ^ bit
                    free = 1 << (rest.bit_length() - 1) if rest else 0
                bought = add ^ free
                step = cost + bought.bit_count()
                if step > top or step == top and witness | bought >= top_mask:
                    continue
                U = S | add
                T = memo.get(U)
                if T is None:
                    T = _closure(masks, n, U, self_ok)
                    if len(memo) < _CLOSED_SET_BUDGET:
                        memo[U] = T
                entry = (step, witness | bought)
                if (step < top or T == full) and entry < best.get(T, (n + 1, 0)):
                    best[T] = entry
                    buckets[step].add(T)
                    if T == full:
                        top, top_mask = entry
                    if len(best) > _CLOSED_SET_BUDGET:
                        raise ValueError(f"the forcing search stored {len(best)} closed sets "
                                         f"of one component, over its budget of "
                                         f"{_CLOSED_SET_BUDGET}")
        cost += 1
    _log.debug("forcing search: component of order %d, size %d, %d closed sets stored, "
               "%d closures computed", len(verts), top, len(best), len(memo))
    return top, top_mask


def _close(rule, blue) -> frozenset[int]:
    masks, n, self_ok = rule
    vertices = [_as_int(v) for v in blue]
    for v in vertices:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
    return _to_set(_closure(masks, n, _to_mask(vertices), self_ok))


def coupled_closure(CG: CoupledGraph, blue) -> frozenset[int]:
    """Fixed point of the coupled color change rules from an initial blue set.

    The relevant set of v is N(v) together with its coupled partner; the
    final coloring does not depend on the order of forces.
    """
    return _close(_rule(coupling_closure_graph(CG)), blue)


def loop_closure(G: LabeledGraph, blue) -> frozenset[int]:
    """Loop zero forcing closure: white vertices with all-blue neighborhoods
    self-force, except isolated ones."""
    return _close(_rule(G), blue)


def standard_closure(G: LabeledGraph, blue) -> frozenset[int]:
    """Standard zero forcing closure (no self-forcing rule)."""
    return _close(_rule(G, self_forcing=False), blue)


def zc_minimum_set(CG: CoupledGraph) -> frozenset[int]:
    """A minimum coupled zero forcing set of the coupled graph."""
    return _to_set(_min_forcing_set(*_rule(coupling_closure_graph(CG)))[1])


def zc_number(CG: CoupledGraph) -> int:
    """Minimum size of a coupled zero forcing set.

    Equals the loop zero forcing number of the graph closed up by the
    coupling edges.
    """
    return len(zc_minimum_set(CG))


def loop_zf_number(G: LabeledGraph) -> int:
    """Minimum size of a loop zero forcing set of G."""
    return _min_forcing_set(*_rule(G))[0]


def standard_zf_number(G: LabeledGraph) -> int:
    """Minimum size of a standard zero forcing set of G."""
    return _min_forcing_set(*_rule(G, self_forcing=False))[0]


def zc_equals_one(CG: CoupledGraph) -> bool:
    """Structural test for coupled zero forcing number one.

    Holds iff the coupling closure graph is a caterpillar (it always contains
    a perfect matching, namely the coupling).  For connected G this says G is
    a caterpillar with a perfect matching whose coupling is defined by it.
    """
    return is_caterpillar(coupling_closure_graph(CG))


@dataclass(frozen=True)
class MultiplicityBoundReport:
    """Comparison of the attained symplectic multiplicity against the forcing bound."""

    spectrum: tuple[float, ...]
    max_multiplicity: int
    zc: int

    @property
    def holds(self) -> bool:
        return self.max_multiplicity <= self.zc


def msp_upper_bound(N) -> MultiplicityBoundReport:
    """Check max symplectic multiplicity of N against the coupled forcing number.

    N's own labels fix its coupled class: its labeled graph with the split
    coupling {i, i+p}.  Every representative labeling of a coupled graph is
    an isomorphism onto such a class, and zc is an isomorphism invariant; the
    maximum multiplicity of any symplectic eigenvalue of a matrix in the
    class is at most zc.
    """
    spec = symplectic_spectrum(N)
    return MultiplicityBoundReport(
        spectrum=spec.values,
        max_multiplicity=spec.max_multiplicity,
        zc=zc_number(CoupledGraph(graph_of_matrix(N), split_coupling(2 * spec.p))),
    )
