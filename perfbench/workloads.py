"""The four workloads: inputs made from a seed, the timed calls, and their checks.

Import only after ``bootstrap.import_spisep``.  Every call into spisep goes
through ``caller.call(name, size, fn, ...)`` so that the traced run can put a
span around it; the untraced caller adds one Python call and nothing else.

Sweep k of a run gets input set k, made from (seed, k): every sweep sees
fresh inputs, so a cache keyed by input never hits across sweeps, yet every
sweep of a workload does the same amount of work.  The forcing and realize
ladders are the exceptions: their inputs are the same in every sweep and for
every seed (see ForcingLadder and RealizeLadder).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from spisep import catalogue, constructions, core, graphs, sssp, zero_forcing
from spisep.graphs import CoupledGraph, Coupling, LabeledGraph

import checks

DEFAULT_SEED = 0

# Coupled zero forcing numbers 1..5 over all 156 order-6 graphs x 15 couplings.
# They depend on the graphs only, never on the seed.
ATLAS6_ZC_HISTOGRAM = (41, 653, 1287, 339, 20)

# zc of the forcing-ladder rungs (n, density), in FORCING_RUNGS order; the
# same for every seed and sweep.  A search that returns a forcing set that is
# not minimum fails here.
FORCING_RUNGS = ((16, 0.3), (16, 0.6), (18, 0.3), (18, 0.6), (20, 0.3), (20, 0.6))
FORCING_PINS = (7, 10, 7, 11, 9, 13)

# Edge densities of the sssp-ladder and realize-ladder patterns.
SSSP_DENSITY = 0.3
REALIZE_DENSITY = 0.35


class Result(NamedTuple):
    latency_s: float
    out: object
    error: str | None


def timed_item(caller, fn, *args) -> Result:
    t0 = time.perf_counter()
    try:
        with caller.item():
            out = fn(caller, *args)
    except Exception as exc:  # one failed item must not end the run
        return Result(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    return Result(time.perf_counter() - t0, out, None)


def sweep(workload, inputs, caller, pace=None) -> list[Result]:
    """Run the sweep's items in order; ``pace`` gets each item's latency after it."""
    results = []
    for fn, args in workload.items(inputs):
        results.append(timed_item(caller, fn, *args))
        if pace is not None:
            pace(results[-1].latency_s)
    return results


# ---------------------------------------------------------------------------
# input generation (the benchmark's own, independent of spisep's samplers)
# ---------------------------------------------------------------------------

def random_pattern(n: int, density: float, rng: np.random.Generator) -> LabeledGraph:
    """A graph on 1..n with exactly round(density * n(n-1)/2) edges, uniformly chosen."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    return LabeledGraph.from_edges(n, (pairs[i] for i in sorted(chosen)))


def random_pd(G: LabeledGraph, rng: np.random.Generator) -> np.ndarray:
    """A PD matrix with pattern exactly G: edge weights +-[0.2, 1], diagonal shifted."""
    n = G.order
    W = np.zeros((n, n))
    for i, j in sorted(G.edges):
        W[i - 1, j - 1] = W[j - 1, i - 1] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    shift = max(0.0, -float(np.linalg.eigvalsh(W)[0])) + rng.uniform(0.5, 1.5)
    return W + shift * np.eye(n)


def distinct_targets(p: int, rng: np.random.Generator, gap: float = 1e-3) -> np.ndarray:
    while True:
        t = np.sort(rng.uniform(0.5, 3.0, size=p))
        if p == 1 or float(np.min(np.diff(t))) >= gap:
            return t


def perfect_matchings(vertices: tuple[int, ...]):
    if not vertices:
        yield ()
        return
    a, rest = vertices[0], vertices[1:]
    for i, b in enumerate(rest):
        for more in perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + more


def random_labeling(coupling: Coupling, rng: np.random.Generator) -> tuple[int, ...]:
    """A representative labeling: the k-th pair gets labels {s(k), s(k) + p} in random order."""
    p = coupling.p
    sigma = rng.permutation(p) + 1
    flips = rng.integers(0, 2, size=p)
    lab = [0] * (2 * p)
    for (a, b), s, flip in zip(coupling.pairs, sigma, flips):
        lo, hi = (int(s), int(s) + p) if not flip else (int(s) + p, int(s))
        lab[a - 1], lab[b - 1] = lo, hi
    return tuple(lab)


# ---------------------------------------------------------------------------
# atlas6
# ---------------------------------------------------------------------------

@dataclass
class AtlasInputs:
    items: list[tuple[CoupledGraph, tuple[int, ...]]]
    pd_seed: tuple[int, ...]


class AtlasOut(NamedTuple):
    pattern: LabeledGraph
    N: np.ndarray
    rank: bool
    null: bool
    witness: np.ndarray | None
    values: tuple[float, ...]
    S: np.ndarray
    d: tuple[float, ...]
    zset: frozenset[int]
    zc_one: bool


class Atlas6:
    name = "atlas6"
    why = (
        "2340 order-6 coupled graphs at p = 3: every layer runs through its per-call "
        "overhead, so a speed-up bought with per-call set-up shows here"
    )
    calibration = "small_numpy"

    def __init__(self, graph_limit: int | None = None):
        import networkx

        atlas = [g for g in networkx.graph_atlas_g() if g.number_of_nodes() == 6]
        self.graphs = [
            LabeledGraph.from_edges(6, [(u + 1, v + 1) for u, v in g.edges()])
            for g in atlas[:graph_limit]
        ]
        self.couplings = [Coupling.from_pairs(m) for m in perfect_matchings(tuple(range(1, 7)))]
        self.zc_histogram = ATLAS6_ZC_HISTOGRAM if graph_limit is None else None

    def inputs(self, seed: int, k: int) -> AtlasInputs:
        rng = np.random.default_rng([seed, k])
        items = [
            (CoupledGraph(G, c), random_labeling(c, rng))
            for G in self.graphs
            for c in self.couplings
        ]
        return AtlasInputs(items, (seed, k, 1))

    @staticmethod
    def item(caller, CG: CoupledGraph, labeling, rng) -> AtlasOut:
        c = caller.call
        P = c("graphs.apply_labeling", None, graphs.apply_labeling, CG, labeling)
        N = c("constructions.random_pd_with_graph", None,
              constructions.random_pd_with_graph, P, rng)
        rank = c("sssp.has_sssp_rank", CG.p, sssp.has_sssp_rank, N)
        null, witness = c("sssp.has_sssp_nullspace", CG.p, sssp.has_sssp_nullspace, N)
        spec = c("core.symplectic_spectrum", None, core.symplectic_spectrum, N)
        pair = c("core.williamson", None, core.williamson, N)
        zset = c("zero_forcing.zc_minimum_set", CG.graph.order, zero_forcing.zc_minimum_set, CG)
        one = c("zero_forcing.zc_equals_one", None, zero_forcing.zc_equals_one, CG)
        return AtlasOut(P, N, rank, null, witness, spec.values, pair.S, pair.d, zset, one)

    def items(self, inputs: AtlasInputs) -> list:
        """The sweep's items as (function, arguments); they share one generator, in order."""
        rng = np.random.default_rng(inputs.pd_seed)
        return [(self.item, (CG, lab, rng)) for CG, lab in inputs.items]

    def warm_up(self, inputs: AtlasInputs, caller) -> None:
        CG, lab = inputs.items[0]
        self.item(caller, CG, lab, np.random.default_rng(inputs.pd_seed))
        self.once(caller, seed=0)

    def once(self, caller, seed: int) -> list[str]:
        """The per-run part: the order-4 catalogue, checked entry by entry."""
        entries = caller.call(
            "catalogue.build_order4_catalogue", None, catalogue.build_order4_catalogue, seed=seed
        )
        bad = [f"{e.graph}/{e.coupling_id}" for e in entries if not e.ok]
        out = [f"catalogue has {len(entries)} entries, expected 33"] if len(entries) != 33 else []
        return out + ([f"catalogue entries fail: {', '.join(bad)}"] if bad else [])

    def check_item(self, inp, out: AtlasOut) -> list[str]:
        CG, lab = inp
        G = CG.graph
        want = {tuple(sorted((lab[i - 1], lab[j - 1]))) for i, j in G.edges}
        probs = [] if set(out.pattern.edges) == want else ["apply_labeling gave the wrong pattern"]
        if np.linalg.eigvalsh(out.N)[0] <= 0.0:
            probs.append("random_pd_with_graph gave a matrix that is not PD")
        probs += checks.pattern_problems(out.N, out.pattern.edges)
        probs += checks.sssp_problems(out.N, out.rank, out.null, out.witness)
        probs += checks.spectrum_problems(out.values, out.N)
        probs += checks.williamson_problems(out.N, out.S, out.d)
        probs += checks.forcing_set_problems(G.order, G.edges, CG.coupling.pairs, out.zset)
        if out.zc_one != (len(out.zset) == 1):
            probs.append(f"zc_equals_one is {out.zc_one} but zc = {len(out.zset)}")
        return probs

    def check(self, inputs: AtlasInputs, results: list[Result]):
        """Per-item problems, sweep-level problems, and ungated notes."""
        item_probs = [
            [r.error] if r.error else self.check_item(inp, r.out)
            for inp, r in zip(inputs.items, results)
        ]
        done = [r.out for r in results if r.error is None]
        hist = [0] * 5
        for o in done:
            if 1 <= len(o.zset) <= 5:
                hist[len(o.zset) - 1] += 1
        sweep_probs = []
        if self.zc_histogram is not None and tuple(hist) != self.zc_histogram:
            sweep_probs.append(f"zc histogram {hist} != pinned {list(self.zc_histogram)}")
        notes = {"zc_histogram": hist, "sssp_true": sum(o.null for o in done)}
        return item_probs, sweep_probs, notes


# ---------------------------------------------------------------------------
# ladders: one item is one rung
# ---------------------------------------------------------------------------

class Ladder:
    """A sweep runs one input at every rung; each rung is one item.

    ``make_rung`` gets two generators: ``shape_rng`` is the same for every
    seed and sweep, ``rng`` is the sweep's own.  The ladders whose cost swings
    with the input's shape (forcing, continuation) draw shapes from
    ``shape_rng``, so that all sweeps and seeds do the same amount of work.
    """

    name = ""
    why = ""
    calibration = ""  # the calibrate.UNITS entry most like the workload's own work

    def __init__(self, rungs):
        self.rungs = tuple(rungs)

    def make_rung(self, index: int, shape_rng, rng):
        raise NotImplementedError

    def run_rung(self, caller, rung):
        raise NotImplementedError

    def check_rung(self, rung, out) -> list[str]:
        raise NotImplementedError

    def notes(self, rungs, outs) -> dict:
        return {}

    def inputs(self, seed: int, k: int) -> list:
        shape_rng = np.random.default_rng([DEFAULT_SEED, 0])
        rng = np.random.default_rng([seed, k])
        return [self.make_rung(i, shape_rng, rng) for i in range(len(self.rungs))]

    def items(self, inputs) -> list:
        return [(self.run_rung, (rung,)) for rung in inputs]

    def warm_up(self, inputs, caller) -> None:
        self.run_rung(caller, inputs[0])

    def once(self, caller, seed: int) -> None:
        """Ladders have no once-per-run part."""

    def check(self, inputs, results: list[Result]):
        probs = [
            [r.error] if r.error else self.check_rung(rung, r.out)
            for rung, r in zip(inputs, results)
        ]
        if any(r.error for r in results):
            return probs, [], {}
        return probs, [], self.notes(inputs, [r.out for r in results])


class SsspLadder(Ladder):
    name = "sssp-ladder"
    why = (
        "both SSSP oracles on 30%-density PD matrices, p = 10..30: sssp does nearly all "
        "the work, and its basis cache and full SVD set the peak RSS"
    )
    calibration = "lapack"

    def __init__(self, sizes=(10, 20, 25, 30)):
        super().__init__(sizes)

    def make_rung(self, index, shape_rng, rng):
        p = self.rungs[index]
        return p, random_pd(random_pattern(2 * p, SSSP_DENSITY, rng), rng)

    def run_rung(self, caller, rung):
        p, N = rung
        rank = caller.call("sssp.has_sssp_rank", p, sssp.has_sssp_rank, N)
        return rank, caller.call("sssp.has_sssp_nullspace", p, sssp.has_sssp_nullspace, N)

    def check_rung(self, rung, out):
        rank, (null, witness) = out
        return checks.sssp_problems(rung[1], rank, null, witness)

    def notes(self, rungs, outs):
        return {"sssp_true": sum(null for _, (null, _) in outs)}


class ForcingLadder(Ladder):
    """The same graphs for every seed and sweep, so zc is pinned for all of
    them.  With graphs drawn per seed the ladder's cost varied by up to a
    quarter, and relabeling a graph while keeping its split pairs (which
    keeps zc) still moved a rung's cost by up to 15% from sweep to sweep.
    A cache keyed by these inputs would therefore hit across sweeps;
    spisep has none."""

    name = "forcing-ladder"
    why = (
        "zc_minimum_set with the split coupling, n = 16..20 at densities 0.3 and 0.6: "
        "zero_forcing does nearly all the work and its cost grows with zc"
    )
    calibration = "python"

    def __init__(self, rungs=FORCING_RUNGS, pins=FORCING_PINS):
        super().__init__(rungs)
        self.pins = pins

    def make_rung(self, index, shape_rng, rng):
        n, density = self.rungs[index]
        G = random_pattern(n, density, shape_rng)
        pin = None if self.pins is None else self.pins[index]
        return CoupledGraph(G, graphs.split_coupling(n)), pin

    def run_rung(self, caller, rung):
        CG, _ = rung
        return caller.call(
            "zero_forcing.zc_minimum_set", CG.graph.order, zero_forcing.zc_minimum_set, CG
        )

    def check_rung(self, rung, zset):
        CG, pin = rung
        G = CG.graph
        probs = checks.forcing_set_problems(G.order, G.edges, CG.coupling.pairs, zset)
        if pin is not None and len(zset) != pin:
            probs.append(f"zc {len(zset)} at n = {G.order} differs from pinned {pin}")
        return probs

    def notes(self, rungs, outs):
        return {"zc": [len(z) for z in outs]}


class RealizeLadder(Ladder):
    """The same inputs for every seed and sweep.  The continuation's cost
    swings up to 2x with its start and with relabelings of one pattern
    (2.3 to 4.5 s at n = 40), so any input that varies makes the ladder's
    timings vary more than a useful bound.  A cache keyed by these inputs
    would therefore hit across sweeps; spisep has none."""

    name = "realize-ladder"
    why = (
        "continuation_realize on 0.35-density patterns, n = 20..40, distinct targets in "
        "[0.5, 3]: the continuation layer alone; no sssp oracle or zero_forcing runs"
    )
    calibration = "python"

    def __init__(self, sizes=(20, 30, 40)):
        super().__init__(sizes)

    def make_rung(self, index, shape_rng, rng):
        n = self.rungs[index]
        G = random_pattern(n, REALIZE_DENSITY, shape_rng)
        return n, G, distinct_targets(n // 2, shape_rng), (DEFAULT_SEED, n)

    def run_rung(self, caller, rung):
        n, G, target, rng_seed = rung
        rng = np.random.default_rng(rng_seed)
        return caller.call(
            "sssp.continuation_realize", n, sssp.continuation_realize, G, target, rng=rng
        )

    def check_rung(self, rung, N):
        _, G, target, _ = rung
        return checks.realization_problems(N, G.edges, target)


def make(name: str):
    """The workload of that name at its full size."""
    return {w.name: w for w in (Atlas6, SsspLadder, ForcingLadder, RealizeLadder)}[name]()

